//! Reverse-mode automatic differentiation on a linear tape.
//!
//! Each mini-batch records its computation on a [`Tape`] and calls
//! [`Tape::backward`], which accumulates parameter gradients into the
//! [`ParamStore`]; [`Tape::reset`] then recycles the node arena *and*
//! every value buffer, so a tape reused across batches stops allocating
//! once shapes stabilize. Dense algebra runs on the blocked [`gemm`]
//! kernels, whose fixed per-row accumulation order makes a batched
//! `(B, d)` forward bit-identical to `B` row-wise passes. The op set is
//! exactly what the paper's six deep models need: dense algebra,
//! attention (matmul/transpose/softmax), normalization, embeddings, small
//! convolutions, the ECA channel-attention pieces, and the batched loss head
//! ([`Tape::stack_rows`] + [`Tape::bce_with_logits_batch_scaled`]).
//!
//! Gradient correctness is validated against central finite differences in
//! the test module — every op is covered by at least one composite check.

use crate::kernels;
use crate::params::{GradBuffer, ParamId, ParamStore};
use crate::tensor::Tensor;
use phishinghook_linalg::gemm;
use phishinghook_linalg::transcend::{self, map_in_place, sigmoid};

/// Handle to a node (intermediate value) on a tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Add(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, #[allow(dead_code)] f32),
    MatMul(Var, Var),
    Transpose(Var),
    Relu(Var),
    Gelu(Var),
    Silu(Var),
    Sigmoid(Var),
    Tanh(Var),
    SoftmaxRows(Var),
    LayerNormRows {
        x: Var,
        gamma: Var,
        beta: Var,
    },
    Embedding {
        table: Var,
        ids: Vec<u32>,
    },
    MeanRows(Var),
    AddBias {
        x: Var,
        bias: Var,
    },
    ConcatRows(Var, Var),
    ConcatCols(Var, Var),
    RowAt(Var, usize),
    StackRows(Vec<Var>),
    BceWithLogit {
        logit: Var,
        target: f32,
    },
    BceWithLogitsBatch {
        logits: Var,
        targets: Vec<f32>,
        denom: f32,
    },
    Conv2d {
        x: Var,
        w: Var,
        b: Var,
        stride: usize,
        pad: usize,
        groups: usize,
    },
    ChannelNorm {
        x: Var,
        gamma: Var,
        beta: Var,
    },
    GlobalAvgPool(Var),
    Conv1dSame {
        x: Var,
        w: Var,
    },
    ScaleChannels {
        x: Var,
        s: Var,
    },
}

struct Node {
    value: Tensor,
    op: Op,
    param: Option<ParamId>,
    /// Cached auxiliary values some backwards need (e.g. normalized x̂).
    aux: Option<Tensor>,
}

/// A gradient tape: records a computation, then differentiates it.
///
/// # Examples
///
/// ```
/// use phishinghook_nn::{ParamStore, Tape, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.param(Tensor::from_vec(&[1, 1], vec![2.0]));
/// let mut tape = Tape::new();
/// let wv = tape.param(&store, w);
/// let x = tape.input(Tensor::from_vec(&[1, 1], vec![3.0]));
/// let y = tape.matmul(wv, x); // y = 6
/// let loss = tape.bce_with_logit(y, 1.0);
/// tape.backward(loss, &mut store);
/// assert!(store.grad(w).data()[0] < 0.0); // push the logit up
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Recycled `f32` buffers harvested by [`Tape::reset`]; ops draw from
    /// here before touching the allocator, so a tape reused across
    /// mini-batches reaches a steady state with zero value allocations.
    pool: Vec<Vec<f32>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Clears the recorded graph while keeping the node arena *and* every
    /// value buffer for reuse: buffers are harvested in reverse creation
    /// order, so the next identically-shaped recording pops them back in
    /// creation order with no reallocation. A reused tape's *forward*
    /// passes stop allocating value buffers once shapes stabilize
    /// ([`Tape::backward`] still allocates its gradient buffers per run);
    /// this is the arena behind one-tape-per-mini-batch training.
    pub fn reset(&mut self) {
        let Tape { nodes, pool } = self;
        for node in nodes.drain(..).rev() {
            if let Some(aux) = node.aux {
                pool.push(aux.into_data());
            }
            pool.push(node.value.into_data());
        }
    }

    /// A zero-filled buffer of length `n`, recycled from the arena when
    /// possible — for ops that *accumulate* into their output.
    fn grab(&mut self, n: usize) -> Vec<f32> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v.resize(n, 0.0);
        v
    }

    /// A length-`n` buffer whose contents are unspecified (stale values
    /// from a previous node are possible) — only for ops that fully
    /// overwrite every element, which skips the redundant zero-fill
    /// `grab` would pay before the kernel overwrites it again.
    fn grab_dirty(&mut self, n: usize) -> Vec<f32> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.resize(n, 0.0);
        v
    }

    /// An empty buffer with capacity for `n` elements, recycled from the
    /// arena when possible.
    fn grab_empty(&mut self, n: usize) -> Vec<f32> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v.reserve(n);
        v
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.push_aux(value, op, None)
    }

    fn push_aux(&mut self, value: Tensor, op: Op, aux: Option<Tensor>) -> Var {
        self.nodes.push(Node {
            value,
            op,
            param: None,
            aux,
        });
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Records a constant input (no gradient).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Records a parameter leaf (its gradient flows into the store).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let src = store.value(id);
        let shape = src.shape().to_vec();
        let mut data = self.grab_empty(src.len());
        data.extend_from_slice(src.data());
        let v = self.push(Tensor::from_vec(&shape, data), Op::Leaf);
        self.nodes[v.0].param = Some(id);
        v
    }

    // -- elementwise ------------------------------------------------------

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "add shape mismatch");
        let shape = ta.shape().to_vec();
        let mut data = self.grab_empty(shape.iter().product());
        {
            let (ta, tb) = (self.nodes[a.0].value.data(), self.nodes[b.0].value.data());
            data.extend(ta.iter().zip(tb).map(|(x, y)| x + y));
        }
        self.push(Tensor::from_vec(&shape, data), Op::Add(a, b))
    }

    /// Elementwise product (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "mul shape mismatch");
        let shape = ta.shape().to_vec();
        let mut data = self.grab_empty(shape.iter().product());
        {
            let (ta, tb) = (self.nodes[a.0].value.data(), self.nodes[b.0].value.data());
            data.extend(ta.iter().zip(tb).map(|(x, y)| x * y));
        }
        self.push(Tensor::from_vec(&shape, data), Op::Mul(a, b))
    }

    /// Multiplies by a constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let t = self.map(a, |x| x * c);
        self.push(t, Op::Scale(a, c))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let t = self.map(a, |x| x + c);
        self.push(t, Op::AddScalar(a, c))
    }

    // -- dense algebra ----------------------------------------------------

    /// 2-D matrix product through the blocked [`gemm`] kernel. Per output
    /// element the accumulation order is fixed (increasing `k`), so a row's
    /// result is bit-identical whether it is multiplied alone or inside a batch
    /// — the foundation of the batched-vs-rowwise parity guarantee.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.nodes[a.0].value.dims2();
        let (k2, n) = self.nodes[b.0].value.dims2();
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        let mut out = self.grab_dirty(m * n);
        gemm::matmul_into(
            m,
            k,
            n,
            self.nodes[a.0].value.data(),
            self.nodes[b.0].value.data(),
            &mut out,
        );
        self.push(Tensor::from_vec(&[m, n], out), Op::MatMul(a, b))
    }

    /// 2-D transpose (tiled kernel, pooled output buffer).
    pub fn transpose(&mut self, a: Var) -> Var {
        let (m, n) = self.nodes[a.0].value.dims2();
        let mut out = self.grab_dirty(m * n);
        gemm::transpose_into(m, n, self.nodes[a.0].value.data(), &mut out);
        self.push(Tensor::from_vec(&[n, m], out), Op::Transpose(a))
    }

    /// Adds a `(d)` bias to every row of an `(l, d)` matrix (row
    /// broadcast — the batched dense layers lean on this for `(B, d)`
    /// activations).
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let (l, d) = self.nodes[x.0].value.dims2();
        assert_eq!(self.nodes[bias.0].value.len(), d, "bias width mismatch");
        let mut out = self.grab_empty(l * d);
        out.extend_from_slice(self.nodes[x.0].value.data());
        kernels::add_bias_rows(&mut out, self.nodes[bias.0].value.data());
        self.push(Tensor::from_vec(&[l, d], out), Op::AddBias { x, bias })
    }

    /// Vertical concatenation of `(la, d)` and `(lb, d)`.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (la, da) = self.nodes[a.0].value.dims2();
        let (lb, db) = self.nodes[b.0].value.dims2();
        assert_eq!(da, db, "concat_rows width mismatch");
        let mut data = self.grab_empty((la + lb) * da);
        data.extend_from_slice(self.nodes[a.0].value.data());
        data.extend_from_slice(self.nodes[b.0].value.data());
        self.push(Tensor::from_vec(&[la + lb, da], data), Op::ConcatRows(a, b))
    }

    /// Vertical concatenation of any number of equal-width matrices — the
    /// batched trainer stacks per-sample `(1, 1)` logits into the `(B, 1)`
    /// logit column with one node instead of a pairwise concat chain.
    ///
    /// # Panics
    ///
    /// Panics on an empty part list or mismatched widths.
    pub fn stack_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "stack_rows of no parts");
        let (_, d) = self.nodes[parts[0].0].value.dims2();
        let total: usize = parts
            .iter()
            .map(|p| {
                let (l, dp) = self.nodes[p.0].value.dims2();
                assert_eq!(dp, d, "stack_rows width mismatch");
                l
            })
            .sum();
        let mut data = self.grab_empty(total * d);
        for p in parts {
            data.extend_from_slice(self.nodes[p.0].value.data());
        }
        self.push(
            Tensor::from_vec(&[total, d], data),
            Op::StackRows(parts.to_vec()),
        )
    }

    /// Horizontal concatenation of `(l, da)` and `(l, db)`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (la, da) = self.nodes[a.0].value.dims2();
        let (lb, db) = self.nodes[b.0].value.dims2();
        assert_eq!(la, lb, "concat_cols height mismatch");
        let mut data = self.grab_empty(la * (da + db));
        for i in 0..la {
            data.extend_from_slice(&self.nodes[a.0].value.data()[i * da..(i + 1) * da]);
            data.extend_from_slice(&self.nodes[b.0].value.data()[i * db..(i + 1) * db]);
        }
        self.push(Tensor::from_vec(&[la, da + db], data), Op::ConcatCols(a, b))
    }

    /// Extracts row `idx` of an `(l, d)` matrix as a `(1, d)` matrix.
    pub fn row_at(&mut self, x: Var, idx: usize) -> Var {
        let (l, d) = self.nodes[x.0].value.dims2();
        assert!(idx < l, "row index out of range");
        let mut data = self.grab_empty(d);
        data.extend_from_slice(&self.nodes[x.0].value.data()[idx * d..(idx + 1) * d]);
        self.push(Tensor::from_vec(&[1, d], data), Op::RowAt(x, idx))
    }

    /// Mean over rows: `(l, d)` → `(1, d)`.
    pub fn mean_rows(&mut self, x: Var) -> Var {
        let (_, d) = self.nodes[x.0].value.dims2();
        let mut out = self.grab(d);
        kernels::mean_rows(self.nodes[x.0].value.data(), &mut out);
        self.push(Tensor::from_vec(&[1, d], out), Op::MeanRows(x))
    }

    // -- activations ------------------------------------------------------

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let t = self.map(a, |x| x.max(0.0));
        self.push(t, Op::Relu(a))
    }

    /// GELU (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let t = self.map_simd(a, kernels::gelu);
        self.push(t, Op::Gelu(a))
    }

    /// SiLU / swish.
    pub fn silu(&mut self, a: Var) -> Var {
        let t = self.map_simd(a, |x| x * sigmoid(x));
        self.push(t, Op::Silu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t = self.map_simd(a, sigmoid);
        self.push(t, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let t = self.map_simd(a, transcend::tanh);
        self.push(t, Op::Tanh(a))
    }

    /// `f` of every element of `a`'s value, in one pass into a pooled
    /// buffer.
    fn map(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let shape = self.nodes[a.0].value.shape().to_vec();
        let mut data = self.grab_empty(shape.iter().product());
        data.extend(self.nodes[a.0].value.data().iter().map(|&x| f(x)));
        Tensor::from_vec(&shape, data)
    }

    /// [`Tape::map`] for the transcendental ops, through the
    /// SIMD-dispatched [`map_in_place`]: the same bits, vectorized.
    fn map_simd(&mut self, a: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let shape = self.nodes[a.0].value.shape().to_vec();
        let mut data = self.grab_empty(shape.iter().product());
        data.extend_from_slice(self.nodes[a.0].value.data());
        map_in_place(&mut data, f);
        Tensor::from_vec(&shape, data)
    }

    // -- normalization / softmax -----------------------------------------

    /// Row-wise softmax of an `(l, d)` matrix.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let (l, d) = self.nodes[a.0].value.dims2();
        let mut out = self.grab_empty(l * d);
        out.extend_from_slice(self.nodes[a.0].value.data());
        kernels::softmax_rows_in_place(&mut out, std::iter::repeat_n(d, l));
        self.push(Tensor::from_vec(&[l, d], out), Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalization with learned `(d)` gain and offset.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let (l, d) = self.nodes[x.0].value.dims2();
        let mut out = self.grab_dirty(l * d);
        let mut xhat = self.grab_dirty(l * d);
        let tx = self.nodes[x.0].value.data();
        let tg = self.nodes[gamma.0].value.data();
        let tb = self.nodes[beta.0].value.data();
        for ((row, o), h) in tx
            .chunks_exact(d)
            .zip(out.chunks_exact_mut(d))
            .zip(xhat.chunks_exact_mut(d))
        {
            kernels::layer_norm_row(row, tg, tb, o, Some(h));
        }
        self.push_aux(
            Tensor::from_vec(&[l, d], out),
            Op::LayerNormRows { x, gamma, beta },
            Some(Tensor::from_vec(&[l, d], xhat)),
        )
    }

    // -- embeddings -------------------------------------------------------

    /// Gathers rows of a `(v, d)` table: output `(ids.len(), d)`.
    pub fn embedding(&mut self, table: Var, ids: &[u32]) -> Var {
        let (v, d) = self.nodes[table.0].value.dims2();
        let mut out = self.grab_empty(ids.len() * d);
        let tt = self.nodes[table.0].value.data();
        for &id in ids {
            let id = (id as usize).min(v - 1);
            out.extend_from_slice(&tt[id * d..(id + 1) * d]);
        }
        self.push(
            Tensor::from_vec(&[ids.len(), d], out),
            Op::Embedding {
                table,
                ids: ids.to_vec(),
            },
        )
    }

    // -- loss ---------------------------------------------------------------

    /// Binary cross-entropy over a single logit (a `(1, 1)` or 1-element
    /// tensor) against a 0/1 target. Returns a scalar loss node.
    pub fn bce_with_logit(&mut self, logit: Var, target: f32) -> Var {
        assert_eq!(self.nodes[logit.0].value.len(), 1, "expected one logit");
        let z = self.nodes[logit.0].value.data()[0];
        // Numerically stable: max(z,0) - z t + ln(1 + e^{-|z|}).
        let loss = z.max(0.0) - z * target + (1.0 + transcend::exp(-z.abs())).ln();
        self.push(Tensor::scalar(loss), Op::BceWithLogit { logit, target })
    }

    /// Binary cross-entropy over a `(B, 1)` logit column against one 0/1
    /// target per row, reduced to `Σ per-sample loss / denom` — the
    /// one-node loss head of the batched trainer. The per-sample losses
    /// are summed in row order and divided once, so the reduction order is
    /// fixed regardless of how the batch was assembled, and each logit's
    /// gradient is `(σ(z) − t)/denom`. The data-parallel trainer records
    /// one of these per **shard** with `denom = B` (the full mini-batch
    /// size), so shard losses and gradients sum to exactly the whole-batch
    /// mean — same optimization semantics, shard by shard.
    ///
    /// # Panics
    ///
    /// Panics if the logit count and target count disagree, or `denom`
    /// is zero.
    pub fn bce_with_logits_batch_scaled(
        &mut self,
        logits: Var,
        targets: &[f32],
        denom: usize,
    ) -> Var {
        let n = self.nodes[logits.0].value.len();
        assert_eq!(n, targets.len(), "logit/target count mismatch");
        assert!(denom > 0, "bce denominator must be positive");
        let denom = denom as f32;
        let zs = self.nodes[logits.0].value.data();
        let mut sum = 0.0f32;
        for (&z, &t) in zs.iter().zip(targets) {
            sum += z.max(0.0) - z * t + (1.0 + transcend::exp(-z.abs())).ln();
        }
        self.push(
            Tensor::scalar(sum / denom),
            Op::BceWithLogitsBatch {
                logits,
                targets: targets.to_vec(),
                denom,
            },
        )
    }

    // -- convolution / CNN pieces ----------------------------------------

    /// Grouped 2-D convolution: `x (c, h, w)`, `w (o, c/groups, kh, kw)`,
    /// `b (o)` → `(o, h', w')`.
    pub fn conv2d(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Var {
        let xs = self.nodes[x.0].value.shape().to_vec();
        let ws = self.nodes[w.0].value.shape().to_vec();
        assert_eq!(xs.len(), 3, "conv2d input must be (c, h, w)");
        assert_eq!(ws.len(), 4, "conv2d weight must be (o, c/g, kh, kw)");
        let (c, h, wdt) = (xs[0], xs[1], xs[2]);
        let (o, cg, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        assert_eq!(c / groups, cg, "conv2d channel/group mismatch");
        assert_eq!(o % groups, 0, "conv2d out-channel/group mismatch");
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (wdt + 2 * pad - kw) / stride + 1;
        let mut out = self.grab_dirty(o * oh * ow);
        let tx = self.nodes[x.0].value.data();
        let tw = self.nodes[w.0].value.data();
        let tb = self.nodes[b.0].value.data();
        let o_per_g = o / groups;
        for oc in 0..o {
            let g = oc / o_per_g;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = tb[oc];
                    for ic in 0..cg {
                        let c_in = g * cg + ic;
                        for ky in 0..kh {
                            let iy = oy * stride + ky;
                            if iy < pad || iy - pad >= h {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = ox * stride + kx;
                                if ix < pad || ix - pad >= wdt {
                                    continue;
                                }
                                acc += tx[c_in * h * wdt + (iy - pad) * wdt + (ix - pad)]
                                    * tw[oc * cg * kh * kw + ic * kh * kw + ky * kw + kx];
                            }
                        }
                    }
                    out[oc * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        self.push(
            Tensor::from_vec(&[o, oh, ow], out),
            Op::Conv2d {
                x,
                w,
                b,
                stride,
                pad,
                groups,
            },
        )
    }

    /// Per-channel (instance) normalization of a `(c, h, w)` tensor with
    /// learned `(c)` gain/offset.
    pub fn channel_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        const EPS: f32 = 1e-5;
        let xs = self.nodes[x.0].value.shape().to_vec();
        let (c, h, w) = (xs[0], xs[1], xs[2]);
        let hw = h * w;
        let mut out = self.grab_dirty(c * hw);
        let mut xhat = self.grab_dirty(c * hw);
        let tx = self.nodes[x.0].value.data();
        let tg = self.nodes[gamma.0].value.data();
        let tb = self.nodes[beta.0].value.data();
        for ch in 0..c {
            let plane = &tx[ch * hw..(ch + 1) * hw];
            let mean: f32 = plane.iter().sum::<f32>() / hw as f32;
            let var: f32 = plane.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / hw as f32;
            let inv = 1.0 / (var + EPS).sqrt();
            for i in 0..hw {
                let hv = (plane[i] - mean) * inv;
                xhat[ch * hw + i] = hv;
                out[ch * hw + i] = hv * tg[ch] + tb[ch];
            }
        }
        self.push_aux(
            Tensor::from_vec(&[c, h, w], out),
            Op::ChannelNorm { x, gamma, beta },
            Some(Tensor::from_vec(&[c, h, w], xhat)),
        )
    }

    /// Global average pooling `(c, h, w)` → `(1, c)`.
    pub fn global_avg_pool(&mut self, x: Var) -> Var {
        let xs = self.nodes[x.0].value.shape().to_vec();
        let (c, h, w) = (xs[0], xs[1], xs[2]);
        let hw = h * w;
        let tx = self.nodes[x.0].value.data();
        let out: Vec<f32> = (0..c)
            .map(|ch| tx[ch * hw..(ch + 1) * hw].iter().sum::<f32>() / hw as f32)
            .collect();
        self.push(Tensor::from_vec(&[1, c], out), Op::GlobalAvgPool(x))
    }

    /// Same-padded 1-D convolution along a `(1, c)` vector with a `(k)`
    /// kernel (ECA's channel attention).
    pub fn conv1d_same(&mut self, x: Var, w: Var) -> Var {
        let (_, c) = self.nodes[x.0].value.dims2();
        let k = self.nodes[w.0].value.len();
        assert!(k % 2 == 1, "conv1d_same kernel must be odd");
        let half = k / 2;
        let mut out = self.grab_dirty(c);
        let tx = self.nodes[x.0].value.data();
        let tw = self.nodes[w.0].value.data();
        #[allow(clippy::needless_range_loop)] // i indexes out and the conv window
        for i in 0..c {
            let mut acc = 0.0;
            for j in 0..k {
                let idx = i as isize + j as isize - half as isize;
                if idx >= 0 && (idx as usize) < c {
                    acc += tx[idx as usize] * tw[j];
                }
            }
            out[i] = acc;
        }
        self.push(Tensor::from_vec(&[1, c], out), Op::Conv1dSame { x, w })
    }

    /// Scales each channel plane of `(c, h, w)` by the matching entry of a
    /// `(1, c)` vector.
    pub fn scale_channels(&mut self, x: Var, s: Var) -> Var {
        let xs = self.nodes[x.0].value.shape().to_vec();
        let (c, h, w) = (xs[0], xs[1], xs[2]);
        assert_eq!(self.nodes[s.0].value.len(), c, "scale width mismatch");
        let hw = h * w;
        let mut out = self.grab_dirty(c * hw);
        let tx = self.nodes[x.0].value.data();
        let ts = self.nodes[s.0].value.data();
        for ch in 0..c {
            for i in 0..hw {
                out[ch * hw + i] = tx[ch * hw + i] * ts[ch];
            }
        }
        self.push(
            Tensor::from_vec(&[c, h, w], out),
            Op::ScaleChannels { x, s },
        )
    }

    // -- backward ----------------------------------------------------------

    /// Runs reverse-mode differentiation from `loss` (which must be a
    /// 1-element tensor) and accumulates parameter gradients into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar-like.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        self.backward_impl(loss, &mut |id, g| store.accumulate_grad(id, g));
    }

    /// [`Tape::backward`] into a detached [`GradBuffer`] instead of the
    /// store — the per-shard sink of the data-parallel trainer: worker
    /// threads differentiate their shard into a private buffer and the
    /// caller folds the buffers into the store in shard order, keeping the
    /// gradient reduction order (and so every fitted bit) independent of
    /// the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar-like or `buf` came from a
    /// differently-shaped store.
    pub fn backward_into(&mut self, loss: Var, buf: &mut GradBuffer) {
        self.backward_impl(loss, &mut |id, g| buf.accumulate(id, g));
    }

    fn backward_impl(&mut self, loss: Var, sink: &mut dyn FnMut(ParamId, &Tensor)) {
        assert_eq!(self.nodes[loss.0].value.len(), 1, "loss must be scalar");
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::from_vec(
            self.nodes[loss.0].value.shape(),
            vec![1.0],
        ));

        for i in (0..n).rev() {
            let Some(g) = grads[i].take() else { continue };
            // Hand leaf gradients to the sink (store or shard buffer).
            if let Some(pid) = self.nodes[i].param {
                sink(pid, &g);
            }
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    self.add_grad(&mut grads, a, g.clone());
                    self.add_grad(&mut grads, b, g);
                }
                Op::Mul(a, b) => {
                    let ga = self.ew(&g, self.nodes[b.0].value.data());
                    let gb = self.ew(&g, self.nodes[a.0].value.data());
                    self.add_grad(&mut grads, a, ga);
                    self.add_grad(&mut grads, b, gb);
                }
                Op::Scale(a, c) => {
                    let mut ga = g;
                    for v in ga.data_mut() {
                        *v *= c;
                    }
                    self.add_grad(&mut grads, a, ga);
                }
                Op::AddScalar(a, _) => self.add_grad(&mut grads, a, g),
                Op::MatMul(a, b) => {
                    let (m, k) = self.nodes[a.0].value.dims2();
                    let (_, nn) = self.nodes[b.0].value.dims2();
                    // dA = dC Bᵀ, dB = Aᵀ dC — both through the blocked
                    // kernel, with the operand transposes staged in pooled
                    // buffers that go straight back to the arena.
                    let mut bt = self.grab_dirty(k * nn);
                    gemm::transpose_into(k, nn, self.nodes[b.0].value.data(), &mut bt);
                    let mut ga = self.grab_dirty(m * k);
                    gemm::matmul_into(m, nn, k, g.data(), &bt, &mut ga);
                    self.pool.push(bt);
                    let mut at = self.grab_dirty(m * k);
                    gemm::transpose_into(m, k, self.nodes[a.0].value.data(), &mut at);
                    let mut gb = self.grab_dirty(k * nn);
                    gemm::matmul_into(k, m, nn, &at, g.data(), &mut gb);
                    self.pool.push(at);
                    self.add_grad(&mut grads, a, Tensor::from_vec(&[m, k], ga));
                    self.add_grad(&mut grads, b, Tensor::from_vec(&[k, nn], gb));
                }
                Op::Transpose(a) => {
                    let (m, nn) = self.nodes[a.0].value.dims2();
                    let gd = g.data();
                    let mut ga = vec![0.0f32; m * nn];
                    for i2 in 0..m {
                        for j in 0..nn {
                            ga[i2 * nn + j] = gd[j * m + i2];
                        }
                    }
                    self.add_grad(&mut grads, a, Tensor::from_vec(&[m, nn], ga));
                }
                Op::Relu(a) => {
                    let mask: Vec<f32> = self.nodes[a.0]
                        .value
                        .data()
                        .iter()
                        .map(|&x| if x > 0.0 { 1.0 } else { 0.0 })
                        .collect();
                    let ga = self.ew(&g, &mask);
                    self.add_grad(&mut grads, a, ga);
                }
                Op::Gelu(a) => {
                    let mut der = self.nodes[a.0].value.data().to_vec();
                    map_in_place(&mut der, kernels::gelu_grad);
                    let ga = self.ew(&g, &der);
                    self.add_grad(&mut grads, a, ga);
                }
                Op::Silu(a) => {
                    let der: Vec<f32> = self.nodes[a.0]
                        .value
                        .data()
                        .iter()
                        .map(|&x| {
                            let s = sigmoid(x);
                            s + x * s * (1.0 - s)
                        })
                        .collect();
                    let ga = self.ew(&g, &der);
                    self.add_grad(&mut grads, a, ga);
                }
                Op::Sigmoid(a) => {
                    let der: Vec<f32> = self.nodes[i]
                        .value
                        .data()
                        .iter()
                        .map(|&y| y * (1.0 - y))
                        .collect();
                    let ga = self.ew(&g, &der);
                    self.add_grad(&mut grads, a, ga);
                }
                Op::Tanh(a) => {
                    let der: Vec<f32> = self.nodes[i]
                        .value
                        .data()
                        .iter()
                        .map(|&y| 1.0 - y * y)
                        .collect();
                    let ga = self.ew(&g, &der);
                    self.add_grad(&mut grads, a, ga);
                }
                Op::SoftmaxRows(a) => {
                    let (l, d) = self.nodes[i].value.dims2();
                    let y = self.nodes[i].value.data();
                    let gd = g.data();
                    let mut ga = vec![0.0f32; l * d];
                    for r in 0..l {
                        let yrow = &y[r * d..(r + 1) * d];
                        let grow = &gd[r * d..(r + 1) * d];
                        let dot: f32 = yrow.iter().zip(grow).map(|(a2, b2)| a2 * b2).sum();
                        for j in 0..d {
                            ga[r * d + j] = yrow[j] * (grow[j] - dot);
                        }
                    }
                    self.add_grad(&mut grads, a, Tensor::from_vec(&[l, d], ga));
                }
                Op::LayerNormRows { x, gamma, beta } => {
                    const EPS: f32 = 1e-5;
                    let (l, d) = self.nodes[x.0].value.dims2();
                    let xhat = self.nodes[i]
                        .aux
                        .as_ref()
                        .expect("layernorm aux")
                        .data()
                        .to_vec();
                    let tg = self.nodes[gamma.0].value.data().to_vec();
                    let tx = self.nodes[x.0].value.data().to_vec();
                    let gd = g.data();
                    let mut gx = vec![0.0f32; l * d];
                    let mut gg = vec![0.0f32; d];
                    let mut gb = vec![0.0f32; d];
                    for r in 0..l {
                        let row = &tx[r * d..(r + 1) * d];
                        let mean: f32 = row.iter().sum::<f32>() / d as f32;
                        let var: f32 =
                            row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                        let inv = 1.0 / (var + EPS).sqrt();
                        let mut sum_gh = 0.0f32;
                        let mut sum_ghx = 0.0f32;
                        for j in 0..d {
                            let gh = gd[r * d + j] * tg[j];
                            sum_gh += gh;
                            sum_ghx += gh * xhat[r * d + j];
                            gg[j] += gd[r * d + j] * xhat[r * d + j];
                            gb[j] += gd[r * d + j];
                        }
                        for j in 0..d {
                            let gh = gd[r * d + j] * tg[j];
                            gx[r * d + j] = inv / d as f32
                                * (d as f32 * gh - sum_gh - xhat[r * d + j] * sum_ghx);
                        }
                    }
                    self.add_grad(&mut grads, x, Tensor::from_vec(&[l, d], gx));
                    self.add_grad(&mut grads, gamma, Tensor::from_vec(&[d], gg));
                    self.add_grad(&mut grads, beta, Tensor::from_vec(&[d], gb));
                }
                Op::Embedding { table, ids } => {
                    let (v, d) = self.nodes[table.0].value.dims2();
                    let gd = g.data();
                    let mut gt = vec![0.0f32; v * d];
                    for (k, &id) in ids.iter().enumerate() {
                        let id = (id as usize).min(v - 1);
                        for j in 0..d {
                            gt[id * d + j] += gd[k * d + j];
                        }
                    }
                    self.add_grad(&mut grads, table, Tensor::from_vec(&[v, d], gt));
                }
                Op::MeanRows(a) => {
                    let (l, d) = self.nodes[a.0].value.dims2();
                    let gd = g.data();
                    let mut ga = vec![0.0f32; l * d];
                    for r in 0..l {
                        for j in 0..d {
                            ga[r * d + j] = gd[j] / l as f32;
                        }
                    }
                    self.add_grad(&mut grads, a, Tensor::from_vec(&[l, d], ga));
                }
                Op::AddBias { x, bias } => {
                    let (l, d) = self.nodes[x.0].value.dims2();
                    let gd = g.data();
                    let mut gb = vec![0.0f32; d];
                    for r in 0..l {
                        for j in 0..d {
                            gb[j] += gd[r * d + j];
                        }
                    }
                    self.add_grad(&mut grads, x, g.clone());
                    self.add_grad(&mut grads, bias, Tensor::from_vec(&[d], gb));
                }
                Op::ConcatRows(a, b) => {
                    let (la, d) = self.nodes[a.0].value.dims2();
                    let (lb, _) = self.nodes[b.0].value.dims2();
                    let gd = g.data();
                    let ga = Tensor::from_vec(&[la, d], gd[..la * d].to_vec());
                    let gb = Tensor::from_vec(&[lb, d], gd[la * d..].to_vec());
                    self.add_grad(&mut grads, a, ga);
                    self.add_grad(&mut grads, b, gb);
                }
                Op::ConcatCols(a, b) => {
                    let (l, da) = self.nodes[a.0].value.dims2();
                    let (_, db) = self.nodes[b.0].value.dims2();
                    let gd = g.data();
                    let mut ga = vec![0.0f32; l * da];
                    let mut gb = vec![0.0f32; l * db];
                    for r in 0..l {
                        ga[r * da..(r + 1) * da]
                            .copy_from_slice(&gd[r * (da + db)..r * (da + db) + da]);
                        gb[r * db..(r + 1) * db]
                            .copy_from_slice(&gd[r * (da + db) + da..(r + 1) * (da + db)]);
                    }
                    self.add_grad(&mut grads, a, Tensor::from_vec(&[l, da], ga));
                    self.add_grad(&mut grads, b, Tensor::from_vec(&[l, db], gb));
                }
                Op::RowAt(a, idx) => {
                    let (l, d) = self.nodes[a.0].value.dims2();
                    let mut ga = vec![0.0f32; l * d];
                    ga[idx * d..(idx + 1) * d].copy_from_slice(g.data());
                    self.add_grad(&mut grads, a, Tensor::from_vec(&[l, d], ga));
                }
                Op::StackRows(parts) => {
                    let (_, d) = self.nodes[i].value.dims2();
                    let gd = g.data();
                    let mut off = 0;
                    for p in parts {
                        let (lp, _) = self.nodes[p.0].value.dims2();
                        let gp = Tensor::from_vec(&[lp, d], gd[off..off + lp * d].to_vec());
                        off += lp * d;
                        self.add_grad(&mut grads, p, gp);
                    }
                }
                Op::BceWithLogit { logit, target } => {
                    let z = self.nodes[logit.0].value.data()[0];
                    let dz = (sigmoid(z) - target) * g.data()[0];
                    let ga = Tensor::from_vec(self.nodes[logit.0].value.shape(), vec![dz]);
                    self.add_grad(&mut grads, logit, ga);
                }
                Op::BceWithLogitsBatch {
                    logits,
                    targets,
                    denom,
                } => {
                    let go = g.data()[0];
                    let zs = self.nodes[logits.0].value.data();
                    let data: Vec<f32> = zs
                        .iter()
                        .zip(&targets)
                        .map(|(&z, &t)| (sigmoid(z) - t) / denom * go)
                        .collect();
                    let shape = self.nodes[logits.0].value.shape().to_vec();
                    self.add_grad(&mut grads, logits, Tensor::from_vec(&shape, data));
                }
                Op::Conv2d {
                    x,
                    w,
                    b,
                    stride,
                    pad,
                    groups,
                } => {
                    let xs = self.nodes[x.0].value.shape().to_vec();
                    let ws = self.nodes[w.0].value.shape().to_vec();
                    let (c, h, wdt) = (xs[0], xs[1], xs[2]);
                    let (o, cg, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
                    let os = self.nodes[i].value.shape().to_vec();
                    let (oh, ow) = (os[1], os[2]);
                    let gd = g.data();
                    let tx = self.nodes[x.0].value.data();
                    let tw = self.nodes[w.0].value.data();
                    let mut gx = vec![0.0f32; c * h * wdt];
                    let mut gw = vec![0.0f32; o * cg * kh * kw];
                    let mut gb = vec![0.0f32; o];
                    let o_per_g = o / groups;
                    for oc in 0..o {
                        let gr = oc / o_per_g;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let go = gd[oc * oh * ow + oy * ow + ox];
                                if go == 0.0 {
                                    continue;
                                }
                                gb[oc] += go;
                                for ic in 0..cg {
                                    let c_in = gr * cg + ic;
                                    for ky in 0..kh {
                                        let iy = oy * stride + ky;
                                        if iy < pad || iy - pad >= h {
                                            continue;
                                        }
                                        for kx in 0..kw {
                                            let ix = ox * stride + kx;
                                            if ix < pad || ix - pad >= wdt {
                                                continue;
                                            }
                                            let xi = c_in * h * wdt + (iy - pad) * wdt + (ix - pad);
                                            let wi =
                                                oc * cg * kh * kw + ic * kh * kw + ky * kw + kx;
                                            gx[xi] += go * tw[wi];
                                            gw[wi] += go * tx[xi];
                                        }
                                    }
                                }
                            }
                        }
                    }
                    self.add_grad(&mut grads, x, Tensor::from_vec(&[c, h, wdt], gx));
                    self.add_grad(&mut grads, w, Tensor::from_vec(&[o, cg, kh, kw], gw));
                    self.add_grad(&mut grads, b, Tensor::from_vec(&[o], gb));
                }
                Op::ChannelNorm { x, gamma, beta } => {
                    const EPS: f32 = 1e-5;
                    let xs = self.nodes[x.0].value.shape().to_vec();
                    let (c, h, w) = (xs[0], xs[1], xs[2]);
                    let hw = h * w;
                    let xhat = self.nodes[i]
                        .aux
                        .as_ref()
                        .expect("channelnorm aux")
                        .data()
                        .to_vec();
                    let tg = self.nodes[gamma.0].value.data().to_vec();
                    let tx = self.nodes[x.0].value.data().to_vec();
                    let gd = g.data();
                    let mut gx = vec![0.0f32; c * hw];
                    let mut gg = vec![0.0f32; c];
                    let mut gb = vec![0.0f32; c];
                    for ch in 0..c {
                        let plane = &tx[ch * hw..(ch + 1) * hw];
                        let mean: f32 = plane.iter().sum::<f32>() / hw as f32;
                        let var: f32 =
                            plane.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / hw as f32;
                        let inv = 1.0 / (var + EPS).sqrt();
                        let mut sum_gh = 0.0f32;
                        let mut sum_ghx = 0.0f32;
                        for k in 0..hw {
                            let gh = gd[ch * hw + k] * tg[ch];
                            sum_gh += gh;
                            sum_ghx += gh * xhat[ch * hw + k];
                            gg[ch] += gd[ch * hw + k] * xhat[ch * hw + k];
                            gb[ch] += gd[ch * hw + k];
                        }
                        for k in 0..hw {
                            let gh = gd[ch * hw + k] * tg[ch];
                            gx[ch * hw + k] = inv / hw as f32
                                * (hw as f32 * gh - sum_gh - xhat[ch * hw + k] * sum_ghx);
                        }
                    }
                    self.add_grad(&mut grads, x, Tensor::from_vec(&[c, h, w], gx));
                    self.add_grad(&mut grads, gamma, Tensor::from_vec(&[c], gg));
                    self.add_grad(&mut grads, beta, Tensor::from_vec(&[c], gb));
                }
                Op::GlobalAvgPool(x) => {
                    let xs = self.nodes[x.0].value.shape().to_vec();
                    let (c, h, w) = (xs[0], xs[1], xs[2]);
                    let hw = h * w;
                    let gd = g.data();
                    let mut gx = vec![0.0f32; c * hw];
                    for ch in 0..c {
                        for k in 0..hw {
                            gx[ch * hw + k] = gd[ch] / hw as f32;
                        }
                    }
                    self.add_grad(&mut grads, x, Tensor::from_vec(&[c, h, w], gx));
                }
                Op::Conv1dSame { x, w } => {
                    let (_, c) = self.nodes[x.0].value.dims2();
                    let k = self.nodes[w.0].value.len();
                    let half = k / 2;
                    let gd = g.data();
                    let tx = self.nodes[x.0].value.data();
                    let tw = self.nodes[w.0].value.data();
                    let mut gx = vec![0.0f32; c];
                    let mut gw = vec![0.0f32; k];
                    #[allow(clippy::needless_range_loop)] // i2 indexes gd, gx and tx
                    for i2 in 0..c {
                        for j in 0..k {
                            let idx = i2 as isize + j as isize - half as isize;
                            if idx >= 0 && (idx as usize) < c {
                                gx[idx as usize] += gd[i2] * tw[j];
                                gw[j] += gd[i2] * tx[idx as usize];
                            }
                        }
                    }
                    self.add_grad(&mut grads, x, Tensor::from_vec(&[1, c], gx));
                    self.add_grad(&mut grads, w, Tensor::from_vec(&[k], gw));
                }
                Op::ScaleChannels { x, s } => {
                    let xs = self.nodes[x.0].value.shape().to_vec();
                    let (c, h, w) = (xs[0], xs[1], xs[2]);
                    let hw = h * w;
                    let gd = g.data();
                    let tx = self.nodes[x.0].value.data();
                    let ts = self.nodes[s.0].value.data();
                    let mut gx = vec![0.0f32; c * hw];
                    let mut gs = vec![0.0f32; c];
                    for ch in 0..c {
                        for k in 0..hw {
                            gx[ch * hw + k] = gd[ch * hw + k] * ts[ch];
                            gs[ch] += gd[ch * hw + k] * tx[ch * hw + k];
                        }
                    }
                    self.add_grad(&mut grads, x, Tensor::from_vec(&[c, h, w], gx));
                    self.add_grad(&mut grads, s, Tensor::from_vec(&[1, c], gs));
                }
            }
        }
    }

    fn ew(&self, g: &Tensor, other: &[f32]) -> Tensor {
        Tensor::from_vec(
            g.shape(),
            g.data().iter().zip(other).map(|(a, b)| a * b).collect(),
        )
    }

    fn add_grad(&self, grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
        match &mut grads[v.0] {
            Some(acc) => {
                for (a, b) in acc.data_mut().iter_mut().zip(g.data()) {
                    *a += b;
                }
            }
            slot @ None => *slot = Some(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Central finite-difference check of d(loss)/d(param) for a scalar loss
    /// built by `f` from a parameter of the given shape.
    fn grad_check(shape: &[usize], f: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut store = ParamStore::new();
        let p = store.param(Tensor::random(shape, 0.8, &mut rng));

        // Autodiff gradient.
        let mut tape = Tape::new();
        let pv = tape.param(&store, p);
        let loss = f(&mut tape, pv);
        store.zero_grads();
        tape.backward(loss, &mut store);
        let auto_grad = store.grad(p).data().to_vec();

        // Numerical gradient.
        let eps = 1e-2f32;
        let n = store.value(p).len();
        for i in (0..n).step_by((n / 6).max(1)) {
            let eval = |store: &ParamStore| {
                let mut t = Tape::new();
                let pv = t.param(store, p);
                let l = f(&mut t, pv);
                t.value(l).item()
            };
            let orig = store.value(p).data()[i];
            // +eps
            {
                let mut s2 = ParamStore::new();
                let mut t = store.value(p).clone();
                t.data_mut()[i] = orig + eps;
                let p2 = s2.param(t);
                assert_eq!(p2, p);
                let plus = eval(&s2);
                let mut t = store.value(p).clone();
                t.data_mut()[i] = orig - eps;
                let mut s3 = ParamStore::new();
                s3.param(t);
                let minus = eval(&s3);
                let numeric = (plus - minus) / (2.0 * eps);
                let diff = (numeric - auto_grad[i]).abs();
                let denom = numeric.abs().max(auto_grad[i].abs()).max(1.0);
                assert!(
                    diff / denom < tol,
                    "grad mismatch at {i}: numeric {numeric} vs auto {}",
                    auto_grad[i]
                );
            }
        }
    }

    #[test]
    fn grad_matmul_chain() {
        grad_check(
            &[3, 4],
            |t, p| {
                let x = t.input(Tensor::from_vec(&[1, 3], vec![0.3, -0.5, 0.9]));
                let h = t.matmul(x, p); // (1,4)
                let w2 = t.input(Tensor::from_vec(&[4, 1], vec![0.2, -0.4, 0.6, 0.1]));
                let z = t.matmul(h, w2);
                t.bce_with_logit(z, 1.0)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_softmax_attention_like() {
        grad_check(
            &[4, 4],
            |t, p| {
                let x = t.input(Tensor::from_vec(
                    &[2, 4],
                    vec![0.1, 0.5, -0.2, 0.8, -0.3, 0.2, 0.9, -0.1],
                ));
                let q = t.matmul(x, p);
                let kt = t.transpose(x);
                let s = t.matmul(q, kt);
                let s = t.scale(s, 0.5);
                let a = t.softmax_rows(s);
                let o = t.matmul(a, x);
                let m = t.mean_rows(o);
                let w = t.input(Tensor::from_vec(&[4, 1], vec![1.0, -1.0, 0.5, 0.2]));
                let z = t.matmul(m, w);
                t.bce_with_logit(z, 0.0)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_layernorm() {
        grad_check(
            &[6],
            |t, gamma_init| {
                let x = t.input(Tensor::from_vec(
                    &[2, 6],
                    vec![
                        0.4, -0.8, 1.2, 0.1, -0.6, 0.9, 0.0, 0.3, -0.2, 0.7, 1.1, -0.5,
                    ],
                ));
                let beta = t.input(Tensor::zeros(&[6]));
                let y = t.layer_norm(x, gamma_init, beta);
                let m = t.mean_rows(y);
                let w = t.input(Tensor::from_vec(
                    &[6, 1],
                    vec![0.5, 0.1, -0.3, 0.8, -0.2, 0.4],
                ));
                let z = t.matmul(m, w);
                t.bce_with_logit(z, 1.0)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_layernorm_input() {
        grad_check(
            &[2, 6],
            |t, x| {
                let gamma = t.input(Tensor::from_vec(&[6], vec![1.0, 0.9, 1.1, 0.8, 1.2, 1.0]));
                let beta = t.input(Tensor::zeros(&[6]));
                let y = t.layer_norm(x, gamma, beta);
                let m = t.mean_rows(y);
                let w = t.input(Tensor::from_vec(
                    &[6, 1],
                    vec![0.5, 0.1, -0.3, 0.8, -0.2, 0.4],
                ));
                let z = t.matmul(m, w);
                t.bce_with_logit(z, 1.0)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_embedding_gru_like() {
        grad_check(
            &[5, 3],
            |t, table| {
                let e = t.embedding(table, &[0, 2, 4, 2]);
                let m = t.mean_rows(e);
                let s = t.sigmoid(m);
                let h = t.tanh(m);
                let prod = t.mul(s, h);
                let w = t.input(Tensor::from_vec(&[3, 1], vec![0.7, -0.4, 0.9]));
                let z = t.matmul(prod, w);
                t.bce_with_logit(z, 0.0)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_conv2d() {
        grad_check(
            &[2, 1, 3, 3],
            |t, w| {
                let x = t.input(Tensor::random(
                    &[1, 5, 5],
                    0.9,
                    &mut StdRng::seed_from_u64(3),
                ));
                let b = t.input(Tensor::zeros(&[2]));
                let y = t.conv2d(x, w, b, 1, 1, 1);
                let p = t.global_avg_pool(y);
                let w2 = t.input(Tensor::from_vec(&[2, 1], vec![0.6, -0.8]));
                let z = t.matmul(p, w2);
                t.bce_with_logit(z, 1.0)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_depthwise_conv_and_eca() {
        grad_check(
            &[3],
            |t, k| {
                let x = t.input(Tensor::random(
                    &[4, 3, 3],
                    0.7,
                    &mut StdRng::seed_from_u64(5),
                ));
                let pooled = t.global_avg_pool(x); // (1,4)
                let attn = t.conv1d_same(pooled, k);
                let attn = t.sigmoid(attn);
                let scaled = t.scale_channels(x, attn);
                let p = t.global_avg_pool(scaled);
                let w = t.input(Tensor::from_vec(&[4, 1], vec![0.4, -0.6, 0.2, 0.8]));
                let z = t.matmul(p, w);
                t.bce_with_logit(z, 0.0)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_channel_norm() {
        grad_check(
            &[3, 4, 4],
            |t, x| {
                let gamma = t.input(Tensor::from_vec(&[3], vec![1.0, 0.8, 1.2]));
                let beta = t.input(Tensor::zeros(&[3]));
                let y = t.channel_norm(x, gamma, beta);
                let p = t.global_avg_pool(y);
                let w = t.input(Tensor::from_vec(&[3, 1], vec![0.5, -0.2, 0.9]));
                let z = t.matmul(p, w);
                t.bce_with_logit(z, 1.0)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_concat_and_rowat() {
        grad_check(
            &[1, 4],
            |t, cls| {
                let x = t.input(Tensor::random(&[3, 4], 0.5, &mut StdRng::seed_from_u64(8)));
                let seq = t.concat_rows(cls, x); // (4,4)
                let first = t.row_at(seq, 0);
                let w = t.input(Tensor::from_vec(&[4, 1], vec![0.3, 0.9, -0.7, 0.5]));
                let z = t.matmul(first, w);
                t.bce_with_logit(z, 1.0)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_activations() {
        for act in 0..4 {
            grad_check(
                &[1, 5],
                move |t, x| {
                    let h = match act {
                        0 => t.relu(x),
                        1 => t.gelu(x),
                        2 => t.silu(x),
                        _ => t.tanh(x),
                    };
                    let w = t.input(Tensor::from_vec(&[5, 1], vec![0.2, -0.5, 0.8, 0.3, -0.9]));
                    let z = t.matmul(h, w);
                    t.bce_with_logit(z, 0.0)
                },
                4e-2,
            );
        }
    }

    #[test]
    fn grad_stack_rows_batched_bce() {
        // The batched trainer's loss head: per-sample logits stacked into a
        // (B, 1) column, mean BCE over the batch. The parameter feeds every
        // sample, so its gradient sums the per-sample contributions.
        grad_check(
            &[3, 1],
            |t, p| {
                let xs = [
                    vec![0.3f32, -0.5, 0.9],
                    vec![-0.2, 0.8, 0.1],
                    vec![0.7, 0.4, -0.6],
                    vec![-0.9, 0.2, 0.5],
                ];
                let logits: Vec<Var> = xs
                    .iter()
                    .map(|x| {
                        let xv = t.input(Tensor::from_vec(&[1, 3], x.clone()));
                        t.matmul(xv, p)
                    })
                    .collect();
                let z = t.stack_rows(&logits);
                t.bce_with_logits_batch_scaled(z, &[1.0, 0.0, 1.0, 0.0], 4)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_batched_bce_over_true_batch() {
        // The fully-batched dense path: one (B, d) matmul, no stacking.
        grad_check(
            &[4, 1],
            |t, p| {
                let x = t.input(Tensor::from_vec(
                    &[3, 4],
                    vec![
                        0.1, 0.5, -0.2, 0.8, -0.3, 0.2, 0.9, -0.1, 0.4, -0.7, 0.3, 0.6,
                    ],
                ));
                let z = t.matmul(x, p);
                t.bce_with_logits_batch_scaled(z, &[1.0, 0.0, 1.0], 3)
            },
            2e-2,
        );
    }

    #[test]
    fn batched_bce_is_the_mean_of_per_sample_losses() {
        let zs = [0.7f32, -1.2, 0.1];
        let ts = [1.0f32, 0.0, 1.0];
        let mut tape = Tape::new();
        let z = tape.input(Tensor::from_vec(&[3, 1], zs.to_vec()));
        let batched = tape.bce_with_logits_batch_scaled(z, &ts, ts.len());
        let mut want = 0.0f32;
        for (&zv, &tv) in zs.iter().zip(&ts) {
            let mut t2 = Tape::new();
            let zi = t2.input(Tensor::from_vec(&[1, 1], vec![zv]));
            let l = t2.bce_with_logit(zi, tv);
            want += t2.value(l).item();
        }
        assert!((tape.value(batched).item() - want / 3.0).abs() < 1e-6);
    }

    #[test]
    fn reset_recycles_buffers_and_replays_bit_exactly() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(21);
        let w = store.param(Tensor::random(&[6, 4], 0.5, &mut rng));
        let x_data = Tensor::random(&[5, 6], 0.5, &mut rng);
        let run = |tape: &mut Tape| {
            let wv = tape.param(&store, w);
            let x = tape.input(x_data.clone());
            let h = tape.matmul(x, wv);
            let h = tape.relu(h);
            let m = tape.mean_rows(h);
            tape.value(m).data().to_vec()
        };
        let mut tape = Tape::new();
        let first = run(&mut tape);
        let nodes_first = tape.nodes.len();
        for _ in 0..3 {
            tape.reset();
            assert!(tape.nodes.is_empty());
            assert!(!tape.pool.is_empty(), "reset must harvest value buffers");
            let again = run(&mut tape);
            assert_eq!(
                again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                first.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(tape.nodes.len(), nodes_first);
        }
    }

    #[test]
    #[should_panic(expected = "stack_rows width mismatch")]
    fn stack_rows_rejects_ragged_widths() {
        let mut tape = Tape::new();
        let a = tape.input(Tensor::zeros(&[1, 2]));
        let b = tape.input(Tensor::zeros(&[1, 3]));
        tape.stack_rows(&[a, b]);
    }

    #[test]
    fn bce_matches_closed_form() {
        let mut tape = Tape::new();
        let z = tape.input(Tensor::from_vec(&[1, 1], vec![0.7]));
        let l = tape.bce_with_logit(z, 1.0);
        let want = -(sigmoid(0.7f32)).ln();
        assert!((tape.value(l).item() - want).abs() < 1e-6);
    }

    #[test]
    fn backward_into_buffer_matches_store_bitwise() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut store = ParamStore::new();
        let w = store.param(Tensor::random(&[4, 3], 0.6, &mut rng));
        let b = store.param(Tensor::zeros(&[3]));
        let x_data = Tensor::random(&[5, 4], 0.6, &mut rng);
        let record = |t: &mut Tape, store: &ParamStore| {
            let wv = t.param(store, w);
            let bv = t.param(store, b);
            let x = t.input(x_data.clone());
            let h = t.matmul(x, wv);
            let h = t.add_bias(h, bv);
            let h = t.relu(h);
            let m = t.mean_rows(h);
            let w2 = t.input(Tensor::from_vec(&[3, 1], vec![0.4, -0.7, 0.2]));
            let z = t.matmul(m, w2);
            t.bce_with_logit(z, 1.0)
        };

        let mut tape = Tape::new();
        let loss = record(&mut tape, &store);
        store.zero_grads();
        tape.backward(loss, &mut store);

        let mut buf = store.grad_buffer();
        let mut tape2 = Tape::new();
        let loss2 = record(&mut tape2, &store);
        tape2.backward_into(loss2, &mut buf);

        let mut via_buffer = {
            let mut s = ParamStore::new();
            s.param(store.value(w).clone());
            s.param(store.value(b).clone());
            s
        };
        via_buffer.add_grad_buffer(&buf);
        for id in [w, b] {
            let direct: Vec<u32> = store.grad(id).data().iter().map(|v| v.to_bits()).collect();
            let buffered: Vec<u32> = via_buffer
                .grad(id)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(direct, buffered);
        }
    }

    #[test]
    fn scaled_batch_bce_shards_sum_to_the_whole_batch() {
        // Per-shard losses with denom = B must sum to the whole-batch mean
        // loss, and per-logit grads must be (σ(z) − t)/B exactly — the
        // invariant the data-parallel trainer is built on.
        let zs = [0.7f32, -1.2, 0.1, 2.3, -0.4];
        let ts = [1.0f32, 0.0, 1.0, 0.0, 1.0];
        let mut whole = Tape::new();
        let z = whole.input(Tensor::from_vec(&[5, 1], zs.to_vec()));
        let l = whole.bce_with_logits_batch_scaled(z, &ts, ts.len());
        let want = whole.value(l).item();

        let mut got = 0.0f32;
        for (zc, tc) in zs.chunks(2).zip(ts.chunks(2)) {
            let mut t = Tape::new();
            let zv = t.input(Tensor::from_vec(&[zc.len(), 1], zc.to_vec()));
            let l = t.bce_with_logits_batch_scaled(zv, tc, zs.len());
            got += t.value(l).item();
        }
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
    }

    #[test]
    fn grad_scaled_batched_bce() {
        grad_check(
            &[4, 1],
            |t, p| {
                let x = t.input(Tensor::from_vec(
                    &[2, 4],
                    vec![0.1, 0.5, -0.2, 0.8, -0.3, 0.2, 0.9, -0.1],
                ));
                let z = t.matmul(x, p);
                // A shard of 2 inside a notional batch of 8, times 4 so
                // the finite-difference loss is the full-batch mean.
                let l = t.bce_with_logits_batch_scaled(z, &[1.0, 0.0], 8);
                t.scale(l, 4.0)
            },
            2e-2,
        );
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let mut store = ParamStore::new();
        let p = store.param(Tensor::from_vec(&[1, 1], vec![0.5]));
        for _ in 0..2 {
            let mut tape = Tape::new();
            let pv = tape.param(&store, p);
            let x = tape.input(Tensor::from_vec(&[1, 1], vec![1.0]));
            let z = tape.matmul(x, pv);
            let l = tape.bce_with_logit(z, 1.0);
            tape.backward(l, &mut store);
        }
        let g1 = store.grad(p).data()[0];
        assert!((g1 - 2.0 * (sigmoid(0.5) - 1.0)).abs() < 1e-5);
    }
}
