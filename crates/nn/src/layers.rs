//! Reusable layers built on the tape: dense, layer-norm, multi-head
//! attention, transformer blocks and a GRU.
//!
//! The transformer layers also have a tape-free inference forward
//! ([`TransformerBlock::inference`]) over many sequences stacked into one
//! `(Σl, d)` row matrix. It runs the same GEMM and row kernels as the
//! tape, so its output is bit-identical to [`TransformerBlock::forward`]
//! on each sequence alone.

use crate::kernels;
use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use phishinghook_linalg::gemm;
use rand::Rng;

/// Dense layer `y = x W + b` over `(l, in)` inputs.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
}

impl Linear {
    /// Registers parameters for an `in → out` dense layer.
    pub fn new<R: Rng>(store: &mut ParamStore, input: usize, output: usize, rng: &mut R) -> Self {
        Linear {
            w: store.he(&[input, output], input, rng),
            b: store.zeros(&[output]),
        }
    }

    /// Applies the layer.
    pub fn forward(&self, t: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = t.param(store, self.w);
        let b = t.param(store, self.b);
        let h = t.matmul(x, w);
        t.add_bias(h, b)
    }

    /// Tape-free [`Linear::forward`] over the `in`-wide rows of `x` into
    /// the `out`-wide rows of `out`.
    pub fn forward_rows(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        let (input, output) = store.value(self.w).dims2();
        gemm::matmul_into(
            x.len() / input,
            input,
            output,
            x,
            store.value(self.w).data(),
            out,
        );
        kernels::add_bias_rows(out, store.value(self.b).data());
    }

    /// The layer's parameter handles `[weight, bias]` (for freezing).
    pub fn params(&self) -> [ParamId; 2] {
        [self.w, self.b]
    }
}

/// Layer normalization with learned gain/offset.
#[derive(Debug, Clone, Copy)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
}

impl LayerNorm {
    /// Registers parameters for a width-`d` layer norm.
    pub fn new(store: &mut ParamStore, d: usize) -> Self {
        LayerNorm {
            gamma: store.full(&[d], 1.0),
            beta: store.zeros(&[d]),
        }
    }

    /// Applies the layer.
    pub fn forward(&self, t: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let gamma = t.param(store, self.gamma);
        let beta = t.param(store, self.beta);
        t.layer_norm(x, gamma, beta)
    }

    /// Tape-free [`LayerNorm::forward`] over the rows of `x` into `out`.
    pub fn forward_rows(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        let gamma = store.value(self.gamma).data();
        let beta = store.value(self.beta).data();
        let d = gamma.len();
        for (row, o) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            kernels::layer_norm_row(row, gamma, beta, o, None);
        }
    }
}

/// Multi-head self-attention over `(l, d)` sequences.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    heads: usize,
    head_dim: usize,
    wq: Vec<ParamId>,
    wk: Vec<ParamId>,
    wv: Vec<ParamId>,
    out: Linear,
}

impl MultiHeadAttention {
    /// Registers an attention block with `heads` heads over width `d`.
    ///
    /// # Panics
    ///
    /// Panics unless `d % heads == 0`.
    pub fn new<R: Rng>(store: &mut ParamStore, d: usize, heads: usize, rng: &mut R) -> Self {
        assert_eq!(d % heads, 0, "head count must divide model width");
        let head_dim = d / heads;
        let mk = |store: &mut ParamStore, rng: &mut R| -> Vec<ParamId> {
            (0..heads)
                .map(|_| store.he(&[d, head_dim], d, rng))
                .collect()
        };
        MultiHeadAttention {
            heads,
            head_dim,
            wq: mk(store, rng),
            wk: mk(store, rng),
            wv: mk(store, rng),
            out: Linear::new(store, d, d, rng),
        }
    }

    /// Applies self-attention; `causal` adds a lower-triangular mask (GPT-2
    /// style).
    pub fn forward(&self, t: &mut Tape, store: &ParamStore, x: Var, causal: bool) -> Var {
        let l = t.value(x).dims2().0;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mask = if causal {
            let mut m = vec![0.0f32; l * l];
            for i in 0..l {
                for j in i + 1..l {
                    m[i * l + j] = -1e9;
                }
            }
            Some(t.input(Tensor::from_vec(&[l, l], m)))
        } else {
            None
        };

        let mut merged: Option<Var> = None;
        for h in 0..self.heads {
            let wq = t.param(store, self.wq[h]);
            let wk = t.param(store, self.wk[h]);
            let wv = t.param(store, self.wv[h]);
            let q = t.matmul(x, wq);
            let k = t.matmul(x, wk);
            let v = t.matmul(x, wv);
            let kt = t.transpose(k);
            let s = t.matmul(q, kt);
            let mut s = t.scale(s, scale);
            if let Some(m) = mask {
                s = t.add(s, m);
            }
            let a = t.softmax_rows(s);
            let o = t.matmul(a, v);
            merged = Some(match merged {
                None => o,
                Some(acc) => t.concat_cols(acc, o),
            });
        }
        let concat = merged.expect("at least one head");
        self.out.forward(t, store, concat)
    }

    /// Cross-attention: queries from `q_input` `(lq, d)`, keys/values from
    /// `kv_input` `(lk, d)` (T5 decoder style).
    pub fn forward_cross(
        &self,
        t: &mut Tape,
        store: &ParamStore,
        q_input: Var,
        kv_input: Var,
    ) -> Var {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut merged: Option<Var> = None;
        for h in 0..self.heads {
            let wq = t.param(store, self.wq[h]);
            let wk = t.param(store, self.wk[h]);
            let wv = t.param(store, self.wv[h]);
            let q = t.matmul(q_input, wq);
            let k = t.matmul(kv_input, wk);
            let v = t.matmul(kv_input, wv);
            let kt = t.transpose(k);
            let s = t.matmul(q, kt);
            let s = t.scale(s, scale);
            let a = t.softmax_rows(s);
            let o = t.matmul(a, v);
            merged = Some(match merged {
                None => o,
                Some(acc) => t.concat_cols(acc, o),
            });
        }
        let concat = merged.expect("at least one head");
        self.out.forward(t, store, concat)
    }
}

/// Pre-norm transformer encoder block: `x + MHA(LN(x))`, `x + MLP(LN(x))`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Linear,
    fc2: Linear,
}

impl TransformerBlock {
    /// Registers a block of width `d` with `heads` heads and a `4d` MLP.
    pub fn new<R: Rng>(store: &mut ParamStore, d: usize, heads: usize, rng: &mut R) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(store, d),
            attn: MultiHeadAttention::new(store, d, heads, rng),
            ln2: LayerNorm::new(store, d),
            fc1: Linear::new(store, d, 4 * d, rng),
            fc2: Linear::new(store, 4 * d, d, rng),
        }
    }

    /// Applies the block.
    pub fn forward(&self, t: &mut Tape, store: &ParamStore, x: Var, causal: bool) -> Var {
        let h = self.ln1.forward(t, store, x);
        let a = self.attn.forward(t, store, h, causal);
        let x = t.add(x, a);
        let h = self.ln2.forward(t, store, x);
        let h = self.fc1.forward(t, store, h);
        let h = t.gelu(h);
        let h = self.fc2.forward(t, store, h);
        t.add(x, h)
    }

    /// Prepares the block for tape-free inference with `store`'s current
    /// weights: the per-head Q, K and V matrices are fused into one
    /// `(d, 3d)` matrix, so all heads' projections run as one GEMM.
    pub fn inference<'a>(&'a self, store: &'a ParamStore) -> BlockInference<'a> {
        let attn = &self.attn;
        let d = attn.heads * attn.head_dim;
        let mut qkv = Vec::with_capacity(d * 3 * d);
        for r in 0..d {
            for id in attn.wq.iter().chain(&attn.wk).chain(&attn.wv) {
                let w = store.value(*id).data();
                qkv.extend_from_slice(&w[r * attn.head_dim..(r + 1) * attn.head_dim]);
            }
        }
        BlockInference {
            block: self,
            store,
            qkv,
        }
    }
}

/// A [`TransformerBlock`] bound to its weights for tape-free inference
/// (see [`TransformerBlock::inference`]).
#[derive(Debug)]
pub struct BlockInference<'a> {
    block: &'a TransformerBlock,
    store: &'a ParamStore,
    /// Row `r` holds row `r` of every head's Q, then K, then V weights.
    qkv: Vec<f32>,
}

impl BlockInference<'_> {
    /// Applies the block in place to `x`: the rows of several sequences,
    /// `lens[s]` rows for sequence `s`, stacked into one `(Σlens, d)`
    /// matrix. Attention stays within each sequence; every other op runs
    /// once over all rows. Each sequence's output is bit-identical to
    /// [`TransformerBlock::forward`] on that sequence alone.
    ///
    /// With `causal`, a row attends only to itself and earlier rows. The
    /// tape adds a `-1e9` mask to the later scores instead, whose softmax
    /// weights are exactly `0.0` in `f32`, so skipping them changes no bit.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not hold `Σlens` rows of width `d`.
    pub fn forward(&self, x: &mut [f32], lens: &[usize], causal: bool) {
        let (block, store) = (self.block, self.store);
        let (heads, hd) = (block.attn.heads, block.attn.head_dim);
        let d = heads * hd;
        let rows: usize = lens.iter().sum();
        assert_eq!(x.len(), rows * d, "stacked rows do not match lens");
        let scale = 1.0 / (hd as f32).sqrt();

        let mut h = vec![0.0f32; rows * d];
        block.ln1.forward_rows(store, x, &mut h);
        let mut qkv = vec![0.0f32; rows * 3 * d];
        gemm::matmul_into(rows, d, 3 * d, &h, &self.qkv, &mut qkv);

        // Attention per (sequence, head); each head's output lands in its
        // `hd` columns of `h`, the layout the tape's `concat_cols` builds.
        // Every score and output element accumulates over the same index
        // in the same increasing order as the tape's GEMMs.
        // A head's visible scores are packed row after row (a triangle
        // when causal) so one softmax call exponentiates them all.
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let mut scores = vec![0.0f32; max_len * max_len];
        let (mut kt, mut v) = (vec![0.0f32; hd * max_len], vec![0.0f32; max_len * hd]);
        let mut start = 0;
        for &l in lens {
            let seq = &qkv[start * 3 * d..(start + l) * 3 * d];
            let widths = (1..=l).map(|i| if causal { i } else { l });
            for head in 0..heads {
                let (qo, ko, vo) = (head * hd, d + head * hd, 2 * d + head * hd);
                // This head's keys transposed to `(hd, l)` and values
                // packed to `(l, hd)`, so the loops below run contiguous.
                for (j, row) in seq.chunks_exact(3 * d).enumerate() {
                    for c in 0..hd {
                        kt[c * l + j] = row[ko + c];
                    }
                    v[j * hd..(j + 1) * hd].copy_from_slice(&row[vo..vo + hd]);
                }
                let mut off = 0;
                for (i, visible) in widths.clone().enumerate() {
                    let s = &mut scores[off..off + visible];
                    s.fill(0.0);
                    for (c, &qc) in seq[i * 3 * d + qo..][..hd].iter().enumerate() {
                        for (sj, kj) in s.iter_mut().zip(&kt[c * l..c * l + visible]) {
                            *sj += qc * kj;
                        }
                    }
                    for sj in s.iter_mut() {
                        *sj *= scale;
                    }
                    off += visible;
                }
                kernels::softmax_rows_in_place(&mut scores, widths.clone());
                let mut off = 0;
                for (i, visible) in widths.clone().enumerate() {
                    let s = &scores[off..off + visible];
                    off += visible;
                    let o = &mut h[(start + i) * d + qo..][..hd];
                    o.fill(0.0);
                    for (&a, vj) in s.iter().zip(v.chunks_exact(hd)) {
                        for (oc, vc) in o.iter_mut().zip(vj) {
                            *oc += a * vc;
                        }
                    }
                }
            }
            start += l;
        }

        let mut a = vec![0.0f32; rows * d];
        block.attn.out.forward_rows(store, &h, &mut a);
        add_in_place(x, &a);
        block.ln2.forward_rows(store, x, &mut h);
        let mut f = vec![0.0f32; rows * 4 * d];
        block.fc1.forward_rows(store, &h, &mut f);
        kernels::gelu_in_place(&mut f);
        block.fc2.forward_rows(store, &f, &mut a);
        add_in_place(x, &a);
    }
}

fn add_in_place(x: &mut [f32], y: &[f32]) {
    for (xv, yv) in x.iter_mut().zip(y) {
        *xv += yv;
    }
}

/// Mean of each sequence's rows in a stacked `(Σlens, d)` matrix: a
/// `(lens.len(), d)` matrix, row `s` bit-identical to [`Tape::mean_rows`]
/// of sequence `s`.
///
/// # Panics
///
/// Panics if `x` holds fewer than `Σlens` rows of width `d`.
pub fn mean_pool(x: &[f32], lens: &[usize], d: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; lens.len() * d];
    let mut start = 0;
    for (&l, o) in lens.iter().zip(out.chunks_exact_mut(d)) {
        kernels::mean_rows(&x[start * d..(start + l) * d], o);
        start += l;
    }
    out
}

/// A gated recurrent unit processing `(l, in)` sequences into a final
/// `(1, hidden)` state (SCSGuard's sequence model).
#[derive(Debug, Clone)]
pub struct Gru {
    hidden: usize,
    wz: Linear,
    uz: Linear,
    wr: Linear,
    ur: Linear,
    wh: Linear,
    uh: Linear,
}

impl Gru {
    /// Registers a GRU with the given input and hidden widths.
    pub fn new<R: Rng>(store: &mut ParamStore, input: usize, hidden: usize, rng: &mut R) -> Self {
        Gru {
            hidden,
            wz: Linear::new(store, input, hidden, rng),
            uz: Linear::new(store, hidden, hidden, rng),
            wr: Linear::new(store, input, hidden, rng),
            ur: Linear::new(store, hidden, hidden, rng),
            wh: Linear::new(store, input, hidden, rng),
            uh: Linear::new(store, hidden, hidden, rng),
        }
    }

    /// Runs the GRU over the rows of `x` and returns the final hidden state.
    pub fn forward(&self, t: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let l = t.value(x).dims2().0;
        let mut h = t.input(Tensor::zeros(&[1, self.hidden]));
        for step in 0..l {
            let xt = t.row_at(x, step);
            let z1 = self.wz.forward(t, store, xt);
            let z2 = self.uz.forward(t, store, h);
            let z3 = t.add(z1, z2);
            let z = t.sigmoid(z3);
            let r1 = self.wr.forward(t, store, xt);
            let r2 = self.ur.forward(t, store, h);
            let r3 = t.add(r1, r2);
            let r = t.sigmoid(r3);
            let rh = t.mul(r, h);
            let c1 = self.wh.forward(t, store, xt);
            let c2 = self.uh.forward(t, store, rh);
            let c3 = t.add(c1, c2);
            let candidate = t.tanh(c3);
            // h' = (1 - z) ⊙ h + z ⊙ candidate
            let neg_z = t.scale(z, -1.0);
            let one_minus_z = t.add_scalar(neg_z, 1.0);
            let keep = t.mul(one_minus_z, h);
            let update = t.mul(z, candidate);
            h = t.add(keep, update);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store_and_rng() -> (ParamStore, StdRng) {
        (ParamStore::new(), StdRng::seed_from_u64(17))
    }

    #[test]
    fn linear_shapes() {
        let (mut store, mut rng) = store_and_rng();
        let lin = Linear::new(&mut store, 4, 3, &mut rng);
        let mut t = Tape::new();
        let x = t.input(Tensor::zeros(&[5, 4]));
        let y = lin.forward(&mut t, &store, x);
        assert_eq!(t.value(y).shape(), &[5, 3]);
    }

    #[test]
    fn attention_preserves_shape() {
        let (mut store, mut rng) = store_and_rng();
        let attn = MultiHeadAttention::new(&mut store, 8, 2, &mut rng);
        let mut t = Tape::new();
        let x = t.input(Tensor::random(&[6, 8], 0.5, &mut rng));
        let y = attn.forward(&mut t, &store, x, false);
        assert_eq!(t.value(y).shape(), &[6, 8]);
    }

    #[test]
    #[should_panic(expected = "head count must divide model width")]
    fn attention_rejects_heads_not_dividing_width() {
        let (mut store, mut rng) = store_and_rng();
        MultiHeadAttention::new(&mut store, 6, 4, &mut rng);
    }

    #[test]
    fn causal_mask_blocks_future() {
        // With a causal mask, changing the last token must not affect the
        // first row of the attention output.
        let (mut store, mut rng) = store_and_rng();
        let attn = MultiHeadAttention::new(&mut store, 4, 1, &mut rng);
        let base = Tensor::random(&[3, 4], 0.5, &mut rng);
        let mut changed = base.clone();
        for v in changed.data_mut()[8..].iter_mut() {
            *v += 1.0;
        }
        let run = |input: Tensor| {
            let mut t = Tape::new();
            let x = t.input(input);
            let y = attn.forward(&mut t, &store, x, true);
            t.value(y).data()[..4].to_vec()
        };
        assert_eq!(run(base), run(changed));
    }

    #[test]
    fn transformer_block_trains() {
        // One block + head must overfit a single example quickly.
        let (mut store, mut rng) = store_and_rng();
        let block = TransformerBlock::new(&mut store, 8, 2, &mut rng);
        let head = Linear::new(&mut store, 8, 1, &mut rng);
        let x_data = Tensor::random(&[4, 8], 0.8, &mut rng);
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            let mut t = Tape::new();
            let x = t.input(x_data.clone());
            let h = block.forward(&mut t, &store, x, false);
            let pooled = t.mean_rows(h);
            let z = head.forward(&mut t, &store, pooled);
            let loss = t.bce_with_logit(z, 1.0);
            last = t.value(loss).item();
            store.zero_grads();
            t.backward(loss, &mut store);
            store.adam_step(0.01, 1);
        }
        assert!(last < 0.1, "loss did not fall: {last}");
    }

    #[test]
    fn gru_final_state_shape_and_training() {
        let (mut store, mut rng) = store_and_rng();
        let gru = Gru::new(&mut store, 6, 5, &mut rng);
        let head = Linear::new(&mut store, 5, 1, &mut rng);
        let x_data = Tensor::random(&[7, 6], 0.8, &mut rng);
        let mut last = f32::INFINITY;
        for _ in 0..40 {
            let mut t = Tape::new();
            let x = t.input(x_data.clone());
            let h = gru.forward(&mut t, &store, x);
            assert_eq!(t.value(h).shape(), &[1, 5]);
            let z = head.forward(&mut t, &store, h);
            let loss = t.bce_with_logit(z, 0.0);
            last = t.value(loss).item();
            store.zero_grads();
            t.backward(loss, &mut store);
            store.adam_step(0.02, 1);
        }
        assert!(last < 0.1, "GRU loss did not fall: {last}");
    }
}
