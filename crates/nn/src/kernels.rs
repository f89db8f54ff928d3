//! Row kernels shared by the tape ops and the tape-free inference forward
//! ([`crate::layers::BlockInference`]). Both paths call these exact
//! functions, so their arithmetic cannot drift apart: the inference
//! forward is bit-identical to the tape by construction, and the parity
//! tests only confirm it.
//!
//! The element-wise kernels ([`softmax_rows_in_place`],
//! [`gelu_in_place`]) take their `exp`/`tanh` from
//! [`phishinghook_linalg::transcend`], not libm: the same bits on every
//! host, run through the SIMD-dispatched [`map_in_place`], whose every
//! tier is bit-identical to the scalar loop. The `nn_throughput` bench
//! times both against `f32::exp`/`f32::tanh` loops.

use phishinghook_linalg::gemm;
use phishinghook_linalg::transcend::{self, map_in_place};

/// Normalizes one row to zero mean and unit variance, then applies the
/// `gamma`/`beta` affine into `out`. `xhat`, when given, receives the
/// normalized row the tape's backward needs.
pub(crate) fn layer_norm_row(
    row: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    mut xhat: Option<&mut [f32]>,
) {
    const EPS: f32 = 1e-5;
    let d = row.len();
    let mean: f32 = row.iter().sum::<f32>() / d as f32;
    let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
    let inv = 1.0 / (var + EPS).sqrt();
    for j in 0..d {
        let h = (row[j] - mean) * inv;
        if let Some(xhat) = xhat.as_deref_mut() {
            xhat[j] = h;
        }
        out[j] = h * gamma[j] + beta[j];
    }
}

/// Softmax of every row of `packed`, in place, where the rows lie end to
/// end with the given `widths` (an `(l, d)` matrix is `l` rows of width
/// `d`; a causal score triangle is rows of width `1..=l`). Each row's
/// maximum is subtracted, then all rows are exponentiated in **one**
/// dispatched pass (per-row passes over a causal triangle of widths
/// 1–32 measured twice as slow), and finally each row is summed in index
/// order and divided by its sum. Every element sees the same
/// `exp(v − max)` whatever the packing, so a row's bits do not depend on
/// its neighbours.
///
/// # Panics
///
/// Panics if the widths add up to more than `packed.len()`.
pub fn softmax_rows_in_place<W>(packed: &mut [f32], widths: W)
where
    W: IntoIterator<Item = usize> + Clone,
{
    let mut end = 0;
    for w in widths.clone() {
        let row = &mut packed[end..end + w];
        // A compare-select fold (NaNs are skipped, as by `f32::max`)
        // measured ≈1.7× faster than an `f32::max` fold. Only the sign
        // of a zero maximum can differ between the two, and `v − (±0)`
        // exponentiates to the same bits.
        let max = row
            .iter()
            .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        for v in row.iter_mut() {
            *v -= max;
        }
        end += w;
    }
    map_in_place(&mut packed[..end], transcend::exp);
    let mut start = 0;
    for w in widths {
        let row = &mut packed[start..start + w];
        let sum: f32 = row.iter().sum();
        for v in row.iter_mut() {
            *v /= sum;
        }
        start += w;
    }
}

/// `sqrt(2/π)`, GELU's tanh-argument scale.
const GELU_C: f32 = 0.797_884_6;

/// GELU (tanh approximation).
#[inline]
pub(crate) fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + transcend::tanh(GELU_C * (x + 0.044715 * x * x * x)))
}

/// [`gelu`]'s derivative, for the tape's backward.
#[inline]
pub(crate) fn gelu_grad(x: f32) -> f32 {
    let t = transcend::tanh(GELU_C * (x + 0.044715 * x * x * x));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// GELU (tanh approximation) of every element, in place, on the active
/// SIMD tier: the tape's [`Tape::gelu`](crate::Tape::gelu) runs the same
/// `map_in_place(·, gelu)`.
pub fn gelu_in_place(xs: &mut [f32]) {
    map_in_place(xs, gelu);
}

/// Adds `bias` to every `bias.len()`-wide row of `x`, in place.
pub(crate) fn add_bias_rows(x: &mut [f32], bias: &[f32]) {
    for row in x.chunks_exact_mut(bias.len()) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Mean of the `out.len()`-wide rows of `x` into `out`, which must be
/// zeroed.
pub(crate) fn mean_rows(x: &[f32], out: &mut [f32]) {
    let d = out.len();
    for row in x.chunks_exact(d) {
        gemm::axpy(1.0, row, out);
    }
    let l = x.len() / d;
    for v in out.iter_mut() {
        *v /= l as f32;
    }
}
