//! Row kernels shared by the tape ops and the tape-free inference forward
//! ([`crate::layers::BlockInference`]). Both paths call these exact
//! functions, so their arithmetic cannot drift apart: the inference
//! forward is bit-identical to the tape by construction, and the parity
//! tests only confirm it.

use phishinghook_linalg::gemm;

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

/// Softmax of one row, in place.
pub(crate) fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// GELU (tanh approximation).
pub(crate) fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
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
