//! Linear models: logistic regression and a linear soft-margin SVM.
//!
//! Both are trained by full-batch Adam on the raw (unnormalized) histogram
//! features, as the paper feeds them; Adam's per-coordinate step sizes make
//! the optimization robust to the wildly different count scales without
//! touching the input representation.
//!
//! Each epoch of the shared trainer is two vectorized passes over layouts
//! built once per fit. The scores come from a column-major copy `Xᵀ`:
//! `dots += w[k] · Xᵀ[k]` for `k` ascending, from accumulators of `-0.0`.
//! The gradient is `gw += g_r · x_r` for `r` ascending, skipping rows whose
//! `g` is zero. Both run on `phishinghook_linalg::gemm::axpy`, which
//! computes each element with one rounded multiply and one rounded add on
//! every SIMD tier. So every score and gradient element sees the same
//! sequence of roundings as the row-at-a-time loop `score` runs (`f32: Sum`
//! folds from `-0.0` in increasing `k`): fitted weights, bias and every
//! probability are bit-identical to it on every tier.

use crate::classifier::{validate_fit_inputs, Classifier};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_linalg::gemm::axpy;
use phishinghook_linalg::Matrix;

fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

/// Serializes the fitted `Option<LinearModel>` both linear classifiers own.
fn export_linear(model: &Option<LinearModel>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match model {
        None => w.put_u8(0),
        Some(m) => {
            w.put_u8(1);
            w.put_f32_slice(&m.weights);
            w.put_f32(m.bias);
        }
    }
    w.into_bytes()
}

/// Inverse of [`export_linear`].
fn import_linear(bytes: &[u8]) -> Result<Option<LinearModel>, ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let model = match r.take_u8()? {
        0 => None,
        1 => Some(LinearModel {
            weights: r.take_f32_slice()?,
            bias: r.take_f32()?,
        }),
        tag => {
            return Err(ArtifactError::Corrupt(format!(
                "linear model tag {tag} (expected 0 or 1)"
            )))
        }
    };
    r.expect_exhausted("linear model state")?;
    Ok(model)
}

/// Shared Adam-based trainer for linear decision functions.
#[derive(Debug, Clone)]
struct LinearModel {
    weights: Vec<f32>,
    bias: f32,
}

impl LinearModel {
    fn score(&self, row: &[f32]) -> f32 {
        self.bias
            + self
                .weights
                .iter()
                .zip(row)
                .map(|(w, x)| w * x)
                .sum::<f32>()
    }

    /// Runs Adam on a gradient callback: `grad(score, label) -> dLoss/dScore`.
    fn train(
        x: &Matrix,
        y: &[u8],
        epochs: usize,
        lr: f32,
        l2: f32,
        grad: impl Fn(f32, f32) -> f32,
    ) -> LinearModel {
        let (n, d) = x.shape();
        let mut model = LinearModel {
            weights: vec![0.0; d],
            bias: 0.0,
        };
        let (mut m, mut v) = (vec![0.0f32; d + 1], vec![0.0f32; d + 1]);
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let (xt, mut dots) = (x.transpose(), vec![0.0f32; n]);
        let mut gw = vec![0.0f32; d];

        for t in 1..=epochs {
            dots.fill(-0.0);
            for (k, &wk) in model.weights.iter().enumerate() {
                axpy(wk, xt.row(k), &mut dots);
            }
            gw.fill(0.0);
            let mut gb = 0.0f32;
            for (r, (&dot, &label)) in dots.iter().zip(y).enumerate() {
                let g = grad(model.bias + dot, label as f32);
                if g != 0.0 {
                    axpy(g, x.row(r), &mut gw);
                    gb += g;
                }
            }
            let scale = 1.0 / n as f32;
            for (gi, wi) in gw.iter_mut().zip(&model.weights) {
                *gi = *gi * scale + l2 * wi;
            }
            gb *= scale;

            let bc1 = 1.0 - b1.powi(t as i32);
            let bc2 = 1.0 - b2.powi(t as i32);
            for i in 0..d {
                m[i] = b1 * m[i] + (1.0 - b1) * gw[i];
                v[i] = b2 * v[i] + (1.0 - b2) * gw[i] * gw[i];
                model.weights[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
            }
            m[d] = b1 * m[d] + (1.0 - b1) * gb;
            v[d] = b2 * v[d] + (1.0 - b2) * gb * gb;
            model.bias -= lr * (m[d] / bc1) / ((v[d] / bc2).sqrt() + eps);
        }
        model
    }
}

/// L2-regularized logistic regression.
///
/// # Examples
///
/// ```
/// use phishinghook_linalg::Matrix;
/// use phishinghook_ml::{Classifier, LogisticRegression};
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![9.0], vec![10.0]]);
/// let mut lr = LogisticRegression::default();
/// lr.fit(&x, &[0, 0, 1, 1]);
/// assert_eq!(lr.predict(&x), vec![0, 0, 1, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Training epochs (full-batch Adam steps).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 regularization strength.
    pub l2: f32,
    model: Option<LinearModel>,
}

impl LogisticRegression {
    /// Default hyper-parameters with a custom epoch budget.
    pub fn with_epochs(epochs: usize) -> Self {
        LogisticRegression {
            epochs,
            ..LogisticRegression::default()
        }
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression {
            epochs: 800,
            learning_rate: 0.3,
            l2: 1e-3,
            model: None,
        }
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        validate_fit_inputs(x, y);
        self.model = Some(LinearModel::train(
            x,
            y,
            self.epochs,
            self.learning_rate,
            self.l2,
            |score, label| sigmoid(score) - label,
        ));
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        let model = self.model.as_ref().expect("predict before fit");
        (0..x.rows())
            .map(|r| sigmoid(model.score(x.row(r))))
            .collect()
    }

    fn export_state(&self) -> Vec<u8> {
        export_linear(&self.model)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        self.model = import_linear(bytes)?;
        Ok(())
    }
}

/// Linear soft-margin SVM trained on the hinge loss. `predict_proba` maps
/// the margin through a fixed sigmoid so the common interface holds (the
/// ordering, hence `predict`, is exactly the SVM decision function).
///
/// # Examples
///
/// ```
/// use phishinghook_linalg::Matrix;
/// use phishinghook_ml::{Classifier, LinearSvm};
///
/// let x = Matrix::from_rows(&[vec![-2.0], vec![-1.0], vec![1.0], vec![2.0]]);
/// let mut svm = LinearSvm::default();
/// svm.fit(&x, &[0, 0, 1, 1]);
/// assert_eq!(svm.predict(&x), vec![0, 0, 1, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct LinearSvm {
    /// Training epochs (full-batch Adam steps).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L2 regularization strength (inverse margin softness).
    pub l2: f32,
    model: Option<LinearModel>,
}

impl LinearSvm {
    /// Default hyper-parameters with a custom epoch budget.
    pub fn with_epochs(epochs: usize) -> Self {
        LinearSvm {
            epochs,
            ..LinearSvm::default()
        }
    }
}

impl Default for LinearSvm {
    fn default() -> Self {
        LinearSvm {
            epochs: 800,
            learning_rate: 0.3,
            l2: 5e-4,
            model: None,
        }
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &Matrix, y: &[u8]) {
        validate_fit_inputs(x, y);
        self.model = Some(LinearModel::train(
            x,
            y,
            self.epochs,
            self.learning_rate,
            self.l2,
            |score, label| {
                let sign = 2.0 * label - 1.0; // {0,1} -> {-1,+1}
                if sign * score < 1.0 {
                    -sign
                } else {
                    0.0
                }
            },
        ));
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        let model = self.model.as_ref().expect("predict before fit");
        (0..x.rows())
            .map(|r| sigmoid(model.score(x.row(r))))
            .collect()
    }

    fn export_state(&self) -> Vec<u8> {
        export_linear(&self.model)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        self.model = import_linear(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The row-at-a-time trainer `LinearModel::train` replaced: each row's
    /// score through `score`, its gradient added element by element. The
    /// parity tests hold the two-pass trainer to its bits.
    fn train_row_major(
        x: &Matrix,
        y: &[u8],
        epochs: usize,
        lr: f32,
        l2: f32,
        grad: impl Fn(f32, f32) -> f32,
    ) -> LinearModel {
        let (n, d) = x.shape();
        let mut model = LinearModel {
            weights: vec![0.0; d],
            bias: 0.0,
        };
        let (mut m, mut v) = (vec![0.0f32; d + 1], vec![0.0f32; d + 1]);
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);

        for t in 1..=epochs {
            let mut gw = vec![0.0f32; d];
            let mut gb = 0.0f32;
            #[allow(clippy::needless_range_loop)] // r indexes x rows and y
            for r in 0..n {
                let row = x.row(r);
                let g = grad(model.score(row), y[r] as f32);
                if g != 0.0 {
                    for (gi, xi) in gw.iter_mut().zip(row) {
                        *gi += g * xi;
                    }
                    gb += g;
                }
            }
            let scale = 1.0 / n as f32;
            for (gi, wi) in gw.iter_mut().zip(&model.weights) {
                *gi = *gi * scale + l2 * wi;
            }
            gb *= scale;

            let bc1 = 1.0 - b1.powi(t as i32);
            let bc2 = 1.0 - b2.powi(t as i32);
            for i in 0..d {
                m[i] = b1 * m[i] + (1.0 - b1) * gw[i];
                v[i] = b2 * v[i] + (1.0 - b2) * gw[i] * gw[i];
                model.weights[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
            }
            m[d] = b1 * m[d] + (1.0 - b1) * gb;
            v[d] = b2 * v[d] + (1.0 - b2) * gb * gb;
            model.bias -= lr * (m[d] / bc1) / ((v[d] / bc2).sqrt() + eps);
        }
        model
    }

    /// Histogram-like `n × d` inputs: about four in five entries exactly
    /// zero, counts spanning three orders of magnitude, one in eight nonzero
    /// entries negative, and, from three rows up, the middle row all zero.
    fn sparse_counts(n: usize, d: usize, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|r| {
                (0..d)
                    .map(|_| {
                        if (n > 2 && r == n / 2) || rng.gen_range(0..5u32) != 0 {
                            return 0.0;
                        }
                        let count = rng.gen_range(1.0f32..10.0)
                            * [1.0, 10.0, 100.0][rng.gen_range(0..3usize)];
                        if rng.gen_range(0..8u32) == 0 {
                            -count
                        } else {
                            count
                        }
                    })
                    .collect()
            })
            .collect();
        let y = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
        (Matrix::from_rows(&rows), y)
    }

    fn prob_bits(model: &impl Classifier, x: &Matrix) -> Vec<u32> {
        model.predict_proba(x).iter().map(|p| p.to_bits()).collect()
    }

    /// Fits both linear models with the two-pass trainer and with
    /// [`train_row_major`]; their state bytes and probability bits agree.
    fn assert_matches_row_major(n: usize, d: usize, epochs: usize, seed: u64) {
        let (x, y) = sparse_counts(n, d, seed);

        let mut lr = LogisticRegression::with_epochs(epochs);
        lr.fit(&x, &y);
        let reference = LogisticRegression {
            model: Some(train_row_major(
                &x,
                &y,
                epochs,
                lr.learning_rate,
                lr.l2,
                |score, label| sigmoid(score) - label,
            )),
            ..lr.clone()
        };
        assert_eq!(lr.export_state(), reference.export_state(), "LR {n}x{d}");
        assert_eq!(prob_bits(&lr, &x), prob_bits(&reference, &x), "LR {n}x{d}");

        let mut svm = LinearSvm::with_epochs(epochs);
        svm.fit(&x, &y);
        let reference = LinearSvm {
            model: Some(train_row_major(
                &x,
                &y,
                epochs,
                svm.learning_rate,
                svm.l2,
                |score, label| {
                    let sign = 2.0 * label - 1.0;
                    if sign * score < 1.0 {
                        -sign
                    } else {
                        0.0
                    }
                },
            )),
            ..svm.clone()
        };
        assert_eq!(svm.export_state(), reference.export_state(), "SVM {n}x{d}");
        assert_eq!(
            prob_bits(&svm, &x),
            prob_bits(&reference, &x),
            "SVM {n}x{d}"
        );
    }

    #[test]
    fn edge_shapes_match_row_major() {
        for (n, d) in [(1, 1), (1, 23), (37, 1), (16, 16), (17, 33)] {
            for seed in 0..8 {
                assert_matches_row_major(n, d, 150, seed);
            }
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(48))]

        /// The two-pass trainer is bit-identical to the row-major loop on
        /// the active SIMD tier, over shapes off every lane multiple.
        #[test]
        fn two_pass_trainer_matches_row_major(
            n in 1usize..70,
            d in 1usize..50,
            epochs in 1usize..60,
            seed in 0u64..1_000,
        ) {
            assert_matches_row_major(n, d, epochs, seed);
        }
    }

    fn gaussian_blobs(n: usize, sep: f32, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = (i % 2) as u8;
            let center = if label == 1 { sep } else { -sep };
            rows.push(vec![
                center + rng.gen_range(-1.0f32..1.0),
                center + rng.gen_range(-1.0f32..1.0),
            ]);
            y.push(label);
        }
        (Matrix::from_rows(&rows), y)
    }

    fn accuracy(pred: &[u8], y: &[u8]) -> f32 {
        pred.iter().zip(y).filter(|(a, b)| a == b).count() as f32 / y.len() as f32
    }

    #[test]
    fn logistic_separates_blobs() {
        let (x, y) = gaussian_blobs(400, 2.0, 1);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y);
        assert!(accuracy(&lr.predict(&x), &y) > 0.97);
    }

    #[test]
    fn svm_separates_blobs() {
        let (x, y) = gaussian_blobs(400, 2.0, 2);
        let mut svm = LinearSvm::default();
        svm.fit(&x, &y);
        assert!(accuracy(&svm.predict(&x), &y) > 0.97);
    }

    #[test]
    fn raw_count_scales_are_handled() {
        // Feature scales differing by 1000x, as raw opcode counts do.
        let mut rng = StdRng::seed_from_u64(3);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let label = (i % 2) as u8;
            let big = if label == 1 { 900.0 } else { 600.0 };
            rows.push(vec![
                big + rng.gen_range(-100.0f32..100.0),
                rng.gen_range(0.0..2.0),
            ]);
            y.push(label);
        }
        let x = Matrix::from_rows(&rows);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y);
        assert!(accuracy(&lr.predict(&x), &y) > 0.9);
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = gaussian_blobs(100, 1.0, 5);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y);
        assert!(lr.predict_proba(&x).iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn unfitted_predict_panics() {
        let x = Matrix::zeros(1, 1);
        LogisticRegression::default().predict_proba(&x);
    }
}
