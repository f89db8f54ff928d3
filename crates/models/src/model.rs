//! The unified model protocol: every detector — classical or deep — behind
//! one object-safe trait over borrowed [`FeatureRow`] views.
//!
//! A model consumes a slice of [`FeatureRow`]s gathered straight out of a
//! [`FeatureStore`](phishinghook_features::FeatureStore) column store (or
//! freshly encoded by the serving path) and returns phishing probabilities.
//! Dispatch is dynamic, so the whole sixteen-model zoo fits behind
//! `Box<dyn Model>` and one factory.
//!
//! [`Model`] is each model's only public interface. The six deep models
//! implement it in their own modules, borrowing their representation's
//! slices out of the rows (no row is copied on its way in); the classical
//! classifiers reach it through [`DenseClassifier`], which packs the rows
//! into the design matrix they consume.
//!
//! ESCORT's two-phase transfer protocol is preserved through the optional
//! [`Model::pretrain`] hook rather than leaking a special case into every
//! caller.
//!
//! # Examples
//!
//! ```
//! use phishinghook_features::FeatureRow;
//! use phishinghook_ml::KnnClassifier;
//! use phishinghook_models::{DenseClassifier, Model};
//!
//! let mut model: Box<dyn Model> = Box::new(DenseClassifier::new(Box::new(
//!     KnnClassifier::new(1),
//! )));
//! let (a, b) = ([0.0f32], [1.0f32]);
//! let rows = vec![FeatureRow::Dense(&a), FeatureRow::Dense(&b)];
//! model.fit(&rows, &[0, 1]);
//! assert!(model.predict_proba(&rows[1..])[0] >= 0.5);
//! ```

use phishinghook_artifact::ArtifactError;
use phishinghook_features::FeatureRow;
use phishinghook_linalg::Matrix;
use phishinghook_ml::Classifier;

/// A binary phishing detector over unified [`FeatureRow`] inputs.
///
/// Labels are `0` (benign) and `1` (phishing); `predict_proba` returns the
/// probability (or a monotone score in `[0, 1]`) of class `1` per row. All
/// sixteen paper models implement this trait — the seven histogram
/// classifiers through the [`DenseClassifier`] adapter, the deep models
/// directly — so training, evaluation and serving dispatch through one
/// interface.
pub trait Model: Send + Sync {
    /// Fits the model on gathered feature rows.
    ///
    /// # Panics
    ///
    /// Implementations panic on empty input, row/label length mismatch, or
    /// rows of the wrong representation for the model.
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]);

    /// Probability of class 1 for each row.
    ///
    /// Row `i`'s score does not depend on the other rows: scoring a slice
    /// at once and scoring each row alone give bit-identical results. The
    /// deep models score in mini-batches over one arena-reused tape and the
    /// classical ones over one design matrix, so callers pass whole
    /// batches; the serving `CodeScorer` relies on this contract.
    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32>;

    /// Total trainable scalar parameters. Classical (non-gradient) models
    /// report 0: tree and neighbor counts are not comparable to network
    /// parameter counts.
    fn parameter_count(&self) -> usize;

    /// Optional auxiliary pre-training phase run before [`Model::fit`]
    /// when [`Model::wants_pretraining`] is `true` (ESCORT's
    /// vulnerability-branch phase). `aux[i]` holds one 0/1 target per
    /// auxiliary task for sample `i`. Default: no-op.
    fn pretrain(&mut self, _rows: &[FeatureRow<'_>], _aux: &[Vec<u8>]) {}

    /// `true` when the model's protocol requires [`Model::pretrain`] with
    /// auxiliary targets before `fit`.
    fn wants_pretraining(&self) -> bool {
        false
    }

    /// Serializes the fitted state (parameter tensors for the deep models,
    /// trees/weights/neighbours for the classical ones) as an opaque blob.
    /// Configuration is *not* included — the persistence layer rebuilds a
    /// model through its normal factory and then restores state, so every
    /// hyper-parameter lives in exactly one place.
    fn export_state(&self) -> Vec<u8>;

    /// Restores fitted state from a [`Model::export_state`] blob into a
    /// same-configured instance, after which `predict_proba` is
    /// bit-identical to the exporter's — the per-model contract behind the
    /// cold-start parity guarantee.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Corrupt`] on a malformed blob,
    /// [`ArtifactError::Mismatch`] when the blob disagrees with this
    /// instance's configuration.
    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError>;
}

/// Borrows the slice of every dense row.
///
/// # Panics
///
/// Panics if a row is not [`FeatureRow::Dense`].
pub(crate) fn dense_views<'a>(rows: &[FeatureRow<'a>]) -> Vec<&'a [f32]> {
    rows.iter()
        .map(|r| match *r {
            FeatureRow::Dense(v) => v,
            _ => panic!("model expects dense feature rows"),
        })
        .collect()
}

/// Borrows the id sequence of every id row.
///
/// # Panics
///
/// Panics if a row is not [`FeatureRow::Ids`].
pub(crate) fn id_views<'a>(rows: &[FeatureRow<'a>]) -> Vec<&'a [u32]> {
    rows.iter()
        .map(|r| match *r {
            FeatureRow::Ids(v) => v,
            _ => panic!("model expects id feature rows"),
        })
        .collect()
}

/// Borrows the window list of every window row.
///
/// # Panics
///
/// Panics if a row is not [`FeatureRow::Windows`].
pub(crate) fn window_views<'a>(rows: &[FeatureRow<'a>]) -> Vec<&'a [Vec<u32>]> {
    rows.iter()
        .map(|r| match *r {
            FeatureRow::Windows(w) => w,
            _ => panic!("model expects window feature rows"),
        })
        .collect()
}

/// Packs dense rows into one contiguous row-major [`Matrix`].
///
/// # Panics
///
/// Panics on empty input, a non-dense row, or ragged widths.
pub fn dense_matrix(rows: &[FeatureRow<'_>]) -> Matrix {
    assert!(!rows.is_empty(), "cannot pack an empty row set");
    let width = rows[0].len();
    let mut data = Vec::with_capacity(rows.len() * width);
    for r in rows {
        match r {
            FeatureRow::Dense(v) => {
                assert_eq!(v.len(), width, "ragged dense rows");
                data.extend_from_slice(v);
            }
            _ => panic!("model expects dense feature rows"),
        }
    }
    Matrix::from_vec(rows.len(), width, data)
}

/// Adapter lifting any [`Classifier`] (the seven histogram similarity
/// classifiers) into the unified [`Model`] protocol: dense rows are packed
/// into the contiguous design matrix the classical implementations consume.
pub struct DenseClassifier {
    inner: Box<dyn Classifier>,
}

impl DenseClassifier {
    /// Wraps a classical classifier.
    pub fn new(inner: Box<dyn Classifier>) -> Self {
        DenseClassifier { inner }
    }
}

impl Model for DenseClassifier {
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        self.inner.fit(&dense_matrix(rows), labels);
    }

    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        self.inner.predict_proba(&dense_matrix(rows))
    }

    fn parameter_count(&self) -> usize {
        0
    }

    fn export_state(&self) -> Vec<u8> {
        self.inner.export_state()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        self.inner.import_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpt2::Gpt2Config;
    use crate::scsguard::ScsGuardConfig;
    use crate::vit::ViTConfig;
    use crate::{Gpt2Classifier, ScsGuard, TrainConfig, ViT};
    use phishinghook_ml::LogisticRegression;

    fn dense<'a>(data: &'a [Vec<f32>]) -> Vec<FeatureRow<'a>> {
        data.iter().map(|v| FeatureRow::Dense(v)).collect()
    }

    #[test]
    fn dense_classifier_round_trips_through_the_trait() {
        let data: Vec<Vec<f32>> = (0..20).map(|i| vec![(i % 2) as f32, 1.0]).collect();
        let labels: Vec<u8> = (0..20).map(|i| (i % 2) as u8).collect();
        let rows = dense(&data);
        let mut model: Box<dyn Model> = Box::new(DenseClassifier::new(Box::new(
            LogisticRegression::with_epochs(200),
        )));
        model.fit(&rows, &labels);
        assert_eq!(model.parameter_count(), 0);
        let probs = model.predict_proba(&rows);
        let correct = probs
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == (l == 1))
            .count();
        assert!(correct >= 18, "{correct}/20");
    }

    #[test]
    fn trait_state_round_trips_bit_exactly() {
        // One classical adapter and one deep model through the trait.
        let data: Vec<Vec<f32>> = (0..16).map(|i| vec![(i % 2) as f32, 1.0]).collect();
        let labels: Vec<u8> = (0..16).map(|i| (i % 2) as u8).collect();
        let rows = dense(&data);
        let mut trained: Box<dyn Model> = Box::new(DenseClassifier::new(Box::new(
            LogisticRegression::with_epochs(80),
        )));
        trained.fit(&rows, &labels);
        let mut fresh: Box<dyn Model> = Box::new(DenseClassifier::new(Box::new(
            LogisticRegression::with_epochs(80),
        )));
        fresh.import_state(&trained.export_state()).unwrap();
        assert_eq!(fresh.predict_proba(&rows), trained.predict_proba(&rows));

        let xs: Vec<Vec<u32>> = (0..10).map(|i| vec![(i % 3) as u32; 6]).collect();
        let id_labels: Vec<u8> = (0..10).map(|i| u8::from(i % 3 == 0)).collect();
        let cfg = ScsGuardConfig {
            vocab: 8,
            train: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            ..ScsGuardConfig::default()
        };
        let deep_rows: Vec<FeatureRow<'_>> = xs.iter().map(|v| FeatureRow::Ids(v)).collect();
        let mut deep: Box<dyn Model> = Box::new(ScsGuard::new(cfg));
        deep.fit(&deep_rows, &id_labels);
        let mut deep_fresh: Box<dyn Model> = Box::new(ScsGuard::new(cfg));
        deep_fresh.import_state(&deep.export_state()).unwrap();
        assert_eq!(
            deep_fresh.predict_proba(&deep_rows),
            deep.predict_proba(&deep_rows)
        );

        // Cross-model state is rejected, not silently absorbed.
        assert!(deep_fresh.import_state(&trained.export_state()).is_err());
    }

    #[test]
    #[should_panic(expected = "model expects dense feature rows")]
    fn representation_mismatch_is_rejected() {
        let ids = [1u32, 2];
        let rows = vec![FeatureRow::Ids(&ids)];
        let mut model = DenseClassifier::new(Box::new(LogisticRegression::with_epochs(10)));
        model.fit(&rows, &[1]);
    }

    #[test]
    #[should_panic(expected = "model expects dense feature rows")]
    fn dense_deep_model_rejects_id_rows() {
        let ids = vec![1u32; 3 * 8 * 8];
        let mut model: Box<dyn Model> = Box::new(ViT::new(ViTConfig {
            side: 8,
            patch: 4,
            dim: 8,
            heads: 2,
            depth: 1,
            train: TrainConfig::default(),
        }));
        model.fit(&[FeatureRow::Ids(&ids)], &[1]);
    }

    #[test]
    #[should_panic(expected = "model expects id feature rows")]
    fn scsguard_rejects_window_rows() {
        let windows = vec![vec![1u32, 2, 3]];
        let model: Box<dyn Model> = Box::new(ScsGuard::new(ScsGuardConfig {
            vocab: 8,
            ..ScsGuardConfig::default()
        }));
        model.predict_proba(&[FeatureRow::Windows(&windows)]);
    }

    #[test]
    #[should_panic(expected = "model expects window feature rows")]
    fn gpt2_rejects_dense_rows() {
        let dense_row = [0.5f32; 8];
        let mut model: Box<dyn Model> = Box::new(Gpt2Classifier::new(Gpt2Config {
            vocab: 8,
            context: 4,
            dim: 8,
            heads: 2,
            depth: 1,
            ..Gpt2Config::default()
        }));
        model.fit(&[FeatureRow::Dense(&dense_row)], &[1]);
    }

    #[test]
    #[should_panic(expected = "cannot pack an empty row set")]
    fn empty_rows_rejected() {
        dense_matrix(&[]);
    }
}
