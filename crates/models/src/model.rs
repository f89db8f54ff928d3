//! The unified model protocol: every detector — classical or deep — behind
//! one object-safe trait over borrowed [`FeatureRow`] views.
//!
//! A model consumes a slice of [`FeatureRow`]s gathered straight out of a
//! [`FeatureStore`](phishinghook_features::FeatureStore) column store (or
//! freshly encoded by the serving path) and returns phishing probabilities.
//! Dispatch is dynamic, so the whole sixteen-model zoo fits behind
//! `Box<dyn Model>` and one factory.
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

use crate::{EcaEfficientNet, EscortNet, Gpt2Classifier, ScsGuard, T5Classifier, ViT};
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

    /// Hard 0/1 predictions (probability ≥ 0.5 ⇒ class 1).
    fn predict(&self, rows: &[FeatureRow<'_>]) -> Vec<u8> {
        self.predict_proba(rows)
            .into_iter()
            .map(|p| u8::from(p >= 0.5))
            .collect()
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

/// Gathers dense rows into owned vectors.
///
/// # Panics
///
/// Panics if a row is not [`FeatureRow::Dense`].
pub fn dense_rows(rows: &[FeatureRow<'_>]) -> Vec<Vec<f32>> {
    rows.iter()
        .map(|r| match r {
            FeatureRow::Dense(v) => v.to_vec(),
            _ => panic!("model expects dense feature rows"),
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

/// Gathers id rows into owned sequences.
///
/// # Panics
///
/// Panics if a row is not [`FeatureRow::Ids`].
pub fn id_rows(rows: &[FeatureRow<'_>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|r| match r {
            FeatureRow::Ids(v) => v.to_vec(),
            _ => panic!("model expects id feature rows"),
        })
        .collect()
}

/// Gathers window rows into owned per-sample window lists.
///
/// # Panics
///
/// Panics if a row is not [`FeatureRow::Windows`].
pub fn window_rows(rows: &[FeatureRow<'_>]) -> Vec<Vec<Vec<u32>>> {
    rows.iter()
        .map(|r| match r {
            FeatureRow::Windows(w) => w.to_vec(),
            _ => panic!("model expects window feature rows"),
        })
        .collect()
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

impl Model for ViT {
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        ViT::fit(self, &dense_rows(rows), labels);
    }

    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        ViT::predict_proba(self, &dense_rows(rows))
    }

    fn parameter_count(&self) -> usize {
        ViT::parameter_count(self)
    }

    fn export_state(&self) -> Vec<u8> {
        ViT::export_state(self)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        ViT::import_state(self, bytes)
    }
}

impl Model for EcaEfficientNet {
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        EcaEfficientNet::fit(self, &dense_rows(rows), labels);
    }

    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        EcaEfficientNet::predict_proba(self, &dense_rows(rows))
    }

    fn parameter_count(&self) -> usize {
        EcaEfficientNet::parameter_count(self)
    }

    fn export_state(&self) -> Vec<u8> {
        EcaEfficientNet::export_state(self)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        EcaEfficientNet::import_state(self, bytes)
    }
}

impl Model for ScsGuard {
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        ScsGuard::fit(self, &id_rows(rows), labels);
    }

    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        ScsGuard::predict_proba(self, &id_rows(rows))
    }

    fn parameter_count(&self) -> usize {
        ScsGuard::parameter_count(self)
    }

    fn export_state(&self) -> Vec<u8> {
        ScsGuard::export_state(self)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        ScsGuard::import_state(self, bytes)
    }
}

impl Model for Gpt2Classifier {
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        Gpt2Classifier::fit(self, &window_rows(rows), labels);
    }

    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        Gpt2Classifier::predict_proba(self, &window_rows(rows))
    }

    fn parameter_count(&self) -> usize {
        Gpt2Classifier::parameter_count(self)
    }

    fn export_state(&self) -> Vec<u8> {
        Gpt2Classifier::export_state(self)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        Gpt2Classifier::import_state(self, bytes)
    }
}

impl Model for T5Classifier {
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        T5Classifier::fit(self, &window_rows(rows), labels);
    }

    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        T5Classifier::predict_proba(self, &window_rows(rows))
    }

    fn parameter_count(&self) -> usize {
        T5Classifier::parameter_count(self)
    }

    fn export_state(&self) -> Vec<u8> {
        T5Classifier::export_state(self)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        T5Classifier::import_state(self, bytes)
    }
}

impl Model for EscortNet {
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        self.fit_transfer(&dense_rows(rows), labels);
    }

    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        EscortNet::predict_proba(self, &dense_rows(rows))
    }

    fn parameter_count(&self) -> usize {
        EscortNet::parameter_count(self)
    }

    fn export_state(&self) -> Vec<u8> {
        EscortNet::export_state(self)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        EscortNet::import_state(self, bytes)
    }

    fn pretrain(&mut self, rows: &[FeatureRow<'_>], aux: &[Vec<u8>]) {
        EscortNet::pretrain(self, &dense_rows(rows), aux);
    }

    fn wants_pretraining(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scsguard::ScsGuardConfig;
    use crate::TrainConfig;
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
        let pred = model.predict(&rows);
        let correct = pred.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(correct >= 18, "{correct}/20");
    }

    #[test]
    fn trait_dispatch_matches_inherent_calls() {
        // Same seed, same inputs: the trait adapter must be a pure
        // pass-through around the inherent protocol.
        let xs: Vec<Vec<u32>> = (0..12).map(|i| vec![(i % 3) as u32; 6]).collect();
        let labels: Vec<u8> = (0..12).map(|i| u8::from(i % 3 == 0)).collect();
        let cfg = ScsGuardConfig {
            vocab: 8,
            train: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            ..ScsGuardConfig::default()
        };

        let mut direct = ScsGuard::new(cfg);
        ScsGuard::fit(&mut direct, &xs, &labels);
        let direct_probs = ScsGuard::predict_proba(&direct, &xs);

        let rows: Vec<FeatureRow<'_>> = xs.iter().map(|v| FeatureRow::Ids(v)).collect();
        let mut via_trait: Box<dyn Model> = Box::new(ScsGuard::new(cfg));
        via_trait.fit(&rows, &labels);
        assert_eq!(via_trait.predict_proba(&rows), direct_probs);
        assert!(via_trait.parameter_count() > 0);
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
        let id_rows_owned: Vec<FeatureRow<'_>> = xs.iter().map(|v| FeatureRow::Ids(v)).collect();
        let mut deep: Box<dyn Model> = Box::new(ScsGuard::new(cfg));
        deep.fit(&id_rows_owned, &id_labels);
        let mut deep_fresh: Box<dyn Model> = Box::new(ScsGuard::new(cfg));
        deep_fresh.import_state(&deep.export_state()).unwrap();
        assert_eq!(
            deep_fresh.predict_proba(&id_rows_owned),
            deep.predict_proba(&id_rows_owned)
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
    #[should_panic(expected = "cannot pack an empty row set")]
    fn empty_rows_rejected() {
        dense_matrix(&[]);
    }
}
