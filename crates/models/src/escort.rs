//! ESCORT (Sendner et al., NDSS'23): a multi-branch vulnerability-detection
//! DNN with a transfer-learning mode, adapted — as the paper does — to
//! phishing detection.
//!
//! ESCORT's design: a shared feature-extractor trunk over embedded bytecode,
//! plus one small branch per vulnerability class; new threats are handled by
//! *freezing the trunk* and training only a fresh branch (deep transfer
//! learning). The paper finds this transfers poorly to phishing (≈56%
//! accuracy) because the trunk encodes code-flaw features, not
//! social-engineering signals; this reproduction keeps that two-phase
//! protocol so the failure mode is reproduced honestly, not hard-coded.

use crate::model::{dense_views, Model};
use crate::trainer::{batch_input, predict_binary_batch, train_binary, TrainConfig, PREDICT_BATCH};
use phishinghook_artifact::{ArtifactError, ByteReader, ByteWriter};
use phishinghook_features::FeatureRow;
use phishinghook_nn::{Linear, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ESCORT configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EscortConfig {
    /// Input embedding dimension (from the ESCORT embedder).
    pub input_dim: usize,
    /// First trunk layer width.
    pub trunk1: usize,
    /// Second trunk layer width (branch input).
    pub trunk2: usize,
    /// Number of vulnerability branches used in pre-training.
    pub vuln_branches: usize,
    /// Training loop settings (shared by both phases).
    pub train: TrainConfig,
}

impl Default for EscortConfig {
    fn default() -> Self {
        EscortConfig {
            input_dim: 128,
            trunk1: 64,
            trunk2: 32,
            vuln_branches: 4,
            train: TrainConfig::default(),
        }
    }
}

/// The ESCORT network: shared trunk + detachable branches, fed as
/// [`FeatureRow::Dense`] embedding rows. [`Model::pretrain`] is phase 1
/// (vulnerability branches) and [`Model::fit`] is phase 2 (the phishing
/// transfer branch over the frozen trunk).
///
/// # Examples
///
/// ```
/// use phishinghook_features::FeatureRow;
/// use phishinghook_models::escort::{EscortNet, EscortConfig};
/// use phishinghook_models::{Model, TrainConfig};
///
/// let cfg = EscortConfig {
///     input_dim: 8, trunk1: 8, trunk2: 4, vuln_branches: 2,
///     train: TrainConfig { epochs: 10, ..Default::default() },
/// };
/// let mut model = EscortNet::new(cfg);
/// let xs: Vec<Vec<f32>> = (0..12).map(|i| vec![(i % 3) as f32; 8]).collect();
/// let rows: Vec<FeatureRow> = xs.iter().map(|v| FeatureRow::Dense(v)).collect();
/// let vuln: Vec<Vec<u8>> = (0..12).map(|i| vec![(i % 2) as u8, ((i / 2) % 2) as u8]).collect();
/// model.pretrain(&rows, &vuln);
/// let phishing: Vec<u8> = (0..12).map(|i| (i % 2) as u8).collect();
/// model.fit(&rows, &phishing);
/// assert_eq!(model.predict_proba(&rows).len(), 12);
/// ```
#[derive(Debug)]
pub struct EscortNet {
    config: EscortConfig,
    store: ParamStore,
    trunk1: Linear,
    trunk2: Linear,
    vuln_heads: Vec<Linear>,
    phishing_head: Option<Linear>,
    trunk_params: Vec<ParamId>,
    rng: StdRng,
}

impl EscortNet {
    /// Builds the trunk and the vulnerability branches.
    pub fn new(config: EscortConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let trunk1 = Linear::new(&mut store, config.input_dim, config.trunk1, &mut rng);
        let trunk2 = Linear::new(&mut store, config.trunk1, config.trunk2, &mut rng);
        let trunk_params: Vec<ParamId> =
            trunk1.params().into_iter().chain(trunk2.params()).collect();
        let vuln_heads = (0..config.vuln_branches)
            .map(|_| Linear::new(&mut store, config.trunk2, 1, &mut rng))
            .collect();
        EscortNet {
            config,
            store,
            trunk1,
            trunk2,
            vuln_heads,
            phishing_head: None,
            trunk_params,
            rng,
        }
    }

    /// The one forward pass, shared by both training phases and
    /// prediction: the whole batch rides one `(B, d)` activation through
    /// the trunk, so each weight matrix is read once per batch, and `head`
    /// turns the trunk features into a `(B, 1)` logit column.
    fn logits(&self, head: Linear, t: &mut Tape, s: &ParamStore, batch: &[&&[f32]]) -> Var {
        let xv = batch_input(t, batch);
        let h = self.trunk1.forward(t, s, xv);
        let h = t.relu(h);
        let h = self.trunk2.forward(t, s, h);
        let f = t.relu(h);
        head.forward(t, s, f)
    }
}

impl Model for EscortNet {
    /// Phase 2: transfer to phishing — attach a fresh branch and train it
    /// with the trunk **frozen**, as ESCORT handles new vulnerability types.
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        let xs = dense_views(rows);
        let head = Linear::new(&mut self.store, self.config.trunk2, 1, &mut self.rng);
        self.phishing_head = Some(head);
        let cfg = self.config.train;
        let mut store = std::mem::take(&mut self.store);
        train_binary(
            &mut store,
            &xs,
            labels,
            &cfg,
            &self.trunk_params,
            |t, s, batch| self.logits(head, t, s, batch),
        );
        self.store = store;
    }

    /// # Panics
    ///
    /// Panics if called before [`Model::fit`].
    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        let xs = dense_views(rows);
        let head = self.phishing_head.expect("predict before fit");
        predict_binary_batch(&self.store, &xs, PREDICT_BATCH, |t, s, batch| {
            self.logits(head, t, s, batch)
        })
    }

    fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }

    /// Phase 1: multi-label pre-training of trunk + vulnerability branches,
    /// one branch at a time over the shared, unfrozen trunk.
    ///
    /// # Panics
    ///
    /// Panics if a label row is narrower than the branch count.
    fn pretrain(&mut self, rows: &[FeatureRow<'_>], aux: &[Vec<u8>]) {
        assert_eq!(rows.len(), aux.len(), "sample/label mismatch");
        let xs = dense_views(rows);
        let cfg = self.config.train;
        for (b, &head) in self.vuln_heads.iter().enumerate() {
            let labels: Vec<u8> = aux
                .iter()
                .map(|row| {
                    assert!(row.len() > b, "vulnerability label row too short");
                    row[b]
                })
                .collect();
            let mut store = std::mem::take(&mut self.store);
            train_binary(&mut store, &xs, &labels, &cfg, &[], |t, s, batch| {
                self.logits(head, t, s, batch)
            });
            self.store = store;
        }
    }

    fn wants_pretraining(&self) -> bool {
        true
    }

    /// The fitted parameter tensors plus whether the phishing transfer
    /// branch has been attached.
    fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(u8::from(self.phishing_head.is_some()));
        w.put_bytes(&self.store.export_tensors());
        w.into_bytes()
    }

    /// Restores state exported from a same-configured model that has been
    /// through [`Model::fit`]. The phishing branch is attached here first
    /// (same structural path as training), then every tensor — trunk,
    /// vulnerability branches, transfer head — is overwritten with the
    /// exported values.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Mismatch`] when the state carries no phishing head
    /// (exported before `fit`: such a model could never predict), plus
    /// tensor shape/count mismatches from the parameter store.
    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
        let mut r = ByteReader::new(bytes);
        let has_head = r.take_u8()? != 0;
        let tensors = r.take_bytes()?.to_vec();
        r.expect_exhausted("escort state")?;
        if !has_head {
            return Err(ArtifactError::Mismatch(
                "escort state carries no phishing head (exported before fit)".into(),
            ));
        }
        if self.phishing_head.is_none() {
            let head = Linear::new(&mut self.store, self.config.trunk2, 1, &mut self.rng);
            self.phishing_head = Some(head);
        }
        self.store.import_tensors(&tensors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(xs: &[Vec<f32>]) -> Vec<FeatureRow<'_>> {
        xs.iter().map(|v| FeatureRow::Dense(v)).collect()
    }

    fn toy() -> EscortConfig {
        EscortConfig {
            input_dim: 6,
            trunk1: 8,
            trunk2: 4,
            vuln_branches: 2,
            train: TrainConfig {
                epochs: 25,
                learning_rate: 0.03,
                ..Default::default()
            },
        }
    }

    #[test]
    fn transfer_keeps_trunk_frozen() {
        let mut model = EscortNet::new(toy());
        let xs: Vec<Vec<f32>> = (0..20).map(|i| vec![(i % 4) as f32; 6]).collect();
        let rows = dense(&xs);
        let vuln: Vec<Vec<u8>> = (0..20).map(|i| vec![(i % 2) as u8, 0]).collect();
        model.pretrain(&rows, &vuln);
        let trunk_before: Vec<Vec<f32>> = model
            .trunk_params
            .iter()
            .map(|&p| model.store.value(p).data().to_vec())
            .collect();
        let phishing: Vec<u8> = (0..20).map(|i| ((i / 2) % 2) as u8).collect();
        model.fit(&rows, &phishing);
        let trunk_after: Vec<Vec<f32>> = model
            .trunk_params
            .iter()
            .map(|&p| model.store.value(p).data().to_vec())
            .collect();
        assert_eq!(trunk_before, trunk_after, "trunk must stay frozen");
    }

    #[test]
    fn transferred_branch_fits_trunk_aligned_task() {
        // When the phishing labels *do* align with the pre-training task the
        // frozen trunk suffices — the failure on real phishing comes from
        // misalignment, not from a broken pipeline.
        let mut model = EscortNet::new(toy());
        let xs: Vec<Vec<f32>> = (0..30)
            .map(|i| {
                let v = (i % 2) as f32;
                vec![v, 1.0 - v, v, v, 0.5, 1.0 - v]
            })
            .collect();
        let labels: Vec<u8> = (0..30).map(|i| (i % 2) as u8).collect();
        let vuln: Vec<Vec<u8>> = labels.iter().map(|&l| vec![l, 1 - l]).collect();
        let rows = dense(&xs);
        model.pretrain(&rows, &vuln);
        model.fit(&rows, &labels);
        let probs = model.predict_proba(&rows);
        let acc = probs
            .iter()
            .zip(&labels)
            .filter(|(p, &l)| (**p >= 0.5) == (l == 1))
            .count();
        assert!(acc >= 27, "accuracy {acc}/30");
    }

    #[test]
    fn head_less_state_is_rejected() {
        // Pretrained only: the exported state has no phishing head, and a
        // model restored from it could never predict.
        let mut pretrained = EscortNet::new(toy());
        let xs: Vec<Vec<f32>> = (0..8).map(|i| vec![(i % 4) as f32; 6]).collect();
        let vuln: Vec<Vec<u8>> = (0..8).map(|i| vec![(i % 2) as u8, 0]).collect();
        pretrained.pretrain(&dense(&xs), &vuln);
        let mut fresh = EscortNet::new(toy());
        assert!(matches!(
            fresh.import_state(&pretrained.export_state()),
            Err(ArtifactError::Mismatch(_))
        ));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_requires_transfer() {
        let model = EscortNet::new(toy());
        model.predict_proba(&[FeatureRow::Dense(&[0.0; 6])]);
    }
}
