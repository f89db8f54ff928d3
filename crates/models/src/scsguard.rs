//! SCSGuard: embedding → multi-head attention → GRU → dense (Hu et al.,
//! INFOCOM'22 Workshops), the paper's best language model (90.46%).
//!
//! "SCSGuard begins with an embedding layer that maps bigram indices to
//! dense vectors. A multi-head attention mechanism is applied to capture
//! dependencies between different parts of the sequence, followed by a GRU
//! layer that models sequential patterns in the data. Finally, a fully
//! connected linear layer generates the logits." (§IV-B)

use crate::trainer::{predict_binary_batch, train_binary, TrainConfig, PREDICT_BATCH};
use phishinghook_nn::{Gru, Linear, MultiHeadAttention, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SCSGuard configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScsGuardConfig {
    /// Bigram vocabulary size (from the fitted encoder).
    pub vocab: usize,
    /// Embedding width.
    pub embed_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// GRU hidden width.
    pub hidden: usize,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Default for ScsGuardConfig {
    fn default() -> Self {
        ScsGuardConfig {
            vocab: 4096,
            embed_dim: 24,
            heads: 2,
            hidden: 24,
            train: TrainConfig::default(),
        }
    }
}

/// The SCSGuard scam-detection network over bigram id sequences.
///
/// # Examples
///
/// ```
/// use phishinghook_models::{ScsGuard, TrainConfig};
/// use phishinghook_models::scsguard::ScsGuardConfig;
///
/// let cfg = ScsGuardConfig {
///     vocab: 16,
///     train: TrainConfig { epochs: 25, ..Default::default() },
///     ..Default::default()
/// };
/// let mut model = ScsGuard::new(cfg);
/// // Token 3 at the front means phishing in this toy task.
/// let xs: Vec<Vec<u32>> = (0..20).map(|i| vec![3 * (i % 2) as u32, 5, 7, 0]).collect();
/// let ys: Vec<u8> = (0..20).map(|i| (i % 2) as u8).collect();
/// model.fit(&xs, &ys);
/// let probs = model.predict_proba(&xs);
/// assert!(probs[1] > probs[0]);
/// ```
#[derive(Debug)]
pub struct ScsGuard {
    config: ScsGuardConfig,
    store: ParamStore,
    embed: ParamId,
    attn: MultiHeadAttention,
    gru: Gru,
    head: Linear,
}

impl ScsGuard {
    /// Builds the network with fresh parameters.
    pub fn new(config: ScsGuardConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let embed = store.param(Tensor::random(
            &[config.vocab.max(2), config.embed_dim],
            0.1,
            &mut rng,
        ));
        let attn = MultiHeadAttention::new(&mut store, config.embed_dim, config.heads, &mut rng);
        let gru = Gru::new(&mut store, config.embed_dim, config.hidden, &mut rng);
        let head = Linear::new(&mut store, config.hidden, 1, &mut rng);
        ScsGuard {
            config,
            store,
            embed,
            attn,
            gru,
            head,
        }
    }

    /// The one forward pass, shared by training and prediction: a `(B, 1)`
    /// logit column for `B` sequences. The GRU recurrence is inherently
    /// sequential, so each sequence records its own subgraph over an
    /// embedding-table leaf recorded once per batch; the per-sequence
    /// logits are stacked.
    fn logits(&self, t: &mut Tape, s: &ParamStore, batch: &[&Vec<u32>]) -> Var {
        let table = t.param(s, self.embed);
        let logits: Vec<Var> = batch
            .iter()
            .map(|ids| {
                let e = t.embedding(table, ids);
                let a = self.attn.forward(t, s, e, false);
                let x = t.add(e, a); // residual attention
                let h = self.gru.forward(t, s, x);
                self.head.forward(t, s, h)
            })
            .collect();
        t.stack_rows(&logits)
    }

    /// Trains on bigram id sequences with 0/1 labels.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched inputs.
    pub fn fit(&mut self, xs: &[Vec<u32>], y: &[u8]) {
        let cfg = self.config.train;
        let mut store = std::mem::take(&mut self.store);
        train_binary(&mut store, xs, y, &cfg, &[], |t, s, batch| {
            self.logits(t, s, batch)
        });
        self.store = store;
    }

    /// Phishing probability per sequence.
    pub fn predict_proba(&self, xs: &[Vec<u32>]) -> Vec<f32> {
        predict_binary_batch(&self.store, xs, PREDICT_BATCH, |t, s, batch| {
            self.logits(t, s, batch)
        })
    }

    /// Total trainable scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }

    /// Serializes the fitted parameter tensors (flat, bit-exact).
    pub fn export_state(&self) -> Vec<u8> {
        self.store.export_tensors()
    }

    /// Restores parameters exported from a same-configured model, after
    /// which predictions are bit-identical to the exporter's.
    ///
    /// # Errors
    ///
    /// See [`phishinghook_nn::ParamStore::import_tensors`].
    pub fn import_state(
        &mut self,
        bytes: &[u8],
    ) -> Result<(), phishinghook_artifact::ArtifactError> {
        self.store.import_tensors(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_config() -> ScsGuardConfig {
        ScsGuardConfig {
            vocab: 32,
            embed_dim: 8,
            heads: 2,
            hidden: 8,
            train: TrainConfig {
                epochs: 20,
                learning_rate: 0.02,
                ..Default::default()
            },
        }
    }

    #[test]
    fn learns_token_presence() {
        let mut model = ScsGuard::new(toy_config());
        // Class 1 sequences contain token 9 somewhere.
        let xs: Vec<Vec<u32>> = (0..40)
            .map(|i| {
                if i % 2 == 1 {
                    vec![2, 9, 4, 6, 1, 0]
                } else {
                    vec![2, 3, 4, 6, 1, 0]
                }
            })
            .collect();
        let ys: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
        model.fit(&xs, &ys);
        let probs = model.predict_proba(&xs);
        let acc = probs
            .iter()
            .zip(&ys)
            .filter(|(p, &l)| (**p >= 0.5) == (l == 1))
            .count();
        assert!(acc >= 38, "accuracy {acc}/40");
    }

    #[test]
    fn out_of_vocab_ids_are_clamped() {
        let model = ScsGuard::new(toy_config());
        // Id beyond vocab must not panic (clamped to the last row).
        let probs = model.predict_proba(&[vec![9999, 1, 2]]);
        assert!(probs[0].is_finite());
    }

    #[test]
    fn parameter_count_is_positive() {
        let model = ScsGuard::new(toy_config());
        assert!(model.parameter_count() > 100);
    }
}
