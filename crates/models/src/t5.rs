//! T5-style classifier: a bidirectional transformer encoder with a
//! single-step cross-attention decoder head.
//!
//! T5 is an encoder–decoder model; for sequence classification the decoder
//! generates one step from a learned start query attending over the encoder
//! output — reproduced here exactly, at small width. The α (truncate) and β
//! (sliding window) data policies follow the same contract as
//! [`crate::Gpt2Classifier`].

use crate::trainer::{
    aggregate_window_probs, label_windows, predict_binary_batch, train_binary, TrainConfig,
    PREDICT_BATCH,
};
use phishinghook_nn::{
    LayerNorm, Linear, MultiHeadAttention, ParamId, ParamStore, Tape, Tensor, TransformerBlock, Var,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// T5 classifier configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct T5Config {
    /// Token vocabulary size.
    pub vocab: usize,
    /// Context length (tokens per window).
    pub context: usize,
    /// Model width.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder blocks.
    pub depth: usize,
    /// Maximum training windows per contract.
    pub max_train_windows: usize,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Default for T5Config {
    fn default() -> Self {
        T5Config {
            vocab: 258,
            context: 64,
            dim: 32,
            heads: 4,
            depth: 2,
            max_train_windows: 3,
            train: TrainConfig::default(),
        }
    }
}

/// Encoder–decoder transformer classifier over tokenized opcode windows.
///
/// # Examples
///
/// ```
/// use phishinghook_models::t5::{T5Classifier, T5Config};
/// use phishinghook_models::TrainConfig;
///
/// let cfg = T5Config {
///     vocab: 16, context: 6, dim: 8, heads: 2, depth: 1,
///     train: TrainConfig { epochs: 20, ..Default::default() },
///     ..Default::default()
/// };
/// let mut model = T5Classifier::new(cfg);
/// let xs: Vec<Vec<Vec<u32>>> = (0..16)
///     .map(|i| vec![vec![2 + 7 * (i % 2) as u32, 3, 4, 5, 0, 0]])
///     .collect();
/// let ys: Vec<u8> = (0..16).map(|i| (i % 2) as u8).collect();
/// model.fit(&xs, &ys);
/// let p = model.predict_proba(&xs);
/// assert!(p[1] > p[0]);
/// ```
#[derive(Debug)]
pub struct T5Classifier {
    config: T5Config,
    store: ParamStore,
    token_embed: ParamId,
    pos_embed: ParamId,
    encoder: Vec<TransformerBlock>,
    dec_query: ParamId,
    cross_attn: MultiHeadAttention,
    dec_norm: LayerNorm,
    head: Linear,
}

impl T5Classifier {
    /// Builds the model with fresh parameters.
    pub fn new(config: T5Config) -> Self {
        let mut rng = StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let token_embed = store.param(Tensor::random(
            &[config.vocab.max(2), config.dim],
            0.1,
            &mut rng,
        ));
        let pos_embed = store.param(Tensor::random(&[config.context, config.dim], 0.1, &mut rng));
        let encoder = (0..config.depth)
            .map(|_| TransformerBlock::new(&mut store, config.dim, config.heads, &mut rng))
            .collect();
        let dec_query = store.param(Tensor::random(&[1, config.dim], 0.1, &mut rng));
        let cross_attn = MultiHeadAttention::new(&mut store, config.dim, config.heads, &mut rng);
        let dec_norm = LayerNorm::new(&mut store, config.dim);
        let head = Linear::new(&mut store, config.dim, 1, &mut rng);
        T5Classifier {
            config,
            store,
            token_embed,
            pos_embed,
            encoder,
            dec_query,
            cross_attn,
            dec_norm,
            head,
        }
    }

    /// The one forward pass, shared by training and prediction: a `(B, 1)`
    /// logit column for `B` windows. The embedding table, positional rows
    /// and decoder query are recorded once per batch and shared by every
    /// window's subgraph.
    fn logits<W: AsRef<[u32]>>(&self, t: &mut Tape, s: &ParamStore, batch: &[&W]) -> Var {
        let (context, dim) = (self.config.context, self.config.dim);
        let table = t.param(s, self.token_embed);
        let pos_full = t.param(s, self.pos_embed);
        let q = t.param(s, self.dec_query);
        let logits: Vec<Var> = batch
            .iter()
            .map(|window| {
                let window = window.as_ref();
                let ids = &window[..window.len().min(context)];
                let e = t.embedding(table, ids);
                let pos = if ids.len() == context {
                    pos_full
                } else {
                    let data = t.value(pos_full).data()[..ids.len() * dim].to_vec();
                    t.input(Tensor::from_vec(&[ids.len(), dim], data))
                };
                let mut x = t.add(e, pos);
                for block in &self.encoder {
                    x = block.forward(t, s, x, false);
                }
                // Single decoding step: learned query cross-attends over the
                // memory.
                let ctx = self.cross_attn.forward_cross(t, s, q, x);
                let ctx = t.add(q, ctx);
                let ctx = self.dec_norm.forward(t, s, ctx);
                self.head.forward(t, s, ctx)
            })
            .collect();
        t.stack_rows(&logits)
    }

    /// Trains on per-contract window lists with 0/1 labels (every window
    /// inherits its contract's label, capped at `max_train_windows`).
    pub fn fit(&mut self, xs: &[Vec<Vec<u32>>], y: &[u8]) {
        let (windows, labels) = label_windows(xs, y, self.config.max_train_windows);
        let cfg = self.config.train;
        let mut store = std::mem::take(&mut self.store);
        train_binary(&mut store, &windows, &labels, &cfg, &[], |t, s, batch| {
            self.logits(t, s, batch)
        });
        self.store = store;
    }

    /// Phishing probability per contract (mean over windows), scored in
    /// window mini-batches of [`PREDICT_BATCH`]; a contract's score does
    /// not depend on the other contracts in `xs`.
    pub fn predict_proba(&self, xs: &[Vec<Vec<u32>>]) -> Vec<f32> {
        let windows: Vec<&Vec<u32>> = xs.iter().flatten().collect();
        let probs = predict_binary_batch(&self.store, &windows, PREDICT_BATCH, |t, s, batch| {
            self.logits(t, s, batch)
        });
        aggregate_window_probs(xs, &probs)
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

    fn toy() -> T5Config {
        T5Config {
            vocab: 32,
            context: 8,
            dim: 8,
            heads: 2,
            depth: 1,
            max_train_windows: 2,
            train: TrainConfig {
                epochs: 20,
                learning_rate: 0.02,
                ..Default::default()
            },
        }
    }

    #[test]
    fn learns_token_presence() {
        let mut model = T5Classifier::new(toy());
        let xs: Vec<Vec<Vec<u32>>> = (0..30)
            .map(|i| vec![vec![4, 6 + 11 * (i % 2) as u32, 2, 2, 0, 0, 0, 0]])
            .collect();
        let ys: Vec<u8> = (0..30).map(|i| (i % 2) as u8).collect();
        model.fit(&xs, &ys);
        let probs = model.predict_proba(&xs);
        let acc = probs
            .iter()
            .zip(&ys)
            .filter(|(p, &l)| (**p >= 0.5) == (l == 1))
            .count();
        assert!(acc >= 28, "accuracy {acc}/30");
    }

    #[test]
    fn handles_short_windows() {
        let model = T5Classifier::new(toy());
        let p = model.predict_proba(&[vec![vec![1, 2, 3]]]);
        assert!(p[0].is_finite());
    }
}
