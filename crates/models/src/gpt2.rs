//! GPT-2-style classifier: decoder-only transformer with causal attention
//! over opcode token sequences.
//!
//! The paper evaluates two data policies: **α**, where sequences are
//! truncated to the context length, and **β**, where full bytecodes are
//! processed in sliding-window chunks. Both are supported here: `fit` trains
//! on every window (each carrying its contract's label, as chunked
//! fine-tuning does) and `predict_proba` averages window probabilities.

use crate::trainer::{
    aggregate_window_probs, label_windows, predict_binary_batch, train_binary, TrainConfig,
    PREDICT_BATCH,
};
use phishinghook_nn::{
    LayerNorm, Linear, ParamId, ParamStore, Tape, Tensor, TransformerBlock, Var,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GPT-2 classifier configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gpt2Config {
    /// Token vocabulary size.
    pub vocab: usize,
    /// Context length (tokens per window).
    pub context: usize,
    /// Model width.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Decoder blocks.
    pub depth: usize,
    /// Maximum training windows taken per contract (β can produce many).
    pub max_train_windows: usize,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Default for Gpt2Config {
    fn default() -> Self {
        Gpt2Config {
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

/// Decoder-only transformer classifier over tokenized opcode windows.
///
/// Inputs are per-contract *window lists* (one window for the α variant,
/// several for β), as produced by
/// `phishinghook_features::OpcodeTokenizer::encode`.
///
/// # Examples
///
/// ```
/// use phishinghook_models::gpt2::{Gpt2Classifier, Gpt2Config};
/// use phishinghook_models::TrainConfig;
///
/// let cfg = Gpt2Config {
///     vocab: 16, context: 6, dim: 8, heads: 2, depth: 1,
///     train: TrainConfig { epochs: 20, ..Default::default() },
///     ..Default::default()
/// };
/// let mut model = Gpt2Classifier::new(cfg);
/// let xs: Vec<Vec<Vec<u32>>> = (0..16)
///     .map(|i| vec![vec![2 + 7 * (i % 2) as u32, 3, 4, 5, 0, 0]])
///     .collect();
/// let ys: Vec<u8> = (0..16).map(|i| (i % 2) as u8).collect();
/// model.fit(&xs, &ys);
/// let p = model.predict_proba(&xs);
/// assert!(p[1] > p[0]);
/// ```
#[derive(Debug)]
pub struct Gpt2Classifier {
    config: Gpt2Config,
    store: ParamStore,
    token_embed: ParamId,
    pos_embed: ParamId,
    blocks: Vec<TransformerBlock>,
    final_norm: LayerNorm,
    head: Linear,
}

impl Gpt2Classifier {
    /// Builds the model with fresh parameters.
    pub fn new(config: Gpt2Config) -> Self {
        let mut rng = StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let token_embed = store.param(Tensor::random(
            &[config.vocab.max(2), config.dim],
            0.1,
            &mut rng,
        ));
        let pos_embed = store.param(Tensor::random(&[config.context, config.dim], 0.1, &mut rng));
        let blocks = (0..config.depth)
            .map(|_| TransformerBlock::new(&mut store, config.dim, config.heads, &mut rng))
            .collect();
        let final_norm = LayerNorm::new(&mut store, config.dim);
        let head = Linear::new(&mut store, config.dim, 1, &mut rng);
        Gpt2Classifier {
            config,
            store,
            token_embed,
            pos_embed,
            blocks,
            final_norm,
            head,
        }
    }

    /// The one forward pass, shared by training and prediction: a `(B, 1)`
    /// logit column for `B` windows. The embedding table and positional
    /// rows are recorded once per batch and shared by every window's
    /// causal-attention subgraph.
    fn logits<W: AsRef<[u32]>>(&self, t: &mut Tape, s: &ParamStore, batch: &[&W]) -> Var {
        let (context, dim) = (self.config.context, self.config.dim);
        let table = t.param(s, self.token_embed);
        let pos_full = t.param(s, self.pos_embed);
        let logits: Vec<Var> = batch
            .iter()
            .map(|window| {
                let window = window.as_ref();
                let ids = &window[..window.len().min(context)];
                let e = t.embedding(table, ids);
                let pos = if ids.len() == context {
                    pos_full
                } else {
                    // Shorter final window: take matching positional rows.
                    let data = t.value(pos_full).data()[..ids.len() * dim].to_vec();
                    t.input(Tensor::from_vec(&[ids.len(), dim], data))
                };
                let mut x = t.add(e, pos);
                for block in &self.blocks {
                    x = block.forward(t, s, x, true);
                }
                let x = self.final_norm.forward(t, s, x);
                let pooled = t.mean_rows(x);
                self.head.forward(t, s, pooled)
            })
            .collect();
        t.stack_rows(&logits)
    }

    /// Trains on per-contract window lists with 0/1 labels. Every window
    /// inherits its contract's label (standard chunked fine-tuning), capped
    /// at `max_train_windows` windows per contract.
    pub fn fit(&mut self, xs: &[Vec<Vec<u32>>], y: &[u8]) {
        let (windows, labels) = label_windows(xs, y, self.config.max_train_windows);
        let cfg = self.config.train;
        let mut store = std::mem::take(&mut self.store);
        train_binary(&mut store, &windows, &labels, &cfg, &[], |t, s, batch| {
            self.logits(t, s, batch)
        });
        self.store = store;
    }

    /// Phishing probability per contract: the mean of its windows'
    /// probabilities. All windows are scored in mini-batches of
    /// [`PREDICT_BATCH`], so a contract's score does not depend on the
    /// other contracts in `xs`.
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

    fn toy() -> Gpt2Config {
        Gpt2Config {
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
    fn learns_leading_token_alpha() {
        let mut model = Gpt2Classifier::new(toy());
        let xs: Vec<Vec<Vec<u32>>> = (0..30)
            .map(|i| vec![vec![5 + 9 * (i % 2) as u32, 3, 3, 3, 0, 0, 0, 0]])
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
    fn beta_averages_windows() {
        let model = Gpt2Classifier::new(toy());
        // Multi-window sample: prediction is a well-defined average.
        let p = model.predict_proba(&[vec![vec![1; 8], vec![2; 8], vec![3; 4]]]);
        assert_eq!(p.len(), 1);
        assert!((0.0..=1.0).contains(&p[0]));
    }

    #[test]
    fn empty_window_list_predicts_prior() {
        let model = Gpt2Classifier::new(toy());
        assert_eq!(model.predict_proba(&[vec![]]), vec![0.5]);
    }
}
