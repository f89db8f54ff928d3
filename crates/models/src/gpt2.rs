//! GPT-2-style classifier: decoder-only transformer with causal attention
//! over opcode token sequences.
//!
//! The paper evaluates two data policies: **α**, where sequences are
//! truncated to the context length, and **β**, where full bytecodes are
//! processed in sliding-window chunks. Both are supported here: `fit` trains
//! on every window (each carrying its contract's label, as chunked
//! fine-tuning does) and `predict_proba` averages window probabilities.
//!
//! Training records the forward on the autodiff tape; prediction runs the
//! bit-identical tape-free forward of `phishinghook-nn` over every window
//! of a [`PREDICT_BATCH`] chunk at once.

use crate::model::{window_views, Model};
use crate::trainer::{
    aggregate_window_probs, label_windows, train_binary, TrainConfig, PREDICT_BATCH,
};
use phishinghook_artifact::ArtifactError;
use phishinghook_features::FeatureRow;
use phishinghook_linalg::transcend::sigmoid;
use phishinghook_nn::{
    mean_pool, BlockInference, LayerNorm, Linear, ParamId, ParamStore, Tape, Tensor,
    TransformerBlock, Var,
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
/// `phishinghook_features::OpcodeTokenizer::encode`, fed as
/// [`FeatureRow::Windows`] rows.
///
/// # Examples
///
/// ```
/// use phishinghook_features::FeatureRow;
/// use phishinghook_models::gpt2::{Gpt2Classifier, Gpt2Config};
/// use phishinghook_models::{Model, TrainConfig};
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
/// let rows: Vec<FeatureRow> = xs.iter().map(|w| FeatureRow::Windows(w)).collect();
/// model.fit(&rows, &ys);
/// let p = model.predict_proba(&rows);
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

    /// The training forward: a `(B, 1)` logit column for `B` windows. The
    /// embedding table and positional rows are recorded once per batch and
    /// shared by every window's causal-attention subgraph.
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

    /// The prediction forward, bit-identical to [`Gpt2Classifier::logits`]
    /// with no tape: one logit per window, with all windows' rows stacked
    /// into one `(Σl, dim)` matrix through every block.
    fn infer_logits(&self, blocks: &[BlockInference], batch: &[&Vec<u32>]) -> Vec<f32> {
        let (context, dim) = (self.config.context, self.config.dim);
        let table = self.store.value(self.token_embed);
        let vocab = table.dims2().0;
        let pos = self.store.value(self.pos_embed).data();
        let lens: Vec<usize> = batch.iter().map(|w| w.len().min(context)).collect();
        let mut x = Vec::with_capacity(lens.iter().sum::<usize>() * dim);
        for (window, &l) in batch.iter().zip(&lens) {
            for (i, &id) in window[..l].iter().enumerate() {
                let id = (id as usize).min(vocab - 1);
                let e = &table.data()[id * dim..(id + 1) * dim];
                x.extend(
                    e.iter()
                        .zip(&pos[i * dim..(i + 1) * dim])
                        .map(|(e, p)| e + p),
                );
            }
        }
        for block in blocks {
            block.forward(&mut x, &lens, true);
        }
        let mut normed = vec![0.0; x.len()];
        self.final_norm.forward_rows(&self.store, &x, &mut normed);
        let pooled = mean_pool(&normed, &lens, dim);
        let mut logits = vec![0.0; batch.len()];
        self.head.forward_rows(&self.store, &pooled, &mut logits);
        logits
    }
}

impl Model for Gpt2Classifier {
    /// Every window inherits its contract's label (standard chunked
    /// fine-tuning), capped at `max_train_windows` windows per contract.
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        let contracts = window_views(rows);
        let (windows, labels) = label_windows(&contracts, labels, self.config.max_train_windows);
        let cfg = self.config.train;
        let mut store = std::mem::take(&mut self.store);
        train_binary(&mut store, &windows, &labels, &cfg, &[], |t, s, batch| {
            self.logits(t, s, batch)
        });
        self.store = store;
    }

    /// A contract's score is the mean of its windows' probabilities. All
    /// windows are scored in chunks of [`PREDICT_BATCH`] by the tape-free
    /// forward; every window's logit is independent of its chunk-mates, so
    /// a contract's score does not depend on the other contracts in `rows`.
    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        let contracts = window_views(rows);
        let windows: Vec<&Vec<u32>> = contracts.iter().flat_map(|c| c.iter()).collect();
        let blocks: Vec<BlockInference> = self
            .blocks
            .iter()
            .map(|b| b.inference(&self.store))
            .collect();
        let probs: Vec<f32> = windows
            .chunks(PREDICT_BATCH)
            .flat_map(|chunk| self.infer_logits(&blocks, chunk))
            .map(sigmoid)
            .collect();
        aggregate_window_probs(&contracts, &probs)
    }

    fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }

    fn export_state(&self) -> Vec<u8> {
        self.store.export_tensors()
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), ArtifactError> {
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

    fn as_windows(xs: &[Vec<Vec<u32>>]) -> Vec<FeatureRow<'_>> {
        xs.iter().map(|w| FeatureRow::Windows(w)).collect()
    }

    #[test]
    fn learns_leading_token_alpha() {
        let mut model = Gpt2Classifier::new(toy());
        let xs: Vec<Vec<Vec<u32>>> = (0..30)
            .map(|i| vec![vec![5 + 9 * (i % 2) as u32, 3, 3, 3, 0, 0, 0, 0]])
            .collect();
        let ys: Vec<u8> = (0..30).map(|i| (i % 2) as u8).collect();
        let rows = as_windows(&xs);
        model.fit(&rows, &ys);
        let probs = model.predict_proba(&rows);
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
        let windows = [vec![1; 8], vec![2; 8], vec![3; 4]];
        let p = model.predict_proba(&[FeatureRow::Windows(&windows)]);
        assert_eq!(p.len(), 1);
        assert!((0.0..=1.0).contains(&p[0]));
    }

    /// The tape-free `predict_proba` equals the tape `logits` scored
    /// through `predict_binary_batch`, bit for bit, on a trained model and
    /// β contracts whose windows straddle the `PREDICT_BATCH` boundary,
    /// short final windows included.
    #[test]
    fn tape_free_predict_matches_tape_logits() {
        use crate::trainer::predict_binary_batch;
        let cfg = Gpt2Config {
            heads: 4,
            depth: 2,
            train: TrainConfig {
                epochs: 2,
                ..toy().train
            },
            ..toy()
        };
        let xs: Vec<Vec<Vec<u32>>> = (0..70u32)
            .map(|i| {
                (0..1 + i % 3)
                    .map(|w| {
                        let len = if w == i % 3 {
                            1 + (i as usize * 5) % 9
                        } else {
                            8
                        };
                        (0..len as u32)
                            .map(|k| (i * 7 + w * 3 + k * 11) % 40)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        assert!(xs.iter().map(Vec::len).sum::<usize>() > 2 * PREDICT_BATCH);
        let ys: Vec<u8> = (0..70).map(|i| (i % 2) as u8).collect();
        let rows = as_windows(&xs);
        let mut model = Gpt2Classifier::new(cfg);
        model.fit(&rows, &ys);
        let windows: Vec<&Vec<u32>> = xs.iter().flatten().collect();
        let tape = predict_binary_batch(&model.store, &windows, PREDICT_BATCH, |t, s, batch| {
            model.logits(t, s, batch)
        });
        let want = aggregate_window_probs(&window_views(&rows), &tape);
        let got = model.predict_proba(&rows);
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn empty_window_list_predicts_prior() {
        let model = Gpt2Classifier::new(toy());
        assert_eq!(model.predict_proba(&[FeatureRow::Windows(&[])]), vec![0.5]);
    }
}
