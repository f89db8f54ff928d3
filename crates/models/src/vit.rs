//! Vision Transformer for bytecode images (ViT+R2D2 and ViT+Freq).
//!
//! The paper fine-tunes an ImageNet-pretrained ViT-B/16 on 224×224 RGB
//! renderings of the bytecode; this is the same architecture — patch
//! embedding, class token, learned positional embeddings, pre-norm encoder
//! blocks, classification head on the class token — at CPU scale
//! (32×32 images, patch 8, small width), trained from scratch.

use crate::trainer::{predict_binary_batch, train_binary, TrainConfig, PREDICT_BATCH};
use phishinghook_nn::{
    LayerNorm, Linear, ParamId, ParamStore, Tape, Tensor, TransformerBlock, Var,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ViT configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViTConfig {
    /// Input image side (images are `3 × side × side`, channel-first).
    pub side: usize,
    /// Patch side (must divide `side`).
    pub patch: usize,
    /// Model width.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder blocks.
    pub depth: usize,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Default for ViTConfig {
    fn default() -> Self {
        ViTConfig {
            side: 32,
            patch: 8,
            dim: 32,
            heads: 4,
            depth: 2,
            train: TrainConfig::default(),
        }
    }
}

/// A small Vision Transformer over channel-first RGB images.
///
/// # Examples
///
/// ```
/// use phishinghook_models::vit::{ViT, ViTConfig};
/// use phishinghook_models::TrainConfig;
///
/// let cfg = ViTConfig {
///     side: 8, patch: 4, dim: 8, heads: 2, depth: 1,
///     train: TrainConfig { epochs: 40, batch_size: 2, ..Default::default() },
/// };
/// let mut model = ViT::new(cfg);
/// // Left-bright vs right-bright images (patterns survive layer norm).
/// let left: Vec<f32> = (0..192).map(|i| if (i % 8) < 4 { 0.9 } else { 0.1 }).collect();
/// let right: Vec<f32> = (0..192).map(|i| if (i % 8) < 4 { 0.1 } else { 0.9 }).collect();
/// model.fit(&[left.clone(), right.clone()], &[1, 0]);
/// let p = model.predict_proba(&[left, right]);
/// assert!(p[0] > p[1]);
/// ```
#[derive(Debug)]
pub struct ViT {
    config: ViTConfig,
    store: ParamStore,
    patch_proj: Linear,
    cls_token: ParamId,
    pos_embed: ParamId,
    blocks: Vec<TransformerBlock>,
    final_norm: LayerNorm,
    head: Linear,
}

impl ViT {
    /// Builds a ViT with fresh parameters.
    ///
    /// # Panics
    ///
    /// Panics if `patch` does not divide `side`.
    pub fn new(config: ViTConfig) -> Self {
        assert_eq!(config.side % config.patch, 0, "patch must divide side");
        let mut rng = StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let patch_dim = 3 * config.patch * config.patch;
        let n_patches = (config.side / config.patch) * (config.side / config.patch);
        let patch_proj = Linear::new(&mut store, patch_dim, config.dim, &mut rng);
        let cls_token = store.param(Tensor::random(&[1, config.dim], 0.1, &mut rng));
        let pos_embed = store.param(Tensor::random(&[n_patches + 1, config.dim], 0.1, &mut rng));
        let blocks = (0..config.depth)
            .map(|_| TransformerBlock::new(&mut store, config.dim, config.heads, &mut rng))
            .collect();
        let final_norm = LayerNorm::new(&mut store, config.dim);
        let head = Linear::new(&mut store, config.dim, 1, &mut rng);
        ViT {
            config,
            store,
            patch_proj,
            cls_token,
            pos_embed,
            blocks,
            final_norm,
            head,
        }
    }

    /// Rearranges a channel-first image vector into `(n_patches, 3·p·p)`.
    fn patchify(&self, image: &[f32]) -> Tensor {
        let (side, patch) = (self.config.side, self.config.patch);
        let grid = side / patch;
        let pixels = side * side;
        assert_eq!(image.len(), 3 * pixels, "image length mismatch");
        let mut out = Vec::with_capacity(grid * grid * 3 * patch * patch);
        for gy in 0..grid {
            for gx in 0..grid {
                for c in 0..3 {
                    for py in 0..patch {
                        for px in 0..patch {
                            let y = gy * patch + py;
                            let x = gx * patch + px;
                            out.push(image[c * pixels + y * side + x]);
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[grid * grid, 3 * patch * patch], out)
    }

    /// The one forward pass, shared by training and prediction: a `(B, 1)`
    /// logit column for `B` images. Each image's token sequence is its own
    /// subgraph (attention is quadratic in sequence length, so samples are
    /// not concatenated) over class-token and positional leaves recorded
    /// once per batch; the class logits are stacked.
    fn logits(&self, t: &mut Tape, s: &ParamStore, batch: &[&Vec<f32>]) -> Var {
        let cls = t.param(s, self.cls_token);
        let pos = t.param(s, self.pos_embed);
        let logits: Vec<Var> = batch
            .iter()
            .map(|image| {
                let patches = t.input(self.patchify(image));
                let tokens = self.patch_proj.forward(t, s, patches);
                let seq = t.concat_rows(cls, tokens);
                let mut x = t.add(seq, pos);
                for block in &self.blocks {
                    x = block.forward(t, s, x, false);
                }
                let x = self.final_norm.forward(t, s, x);
                let cls_out = t.row_at(x, 0);
                self.head.forward(t, s, cls_out)
            })
            .collect();
        t.stack_rows(&logits)
    }

    /// Trains on channel-first image vectors (`3 · side²` floats each).
    pub fn fit(&mut self, images: &[Vec<f32>], y: &[u8]) {
        let cfg = self.config.train;
        let mut store = std::mem::take(&mut self.store);
        train_binary(&mut store, images, y, &cfg, &[], |t, s, batch| {
            self.logits(t, s, batch)
        });
        self.store = store;
    }

    /// Phishing probability per image.
    pub fn predict_proba(&self, images: &[Vec<f32>]) -> Vec<f32> {
        predict_binary_batch(&self.store, images, PREDICT_BATCH, |t, s, batch| {
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

    fn toy() -> ViTConfig {
        ViTConfig {
            side: 8,
            patch: 4,
            dim: 8,
            heads: 2,
            depth: 1,
            train: TrainConfig {
                epochs: 60,
                learning_rate: 0.03,
                batch_size: 4,
                ..Default::default()
            },
        }
    }

    #[test]
    fn patchify_is_a_permutation() {
        let vit = ViT::new(toy());
        let image: Vec<f32> = (0..3 * 64).map(|i| i as f32).collect();
        let patches = vit.patchify(&image);
        assert_eq!(patches.shape(), &[4, 48]);
        let mut seen: Vec<f32> = patches.data().to_vec();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want: Vec<f32> = (0..192).map(|i| i as f32).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn separates_spatial_patterns() {
        // Class 1: bright left half; class 0: bright right half. Spatial
        // patterns survive the layer norms (global brightness would not).
        let mut model = ViT::new(toy());
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..24 {
            let left_bright = i % 2 == 1;
            let img: Vec<f32> = (0..192)
                .map(|j| {
                    let col = j % 8;
                    let bright = (col < 4) == left_bright;
                    let noise = 0.04 * ((i + j) % 3) as f32;
                    if bright {
                        0.85 + noise
                    } else {
                        0.1 + noise
                    }
                })
                .collect();
            xs.push(img);
            ys.push((i % 2) as u8);
        }
        model.fit(&xs, &ys);
        let probs = model.predict_proba(&xs);
        let acc = probs
            .iter()
            .zip(&ys)
            .filter(|(p, &l)| (**p >= 0.5) == (l == 1))
            .count();
        assert!(acc >= 22, "accuracy {acc}/24");
    }

    #[test]
    #[should_panic(expected = "patch must divide side")]
    fn bad_patch_rejected() {
        ViT::new(ViTConfig {
            side: 10,
            patch: 4,
            ..toy()
        });
    }
}
