//! ECA+EfficientNet (Zhou et al., CMC 2023): an EfficientNet-style MBConv
//! CNN whose squeeze-and-excitation stage is replaced by Efficient Channel
//! Attention (a 1-D convolution over the channel descriptor), the paper's
//! best vision model (86.63%).
//!
//! Architecture at CPU scale: stem conv → two MBConv stages (expand 1×1 →
//! depthwise 3×3 → ECA → project 1×1) → global average pooling → dense
//! classifier, mirroring the "modified EfficientNet-B0 backbone" of the
//! original at reduced width/depth.

use crate::model::{dense_views, Model};
use crate::trainer::{predict_binary_batch, train_binary, TrainConfig, PREDICT_BATCH};
use phishinghook_artifact::ArtifactError;
use phishinghook_features::FeatureRow;
use phishinghook_nn::{Linear, ParamId, ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// ECA+EfficientNet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcaNetConfig {
    /// Input image side (images are `3 × side × side`).
    pub side: usize,
    /// Stem output channels.
    pub stem: usize,
    /// Channels of the two MBConv stages.
    pub stage1: usize,
    /// Channels of the second stage.
    pub stage2: usize,
    /// ECA kernel size (odd).
    pub eca_kernel: usize,
    /// Training loop settings.
    pub train: TrainConfig,
}

impl Default for EcaNetConfig {
    fn default() -> Self {
        EcaNetConfig {
            side: 32,
            stem: 8,
            stage1: 12,
            stage2: 16,
            eca_kernel: 3,
            train: TrainConfig::default(),
        }
    }
}

/// One convolution's parameters.
#[derive(Debug, Clone, Copy)]
struct Conv {
    w: ParamId,
    b: ParamId,
    stride: usize,
    pad: usize,
    groups: usize,
}

impl Conv {
    #[allow(clippy::too_many_arguments)]
    fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        out_ch: usize,
        in_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Conv {
        let fan_in = (in_ch / groups) * k * k;
        Conv {
            w: store.he(&[out_ch, in_ch / groups, k, k], fan_in, rng),
            b: store.zeros(&[out_ch]),
            stride,
            pad,
            groups,
        }
    }

    fn forward(&self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let w = t.param(s, self.w);
        let b = t.param(s, self.b);
        t.conv2d(x, w, b, self.stride, self.pad, self.groups)
    }
}

/// Channel-norm parameters.
#[derive(Debug, Clone, Copy)]
struct Norm {
    gamma: ParamId,
    beta: ParamId,
}

impl Norm {
    fn new(store: &mut ParamStore, c: usize) -> Norm {
        Norm {
            gamma: store.full(&[c], 1.0),
            beta: store.zeros(&[c]),
        }
    }

    fn forward(&self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let gamma = t.param(s, self.gamma);
        let beta = t.param(s, self.beta);
        t.channel_norm(x, gamma, beta)
    }
}

/// One MBConv block with ECA: expand 1×1 → depthwise 3×3 (stride 2) → ECA →
/// project 1×1.
///
/// The projection is deliberately *not* normalized: our per-channel
/// (instance) norm substitute for BatchNorm forces every plane to zero mean,
/// which would make the downstream global average pool identically zero —
/// a composition hazard BatchNorm does not have.
#[derive(Debug, Clone, Copy)]
struct MbConvEca {
    expand: Conv,
    expand_norm: Norm,
    depthwise: Conv,
    dw_norm: Norm,
    eca_kernel: ParamId,
    project: Conv,
}

impl MbConvEca {
    fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        in_ch: usize,
        out_ch: usize,
        eca_k: usize,
    ) -> Self {
        let mid = in_ch * 2;
        MbConvEca {
            expand: Conv::new(store, rng, mid, in_ch, 1, 1, 0, 1),
            expand_norm: Norm::new(store, mid),
            depthwise: Conv::new(store, rng, mid, mid, 3, 2, 1, mid),
            dw_norm: Norm::new(store, mid),
            eca_kernel: store.param(Tensor::random(&[eca_k], 0.4, rng)),
            project: Conv::new(store, rng, out_ch, mid, 1, 1, 0, 1),
        }
    }

    fn forward(&self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let h = self.expand.forward(t, s, x);
        let h = self.expand_norm.forward(t, s, h);
        let h = t.silu(h);
        let h = self.depthwise.forward(t, s, h);
        let h = self.dw_norm.forward(t, s, h);
        let h = t.silu(h);
        // ECA: channel descriptor → 1-D conv over channels → sigmoid gate.
        let desc = t.global_avg_pool(h);
        let k = t.param(s, self.eca_kernel);
        let attn = t.conv1d_same(desc, k);
        let attn = t.sigmoid(attn);
        let h = t.scale_channels(h, attn);
        self.project.forward(t, s, h)
    }
}

/// The full ECA+EfficientNet classifier over channel-first RGB images, fed
/// as [`FeatureRow::Dense`] rows of `3 · side²` floats.
///
/// # Examples
///
/// ```
/// use phishinghook_features::FeatureRow;
/// use phishinghook_models::eca_net::{EcaEfficientNet, EcaNetConfig};
/// use phishinghook_models::{Model, TrainConfig};
///
/// let cfg = EcaNetConfig {
///     side: 8, stem: 4, stage1: 4, stage2: 6,
///     train: TrainConfig { epochs: 14, learning_rate: 0.02, ..Default::default() },
///     ..Default::default()
/// };
/// let mut model = EcaEfficientNet::new(cfg);
/// // High-frequency texture vs smooth gradient (texture statistics survive
/// // per-channel normalization and global pooling).
/// let textured: Vec<f32> = (0..192)
///     .map(|i| if (i % 64) % 3 == 0 { 0.9 } else { 0.1 })
///     .collect();
/// let smooth: Vec<f32> = (0..192).map(|i| (i % 64) as f32 / 63.0).collect();
/// let rows = [FeatureRow::Dense(&textured), FeatureRow::Dense(&smooth)];
/// model.fit(&rows, &[1, 0]);
/// let p = model.predict_proba(&rows);
/// assert!(p[0] > p[1]);
/// ```
#[derive(Debug)]
pub struct EcaEfficientNet {
    config: EcaNetConfig,
    store: ParamStore,
    stem: Conv,
    stem_norm: Norm,
    block1: MbConvEca,
    block2: MbConvEca,
    head: Linear,
}

impl EcaEfficientNet {
    /// Builds the network with fresh parameters.
    pub fn new(config: EcaNetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.train.seed);
        let mut store = ParamStore::new();
        let stem = Conv::new(&mut store, &mut rng, config.stem, 3, 3, 1, 1, 1);
        let stem_norm = Norm::new(&mut store, config.stem);
        let block1 = MbConvEca::new(
            &mut store,
            &mut rng,
            config.stem,
            config.stage1,
            config.eca_kernel,
        );
        let block2 = MbConvEca::new(
            &mut store,
            &mut rng,
            config.stage1,
            config.stage2,
            config.eca_kernel,
        );
        let head = Linear::new(&mut store, config.stage2, 1, &mut rng);
        EcaEfficientNet {
            config,
            store,
            stem,
            stem_norm,
            block1,
            block2,
            head,
        }
    }

    /// The one forward pass, shared by training and prediction: a `(B, 1)`
    /// logit column for `B` images. The `(c, h, w)` convolution ops are
    /// per-image, so each image records its own subgraph and the logits
    /// are stacked.
    fn logits(&self, t: &mut Tape, s: &ParamStore, batch: &[&&[f32]]) -> Var {
        let side = self.config.side;
        let logits: Vec<Var> = batch
            .iter()
            .map(|image| {
                let x = t.input(Tensor::from_vec(&[3, side, side], image.to_vec()));
                let h = self.stem.forward(t, s, x);
                let h = self.stem_norm.forward(t, s, h);
                let h = t.silu(h);
                let h = self.block1.forward(t, s, h);
                let h = self.block2.forward(t, s, h);
                let pooled = t.global_avg_pool(h);
                self.head.forward(t, s, pooled)
            })
            .collect();
        t.stack_rows(&logits)
    }
}

impl Model for EcaEfficientNet {
    fn fit(&mut self, rows: &[FeatureRow<'_>], labels: &[u8]) {
        let images = dense_views(rows);
        let cfg = self.config.train;
        let mut store = std::mem::take(&mut self.store);
        train_binary(&mut store, &images, labels, &cfg, &[], |t, s, batch| {
            self.logits(t, s, batch)
        });
        self.store = store;
    }

    fn predict_proba(&self, rows: &[FeatureRow<'_>]) -> Vec<f32> {
        let images = dense_views(rows);
        predict_binary_batch(&self.store, &images, PREDICT_BATCH, |t, s, batch| {
            self.logits(t, s, batch)
        })
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

    fn toy() -> EcaNetConfig {
        EcaNetConfig {
            side: 8,
            stem: 4,
            stage1: 4,
            stage2: 6,
            eca_kernel: 3,
            train: TrainConfig {
                epochs: 60,
                learning_rate: 0.03,
                batch_size: 4,
                ..Default::default()
            },
        }
    }

    #[test]
    fn separates_texture_from_gradient() {
        // Class 1: period-3 vertical stripes (high-frequency texture);
        // class 0: smooth vertical gradient. Texture statistics survive the
        // instance norms and global pooling; note the period is chosen
        // coprime with the stride-2 downsampling so it cannot alias away.
        let mut model = EcaEfficientNet::new(toy());
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            let textured = i % 2 == 1;
            let img: Vec<f32> = (0..192)
                .map(|j| {
                    let within = j % 64;
                    let (x, y) = (within % 8, within / 8);
                    let noise = 0.03 * ((i + j) % 3) as f32;
                    let base = if textured {
                        if x % 3 == 0 {
                            0.9
                        } else {
                            0.1
                        }
                    } else {
                        0.1 + 0.8 * (y as f32 / 7.0)
                    };
                    base + noise
                })
                .collect();
            xs.push(img);
            ys.push((i % 2) as u8);
        }
        let rows: Vec<FeatureRow<'_>> = xs.iter().map(|v| FeatureRow::Dense(v)).collect();
        model.fit(&rows, &ys);
        let probs = model.predict_proba(&rows);
        let acc = probs
            .iter()
            .zip(&ys)
            .filter(|(p, &l)| (**p >= 0.5) == (l == 1))
            .count();
        assert!(acc >= 18, "accuracy {acc}/20");
    }

    #[test]
    fn spatial_dimensions_shrink() {
        // Two stride-2 blocks: 8 → 4 → 2. A forward pass must succeed and
        // produce exactly one logit.
        let model = EcaEfficientNet::new(toy());
        let p = model.predict_proba(&[FeatureRow::Dense(&[0.5; 192])]);
        assert_eq!(p.len(), 1);
        assert!(p[0].is_finite());
    }
}
