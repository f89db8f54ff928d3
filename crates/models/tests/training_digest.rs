//! Pins deep-model training and inference across commits. Each of the six
//! deep models is fitted at a toy configuration on fixed inputs; the FNV-1a
//! digests of its exported state and of its prediction bits must equal
//! constants recorded from a known-good build. A refactor of a forward
//! pass, the trainer or a tape kernel that moves a single bit of a fitted
//! parameter or a score fails here, whereas the parity tests only compare
//! two paths within one build. The pins are host-independent: every
//! `exp`, `tanh` and sigmoid in the nn kernels comes from
//! `phishinghook_linalg::transcend`, not the platform libm, and every SIMD
//! tier computes the scalar reference's bits.
//!
//! The GPT-2 and T5 inputs carry 1–3 windows per contract, so some
//! contract's windows straddle the [`PREDICT_BATCH`] boundary; the window
//! aggregation test checks that a contract's score does not depend on the
//! mini-batch its windows land in.

use phishinghook_artifact::checksum;
use phishinghook_features::FeatureRow;
use phishinghook_models::eca_net::EcaNetConfig;
use phishinghook_models::escort::EscortConfig;
use phishinghook_models::gpt2::Gpt2Config;
use phishinghook_models::scsguard::ScsGuardConfig;
use phishinghook_models::t5::T5Config;
use phishinghook_models::trainer::PREDICT_BATCH;
use phishinghook_models::vit::ViTConfig;
use phishinghook_models::{
    EcaEfficientNet, EscortNet, Gpt2Classifier, Model, ScsGuard, T5Classifier, TrainConfig, ViT,
};

/// Deterministic input generator (64-bit LCG), independent of any RNG crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as u32
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n
    }

    fn unit(&mut self) -> f32 {
        self.below(1000) as f32 / 1000.0
    }
}

fn labels(n: usize) -> Vec<u8> {
    (0..n).map(|i| u8::from(i % 3 != 0)).collect()
}

/// Contracts of 1–3 windows; a contract's last window may be shorter than
/// the context, exercising the truncated positional path.
fn window_corpus(n: usize, context: usize, vocab: u32) -> Vec<Vec<Vec<u32>>> {
    let mut rng = Lcg(17);
    (0..n)
        .map(|i| {
            let windows = 1 + rng.below(3) as usize;
            (0..windows)
                .map(|w| {
                    let len = if w + 1 == windows {
                        2 + rng.below(context as u32 - 1) as usize
                    } else {
                        context
                    };
                    let lead = if i % 3 != 0 { 7 } else { 3 };
                    std::iter::once(lead)
                        .chain((1..len).map(|_| rng.below(vocab)))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn id_corpus(n: usize, vocab: u32) -> Vec<Vec<u32>> {
    let mut rng = Lcg(23);
    (0..n)
        .map(|i| {
            let len = 4 + rng.below(8) as usize;
            let mut ids: Vec<u32> = (0..len).map(|_| rng.below(vocab)).collect();
            if i % 3 != 0 {
                ids[len / 2] = 9;
            }
            ids
        })
        .collect()
}

fn dense_corpus(n: usize, width: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            let shift = if i % 3 != 0 { 0.3 } else { 0.0 };
            (0..width).map(|_| rng.unit() * 0.7 + shift).collect()
        })
        .collect()
}

fn as_dense(xs: &[Vec<f32>]) -> Vec<FeatureRow<'_>> {
    xs.iter().map(|v| FeatureRow::Dense(v)).collect()
}

fn as_windows(xs: &[Vec<Vec<u32>>]) -> Vec<FeatureRow<'_>> {
    xs.iter().map(|w| FeatureRow::Windows(w)).collect()
}

fn prob_digest(probs: &[f32]) -> u64 {
    let bytes: Vec<u8> = probs
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    checksum(&bytes)
}

fn toy_train(epochs: usize, batch_size: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        learning_rate: 0.02,
        batch_size,
        seed: 0x5EED,
    }
}

fn gpt2_config() -> Gpt2Config {
    Gpt2Config {
        vocab: 32,
        context: 8,
        dim: 8,
        heads: 2,
        depth: 2,
        max_train_windows: 3,
        train: toy_train(2, 40),
    }
}

fn t5_config() -> T5Config {
    T5Config {
        vocab: 32,
        context: 8,
        dim: 8,
        heads: 2,
        depth: 2,
        max_train_windows: 3,
        train: toy_train(2, 40),
    }
}

/// Asserts both digests, reporting the observed pair on failure.
fn assert_digests(model: &str, state: &[u8], probs: &[f32], want: (u64, u64)) {
    let got = (checksum(state), prob_digest(probs));
    assert_eq!(
        got, want,
        "{model}: (state, prediction) digests {:#018x}, {:#018x} differ from the pinned ones",
        got.0, got.1
    );
}

#[test]
fn scsguard_training_is_pinned() {
    let xs = id_corpus(40, 32);
    let ys = labels(xs.len());
    let mut model = ScsGuard::new(ScsGuardConfig {
        vocab: 32,
        embed_dim: 8,
        heads: 2,
        hidden: 8,
        train: toy_train(2, 16),
    });
    let rows: Vec<FeatureRow<'_>> = xs.iter().map(|v| FeatureRow::Ids(v)).collect();
    model.fit(&rows, &ys);
    let probs = model.predict_proba(&rows);
    assert_digests(
        "SCSGuard",
        &model.export_state(),
        &probs,
        (0x5f4d_ec6a_8f7d_1fe8, 0x8a94_673d_2c9e_fe9d),
    );
}

#[test]
fn escort_training_is_pinned() {
    let xs = dense_corpus(30, 8, 5);
    let ys = labels(xs.len());
    let vuln: Vec<Vec<u8>> = (0..xs.len())
        .map(|i| vec![(i % 2) as u8, u8::from(i % 5 == 0)])
        .collect();
    let mut model = EscortNet::new(EscortConfig {
        input_dim: 8,
        trunk1: 8,
        trunk2: 4,
        vuln_branches: 2,
        train: toy_train(3, 16),
    });
    let rows = as_dense(&xs);
    model.pretrain(&rows, &vuln);
    model.fit(&rows, &ys);
    let probs = model.predict_proba(&rows);
    assert_digests(
        "ESCORT",
        &model.export_state(),
        &probs,
        (0x1994_30ea_034c_15f6, 0xe09e_53e8_5a32_7736),
    );
}

#[test]
fn vit_training_is_pinned() {
    let xs = dense_corpus(24, 3 * 8 * 8, 7);
    let ys = labels(xs.len());
    let mut model = ViT::new(ViTConfig {
        side: 8,
        patch: 4,
        dim: 8,
        heads: 2,
        depth: 1,
        train: toy_train(2, 8),
    });
    let rows = as_dense(&xs);
    model.fit(&rows, &ys);
    let probs = model.predict_proba(&rows);
    assert_digests(
        "ViT",
        &model.export_state(),
        &probs,
        (0xd647_c553_cb7e_9ec6, 0xd216_0bed_1fb6_cfc6),
    );
}

#[test]
fn eca_training_is_pinned() {
    let xs = dense_corpus(16, 3 * 8 * 8, 11);
    let ys = labels(xs.len());
    let mut model = EcaEfficientNet::new(EcaNetConfig {
        side: 8,
        stem: 4,
        stage1: 4,
        stage2: 6,
        eca_kernel: 3,
        train: toy_train(2, 8),
    });
    let rows = as_dense(&xs);
    model.fit(&rows, &ys);
    let probs = model.predict_proba(&rows);
    assert_digests(
        "ECA+EfficientNet",
        &model.export_state(),
        &probs,
        (0x1736_407c_69f5_7295, 0xbc00_713d_feab_069a),
    );
}

#[test]
fn gpt2_training_is_pinned() {
    let xs = window_corpus(50, 8, 32);
    let ys = labels(xs.len());
    let mut model = Gpt2Classifier::new(gpt2_config());
    let rows = as_windows(&xs);
    model.fit(&rows, &ys);
    let probs = model.predict_proba(&rows);
    assert_digests(
        "GPT-2",
        &model.export_state(),
        &probs,
        (0x8508_5a01_d578_9d4d, 0x2179_5162_cc25_a128),
    );
}

#[test]
fn t5_training_is_pinned() {
    let xs = window_corpus(50, 8, 32);
    let ys = labels(xs.len());
    let mut model = T5Classifier::new(t5_config());
    let rows = as_windows(&xs);
    model.fit(&rows, &ys);
    let probs = model.predict_proba(&rows);
    assert_digests(
        "T5",
        &model.export_state(),
        &probs,
        (0x3b34_0cea_fa86_7069, 0xe9a7_3e5f_af0d_1364),
    );
}

/// Index of a contract whose windows start before and end after a
/// [`PREDICT_BATCH`] boundary in the flattened window order.
fn straddling_contract(xs: &[Vec<Vec<u32>>]) -> Option<usize> {
    let mut start = 0;
    xs.iter().position(|windows| {
        let end = start + windows.len();
        let straddles = start / PREDICT_BATCH != (end - 1) / PREDICT_BATCH;
        start = end;
        straddles
    })
}

/// Whole-slice scores equal one-contract calls bit-for-bit, including the
/// contract whose windows are split across two inference mini-batches.
fn assert_window_aggregation(
    model: &str,
    xs: &[Vec<Vec<u32>>],
    score: impl Fn(&[Vec<Vec<u32>>]) -> Vec<f32>,
) {
    assert!(
        straddling_contract(xs).is_some(),
        "{model}: corpus must straddle a mini-batch boundary"
    );
    let whole = score(xs);
    for (i, contract) in xs.iter().enumerate() {
        let solo = score(std::slice::from_ref(contract));
        assert_eq!(
            solo[0].to_bits(),
            whole[i].to_bits(),
            "{model}: contract {i} changed with its mini-batch"
        );
    }
}

#[test]
fn window_aggregation_is_invariant_to_mini_batch_boundaries() {
    let xs = window_corpus(50, 8, 32);
    let ys = labels(xs.len());
    let rows = as_windows(&xs);
    let mut gpt2 = Gpt2Classifier::new(gpt2_config());
    gpt2.fit(&rows, &ys);
    assert_window_aggregation("GPT-2", &xs, |c| gpt2.predict_proba(&as_windows(c)));
    let mut t5 = T5Classifier::new(t5_config());
    t5.fit(&rows, &ys);
    assert_window_aggregation("T5", &xs, |c| t5.predict_proba(&as_windows(c)));
}
