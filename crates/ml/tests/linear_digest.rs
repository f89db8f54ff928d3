//! Pins the training of logistic regression, the linear SVM and the three
//! gradient boosters across commits. Each is fitted on fixed histogram-like
//! inputs; the FNV-1a digests of its exported state and of its prediction
//! bits must equal constants recorded from a known-good build. A change to a
//! trainer that moves one bit of a fitted weight, a split, the bias or a
//! served probability fails here, whereas the parity test in `linear.rs`
//! only compares two paths within one build.
//!
//! The pins depend on the platform libm until ROADMAP item 12 routes the
//! linear models' and boosters' `sigmoid` (and the boosters' prior `ln`)
//! through `phishinghook_linalg::transcend`: the logistic gradient, every
//! boosting round's gradient and every served probability call `f32::exp`,
//! and a booster's base score calls `f32::ln`. The linear trainer's own
//! arithmetic is libm-free and computes the same bits on every SIMD tier.

use phishinghook_artifact::checksum;
use phishinghook_linalg::Matrix;
use phishinghook_ml::{
    CatBoostClassifier, Classifier, LgbmClassifier, LinearSvm, LogisticRegression, XgbClassifier,
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
}

/// `n × d` opcode-count-like rows: about four in five entries exactly zero,
/// counts spanning three orders of magnitude, a few negative entries, and
/// row 5 all zero. Positive rows carry extra mass in the low columns.
fn histogram_corpus(n: usize, d: usize) -> (Matrix, Vec<u8>) {
    let mut rng = Lcg(0x11AE);
    let y: Vec<u8> = (0..n).map(|i| u8::from(i % 3 != 0)).collect();
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|k| {
                    if i == 5 || rng.below(5) != 0 {
                        return 0.0;
                    }
                    let count = (1 + rng.below(10)) as f32 * [1.0, 10.0, 100.0][k % 3];
                    let lift = if y[i] == 1 && k < 4 { 7.0 } else { 0.0 };
                    if rng.below(11) == 0 {
                        -count
                    } else {
                        count + lift
                    }
                })
                .collect()
        })
        .collect();
    (Matrix::from_rows(&rows), y)
}

fn prob_digest(probs: &[f32]) -> u64 {
    let bytes: Vec<u8> = probs
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    checksum(&bytes)
}

/// Fits `model`, then asserts both digests, reporting the observed pair on
/// failure.
fn assert_pinned(name: &str, mut model: impl Classifier, want: (u64, u64)) {
    let (x, y) = histogram_corpus(45, 23);
    model.fit(&x, &y);
    let got = (
        checksum(&model.export_state()),
        prob_digest(&model.predict_proba(&x)),
    );
    assert_eq!(
        got, want,
        "{name}: (state, prediction) digests {:#018x}, {:#018x} differ from the pinned ones",
        got.0, got.1
    );
}

#[test]
fn logistic_regression_training_is_pinned() {
    assert_pinned(
        "logistic regression",
        LogisticRegression::default(),
        (0xc92f_fe2e_d046_8ed9, 0x5ce7_6929_3c0d_8196),
    );
}

#[test]
fn linear_svm_training_is_pinned() {
    assert_pinned(
        "linear SVM",
        LinearSvm::default(),
        (0xb100_bdf7_e427_969c, 0xd170_bab9_8a21_06b2),
    );
}

#[test]
fn boosters_training_is_pinned() {
    let pins = [
        (0xe1ba_637a_3c52_fbcf, 0x96fc_3093_7dee_c963),
        (0xbdb9_119c_7769_e15e, 0xf6de_bfcb_0ade_b30f),
        (0x755c_f377_d67b_780c, 0xcec4_739e_e431_cc24),
    ];
    assert_pinned("XGBoost", XgbClassifier::default(), pins[0]);
    assert_pinned("LightGBM", LgbmClassifier::default(), pins[1]);
    assert_pinned("CatBoost", CatBoostClassifier::default(), pins[2]);
}
