//! Cost-aware two-stage cascade serving: a cheap calibrated screen routes
//! only *uncertain* contracts to a deep confirmer.
//!
//! `BENCH_serve.json` puts the forest screen near 160k contracts/sec while
//! the deep confirmers top out around 34k/sec even micro-batched — yet a
//! flat deployment pays the deep price on every request. The cascade
//! splits the traffic by confidence instead:
//!
//! ```text
//!  codes ──► decode once ──► stage-1 screen (one batched pass, all contracts)
//!                                  │ calibrated p
//!                 ┌────────────────┴───────────────┐
//!            p ∉ [lo,hi]                      p ∈ [lo,hi]
//!         (confident screen)              (uncertainty band)
//!                 │                               │ escalated sub-batch —
//!                 ▼                               │ caches/rows reused,
//!          CascadeVerdict                         ▼ never re-decoded
//!          (screen's word)               stage-2 deep confirmer
//!                                                 │
//!                                                 ▼
//!                                          CascadeVerdict
//!                                          (confirmer's word)
//! ```
//!
//! Calibration is the load-bearing piece. The two stages emit scores on
//! different scales (a forest's vote fraction vs. a deep model's learned
//! probability), so each stage gets its own monotone [`Calibrator`] fitted
//! on a held-out slice of the training context — after calibration both stages
//! speak one probability language, a [`CascadeVerdict::probability`] is
//! threshold-comparable no matter which stage produced it, and the uncertainty
//! band `[lo, hi]` is *chosen automatically* from a target escalation budget:
//! [`pick_band`] takes the calibrated holdout probabilities and returns the
//! narrowest band that escalates the requested fraction of them.
//!
//! Scoring preserves every invariant of the flat path: each contract is
//! decoded exactly once (stage 2 reuses stage 1's [`DisasmCache`]s, and
//! when both stages share an
//! [`Encoding`](phishinghook_features::Encoding) it reuses the encoded rows
//! outright), and because a model's score never depends on the rows scored
//! with it, a verdict never depends on its batch-mates — which is what
//! lets the serving tier's micro-batching queue coalesce cascade requests
//! exactly like detector requests.

use crate::detector::{CodeScorer, Detector, PHISHING_THRESHOLD};
use crate::evalstore::EvalContext;
use crate::mem::ModelKind;
use crate::par::parallel_map;
use phishinghook_artifact::{
    ArtifactError, ArtifactReader, ArtifactWriter, ByteReader, ByteWriter, OwnedArtifact,
};
use phishinghook_evm::{Bytecode, DisasmCache};
use phishinghook_features::{FeatureRow, FeatureVec};
use phishinghook_ml::Calibrator;
use std::path::Path;

/// Fraction of the training context held out for calibration and band
/// fitting. The stages never train on these samples.
const HOLDOUT_FRACTION: f32 = 0.25;

/// Training-time knobs of a cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// Target fraction of traffic escalated to the deep confirmer
    /// (default 0.15). The band is picked so the *holdout* escalation
    /// rate lands on this; live traffic drawn from the same distribution
    /// tracks it.
    pub escalate_budget: f32,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            escalate_budget: 0.15,
        }
    }
}

/// One stage's contribution to a cascade verdict: which model spoke, what
/// it said raw, and what that means on the shared probability scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageScore {
    /// The model kind that produced this score.
    pub kind: ModelKind,
    /// The model's raw output (its native scale).
    pub raw: f32,
    /// The raw score mapped through the stage's fitted calibrator.
    pub calibrated: f32,
}

/// A cascade's call on one contract, with full per-stage provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeVerdict {
    /// The reported phishing probability: the confirmer's calibrated score
    /// when the contract escalated, otherwise the screen's.
    pub probability: f32,
    /// `true` when the screen's calibrated probability fell inside the
    /// uncertainty band and the deep confirmer was consulted.
    pub escalated: bool,
    /// Stage 1's score (always present — every contract is screened).
    pub screen: StageScore,
    /// Stage 2's score (present iff `escalated`).
    pub confirm: Option<StageScore>,
}

impl CascadeVerdict {
    /// `true` when the reported probability crosses
    /// [`PHISHING_THRESHOLD`].
    pub fn is_phishing(&self) -> bool {
        self.probability >= PHISHING_THRESHOLD
    }
}

/// Picks the uncertainty band `[lo, hi]` around [`PHISHING_THRESHOLD`]
/// that escalates `round(budget · n)` of the given calibrated holdout
/// probabilities: sort the distances `u = |p − 0.5|` ascending and cut at
/// the midpoint between the k-th and (k+1)-th — the narrowest band
/// containing the k most uncertain holdout contracts. Containment is
/// inclusive (`lo ≤ p ≤ hi`), so a tie at the cut escalates the whole
/// tied run (overshooting the budget rather than under-screening).
///
/// A zero budget returns the inverted sentinel `(1.0, 0.0)` (nothing
/// satisfies `1.0 ≤ p ≤ 0.0`); a budget of 1 returns `(0.0, 1.0)`.
///
/// # Panics
///
/// Panics on an empty probability slice or a budget outside `[0, 1]`.
pub fn pick_band(probs: &[f32], budget: f32) -> (f32, f32) {
    assert!(!probs.is_empty(), "empty holdout for band selection");
    assert!(
        (0.0..=1.0).contains(&budget),
        "escalation budget {budget} outside [0, 1]"
    );
    let n = probs.len();
    let k = (budget as f64 * n as f64).round() as usize;
    if k == 0 {
        return (1.0, 0.0);
    }
    if k >= n {
        return (0.0, 1.0);
    }
    let mut u: Vec<f32> = probs
        .iter()
        .map(|&p| (p - PHISHING_THRESHOLD).abs())
        .collect();
    u.sort_by(f32::total_cmp);
    let q = (u[k - 1] + u[k]) / 2.0;
    (PHISHING_THRESHOLD - q, PHISHING_THRESHOLD + q)
}

/// Deterministic stratified calibration split: walks the context in index
/// order keeping one fractional accumulator per class, so each class
/// sheds [`HOLDOUT_FRACTION`] of its samples into the holdout without any
/// RNG — the same context always splits the same way, which keeps cascade
/// training bit-reproducible.
fn calibration_split(labels: &[u8]) -> (Vec<usize>, Vec<usize>) {
    let f = HOLDOUT_FRACTION as f64;
    let mut acc = [0.0f64; 2];
    let mut fit = Vec::new();
    let mut holdout = Vec::new();
    for (i, &y) in labels.iter().enumerate() {
        let a = &mut acc[usize::from(y == 1)];
        *a += f;
        if *a >= 1.0 {
            *a -= 1.0;
            holdout.push(i);
        } else {
            fit.push(i);
        }
    }
    (fit, holdout)
}

/// A trained two-stage cascade: cheap screen + deep confirmer, each with
/// its own fitted calibrator, plus the uncertainty band that routes
/// between them. Implements [`CodeScorer`], so the serving tier treats it
/// exactly like a flat [`Detector`] — one `Arc`, one hot-swap generation,
/// both stages always travelling together.
pub struct CascadeDetector {
    screen: Detector,
    confirm: Detector,
    screen_cal: Calibrator,
    confirm_cal: Calibrator,
    band: (f32, f32),
    escalate_budget: f32,
}

impl std::fmt::Debug for CascadeDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CascadeDetector")
            .field("screen", &self.screen.kind())
            .field("confirm", &self.confirm.kind())
            .field("band", &self.band)
            .field("escalate_budget", &self.escalate_budget)
            .finish()
    }
}

impl CascadeDetector {
    /// Trains a cascade on `ctx`: splits off a stratified calibration
    /// holdout (a quarter of each class), trains both stages on the
    /// remainder via the standard [`Detector::train_on`] path, fits each
    /// stage's calibrator on its *holdout* scores (scores the stages never
    /// trained on — fitting on training scores would calibrate optimism,
    /// not probability), and picks the band from the calibrated screen
    /// holdout per [`pick_band`].
    ///
    /// # Panics
    ///
    /// Panics when the context is too small to yield a non-empty fit and
    /// holdout slice, or on a budget outside `[0, 1]`.
    pub fn train(
        ctx: &EvalContext,
        screen_kind: ModelKind,
        confirm_kind: ModelKind,
        config: &CascadeConfig,
        seed: u64,
    ) -> CascadeDetector {
        let (fit_idx, holdout_idx) = calibration_split(ctx.labels());
        assert!(!fit_idx.is_empty(), "empty cascade fit slice");
        assert!(!holdout_idx.is_empty(), "empty cascade calibration holdout");
        let screen = Detector::train_on(ctx, screen_kind, &fit_idx, seed);
        let confirm = Detector::train_on(ctx, confirm_kind, &fit_idx, seed);

        let all = ctx.caches().as_slice();
        let hold: Vec<&DisasmCache> = holdout_idx.iter().map(|&i| &all[i]).collect();
        let labels = ctx.gather_labels(&holdout_idx);

        let raw_screen = score_refs_raw(&screen, &hold);
        let raw_confirm = score_refs_raw(&confirm, &hold);
        let screen_cal = Calibrator::fit(&raw_screen, &labels);
        let confirm_cal = Calibrator::fit(&raw_confirm, &labels);

        let band = pick_band(&screen_cal.apply_all(&raw_screen), config.escalate_budget);
        CascadeDetector {
            screen,
            confirm,
            screen_cal,
            confirm_cal,
            band,
            escalate_budget: config.escalate_budget,
        }
    }

    /// The cheap stage-1 screen.
    pub fn screen(&self) -> &Detector {
        &self.screen
    }

    /// The deep stage-2 confirmer.
    pub fn confirm(&self) -> &Detector {
        &self.confirm
    }

    /// The fitted uncertainty band `(lo, hi)`: calibrated screen
    /// probabilities with `lo ≤ p ≤ hi` escalate. A zero-budget cascade
    /// carries the inverted sentinel `(1.0, 0.0)`.
    pub fn band(&self) -> (f32, f32) {
        self.band
    }

    /// The escalation budget the band was fitted to.
    pub fn escalate_budget(&self) -> f32 {
        self.escalate_budget
    }

    /// Verdicts for already-decoded contracts, in input order: one batched
    /// stage-1 pass over everything, then one batched stage-2 pass over
    /// the escalated subset — reusing the stage-1 rows outright when both
    /// stages share an encoding, and never re-decoding either way.
    pub fn score_batch(&self, caches: &[DisasmCache]) -> Vec<CascadeVerdict> {
        let encoded = parallel_map(caches, |c| self.screen.encode(c));
        self.route(caches, &encoded)
    }

    /// The verdict on one already-decoded contract.
    pub fn score_cache(&self, cache: &DisasmCache) -> CascadeVerdict {
        self.score_batch(std::slice::from_ref(cache))[0]
    }

    /// The verdict on one raw bytecode (decoded exactly once).
    pub fn score_code(&self, code: &Bytecode) -> CascadeVerdict {
        self.score_cache(&DisasmCache::build(code))
    }

    /// Verdicts for raw bytecodes. One fan-out across the worker pool
    /// decodes each contract exactly once and encodes it for the screen;
    /// the caches stay alive through stage 1 so an escalation costs a
    /// gather, not a re-decode.
    pub fn score_codes(&self, codes: &[Bytecode]) -> Vec<CascadeVerdict> {
        let (caches, encoded): (Vec<DisasmCache>, Vec<FeatureVec>) = parallel_map(codes, |code| {
            let cache = DisasmCache::build(code);
            let row = self.screen.encode(&cache);
            (cache, row)
        })
        .into_iter()
        .unzip();
        self.route(&caches, &encoded)
    }

    /// The shared scoring tail over screen-encoded contracts: stage 1 over
    /// all, stage 2 over the band.
    fn route(&self, caches: &[DisasmCache], encoded: &[FeatureVec]) -> Vec<CascadeVerdict> {
        let rows: Vec<FeatureRow<'_>> = encoded.iter().map(FeatureVec::as_row).collect();
        let raw1 = self.screen.score_rows(&rows);
        let (lo, hi) = self.band;
        let mut verdicts: Vec<CascadeVerdict> = raw1
            .iter()
            .map(|&raw| {
                let p = self.screen_cal.apply(raw);
                CascadeVerdict {
                    probability: p,
                    escalated: lo <= p && p <= hi,
                    screen: StageScore {
                        kind: self.screen.kind(),
                        raw,
                        calibrated: p,
                    },
                    confirm: None,
                }
            })
            .collect();
        let escalated: Vec<usize> = (0..verdicts.len())
            .filter(|&i| verdicts[i].escalated)
            .collect();
        if escalated.is_empty() {
            return verdicts;
        }
        // Stage 2 sees one sub-batch. Same encoding ⇒ gather the stage-1
        // rows; different ⇒ encode the escalated caches (still no decode)
        // on this thread. Measured in process on a 2-vCPU VM over one
        // 2,048-contract backlog: with every contract escalated, that
        // encode took 0.4–3 µs per contract against 86–1,560 µs of GPT-2α/β,
        // SCSGuard or ViT+R2D2 scoring, and at the default budget a
        // fan-out of the α band cost more than it saved. Only a confirmer
        // as cheap as ESCORT (≈10 µs per contract) would gain from one
        // (≈1.4 µs per contract at budget 1).
        let raw2 = if self.confirm.encoding() == self.screen.encoding() {
            let rows2: Vec<FeatureRow<'_>> =
                escalated.iter().map(|&i| encoded[i].as_row()).collect();
            self.confirm.score_rows(&rows2)
        } else {
            let enc2: Vec<FeatureVec> = escalated
                .iter()
                .map(|&i| self.confirm.encode(&caches[i]))
                .collect();
            let rows2: Vec<FeatureRow<'_>> = enc2.iter().map(FeatureVec::as_row).collect();
            self.confirm.score_rows(&rows2)
        };
        for (&i, &raw) in escalated.iter().zip(&raw2) {
            let p = self.confirm_cal.apply(raw);
            verdicts[i].confirm = Some(StageScore {
                kind: self.confirm.kind(),
                raw,
                calibrated: p,
            });
            verdicts[i].probability = p;
        }
        verdicts
    }

    /// Serializes the cascade into one versioned `.phk` container: a
    /// `cascade` section (band, budget, the calibration method id and both
    /// calibrator states) plus a full nested [`Detector::to_bytes`]
    /// artifact per stage — so each stage reloads through the exact
    /// detector cold-start path and inherits its bit-parity guarantee. The
    /// `cascade` section's presence is also how loaders sniff a cascade
    /// artifact apart from a flat detector's.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_f32(self.band.0);
        meta.put_f32(self.band.1);
        meta.put_f32(self.escalate_budget);
        meta.put_str(Calibrator::ID);
        meta.put_bytes(&self.screen_cal.export_state());
        meta.put_bytes(&self.confirm_cal.export_state());

        let mut artifact = ArtifactWriter::new();
        artifact.section("cascade", meta.into_bytes());
        artifact.section("stage1", self.screen.to_bytes());
        artifact.section("stage2", self.confirm.to_bytes());
        artifact.into_bytes()
    }

    /// Writes the cascade artifact to a file.
    ///
    /// # Errors
    ///
    /// Any underlying I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reconstructs a cascade from [`CascadeDetector::to_bytes`] bytes,
    /// with the same cold-start parity guarantee as
    /// [`Detector::from_bytes`]: every verdict (probability, escalated
    /// flag, per-stage scores) of the reloaded cascade is bit-identical to
    /// the training process's.
    ///
    /// # Errors
    ///
    /// Container-level failures, a stage that fails detector validation,
    /// or corrupt calibrator/band state — typed, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<CascadeDetector, ArtifactError> {
        let artifact = ArtifactReader::from_bytes(bytes)?;
        CascadeDetector::decode(
            artifact.section("cascade")?,
            artifact.section("stage1")?,
            artifact.section("stage2")?,
        )
    }

    /// Reconstructs a cascade from a shared [`OwnedArtifact`] — the
    /// serving-pool load path (see [`Detector::from_artifact`]).
    ///
    /// # Errors
    ///
    /// Everything [`CascadeDetector::from_bytes`] rejects.
    pub fn from_artifact(artifact: &OwnedArtifact) -> Result<CascadeDetector, ArtifactError> {
        CascadeDetector::decode(
            artifact.section("cascade")?,
            artifact.section("stage1")?,
            artifact.section("stage2")?,
        )
    }

    /// The shared decode tail of both cascade load paths.
    fn decode(
        cascade_bytes: &[u8],
        stage1_bytes: &[u8],
        stage2_bytes: &[u8],
    ) -> Result<CascadeDetector, ArtifactError> {
        let mut meta = ByteReader::new(cascade_bytes);
        let lo = meta.take_f32()?;
        let hi = meta.take_f32()?;
        let escalate_budget = meta.take_f32()?;
        let method_id = meta.take_str()?;
        if method_id != Calibrator::ID {
            return Err(ArtifactError::Mismatch(format!(
                "unknown calibration method {method_id:?}"
            )));
        }
        let screen_cal = Calibrator::import_state(meta.take_bytes()?)?;
        let confirm_cal = Calibrator::import_state(meta.take_bytes()?)?;
        meta.expect_exhausted("cascade meta")?;
        if !(0.0..=1.0).contains(&escalate_budget) {
            return Err(ArtifactError::Corrupt(format!(
                "escalation budget {escalate_budget} outside [0, 1]"
            )));
        }
        Ok(CascadeDetector {
            screen: Detector::from_bytes(stage1_bytes)?,
            confirm: Detector::from_bytes(stage2_bytes)?,
            screen_cal,
            confirm_cal,
            band: (lo, hi),
            escalate_budget,
        })
    }

    /// Reads a cascade artifact file (via [`OwnedArtifact::open`], like
    /// [`Detector::load`]).
    ///
    /// # Errors
    ///
    /// I/O failures plus everything [`CascadeDetector::from_bytes`]
    /// rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<CascadeDetector, ArtifactError> {
        CascadeDetector::from_artifact(&OwnedArtifact::open(path)?)
    }
}

/// Raw stage scores for referenced caches — the holdout-scoring helper
/// (identical arithmetic to [`Detector::score_batch`]: encode across the
/// pool, one batched model call).
fn score_refs_raw(detector: &Detector, caches: &[&DisasmCache]) -> Vec<f32> {
    let encoded = parallel_map(caches, |c| detector.encode(c));
    let rows: Vec<FeatureRow<'_>> = encoded.iter().map(FeatureVec::as_row).collect();
    detector.score_rows(&rows)
}

impl CodeScorer for CascadeDetector {
    type Output = CascadeVerdict;

    fn score_many(&self, codes: &[Bytecode]) -> Vec<CascadeVerdict> {
        self.score_codes(codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bem::{extract_dataset, BemConfig};
    use crate::mem::EvalProfile;
    use phishinghook_chain::SimulatedChain;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    fn context(seed: u64) -> EvalContext {
        let corpus = generate_corpus(&CorpusConfig::small(seed));
        let chain = SimulatedChain::from_corpus(&corpus);
        let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
        EvalContext::new(&dataset, &EvalProfile::quick())
    }

    fn quick_cascade(ctx: &EvalContext) -> CascadeDetector {
        CascadeDetector::train(
            ctx,
            ModelKind::RandomForest,
            ModelKind::LogisticRegression,
            &CascadeConfig::default(),
            7,
        )
    }

    #[test]
    fn band_hits_the_budget_exactly_without_ties() {
        // 10 distinct distances from 0.5.
        let probs: Vec<f32> = (0..10).map(|i| 0.5 + 0.04 * i as f32).collect();
        let (lo, hi) = pick_band(&probs, 0.3);
        let inside = probs.iter().filter(|&&p| lo <= p && p <= hi).count();
        assert_eq!(inside, 3);
        // The band is symmetric around the threshold.
        assert!((lo + hi - 2.0 * PHISHING_THRESHOLD).abs() < 1e-6);
    }

    #[test]
    fn band_edge_budgets() {
        let probs = [0.1, 0.4, 0.5, 0.9];
        // Zero budget: the inverted sentinel admits nothing.
        let (lo, hi) = pick_band(&probs, 0.0);
        assert!(lo > hi);
        assert!(!probs.iter().any(|&p| lo <= p && p <= hi));
        // Full budget: everything escalates.
        assert_eq!(pick_band(&probs, 1.0), (0.0, 1.0));
    }

    #[test]
    fn band_ties_overshoot_rather_than_undershoot() {
        // Four contracts share the cut distance; asking for 2 gets all 4.
        let probs = [0.45, 0.55, 0.45, 0.55, 0.1, 0.9];
        let (lo, hi) = pick_band(&probs, 2.0 / 6.0);
        let inside = probs.iter().filter(|&&p| lo <= p && p <= hi).count();
        assert_eq!(inside, 4);
    }

    #[test]
    fn calibration_split_is_stratified_and_deterministic() {
        let labels: Vec<u8> = (0..200).map(|i| u8::from(i % 3 == 0)).collect();
        let (fit, hold) = calibration_split(&labels);
        assert_eq!(fit.len() + hold.len(), 200);
        // Each class sheds ~25%.
        for class in [0u8, 1] {
            let total = labels.iter().filter(|&&y| y == class).count();
            let held = hold.iter().filter(|&&i| labels[i] == class).count();
            let frac = held as f64 / total as f64;
            assert!((frac - 0.25).abs() < 0.05, "class {class}: {frac}");
        }
        // Deterministic.
        assert_eq!(calibration_split(&labels), (fit, hold));
    }

    #[test]
    fn verdicts_route_by_band_and_carry_provenance() {
        let ctx = context(42);
        let cascade = quick_cascade(&ctx);
        let (lo, hi) = cascade.band();
        let caches = ctx.caches().as_slice();
        let verdicts = cascade.score_batch(caches);
        assert_eq!(verdicts.len(), caches.len());
        let mut saw = [false; 2];
        for v in &verdicts {
            assert_eq!(v.screen.kind, ModelKind::RandomForest);
            let inside = lo <= v.screen.calibrated && v.screen.calibrated <= hi;
            assert_eq!(v.escalated, inside);
            saw[usize::from(v.escalated)] = true;
            match v.confirm {
                Some(c) => {
                    assert!(v.escalated);
                    assert_eq!(c.kind, ModelKind::LogisticRegression);
                    assert_eq!(v.probability, c.calibrated);
                }
                None => {
                    assert!(!v.escalated);
                    assert_eq!(v.probability, v.screen.calibrated);
                }
            }
            assert!((0.0..=1.0).contains(&v.probability));
        }
        assert!(saw[0], "no contract short-circuited");
        assert!(saw[1], "no contract escalated");
    }

    #[test]
    fn cascade_artifact_round_trips_bit_exactly() {
        let ctx = context(42);
        let cascade = quick_cascade(&ctx);
        let caches = ctx.caches().as_slice();
        let expected = cascade.score_batch(caches);

        let reloaded = CascadeDetector::from_bytes(&cascade.to_bytes()).unwrap();
        assert_eq!(reloaded.band(), cascade.band());
        assert_eq!(reloaded.escalate_budget(), cascade.escalate_budget());
        assert_eq!(reloaded.score_batch(caches), expected);
    }

    #[test]
    fn malformed_cascade_artifacts_are_typed_errors() {
        let ctx = context(42);
        let bytes = quick_cascade(&ctx).to_bytes();
        for cut in [0, 4, bytes.len() / 3, bytes.len() - 1] {
            assert!(
                CascadeDetector::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // A flat detector artifact is not a cascade.
        let flat = Detector::train(&ctx, ModelKind::Knn, 1).to_bytes();
        assert!(matches!(
            CascadeDetector::from_bytes(&flat),
            Err(ArtifactError::MissingSection(_))
        ));

        // Rewrites the `cascade` section around the original stages.
        let original = ArtifactReader::from_bytes(&bytes).unwrap();
        let platt = Calibrator { a: 1.0, b: 0.0 }.export_state();
        let rewrite = |method: &str, screen_state: &[u8]| {
            let mut meta = ByteWriter::new();
            meta.put_f32(0.4);
            meta.put_f32(0.6);
            meta.put_f32(0.15);
            meta.put_str(method);
            meta.put_bytes(screen_state);
            meta.put_bytes(&platt);
            let mut artifact = ArtifactWriter::new();
            artifact.section("cascade", meta.into_bytes());
            for stage in ["stage1", "stage2"] {
                artifact.section(stage, original.section(stage).unwrap().to_vec());
            }
            CascadeDetector::from_bytes(&artifact.into_bytes())
        };
        assert!(rewrite(Calibrator::ID, &platt).is_ok());
        // The retired isotonic method id and its calibrator tag `1`.
        assert!(matches!(
            rewrite("isotonic", &platt),
            Err(ArtifactError::Mismatch(_))
        ));
        let mut isotonic = ByteWriter::new();
        isotonic.put_u8(1);
        isotonic.put_f32_slice(&[0.1, 0.5]);
        isotonic.put_f32_slice(&[0.2, 0.8]);
        assert!(matches!(
            rewrite(Calibrator::ID, &isotonic.into_bytes()),
            Err(ArtifactError::Corrupt(_))
        ));
    }
}
