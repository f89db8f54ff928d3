//! The artifact hot-swap seam: a generation-counted slot the queue
//! workers score through, swappable under a live server, and the one
//! model type every server fronts.
//!
//! A [`ModelSlot`] holds the live model `Arc`, its artifact generation
//! and that generation's [`VerdictMemo`] behind one lock. Queue workers
//! implement their batched scoring through the slot's [`CodeScorer`]
//! impl, which **snapshots the `Arc` once per batch**: a concurrent
//! [`ModelSlot::install`] swaps the live model for subsequent batches
//! while every in-flight batch finishes on the model it started with — no
//! torn batches, no dropped requests, and bit-parity with solo scoring
//! within each generation. Every install starts an empty memo, so a
//! verdict reused at the server's ingress always comes from the
//! generation that is live.
//!
//! [`ServedModel`] is what a server's slot holds: a flat [`Detector`] or
//! a two-stage [`CascadeDetector`]. It is the only place in the crate
//! that tells the two apart; everything above it sees one scorer whose
//! output is always a [`CascadeVerdict`].
//!
//! The rolling-retrain loop in `phishinghook-ingest` drives this seam:
//! republish the artifact atomically on disk, decode it, then
//! [`Server::install`](crate::Server::install) the new generation here.

use crate::memo::VerdictMemo;
use phishinghook::{
    ArtifactError, CascadeDetector, CascadeVerdict, CodeScorer, Detector, StageScore,
};
use phishinghook_artifact::OwnedArtifact;
use phishinghook_evm::Bytecode;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The model a server fronts: a flat detector or a two-stage cascade.
///
/// Both stages of a cascade live behind one `Arc`, so installing a
/// `ServedModel` replaces screen and confirmer in the same swap — no
/// request can observe a stage 1 from one generation paired with a
/// stage 2 from another. A swap may also change the kind: a replica
/// follows a publish directory through flat and cascade generations
/// alike.
pub enum ServedModel {
    /// A flat single-model detector.
    Flat(Arc<Detector>),
    /// A cheap calibrated screen routing uncertain contracts to a deep
    /// confirmer.
    Cascade(Arc<CascadeDetector>),
    /// A scripted scorer the crate's own tests serve, to force
    /// interleavings and panics a trained model never shows.
    #[cfg(test)]
    Stub(Arc<dyn CodeScorer<Output = CascadeVerdict>>),
}

impl ServedModel {
    /// Decodes a validated artifact: a container with a `cascade`
    /// section is a cascade, anything else a flat detector.
    ///
    /// # Errors
    ///
    /// Everything [`Detector::from_artifact`] or
    /// [`CascadeDetector::from_artifact`] rejects.
    pub fn from_artifact(artifact: &OwnedArtifact) -> Result<ServedModel, ArtifactError> {
        Ok(if artifact.section("cascade").is_ok() {
            ServedModel::Cascade(Arc::new(CascadeDetector::from_artifact(artifact)?))
        } else {
            ServedModel::Flat(Arc::new(Detector::from_artifact(artifact)?))
        })
    }

    /// The `"model"` label of replies and `/healthz`: the kind id of a
    /// flat model, `"cascade"` for a cascade.
    pub fn label(&self) -> &'static str {
        match self {
            ServedModel::Flat(detector) => detector.kind().id(),
            ServedModel::Cascade(_) => "cascade",
            #[cfg(test)]
            ServedModel::Stub(_) => "stub",
        }
    }

    /// The kind ids of the screening stage and, for a cascade, the
    /// confirming stage — the identity `/healthz` reports. A flat model
    /// is its own screen.
    pub fn stage_ids(&self) -> (&'static str, Option<&'static str>) {
        match self {
            ServedModel::Flat(detector) => (detector.kind().id(), None),
            ServedModel::Cascade(cascade) => (
                cascade.screen().kind().id(),
                Some(cascade.confirm().kind().id()),
            ),
            #[cfg(test)]
            ServedModel::Stub(_) => ("stub", None),
        }
    }
}

impl From<Arc<Detector>> for ServedModel {
    fn from(detector: Arc<Detector>) -> Self {
        ServedModel::Flat(detector)
    }
}

impl From<Arc<CascadeDetector>> for ServedModel {
    fn from(cascade: Arc<CascadeDetector>) -> Self {
        ServedModel::Cascade(cascade)
    }
}

/// The one-line description a startup banner prints.
impl fmt::Display for ServedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServedModel::Flat(detector) => {
                write!(f, "{} ({})", detector.kind().name(), detector.kind().id())
            }
            ServedModel::Cascade(cascade) => write!(
                f,
                "cascade {} → {} (band [{:.3}, {:.3}], budget {:.0}%)",
                cascade.screen().kind().id(),
                cascade.confirm().kind().id(),
                cascade.band().0,
                cascade.band().1,
                cascade.escalate_budget() * 100.0
            ),
            #[cfg(test)]
            ServedModel::Stub(_) => write!(f, "stub"),
        }
    }
}

impl CodeScorer for ServedModel {
    type Output = CascadeVerdict;

    /// A cascade answers with its own verdicts. A flat detector's raw
    /// score becomes a never-escalated verdict whose probability is that
    /// score bit for bit.
    fn score_many(&self, codes: &[Bytecode]) -> Vec<CascadeVerdict> {
        match self {
            ServedModel::Flat(detector) => {
                let kind = detector.kind();
                detector
                    .score_codes(codes)
                    .into_iter()
                    .map(|raw| CascadeVerdict {
                        probability: raw,
                        escalated: false,
                        screen: StageScore {
                            kind,
                            raw,
                            calibrated: raw,
                        },
                        confirm: None,
                    })
                    .collect()
            }
            ServedModel::Cascade(cascade) => cascade.score_codes(codes),
            #[cfg(test)]
            ServedModel::Stub(stub) => stub.score_many(codes),
        }
    }
}

/// One generation as a [`ModelSlot`] holds it: the model, its artifact
/// generation and its verdict memo, swapped together.
pub(crate) struct LiveModel<S: CodeScorer> {
    /// The generation's scorer.
    pub model: Arc<S>,
    /// The artifact generation.
    pub generation: u64,
    /// The verdicts this generation has scored, keyed by code.
    pub memo: Arc<VerdictMemo<S::Output>>,
}

impl<S: CodeScorer> LiveModel<S> {
    fn fresh(model: Arc<S>, generation: u64) -> Self {
        LiveModel {
            model,
            generation,
            memo: Arc::default(),
        }
    }
}

impl<S: CodeScorer> Clone for LiveModel<S> {
    fn clone(&self) -> Self {
        LiveModel {
            model: Arc::clone(&self.model),
            generation: self.generation,
            memo: Arc::clone(&self.memo),
        }
    }
}

/// A swappable, generation-counted scorer slot shared by the serving
/// queue and the retrain loop. Generic over the scorer; a server's slot
/// holds a [`ServedModel`].
pub struct ModelSlot<S: CodeScorer = ServedModel> {
    /// The live model, generation and memo, swapped together so a reader
    /// never pairs a new model with an old generation number or memo.
    live: Mutex<LiveModel<S>>,
    started: Instant,
}

impl<S: CodeScorer> ModelSlot<S> {
    /// A slot serving `scorer` as artifact generation `generation`
    /// (use 0 for a model loaded outside any publish directory).
    pub fn new(scorer: Arc<S>, generation: u64) -> Self {
        ModelSlot {
            live: Mutex::new(LiveModel::fresh(scorer, generation)),
            started: Instant::now(),
        }
    }

    /// One consistent `(model, generation)` snapshot. The returned `Arc`
    /// keeps that generation alive for as long as the caller scores with
    /// it, regardless of later installs.
    pub fn snapshot(&self) -> (Arc<S>, u64) {
        let live = self.live.lock().unwrap();
        (Arc::clone(&live.model), live.generation)
    }

    /// The whole live generation, memo included.
    pub(crate) fn live(&self) -> LiveModel<S> {
        self.live.lock().expect("model slot lock poisoned").clone()
    }

    /// `true` while `memo` belongs to the live generation: no install has
    /// happened since it was snapshotted.
    pub(crate) fn memo_is_live(&self, memo: &Arc<VerdictMemo<S::Output>>) -> bool {
        Arc::ptr_eq(
            &self.live.lock().expect("model slot lock poisoned").memo,
            memo,
        )
    }

    /// The live scorer.
    pub fn model(&self) -> Arc<S> {
        self.snapshot().0
    }

    /// The live artifact generation.
    pub fn generation(&self) -> u64 {
        self.live.lock().unwrap().generation
    }

    /// Swaps in a new model generation, with an empty memo, and returns
    /// the generation it replaced. Takes effect for every batch that
    /// snapshots after this call; batches already scoring finish on the
    /// old model.
    pub fn install(&self, scorer: Arc<S>, generation: u64) -> u64 {
        let fresh = LiveModel::fresh(scorer, generation);
        let mut live = self.live.lock().expect("model slot lock poisoned");
        let replaced = std::mem::replace(&mut *live, fresh);
        // The replaced generation, memo and all, is freed after unlocking.
        drop(live);
        replaced.generation
    }

    /// Time since the slot (and hence the server around it) was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }
}

impl<S: CodeScorer> CodeScorer for ModelSlot<S> {
    type Output = S::Output;

    /// Scores one batch against a single snapshot of the live model: the
    /// swap seam's whole contract is that this `Arc` is read exactly once
    /// per batch.
    fn score_many(&self, codes: &[Bytecode]) -> Vec<S::Output> {
        self.model().score_many(codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook::prelude::*;
    use phishinghook::EvalProfile;
    use phishinghook_synth::{generate_corpus, CorpusConfig};

    fn trained(kind: ModelKind, seed: u64) -> Arc<Detector> {
        let corpus = generate_corpus(&CorpusConfig::small(seed));
        let chain = SimulatedChain::from_corpus(&corpus);
        let (dataset, _) = extract_dataset(&chain, &BemConfig::default());
        let ctx = EvalContext::new(&dataset, &EvalProfile::quick());
        Arc::new(Detector::train(&ctx, kind, 7))
    }

    #[test]
    fn install_swaps_model_and_generation_together() {
        let first = trained(ModelKind::LogisticRegression, 42);
        let second = trained(ModelKind::RandomForest, 42);
        let slot = ModelSlot::new(Arc::clone(&first), 1);
        assert_eq!(slot.generation(), 1);
        assert_eq!(slot.model().kind(), first.kind());

        let old = slot.install(Arc::clone(&second), 2);
        assert_eq!(old, 1);
        let (live, generation) = slot.snapshot();
        assert_eq!(generation, 2);
        assert_eq!(live.kind(), ModelKind::RandomForest);
        // The pre-swap snapshot semantics: an Arc taken before install
        // still scores on the old model.
        assert_eq!(first.kind(), ModelKind::LogisticRegression);
    }

    #[test]
    fn slot_scoring_is_bit_identical_to_the_detector_within_a_generation() {
        let detector = trained(ModelKind::LogisticRegression, 7);
        let slot = ModelSlot::new(Arc::clone(&detector), 1);
        let corpus = generate_corpus(&CorpusConfig::small(9));
        let chain = SimulatedChain::from_corpus(&corpus);
        let codes: Vec<Bytecode> = chain
            .records()
            .iter()
            .take(16)
            .map(|r| r.bytecode.clone())
            .collect();
        assert_eq!(slot.score_many(&codes), detector.score_many(&codes));
    }
}
