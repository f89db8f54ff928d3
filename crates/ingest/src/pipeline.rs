//! The online-adaptation loop: replay the chain in time order against the
//! live model, watch for calibration drift, retrain on a sliding window
//! when it fires, and republish the artifact atomically.

use phishinghook::drift::{DriftConfig, DriftSignal, DriftWatcher};
use phishinghook::{Detector, EvalContext, EvalProfile, ModelKind, Sample};
use phishinghook_artifact::publish::{ArtifactPublisher, PublishedArtifact};
use phishinghook_artifact::ArtifactError;
use phishinghook_evm::{CacheBatch, DisasmCache};
use std::collections::VecDeque;
use std::sync::Arc;

/// Knobs of one [`OnlinePipeline`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Drift-watch configuration (rolling window + Brier margin).
    pub drift: DriftConfig,
    /// Samples kept in the sliding retrain window; a retrain sees at most
    /// this many of the most recent contracts.
    pub retrain_window: usize,
    /// Model retrained on drift.
    pub kind: ModelKind,
    /// Featurization/evaluation profile used by retrains.
    pub profile: EvalProfile,
    /// Retrain seed.
    pub seed: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            drift: DriftConfig::default(),
            retrain_window: 256,
            kind: ModelKind::LogisticRegression,
            profile: EvalProfile::quick(),
            seed: 7,
        }
    }
}

/// One completed drift → retrain → republish cycle.
#[derive(Debug, Clone)]
pub struct RetrainEvent {
    /// The signal that triggered the cycle.
    pub signal: DriftSignal,
    /// The atomically published artifact of the retrained model.
    pub published: PublishedArtifact,
    /// Samples the retrain saw (the sliding window's length at the trip).
    pub window_len: usize,
}

/// Lifetime counters of one pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Samples replayed through the pipeline.
    pub streamed: usize,
    /// Every drift signal observed, in order.
    pub signals: Vec<DriftSignal>,
    /// Drift signals that led to a retrain + republish (a signal with a
    /// single-class window rearms without retraining).
    pub retrains: usize,
    /// Generations published, in order.
    pub generations: Vec<u64>,
}

/// The rolling-retrain pipeline: scores each incoming sample with the
/// live model, feeds the drift watcher, and on a [`DriftSignal`] retrains
/// on the sliding window, publishes the new artifact through an
/// [`ArtifactPublisher`], swaps its own live model, and rearms the watch.
///
/// The serving hand-off is the caller's: a [`RetrainEvent`] names the
/// published generation, and [`OnlinePipeline::detector`] is the decoded
/// model ready for `Server::install`.
pub struct OnlinePipeline {
    config: IngestConfig,
    watcher: DriftWatcher,
    /// Each recent sample's cache from its scoring, with its label: a
    /// retrain decodes nothing.
    window: VecDeque<(DisasmCache, u8)>,
    detector: Arc<Detector>,
    report: IngestReport,
}

impl OnlinePipeline {
    /// A pipeline scoring through `initial` until the first retrain.
    ///
    /// # Panics
    ///
    /// Panics when `config.retrain_window` or `config.drift.window` is 0.
    pub fn new(initial: Arc<Detector>, config: IngestConfig) -> Self {
        assert!(config.retrain_window > 0, "retrain window must be positive");
        OnlinePipeline {
            watcher: DriftWatcher::new(config.drift),
            window: VecDeque::with_capacity(config.retrain_window),
            detector: initial,
            config,
            report: IngestReport::default(),
        }
    }

    /// The live model (the latest retrain's, once one has happened).
    pub fn detector(&self) -> Arc<Detector> {
        Arc::clone(&self.detector)
    }

    /// The drift watcher's state.
    pub fn watcher(&self) -> &DriftWatcher {
        &self.watcher
    }

    /// Counters so far.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Feeds one sample in chain order: score → window → drift watch →
    /// (on signal) retrain, publish, swap, rearm. Returns the completed
    /// [`RetrainEvent`] when this sample tripped a retrain. The sample is
    /// decoded exactly once; the retrain reuses the window's caches.
    ///
    /// A signal caught while the sliding window holds a single class
    /// cannot retrain a classifier; it rearms the watcher and is counted
    /// in [`IngestReport::signals`] only.
    ///
    /// # Errors
    ///
    /// Publisher I/O failures, as [`ArtifactError::Io`].
    pub fn observe(
        &mut self,
        sample: Sample,
        publisher: &mut ArtifactPublisher,
    ) -> Result<Option<RetrainEvent>, ArtifactError> {
        let cache = DisasmCache::build(&sample.bytecode);
        let prob = self.detector.score_cache(&cache);
        self.report.streamed += 1;
        if self.window.len() == self.config.retrain_window {
            self.window.pop_front();
        }
        self.window.push_back((cache, sample.label));
        let Some(signal) = self.watcher.observe(prob, sample.label, sample.month) else {
            return Ok(None);
        };
        self.report.signals.push(signal);
        let positives = self.window.iter().filter(|(_, label)| *label == 1).count();
        if positives == 0 || positives == self.window.len() {
            self.watcher.rearm();
            return Ok(None);
        }
        let (caches, labels) = self.window.iter().cloned().unzip();
        let ctx = EvalContext::from_caches(
            CacheBatch::from_caches(caches),
            labels,
            &self.config.profile,
        );
        let retrained = Detector::train(&ctx, self.config.kind, self.config.seed);
        let published = publisher.publish(retrained.to_bytes())?;
        self.detector = Arc::new(retrained);
        self.watcher.rearm();
        self.report.retrains += 1;
        self.report.generations.push(published.generation);
        Ok(Some(RetrainEvent {
            signal,
            published,
            window_len: ctx.len(),
        }))
    }
}
