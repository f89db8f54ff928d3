//! # phishinghook-ingest — streaming ingestion & online adaptation
//!
//! Turns the batch extract → train → serve pipeline into a continuous
//! one. The paper's time-resistance study (§V, Fig. 8) shows the
//! detector decaying as the chain moves past its training window; this
//! crate closes that loop at runtime:
//!
//! ```text
//!  chain replay (ExtractionStream, time order)
//!        │ Sample { bytecode, label, month }
//!        ▼
//!  OnlinePipeline ── score on live Arc<Detector>
//!        │                 │ (probability, label, month)
//!        │                 ▼
//!        │           DriftWatcher — rolling Brier vs baseline
//!        │                 │ DriftSignal
//!        ▼                 ▼
//!  sliding window ──► retrain (Detector::train on the window)
//!                          │ artifact bytes
//!                          ▼
//!              ArtifactPublisher — write-temp + rename, gen-<N>.phk
//!                          │ RetrainEvent
//!                          ▼
//!              Server::install — generation-counted hot swap;
//!              in-flight batches finish on the old model
//! ```
//!
//! The pieces compose from the substrate crates: the drift statistics
//! live in [`phishinghook::drift`], atomic generation-counted publication
//! in [`phishinghook_artifact::publish`], and the durable ingestion
//! journal in [`phishinghook_evm::stream`] (the `CodeLog` append-only
//! format whose cursor survives truncated and corrupt tails with typed
//! errors). The hot swap is the caller's: `phishinghook_serve::swap`
//! installs each published generation.
//!
//! [`scenario::DriftScenario`] builds the reproducible drifted chain the
//! tests and benches replay. Across processes the loop is split between
//! two daemons: `phishinghook-scannerd` appends labeled bytecode to a
//! `CodeLog` journal, and `phishinghook-ingestd tail` follows it through
//! [`run_tail_pipeline`] and publishes each generation for watching
//! `phishinghook-served` replicas. The crate does not link the serving
//! tier: the hand-off is the publish directory.

#![warn(missing_docs)]

pub mod pipeline;
pub mod scenario;
pub mod tail;

pub use pipeline::{IngestConfig, IngestReport, OnlinePipeline, RetrainEvent};
pub use scenario::{baseline_detector, DriftScenario};
pub use tail::{
    run_tail_pipeline, TailError, TailIngestConfig, TailNote, TailReport, DEFAULT_BOOTSTRAP_MIN,
};

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook::drift::DriftConfig;
    use phishinghook::prelude::*;
    use phishinghook::EvalProfile;
    use phishinghook_artifact::publish::ArtifactPublisher;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join("phk_ingest_tests")
            .join(format!("{tag}_{}", std::process::id()))
    }

    #[test]
    fn drift_triggers_retrain_and_monotone_publication() {
        let scenario = DriftScenario::small(42);
        let chain = scenario.build();
        let profile = EvalProfile::quick();
        let initial = baseline_detector(&chain, ModelKind::LogisticRegression, &profile, 7);

        let dir = temp_dir("retrain");
        std::fs::remove_dir_all(&dir).ok();
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        let mut pipeline = OnlinePipeline::new(
            initial,
            IngestConfig {
                drift: DriftConfig {
                    window: 64,
                    brier_margin: 0.15,
                },
                retrain_window: 256,
                kind: ModelKind::LogisticRegression,
                profile,
                seed: 7,
            },
        );

        let mut events = Vec::new();
        for sample in ExtractionStream::new(&chain, Month::FIRST, Month::LAST) {
            events.extend(pipeline.observe(sample, &mut publisher).unwrap());
        }
        let report = pipeline.report();

        assert!(report.streamed > 0);
        assert!(
            report.retrains >= 1,
            "injected shift must trip a retrain: {report:?}"
        );
        assert_eq!(report.retrains, events.len());
        // Generations are monotone and the publish directory agrees.
        assert!(report.generations.windows(2).all(|w| w[0] < w[1]));
        let current = ArtifactPublisher::current(&dir).unwrap().unwrap();
        assert_eq!(current.generation, *report.generations.last().unwrap());
        // The published artifact round-trips to the pipeline's live model.
        let bytes = std::fs::read(&current.path).unwrap();
        let decoded = Detector::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.kind(), pipeline.detector().kind());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn calm_stream_never_publishes() {
        let corpus = generate_corpus(&CorpusConfig::small(11));
        let chain = SimulatedChain::from_corpus(&corpus);
        let profile = EvalProfile::quick();
        let initial = baseline_detector(&chain, ModelKind::LogisticRegression, &profile, 7);

        let dir = temp_dir("calm");
        std::fs::remove_dir_all(&dir).ok();
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        let mut pipeline = OnlinePipeline::new(
            initial,
            IngestConfig {
                // A wide margin: the model's natural post-window decay on
                // an un-drifted chain must not trip the watch.
                drift: DriftConfig {
                    window: 64,
                    brier_margin: 0.5,
                },
                ..IngestConfig::default()
            },
        );
        for sample in ExtractionStream::new(&chain, Month::FIRST, Month::LAST) {
            let event = pipeline.observe(sample, &mut publisher).unwrap();
            assert!(event.is_none(), "no retrain expected on a calm chain");
        }
        assert_eq!(pipeline.report().retrains, 0);
        assert!(ArtifactPublisher::current(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
