//! The multi-process shape of the ingestion loop: a pipeline fed by
//! *tailing a live CodeLog* written by a separate scanner process,
//! instead of replaying an in-process chain.
//!
//! ```text
//!  scanner process ──append_labeled──► <codelog>   (crash-prone; torn
//!        │                                          tails are normal)
//!        ▼
//!  CodeLogTailer — follow the journal across torn tails & rotations
//!        │ labeled records
//!        ▼
//!  bootstrap: first N labeled samples (both classes) → baseline train
//!        │                                → publish generation 1
//!        ▼
//!  OnlinePipeline::observe — drift watch → sliding-window retrain
//!        │                                → publish generation N
//!        ▼
//!  <publish-dir>/CURRENT — picked up by every watching serve replica
//! ```
//!
//! The tail driver never trips on a scanner crash: a torn final record
//! is a retryable [`CodeLogError::Truncated`] the tailer waits out, and
//! only real corruption or the idle timeout ([`CodeLogError::Stalled`])
//! ends the run — the latter cleanly, with the report so far.

use crate::pipeline::{IngestConfig, IngestReport, OnlinePipeline, RetrainEvent};
use phishinghook::retry::Clock;
use phishinghook::{Dataset, Detector, EvalContext, Sample};
use phishinghook_artifact::publish::{ArtifactPublisher, PublishedArtifact};
use phishinghook_artifact::ArtifactError;
use phishinghook_evm::{CodeLogError, CodeLogTailer, TailEvent};
use phishinghook_synth::Month;
use std::sync::Arc;

/// Default labeled-sample count collected before the baseline train.
pub const DEFAULT_BOOTSTRAP_MIN: usize = 96;

/// Knobs of one [`run_tail_pipeline`] run.
#[derive(Debug, Clone)]
pub struct TailIngestConfig {
    /// The drift/retrain pipeline configuration used after bootstrap.
    pub ingest: IngestConfig,
    /// Labeled samples collected before the baseline train; the train
    /// also waits for both classes to be present.
    pub bootstrap_min: usize,
}

impl Default for TailIngestConfig {
    fn default() -> Self {
        TailIngestConfig {
            ingest: IngestConfig::default(),
            bootstrap_min: DEFAULT_BOOTSTRAP_MIN,
        }
    }
}

/// A notable moment in a tail-driven run, for the caller's logging.
#[derive(Debug, Clone)]
pub enum TailNote {
    /// The baseline trained and published as the first generation.
    Bootstrapped {
        /// The published baseline artifact.
        published: PublishedArtifact,
        /// Labeled samples the baseline saw.
        samples: usize,
    },
    /// A drift signal retrained and republished.
    Retrained(RetrainEvent),
    /// The scanner rotated the journal out from under the tail.
    Rotated {
        /// The replacement journal's identity.
        log_id: u64,
    },
}

/// Counters of one completed [`run_tail_pipeline`] run.
#[derive(Debug, Clone)]
pub struct TailReport {
    /// Labeled samples consumed by the baseline bootstrap.
    pub bootstrapped: usize,
    /// Unlabeled (raw) records skipped — the pipeline trains on labels.
    pub unlabeled: usize,
    /// Journal rotations followed.
    pub rotations: u64,
    /// The post-bootstrap pipeline's counters (empty when the run
    /// stalled before bootstrap completed).
    pub pipeline: IngestReport,
    /// Every generation published, baseline included, in order.
    pub generations: Vec<u64>,
}

/// A tail-driven run's error: the journal or the publisher failed.
#[derive(Debug)]
pub enum TailError {
    /// The journal is unreadable (corrupt record, bad header, I/O).
    Log(CodeLogError),
    /// Publishing an artifact failed.
    Artifact(ArtifactError),
}

impl std::fmt::Display for TailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailError::Log(e) => write!(f, "journal: {e}"),
            TailError::Artifact(e) => write!(f, "publish: {e}"),
        }
    }
}

impl std::error::Error for TailError {}

impl From<CodeLogError> for TailError {
    fn from(e: CodeLogError) -> Self {
        TailError::Log(e)
    }
}

impl From<ArtifactError> for TailError {
    fn from(e: ArtifactError) -> Self {
        TailError::Artifact(e)
    }
}

/// Drives a [`CodeLogTailer`] into an [`OnlinePipeline`]: bootstraps the
/// baseline from the first labeled records, then adapts online, calling
/// `on_note` at each bootstrap/retrain/rotation. Returns when the
/// journal stalls past the tail's idle timeout; a tail configured
/// without an idle timeout follows the journal forever.
///
/// # Errors
///
/// [`TailError::Log`] on a corrupt or unreadable journal (a *torn* tail
/// is not an error — the tailer waits it out), [`TailError::Artifact`]
/// on a failed publish.
pub fn run_tail_pipeline<C: Clock>(
    tailer: &mut CodeLogTailer<C>,
    publisher: &mut ArtifactPublisher,
    config: &TailIngestConfig,
    mut on_note: impl FnMut(&TailNote),
) -> Result<TailReport, TailError> {
    let mut bootstrap: Vec<Sample> = Vec::new();
    let mut pipeline: Option<OnlinePipeline> = None;
    let mut unlabeled = 0usize;
    let mut rotations = 0u64;
    let mut generations: Vec<u64> = Vec::new();

    loop {
        let entry = match tailer.next_event() {
            Ok(TailEvent::Record(entry)) => entry,
            Ok(TailEvent::Rotated { log_id }) => {
                rotations += 1;
                on_note(&TailNote::Rotated { log_id });
                continue;
            }
            Err(CodeLogError::Stalled { .. }) => break,
            Err(e) => return Err(e.into()),
        };
        let Some(meta) = entry.meta else {
            unlabeled += 1;
            continue;
        };
        let sample = Sample {
            bytecode: entry.code,
            label: meta.label,
            month: Month(meta.month.min(Month::LAST.0 as u16) as u8),
        };

        match pipeline.as_mut() {
            None => {
                bootstrap.push(sample);
                let positives = bootstrap.iter().filter(|s| s.label == 1).count();
                if bootstrap.len() < config.bootstrap_min
                    || positives == 0
                    || positives == bootstrap.len()
                {
                    continue;
                }
                let dataset = Dataset::new(bootstrap.clone());
                let ctx = EvalContext::new(&dataset, &config.ingest.profile);
                let baseline = Detector::train(&ctx, config.ingest.kind, config.ingest.seed);
                let published = publisher.publish(baseline.to_bytes())?;
                generations.push(published.generation);
                on_note(&TailNote::Bootstrapped {
                    published,
                    samples: dataset.len(),
                });
                pipeline = Some(OnlinePipeline::new(
                    Arc::new(baseline),
                    config.ingest.clone(),
                ));
            }
            Some(pipeline) => {
                if let Some(event) = pipeline.observe(sample, publisher)? {
                    generations.push(event.published.generation);
                    on_note(&TailNote::Retrained(event));
                }
            }
        }
    }

    Ok(TailReport {
        bootstrapped: bootstrap.len(),
        unlabeled,
        rotations,
        pipeline: pipeline
            .as_ref()
            .map(|p| p.report().clone())
            .unwrap_or_default(),
        generations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook::retry::FakeClock;
    use phishinghook_evm::{CodeLogWriter, TailConfig};
    use phishinghook_synth::{generate_contract, ContractClass, Difficulty, Family};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join("phk_tail_tests")
            .join(format!("{tag}_{}", std::process::id()))
    }

    /// Appends `n` labeled records alternating classes across months.
    fn scan_into(writer: &mut CodeLogWriter, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let family = Family::ALL[i % Family::ALL.len()];
            let month = Month((i % 12) as u8);
            let code = generate_contract(family, month, &Difficulty::default(), &mut rng);
            let label = u8::from(family.class() == ContractClass::Phishing);
            writer.append_labeled(&code, label, month.0 as u16).unwrap();
        }
        writer.sync().unwrap();
    }

    #[test]
    fn tail_pipeline_bootstraps_and_stalls_cleanly() {
        let dir = temp_dir("bootstrap");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("scan.codelog");
        let mut writer = CodeLogWriter::create(&log).unwrap();
        scan_into(&mut writer, 80, 0x7A11);
        // One unlabeled raw record rides along and must be skipped.
        let mut rng = StdRng::seed_from_u64(9);
        writer
            .append(&generate_contract(
                Family::ALL[0],
                Month(3),
                &Difficulty::default(),
                &mut rng,
            ))
            .unwrap();
        writer.sync().unwrap();

        let clock = FakeClock::new();
        let mut tailer = CodeLogTailer::with_clock(
            &log,
            TailConfig {
                idle_timeout: Some(Duration::from_millis(300)),
                ..TailConfig::default()
            },
            clock,
        );
        let mut publisher = ArtifactPublisher::open(dir.join("artifacts")).unwrap();
        let config = TailIngestConfig {
            bootstrap_min: 48,
            ..TailIngestConfig::default()
        };
        let mut notes = Vec::new();
        let report = run_tail_pipeline(&mut tailer, &mut publisher, &config, |n| {
            notes.push(n.clone())
        })
        .unwrap();

        assert_eq!(report.unlabeled, 1);
        assert!(report.bootstrapped >= 48);
        assert_eq!(report.generations.first(), Some(&1));
        assert!(
            matches!(notes.first(), Some(TailNote::Bootstrapped { .. })),
            "first note is the bootstrap: {notes:?}"
        );
        // The published baseline is the live generation.
        let current = ArtifactPublisher::current(dir.join("artifacts"))
            .unwrap()
            .unwrap();
        assert_eq!(Some(&current.generation), report.generations.last());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_label_is_a_journal_error_not_a_trainer_panic() {
        let dir = temp_dir("label2");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("scan.codelog");
        let mut writer = CodeLogWriter::create(&log).unwrap();
        scan_into(&mut writer, 20, 0x1AB2);
        drop(writer);
        // Append a checksum-valid labeled record (tag 1, label 2, month 4
        // LE, one payload byte) as the 21st sample, the one that
        // completes the bootstrap set below.
        let body = [1u8, 2, 4, 0, 0x00];
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&phishinghook_artifact::checksum(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        std::fs::write(&log, &bytes).unwrap();

        let config = TailConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..TailConfig::default()
        };
        let mut tailer = CodeLogTailer::with_clock(&log, config, FakeClock::new());
        let mut publisher = ArtifactPublisher::open(dir.join("artifacts")).unwrap();
        let config = TailIngestConfig {
            bootstrap_min: 21,
            ..TailIngestConfig::default()
        };
        let result = run_tail_pipeline(&mut tailer, &mut publisher, &config, |_| {});
        assert!(
            matches!(result, Err(TailError::Log(CodeLogError::Corrupt { .. }))),
            "{result:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_pipeline_waits_out_a_torn_tail() {
        let dir = temp_dir("torn");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("scan.codelog");
        let mut writer = CodeLogWriter::create(&log).unwrap();
        scan_into(&mut writer, 60, 0x7EA2);
        drop(writer);

        // Tear the tail the way a killed scanner would: half a record.
        let full = std::fs::read(&log).unwrap();
        std::fs::write(&log, &full[..full.len() - 7]).unwrap();

        // The tailer must wait at the tear (not fail), and a resumed
        // writer healing the journal lets the run finish.
        let mut writer = CodeLogWriter::resume(&log).unwrap();
        scan_into(&mut writer, 20, 0x7EA3);
        drop(writer);

        let clock = FakeClock::new();
        let mut tailer = CodeLogTailer::with_clock(
            &log,
            TailConfig {
                idle_timeout: Some(Duration::from_millis(300)),
                ..TailConfig::default()
            },
            clock,
        );
        let mut publisher = ArtifactPublisher::open(dir.join("artifacts")).unwrap();
        let config = TailIngestConfig {
            bootstrap_min: 32,
            ..TailIngestConfig::default()
        };
        let report = run_tail_pipeline(&mut tailer, &mut publisher, &config, |_| {}).unwrap();
        assert!(!report.generations.is_empty(), "bootstrap still happened");
        std::fs::remove_dir_all(&dir).ok();
    }
}
