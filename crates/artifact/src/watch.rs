//! The replica side of the publish seam: watch a publish directory's
//! `CURRENT` pointer and install new generations — but only after full
//! validation, and never backwards.
//!
//! [`ArtifactWatcher`] is the safety contract a serving replica relies
//! on: every candidate generation is read completely and checksum-
//! validated ([`OwnedArtifact::from_vec`]) *before* it is reported as
//! [`WatchOutcome::Installed`]. A torn or bit-flipped publish surfaces as
//! [`WatchOutcome::Rejected`] — the replica keeps serving its last good
//! generation and the watcher retries with jittered exponential backoff
//! until a newer valid generation appears. A bad publish can never take
//! down or roll back a replica.
//!
//! # Examples
//!
//! ```
//! use phishinghook_artifact::publish::ArtifactPublisher;
//! use phishinghook_artifact::watch::{ArtifactWatcher, WatchConfig, WatchOutcome};
//! use phishinghook_artifact::ArtifactWriter;
//!
//! # fn main() -> Result<(), phishinghook_artifact::ArtifactError> {
//! let dir = std::env::temp_dir().join(format!("phk_watch_doc_{}", std::process::id()));
//! let mut publisher = ArtifactPublisher::open(&dir)?;
//! let mut artifact = ArtifactWriter::new();
//! artifact.section("meta", b"v1".to_vec());
//! publisher.publish(artifact.into_bytes())?;
//!
//! let mut watcher = ArtifactWatcher::new(&dir, WatchConfig::default());
//! match watcher.poll_once() {
//!     WatchOutcome::Installed(valid) => assert_eq!(valid.generation, 1),
//!     other => panic!("expected an install, got {other:?}"),
//! }
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

use crate::publish::ArtifactPublisher;
use crate::{ArtifactError, OwnedArtifact};
use phishinghook_retry::policy::{Backoff, Clock, RetryPolicy};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Tuning for an [`ArtifactWatcher`].
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Steady-state delay between polls when nothing has changed.
    pub poll: Duration,
    /// Backoff policy applied while the current publish is invalid.
    pub backoff: RetryPolicy,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            poll: Duration::from_millis(200),
            backoff: RetryPolicy::new(Duration::from_millis(50), Duration::from_secs(2)),
            seed: 0x5eed,
        }
    }
}

/// A fully validated artifact generation, safe to swap into a serving
/// slot.
#[derive(Debug, Clone)]
pub struct ValidArtifact {
    /// The generation number `CURRENT` named.
    pub generation: u64,
    /// The immutable `gen-<N>.phk` path the bytes came from.
    pub path: PathBuf,
    /// The validated, zero-copy-sectioned artifact.
    pub artifact: OwnedArtifact,
}

/// What one watcher poll observed.
#[derive(Debug)]
pub enum WatchOutcome {
    /// No newer generation than the installed one (or nothing published
    /// yet).
    Unchanged,
    /// A newer generation validated completely and is now the installed
    /// one.
    Installed(ValidArtifact),
    /// The directory points at something invalid — an unreadable or
    /// corrupt `CURRENT`, or a candidate artifact that failed validation.
    /// The installed generation is untouched.
    Rejected {
        /// The candidate generation, when `CURRENT` itself was readable.
        generation: Option<u64>,
        /// Why it was rejected.
        error: ArtifactError,
    },
}

/// Cumulative counters for one watcher's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchStats {
    /// Total polls.
    pub polls: u64,
    /// Generations installed.
    pub installs: u64,
    /// Candidate generations rejected as invalid.
    pub rejects: u64,
}

/// Polls a publish directory and installs only fully valid, strictly
/// newer generations. See the module docs for the safety contract.
#[derive(Debug)]
pub struct ArtifactWatcher {
    dir: PathBuf,
    config: WatchConfig,
    /// Highest generation validated and installed; 0 = none yet.
    installed: u64,
    backoff: Backoff,
    stats: WatchStats,
}

impl ArtifactWatcher {
    /// Watches `dir` with nothing installed yet.
    pub fn new(dir: impl AsRef<Path>, config: WatchConfig) -> Self {
        Self::with_installed(dir, config, 0)
    }

    /// Watches `dir` with `generation` already installed (a replica that
    /// loaded its first artifact out-of-band); 0 means none.
    pub fn with_installed(dir: impl AsRef<Path>, config: WatchConfig, generation: u64) -> Self {
        let backoff = Backoff::new(config.backoff.with_jitter(0.2), config.seed);
        ArtifactWatcher {
            dir: dir.as_ref().to_path_buf(),
            config,
            installed: generation,
            backoff,
            stats: WatchStats::default(),
        }
    }

    /// The watched publish directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WatchStats {
        self.stats
    }

    /// The delay to sleep before the next poll, given the last outcome:
    /// the steady poll interval after `Unchanged`/`Installed`, the next
    /// backed-off delay after `Rejected`.
    pub fn next_delay(&mut self, last: &WatchOutcome) -> Duration {
        match last {
            WatchOutcome::Rejected { .. } => self.backoff.next_delay(),
            _ => {
                self.backoff.reset();
                self.config.poll
            }
        }
    }

    /// One poll: resolve `CURRENT`, and if it names a strictly newer
    /// generation, read and fully validate it before reporting an
    /// install. Never mutates the installed generation on any failure.
    pub fn poll_once(&mut self) -> WatchOutcome {
        self.stats.polls += 1;
        let current = match ArtifactPublisher::current(&self.dir) {
            Ok(Some(current)) => current,
            Ok(None) => return WatchOutcome::Unchanged,
            Err(error) => {
                self.stats.rejects += 1;
                return WatchOutcome::Rejected {
                    generation: None,
                    error,
                };
            }
        };
        if current.generation <= self.installed {
            return WatchOutcome::Unchanged;
        }
        let validated = std::fs::read(&current.path)
            .map_err(ArtifactError::from)
            .and_then(OwnedArtifact::from_vec);
        match validated {
            Ok(artifact) => {
                self.installed = current.generation;
                self.stats.installs += 1;
                WatchOutcome::Installed(ValidArtifact {
                    generation: current.generation,
                    path: current.path,
                    artifact,
                })
            }
            Err(error) => {
                self.stats.rejects += 1;
                WatchOutcome::Rejected {
                    generation: Some(current.generation),
                    error,
                }
            }
        }
    }

    /// Polls (sleeping on `clock` between attempts) until a newer valid
    /// generation installs or `deadline` elapses.
    ///
    /// # Errors
    ///
    /// The last rejection's error when the deadline passes — or a
    /// [`ArtifactError::MissingSection`]-free placeholder
    /// [`ArtifactError::Corrupt`] when nothing was ever published.
    pub fn wait_for_update(
        &mut self,
        clock: &impl Clock,
        deadline: Duration,
    ) -> Result<ValidArtifact, ArtifactError> {
        let started = clock.now();
        let mut last_error: Option<ArtifactError> = None;
        loop {
            let outcome = self.poll_once();
            match outcome {
                WatchOutcome::Installed(valid) => return Ok(valid),
                WatchOutcome::Unchanged => {}
                WatchOutcome::Rejected { ref error, .. } => {
                    last_error = Some(match error {
                        ArtifactError::Io(e) => {
                            ArtifactError::Io(std::io::Error::new(e.kind(), e.to_string()))
                        }
                        other => ArtifactError::Corrupt(other.to_string()),
                    });
                }
            }
            if clock.now().duration_since(started) >= deadline {
                return Err(last_error.unwrap_or_else(|| {
                    ArtifactError::Corrupt(format!(
                        "no valid artifact appeared in {} within {deadline:?}",
                        self.dir.display()
                    ))
                }));
            }
            let delay = self.next_delay(&outcome);
            clock.sleep(delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArtifactWriter;
    use phishinghook_retry::{policy::FakeClock, FaultPlan};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join("phk_watch_tests")
            .join(format!("{tag}_{}", std::process::id()))
    }

    /// A small but real artifact whose payload depends on `marker`, so
    /// each generation has distinct, recognisable bytes.
    fn valid_artifact(marker: u64) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.section("meta", marker.to_le_bytes().to_vec());
        w.section(
            "payload",
            (0..64u8)
                .map(|i| i.wrapping_mul(marker as u8 | 1))
                .collect(),
        );
        w.into_bytes()
    }

    fn fast_config() -> WatchConfig {
        WatchConfig {
            poll: Duration::from_millis(1),
            backoff: RetryPolicy::new(Duration::from_millis(1), Duration::from_millis(8)),
            seed: 3,
        }
    }

    #[test]
    fn installs_only_newer_generations() {
        let dir = temp_dir("newer");
        std::fs::remove_dir_all(&dir).ok();
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        let mut watcher = ArtifactWatcher::new(&dir, fast_config());
        assert!(matches!(watcher.poll_once(), WatchOutcome::Unchanged));
        publisher.publish(valid_artifact(1)).unwrap();
        match watcher.poll_once() {
            WatchOutcome::Installed(valid) => {
                assert_eq!(valid.generation, 1);
                assert_eq!(valid.artifact.section("meta").unwrap(), 1u64.to_le_bytes());
            }
            other => panic!("expected install, got {other:?}"),
        }
        // Same generation again: no churn.
        assert!(matches!(watcher.poll_once(), WatchOutcome::Unchanged));
        publisher.publish(valid_artifact(2)).unwrap();
        publisher.publish(valid_artifact(3)).unwrap();
        // The watcher jumps straight to the newest generation.
        match watcher.poll_once() {
            WatchOutcome::Installed(valid) => assert_eq!(valid.generation, 3),
            other => panic!("expected install, got {other:?}"),
        }
        assert_eq!(watcher.stats().installs, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_publish_is_rejected_without_rollback() {
        let dir = temp_dir("reject");
        std::fs::remove_dir_all(&dir).ok();
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        publisher.publish(valid_artifact(1)).unwrap();
        let mut watcher = ArtifactWatcher::new(&dir, fast_config());
        assert!(matches!(watcher.poll_once(), WatchOutcome::Installed(_)));
        // A "publish" that bypasses validation: gen-2 exists but is
        // bit-flipped garbage, and CURRENT points at it.
        let mut bad = valid_artifact(2);
        let tail = bad.len() - 32;
        FaultPlan::new(11).bit_flip(&mut bad[tail..]);
        std::fs::write(dir.join("gen-2.phk"), &bad).unwrap();
        std::fs::write(dir.join("CURRENT"), "gen-2.phk").unwrap();
        match watcher.poll_once() {
            WatchOutcome::Rejected { generation, .. } => assert_eq!(generation, Some(2)),
            other => panic!("expected rejection, got {other:?}"),
        }
        // Still on generation 1; rejection backs off, steady poll resets.
        assert_eq!(watcher.installed, 1);
        let rejected = watcher.poll_once();
        assert!(matches!(rejected, WatchOutcome::Rejected { .. }));
        let backoff_delay = watcher.next_delay(&rejected);
        assert!(backoff_delay <= Duration::from_millis(8));
        // Recovery: a *newer* valid generation (never a rollback).
        std::fs::remove_file(dir.join("gen-2.phk")).unwrap();
        std::fs::write(dir.join("CURRENT"), "gen-1.phk").unwrap();
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        // The counter resumed past the damaged generation.
        let published = publisher.publish(valid_artifact(3)).unwrap();
        match watcher.poll_once() {
            WatchOutcome::Installed(valid) => {
                assert_eq!(valid.generation, published.generation)
            }
            other => panic!("expected install, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wait_for_update_times_out_on_the_fake_clock() {
        let dir = temp_dir("timeout");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let clock = FakeClock::new();
        let mut watcher = ArtifactWatcher::new(&dir, fast_config());
        let err = watcher
            .wait_for_update(&clock, Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt(_)));
        assert!(clock.total_slept() >= Duration::from_millis(20));
        std::fs::remove_dir_all(&dir).ok();
    }

    use proptest::prelude::*;

    proptest! {
        /// The satellite proptest: drive a watcher through a seeded storm
        /// of valid publishes interleaved with torn / bit-flipped /
        /// garbage states. Invariants: it never installs invalid bytes,
        /// never regresses to an older generation, and converges to the
        /// newest valid generation once the storm ends.
        #[test]
        fn watcher_never_installs_invalid(seed in any::<u64>()) {
            corruption_storm(seed);
        }
    }

    fn corruption_storm(seed: u64) {
        let dir = temp_dir(&format!("storm_{seed:x}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut plan = FaultPlan::new(seed);
        let mut publisher = ArtifactPublisher::open(&dir).unwrap();
        let mut watcher = ArtifactWatcher::new(&dir, fast_config());
        // generation -> the exact bytes that generation validly holds.
        let mut valid_gens: std::collections::HashMap<u64, Vec<u8>> =
            std::collections::HashMap::new();
        let mut last_installed = 0u64;

        let check = |outcome: WatchOutcome,
                     valid_gens: &std::collections::HashMap<u64, Vec<u8>>,
                     last_installed: &mut u64| {
            match outcome {
                WatchOutcome::Installed(valid) => {
                    assert!(
                        valid.generation > *last_installed,
                        "regressed from {last_installed} to {}",
                        valid.generation
                    );
                    let expected = valid_gens.get(&valid.generation).unwrap_or_else(|| {
                        panic!("installed unpublished gen {}", valid.generation)
                    });
                    assert_eq!(
                        &valid.artifact.bytes()[..],
                        &expected[..],
                        "installed bytes differ from the valid publish"
                    );
                    *last_installed = valid.generation;
                }
                WatchOutcome::Unchanged | WatchOutcome::Rejected { .. } => {}
            }
        };

        for step in 0..24u64 {
            match plan.choice(5) {
                // A clean publish.
                0 | 1 => {
                    let bytes = valid_artifact(seed ^ step);
                    let published = publisher.publish(bytes.clone()).unwrap();
                    valid_gens.insert(published.generation, bytes);
                }
                // A bit-flipped artifact installed behind CURRENT's back.
                // The flip targets the trailing section payload — bytes
                // the per-section checksum is guaranteed to cover (a flip
                // in un-checksummed container metadata, like a section
                // name, can legitimately still validate).
                2 => {
                    let generation = publisher.next_generation();
                    let mut bad = valid_artifact(seed ^ step ^ 0xbad);
                    let tail = bad.len() - 32;
                    plan.bit_flip(&mut bad[tail..]);
                    std::fs::write(dir.join(format!("gen-{generation}.phk")), &bad).unwrap();
                    std::fs::write(dir.join("CURRENT"), format!("gen-{generation}.phk")).unwrap();
                    // Skip the damaged number so later publishes are newer.
                    publisher = reopened_past(&dir, generation);
                }
                // A torn (truncated) artifact.
                3 => {
                    let generation = publisher.next_generation();
                    let full = valid_artifact(seed ^ step ^ 0x7ea5);
                    let torn = plan.tear(&full);
                    std::fs::write(dir.join(format!("gen-{generation}.phk")), &torn).unwrap();
                    std::fs::write(dir.join("CURRENT"), format!("gen-{generation}.phk")).unwrap();
                    publisher = reopened_past(&dir, generation);
                }
                // CURRENT itself replaced mid-write with garbage.
                _ => {
                    std::fs::write(dir.join("CURRENT"), b"gen-.phk.tmp garbage").unwrap();
                }
            }
            // A few polls per step, as a replica would.
            for _ in 0..2 {
                check(watcher.poll_once(), &valid_gens, &mut last_installed);
            }
        }

        // The storm ends with one final clean publish: the watcher must
        // converge to it.
        let final_bytes = valid_artifact(seed ^ 0xf17a1);
        let published = publisher.publish(final_bytes.clone()).unwrap();
        valid_gens.insert(published.generation, final_bytes);
        check(watcher.poll_once(), &valid_gens, &mut last_installed);
        assert_eq!(
            watcher.installed, published.generation,
            "watcher failed to converge to the newest valid generation"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Re-opens the publisher so its counter continues past a generation
    /// number the storm burned on a corrupt file.
    fn reopened_past(dir: &Path, burned: u64) -> ArtifactPublisher {
        let publisher = ArtifactPublisher::open(dir).unwrap();
        assert!(publisher.next_generation() > burned);
        publisher
    }
}
