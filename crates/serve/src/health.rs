//! The supervised degraded-mode state machine behind `GET /healthz`.
//!
//! A serving replica must never crash-loop its way out of the fleet: when
//! scoring workers keep panicking or artifact reloads keep failing, the
//! replica *stays up* on its last good model and flips `/healthz` to
//! `"degraded"` so the fleet's balancer (and an operator) can see it.
//! [`HealthState`] is that breaker: two independent failure streaks —
//! worker panics and reload failures — each trip it at the configured
//! threshold, and the corresponding success (a clean scored batch, a
//! clean reload) re-arms its streak. The replica reports `"ok"` again
//! only when *no* streak is tripped, and every recovery is counted.
//!
//! The monotone counters (`reload_attempts`, `reload_failures`,
//! `worker_panics`, `recoveries`) only ever grow.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default consecutive-failure threshold that trips the breaker
/// ([`ServerConfig::breaker_threshold`](crate::ServerConfig::breaker_threshold)).
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;

#[derive(Debug, Default)]
struct Streaks {
    worker_panics: u32,
    reload_failures: u32,
    last_error: Option<String>,
}

/// The crash-loop breaker and monotone health counters one server carries.
#[derive(Debug)]
pub struct HealthState {
    threshold: u32,
    streaks: Mutex<Streaks>,
    reload_attempts: AtomicU64,
    reload_failures: AtomicU64,
    worker_panics: AtomicU64,
    recoveries: AtomicU64,
}

/// A point-in-time copy of the health state, as `/healthz` reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// True when either failure streak has tripped the breaker.
    pub degraded: bool,
    /// The most recent failure's description (sticky until overwritten;
    /// survives recovery as a post-mortem breadcrumb).
    pub last_error: Option<String>,
    /// Artifact reloads attempted.
    pub reload_attempts: u64,
    /// Artifact reloads that failed (validation or decode).
    pub reload_failures: u64,
    /// Scoring-worker panics absorbed.
    pub worker_panics: u64,
    /// Degraded → ok transitions.
    pub recoveries: u64,
}

impl HealthState {
    /// A breaker tripping after `threshold` consecutive failures of
    /// either kind (clamped to at least 1).
    pub fn new(threshold: u32) -> Self {
        HealthState {
            threshold: threshold.max(1),
            streaks: Mutex::new(Streaks::default()),
            reload_attempts: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    fn tripped(&self, streaks: &Streaks) -> bool {
        streaks.worker_panics >= self.threshold || streaks.reload_failures >= self.threshold
    }

    /// Runs `mutate` on the streaks and counts a recovery when it flips
    /// the breaker from tripped to clear.
    fn update(&self, mutate: impl FnOnce(&mut Streaks)) {
        let mut streaks = self.streaks.lock().unwrap();
        let was_degraded = self.tripped(&streaks);
        mutate(&mut streaks);
        if was_degraded && !self.tripped(&streaks) {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A scoring worker panicked (the queue absorbed it). Extends the
    /// panic streak; at the threshold the breaker trips.
    pub fn record_worker_panic(&self, message: &str) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        self.update(|s| {
            s.worker_panics = s.worker_panics.saturating_add(1);
            s.last_error = Some(format!("scoring worker panicked: {message}"));
        });
    }

    /// A batch scored cleanly. Clears only the panic streak — scoring
    /// traffic flowing must not mask a reload crash loop.
    pub fn record_batch_success(&self) {
        self.update(|s| s.worker_panics = 0);
    }

    /// An artifact reload is starting.
    pub fn record_reload_attempt(&self) {
        self.reload_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// An artifact reload failed (invalid candidate or decode error).
    /// Extends the reload streak.
    pub fn record_reload_failure(&self, message: &str) {
        self.reload_failures.fetch_add(1, Ordering::Relaxed);
        self.update(|s| {
            s.reload_failures = s.reload_failures.saturating_add(1);
            s.last_error = Some(format!("artifact reload failed: {message}"));
        });
    }

    /// An artifact reload installed cleanly. Clears only the reload
    /// streak.
    pub fn record_reload_success(&self) {
        self.update(|s| s.reload_failures = 0);
    }

    /// A consistent point-in-time copy for `/healthz`.
    pub fn snapshot(&self) -> HealthSnapshot {
        let streaks = self.streaks.lock().unwrap();
        HealthSnapshot {
            degraded: self.tripped(&streaks),
            last_error: streaks.last_error.clone(),
            reload_attempts: self.reload_attempts.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_streak_trips_and_success_rearms() {
        let health = HealthState::new(2);
        assert!(!health.snapshot().degraded);
        health.record_worker_panic("boom");
        assert!(!health.snapshot().degraded);
        health.record_worker_panic("boom again");
        assert!(health.snapshot().degraded);
        let snap = health.snapshot();
        assert_eq!(snap.worker_panics, 2);
        assert!(snap.last_error.unwrap().contains("boom again"));
        health.record_batch_success();
        assert!(!health.snapshot().degraded);
        assert_eq!(health.snapshot().recoveries, 1);
        // Monotone counter is untouched by recovery.
        assert_eq!(health.snapshot().worker_panics, 2);
    }

    #[test]
    fn reload_streak_is_independent_of_scoring_traffic() {
        let health = HealthState::new(2);
        health.record_reload_attempt();
        health.record_reload_failure("bad gen 7");
        health.record_reload_attempt();
        health.record_reload_failure("bad gen 7 again");
        assert!(health.snapshot().degraded);
        // Scoring traffic flowing does NOT clear a reload crash loop.
        health.record_batch_success();
        assert!(health.snapshot().degraded);
        health.record_reload_success();
        assert!(!health.snapshot().degraded);
        let snap = health.snapshot();
        assert_eq!((snap.reload_attempts, snap.reload_failures), (2, 2));
        assert_eq!(snap.recoveries, 1);
    }

    #[test]
    fn both_streaks_must_clear_before_recovery() {
        let health = HealthState::new(1);
        health.record_worker_panic("p");
        health.record_reload_failure("r");
        assert!(health.snapshot().degraded);
        health.record_batch_success();
        // Reload streak still tripped.
        assert!(health.snapshot().degraded);
        assert_eq!(health.snapshot().recoveries, 0);
        health.record_reload_success();
        assert!(!health.snapshot().degraded);
        assert_eq!(health.snapshot().recoveries, 1);
    }
}
