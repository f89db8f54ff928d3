//! Jittered exponential backoff behind an injectable clock, so every
//! retry loop in the workspace runs deterministically (and instantly)
//! under test.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The injectable time source every retry loop sleeps and measures
/// against. Production code uses [`SystemClock`]; tests use [`FakeClock`]
/// so backoff schedules run in microseconds of wall time.
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Blocks (or pretends to block) for `duration`.
    fn sleep(&self, duration: Duration);
}

/// The real clock: `Instant::now` + `thread::sleep`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A deterministic clock for tests: time advances only when something
/// sleeps, and every sleep is recorded so a test can assert the exact
/// backoff schedule.
#[derive(Debug, Clone)]
pub struct FakeClock {
    base: Instant,
    state: Arc<Mutex<FakeClockState>>,
}

#[derive(Debug, Default)]
struct FakeClockState {
    offset: Duration,
    sleeps: Vec<Duration>,
}

impl FakeClock {
    /// A clock starting at an arbitrary base instant with no sleeps yet.
    pub fn new() -> Self {
        FakeClock {
            base: Instant::now(),
            state: Arc::new(Mutex::new(FakeClockState::default())),
        }
    }

    /// Every sleep requested so far, in order.
    pub fn sleeps(&self) -> Vec<Duration> {
        self.state.lock().unwrap().sleeps.clone()
    }

    /// Total time slept (= how far the fake clock has advanced through
    /// sleeps).
    pub fn total_slept(&self) -> Duration {
        self.state.lock().unwrap().sleeps.iter().sum()
    }
}

impl Default for FakeClock {
    fn default() -> Self {
        FakeClock::new()
    }
}

impl Clock for FakeClock {
    fn now(&self) -> Instant {
        self.base + self.state.lock().unwrap().offset
    }

    fn sleep(&self, duration: Duration) {
        let mut st = self.state.lock().unwrap();
        st.offset += duration;
        st.sleeps.push(duration);
    }
}

/// SplitMix64 — the tiny deterministic generator behind backoff jitter.
/// Not cryptographic; it only needs to decorrelate retry storms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A jittered exponential backoff policy: attempt `k` waits
/// `initial * multiplier^k`, capped at `max_delay`, then spread by
/// `± jitter` (a fraction of the delay) using a seed-deterministic draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Per-attempt growth factor (≥ 1).
    pub multiplier: f64,
    /// Hard cap on any single delay.
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// A policy growing from `initial` to `max_delay` by doubling, with
    /// 20 % jitter.
    pub fn new(initial: Duration, max_delay: Duration) -> Self {
        RetryPolicy {
            initial,
            multiplier: 2.0,
            max_delay,
            jitter: 0.2,
        }
    }

    /// Sets the jitter fraction (clamped into `[0, 1]`).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// The delay before retry number `attempt` (0-based), jittered
    /// deterministically from `seed`. Identical `(policy, seed, attempt)`
    /// triples always produce identical delays.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.initial.as_secs_f64() * self.multiplier.powi(attempt.min(63) as i32);
        let capped = base.min(self.max_delay.as_secs_f64());
        let unit = splitmix64(seed ^ (u64::from(attempt) << 17)) as f64 / u64::MAX as f64;
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * unit;
        Duration::from_secs_f64((capped * factor).min(self.max_delay.as_secs_f64()))
    }
}

/// A stateful backoff schedule over one [`RetryPolicy`]: each
/// [`Backoff::next_delay`] advances the attempt counter; [`Backoff::reset`]
/// re-arms after progress (the "the writer caught up" case in a tail
/// loop).
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A schedule at attempt 0.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Backoff {
            policy,
            seed,
            attempt: 0,
        }
    }

    /// The next delay in the schedule (and advances it).
    pub fn next_delay(&mut self) -> Duration {
        let d = self.policy.delay(self.attempt, self.seed);
        self.attempt = self.attempt.saturating_add(1);
        d
    }

    /// Failed attempts taken so far.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Re-arms the schedule after progress.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The policy this schedule follows.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy::new(Duration::from_millis(10), Duration::from_millis(80))
    }

    #[test]
    fn delays_grow_cap_and_jitter_deterministically() {
        let p = policy().with_jitter(0.0);
        assert_eq!(p.delay(0, 1), Duration::from_millis(10));
        assert_eq!(p.delay(1, 1), Duration::from_millis(20));
        assert_eq!(p.delay(2, 1), Duration::from_millis(40));
        assert_eq!(p.delay(3, 1), Duration::from_millis(80));
        // The cap holds forever after.
        assert_eq!(p.delay(30, 1), Duration::from_millis(80));

        let j = policy().with_jitter(0.5);
        let d = j.delay(2, 42);
        assert!(d >= Duration::from_millis(20) && d <= Duration::from_millis(60));
        // Deterministic: same (attempt, seed) → same delay; different
        // seeds decorrelate.
        assert_eq!(d, j.delay(2, 42));
        assert_ne!(j.delay(2, 42), j.delay(2, 43));
    }

    #[test]
    fn backoff_schedule_resets() {
        let mut b = Backoff::new(policy().with_jitter(0.0), 1);
        assert_eq!(b.next_delay(), Duration::from_millis(10));
        assert_eq!(b.next_delay(), Duration::from_millis(20));
        assert_eq!(b.attempt(), 2);
        b.reset();
        assert_eq!(b.next_delay(), Duration::from_millis(10));
    }
}
