//! Deterministic fault injection for the multi-process e2e tests.
//!
//! Two mechanisms:
//!
//! * **Crash points** ([`crash_point`]) — named places in production code
//!   (e.g. between `ArtifactPublisher`'s temp write and its renames)
//!   where a process aborts on its Nth visit when the matching
//!   `PHISHINGHOOK_FAULT_*` environment variable is set. An abort is the
//!   moral equivalent of `kill -9`: no destructors, no flushes. Unarmed
//!   (the normal case) a crash point costs one env lookup the first time
//!   and a relaxed atomic load after.
//! * **[`FaultPlan`]** — a seeded corruption source for byte buffers:
//!   torn tails, bit flips, truncations. Same seed, same corruption, so
//!   a failing proptest case replays exactly.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The environment prefix arming crash points.
pub const FAULT_ENV_PREFIX: &str = "PHISHINGHOOK_FAULT_";

/// Maps a crash-point name to the environment variable that arms it:
/// uppercased, with every non-alphanumeric character replaced by `_`,
/// prefixed with `PHISHINGHOOK_FAULT_`. `"publish.gen_temp"` →
/// `PHISHINGHOOK_FAULT_PUBLISH_GEN_TEMP`.
pub fn fault_env_name(point: &str) -> String {
    let mut name = String::with_capacity(FAULT_ENV_PREFIX.len() + point.len());
    name.push_str(FAULT_ENV_PREFIX);
    for ch in point.chars() {
        if ch.is_ascii_alphanumeric() {
            name.push(ch.to_ascii_uppercase());
        } else {
            name.push('_');
        }
    }
    name
}

fn hit_counters() -> &'static Mutex<HashMap<String, u64>> {
    static COUNTERS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Records one visit to `point` and reports whether the armed fault
/// fires. The env var's value `N` means "fire on the Nth visit"
/// (1-based); unset, unparsable, or zero means never. Each process keeps
/// its own visit counters, so a restarted process starts counting from
/// scratch — exactly what a kill/restart test wants.
#[allow(clippy::disallowed_methods)] // crash points are armed from the environment
pub fn fault_hit(point: &str) -> bool {
    let armed: u64 = match std::env::var(fault_env_name(point)) {
        Ok(v) => v.trim().parse().unwrap_or(0),
        Err(_) => 0,
    };
    if armed == 0 {
        return false;
    }
    let mut counters = hit_counters().lock().unwrap();
    let hits = counters.entry(point.to_string()).or_insert(0);
    *hits += 1;
    *hits == armed
}

/// Aborts the process — no unwinding, no destructors — if the fault at
/// `point` is armed and this is the armed visit. Production code sprinkles
/// these at the crash windows the e2e wants to exercise.
pub fn crash_point(point: &str) {
    if fault_hit(point) {
        eprintln!("fault: crashing at injected point `{point}`");
        std::process::abort();
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded source of byte-level corruption: the same seed always yields
/// the same sequence of tears, flips and truncations, so every failure a
/// test provokes is replayable.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
}

impl FaultPlan {
    /// A plan replaying the corruption sequence for `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            state: seed ^ 0xD6E8_FEB8_6659_FD93,
        }
    }

    /// A uniform draw in `[0, n)` (`n` must be non-zero).
    pub fn choice(&mut self, n: usize) -> usize {
        assert!(n > 0, "choice over an empty range");
        (splitmix64(&mut self.state) % n as u64) as usize
    }

    /// A torn prefix of `bytes`: cut at a seeded point strictly inside
    /// the buffer (empty in, empty out).
    pub fn tear(&mut self, bytes: &[u8]) -> Vec<u8> {
        if bytes.is_empty() {
            return Vec::new();
        }
        let cut = self.choice(bytes.len());
        bytes[..cut].to_vec()
    }

    /// Truncates `bytes` in place at a seeded point strictly inside the
    /// buffer.
    pub fn truncate(&mut self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        let cut = self.choice(bytes.len());
        bytes.truncate(cut);
    }

    /// Flips one seeded bit of `bytes` in place (no-op on empty input).
    pub fn bit_flip(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let byte = self.choice(bytes.len());
        let bit = self.choice(8) as u32;
        bytes[byte] ^= 1u8 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_names_are_sanitised_and_prefixed() {
        assert_eq!(
            fault_env_name("publish.gen_temp"),
            "PHISHINGHOOK_FAULT_PUBLISH_GEN_TEMP"
        );
        assert_eq!(
            fault_env_name("codelog.torn-append"),
            "PHISHINGHOOK_FAULT_CODELOG_TORN_APPEND"
        );
    }

    #[test]
    fn unarmed_faults_never_fire() {
        for _ in 0..5 {
            assert!(!fault_hit("tests.unarmed-point"));
        }
    }

    #[test]
    fn armed_faults_fire_exactly_on_the_nth_visit() {
        // Safe enough in-process: nothing else reads this var.
        std::env::set_var(fault_env_name("tests.nth-visit"), "3");
        assert!(!fault_hit("tests.nth-visit"));
        assert!(!fault_hit("tests.nth-visit"));
        assert!(fault_hit("tests.nth-visit"));
        assert!(!fault_hit("tests.nth-visit"));
        std::env::remove_var(fault_env_name("tests.nth-visit"));
    }

    #[test]
    fn fault_plans_replay_and_corrupt() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1024).collect();

        let mut a = FaultPlan::new(7);
        let mut b = FaultPlan::new(7);
        assert_eq!(a.tear(&payload), b.tear(&payload));
        assert_eq!(a.choice(100), b.choice(100));

        let mut plan = FaultPlan::new(9);
        let torn = plan.tear(&payload);
        assert!(torn.len() < payload.len());
        assert_eq!(&payload[..torn.len()], &torn[..]);

        let mut flipped = payload.clone();
        plan.bit_flip(&mut flipped);
        assert_ne!(flipped, payload);
        assert_eq!(
            flipped.iter().zip(&payload).filter(|(x, y)| x != y).count(),
            1
        );

        let mut short = payload.clone();
        plan.truncate(&mut short);
        assert!(short.len() < payload.len());
    }
}
