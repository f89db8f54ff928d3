//! The shared fault-tolerance substrate: one retry/backoff policy every
//! layer of the fleet speaks, plus the deterministic fault-injection
//! hooks the multi-process tests drive.
//!
//! Four pieces:
//!
//! * [`policy`] — [`RetryPolicy`] (jittered exponential backoff with a
//!   cap) and the [`Backoff`] schedule iterator. Every delay is derived
//!   deterministically from a seed, so two runs of the same plan back off
//!   identically.
//! * [`policy::Clock`] — the injectable time source ([`SystemClock`] in
//!   production, [`FakeClock`] in tests) that makes every retry loop in
//!   the workspace testable without real sleeps.
//! * [`fault`] — [`FaultPlan`] (seeded torn-tail / bit-flip / truncation
//!   corruption for byte buffers) and environment-armed [`crash_point`]s:
//!   a process under test aborts — the moral equivalent of `kill -9` — at
//!   a named point on its Nth visit, which is how the e2e kills a
//!   publisher *between* the temp write and the renames.
//! * [`knob`] — the one parser for the daemons' `PHISHINGHOOK_*`
//!   environment knobs, read once at start-up; a malformed value is
//!   fatal.
//!
//! This crate is leaf-level (no workspace dependencies) so the substrate
//! crates (`evm`, `artifact`) and the service crates (`serve`, `ingest`)
//! can all share one policy; the core crate re-exports it as
//! `phishinghook::retry`.

#![warn(missing_docs)]

pub mod fault;
pub mod knob;
pub mod policy;

pub use fault::{crash_point, fault_env_name, fault_hit, FaultPlan};
pub use policy::{Backoff, Clock, FakeClock, RetryPolicy, SystemClock};
