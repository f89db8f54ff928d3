//! The repository benchmark's library: inputs, load generators, the
//! workloads, the traced per-layer replay and the statistics they share.
//! `src/main.rs` is the command; `tests/` checks the helpers.

pub mod adapt;
pub mod client;
pub mod drive;
pub mod env;
pub mod load;
pub mod replica;
pub mod report;
pub mod serving;
pub mod stats;
pub mod trace;
