//! # phishinghook-serve — the zero-copy serving tier
//!
//! Turns a saved `.phk` artifact into a network service without adding a
//! single dependency: the HTTP/1.1 front is `std::net`, the JSON codec is
//! [`phishinghook::json`], and the hot path is a **dynamic micro-batching
//! queue** ([`queue::MicroBatcher`]) that coalesces concurrent requests
//! into one batched model call.
//!
//! The pipeline, end to end:
//!
//! ```text
//!  TCP conns ──► http::read_request (length-capped parse)
//!                      │ Bytecode
//!                      ▼
//!             memo::VerdictMemo of the live generation
//!                      │ hits answered at once; the distinct
//!                      │ misses go on in one submission
//!                      ▼
//!             queue::MicroBatcher (bounded; full ⇒ 429 + Retry-After)
//!                      │ up to QueueConfig::max_batch jobs / wake,
//!                      │ time-boxed by QueueConfig::batch_wait
//!                      ▼
//!         warm worker pool ──► CodeScorer::score_many (one batched call)
//!                      │           (all workers share one Arc'd model
//!                      ▼            decoded from one OwnedArtifact buffer)
//!             per-request reply slots ──► http::write_response
//! ```
//!
//! Because the core models' batched inference is bit-identical to their
//! row-wise inference (an invariant the test suite pins down), the
//! coalescing is *invisible* in the scores — only in the throughput.
//!
//! Configuration is plain data with defaults ([`ServerConfig`],
//! [`QueueConfig`], [`ReloadConfig`]). Only the `phishinghook-served`
//! binary reads `PHISHINGHOOK_*` knobs, through [`phishinghook_retry::knob`].
//!
//! The slot holds a [`ServedModel`]: a flat
//! [`Detector`](phishinghook::Detector) or a two-stage
//! [`CascadeDetector`](phishinghook::CascadeDetector) — cheap calibrated
//! screen, uncertainty-band routing, deep confirmer. Either way the
//! queue yields one [`CascadeVerdict`](phishinghook::CascadeVerdict) per
//! contract (a flat model's never escalates), so every route has one
//! reply shape and `GET /healthz` reports the routing counters for any
//! model. A hot swap ([`swap::ModelSlot`]) replaces the whole model
//! atomically — no request can pair cascade stages from different
//! generations — and may change its kind.
//!
//! The `phishinghook-served` binary wraps [`server::Server`] around an
//! artifact path or a publish directory;
//! [`server::Server::start`] is the embeddable form used by the tests
//! and benches.

pub mod health;
pub mod http;
pub mod memo;
pub mod queue;
pub mod reload;
pub mod server;
pub mod swap;

#[cfg(test)]
mod reuse_tests;

pub use health::{HealthSnapshot, HealthState, DEFAULT_BREAKER_THRESHOLD};
pub use http::{Limits, Request};
pub use memo::{ReuseStats, VerdictMemo};
pub use queue::{MicroBatcher, QueueConfig, QueueHooks, QueueStats, SubmitError};
pub use reload::{ArtifactWatchLoop, ReloadConfig, DEFAULT_RELOAD_RETRIES};
pub use server::{Server, ServerConfig};
pub use swap::{ModelSlot, ServedModel};
