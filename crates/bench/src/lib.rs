//! The timing and baseline-writing layer shared by the `benches/` mains
//! and the `reproduce` binary, which regenerates the paper's evaluation
//! section and writes its claims to `REPRO.json`.

pub mod harness;
