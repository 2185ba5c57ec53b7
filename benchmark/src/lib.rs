//! The repository benchmark: three closed-loop workloads over the real
//! Penelope crates, end-to-end metrics from untraced runs, and per-layer
//! costs from a separate traced run that times calls into each layer's
//! public functions and reconciles cost × count against wall time.
//!
//! `main.rs` drives one workload per process; `bin/alloc_count.rs`
//! repeats one workload cell under a counting allocator. See
//! `BENCHMARK.json` at the repository root for the declared metrics.

pub mod cli;
pub mod probes;
pub mod reference;
pub mod report;
pub mod stats;
pub mod workloads;
