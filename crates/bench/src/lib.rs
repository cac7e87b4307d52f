//! Shared Criterion configuration for the experiment benches.
//!
//! The benches in `benches/` cover E1 and E13–E19 (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for the recorded numbers) plus the
//! substrate micro-benchmarks. Criterion measures the harness runtime;
//! each experiment bench prints its table once per run, and the
//! scaling benches write the `BENCH_*.json` files. The F1, F2 and
//! E2–E12 tables come from the `paper_tables` example.

#![forbid(unsafe_code)]

pub mod trajectory;

use criterion::Criterion;
use std::time::Duration;

/// A Criterion tuned for heavyweight experiment harnesses: small sample
/// counts, short measurement windows.
pub fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_millis(500))
        .configure_from_args()
}
