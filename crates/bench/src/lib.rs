//! Shared Criterion configuration for the experiment benches.
//!
//! Every bench in `benches/` regenerates one figure / narrative experiment
//! of the paper (see DESIGN.md's experiment index and EXPERIMENTS.md for
//! the recorded numbers). Criterion measures the harness runtime; the
//! experiment *tables* themselves are printed once per bench run so
//! `cargo bench` doubles as the reproduction driver.

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
