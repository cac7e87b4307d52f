//! # observe — the observation layer
//!
//! Reproduces the observation work of the Trader project (paper Sect. 4.1):
//! to give a system run-time awareness you must first *see* what it does.
//! The paper exploits on-chip debug/trace hardware and aspect-oriented code
//! instrumentation (AspectKoala on the Koala component model); this crate
//! provides the equivalent software layer for the simulated systems under
//! observation:
//!
//! * typed [`Observation`]s — key presses, component modes, numeric values,
//!   outputs;
//! * [`BlockCoverage`] basic-block hit recording — the raw material for
//!   spectrum-based diagnosis (Sect. 4.4) — and [`CoverageRuns`], the same
//!   hits as block ranges and single blocks;
//! * a [`ProbeBudget`] that judges instrumentation overhead (high-volume
//!   products cannot afford heavy monitoring).
//!
//! Trace retention is the `telemetry` crate's flight recorder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod observation;
pub mod overhead;

pub use coverage::{BlockCoverage, BlockSnapshot, CoverageRuns};
pub use observation::{ObsValue, Observation, ObservationKind};
pub use overhead::{BudgetVerdict, ProbeBudget};
