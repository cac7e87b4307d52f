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
//!   function calls, resource loads, outputs;
//! * a [`ProbeRegistry`] with per-probe enable/disable and overhead
//!   accounting (high-volume products cannot afford heavy monitoring);
//! * [`BlockCoverage`] basic-block hit recording — the raw material for
//!   spectrum-based diagnosis (Sect. 4.4);
//! * a bounded [`RingBuffer`] for trace retention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod observation;
pub mod overhead;
pub mod probe;
pub mod ring;

pub use coverage::{BlockCoverage, BlockSnapshot};
pub use observation::{ObsValue, Observation, ObservationKind};
pub use overhead::{BudgetVerdict, OverheadAccount, ProbeBudget};
pub use probe::{ProbeId, ProbeRegistry};
pub use ring::RingBuffer;
