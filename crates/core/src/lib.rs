//! # trader — the closed-loop dependability pipeline
//!
//! Top-level crate of `trader-rs`, a Rust reproduction of
//! *"Dependability for high-tech systems: an industry-as-laboratory
//! approach"* (Brinksma & Hooman, DATE 2008) — the Trader project's
//! model-based run-time awareness approach:
//!
//! > "The main approach of the Trader project is to 'close the loop' and
//! > to add a kind of feedback control to products. By monitoring the
//! > system and comparing system observations with a model of the desired
//! > behaviour at run-time, the system gets a form of run-time awareness
//! > […] In addition, the aim is to provide the system with a strategy to
//! > correct itself."
//!
//! This crate wires every subsystem into that loop (paper Fig. 1):
//!
//! * observation — [`observe`], instrumented SUOs [`tvsim`], [`mediasim`];
//! * error detection — [`awareness`] (model comparison) and [`detect`]
//!   (range / watchdog / deadlock / mode-consistency checks);
//! * diagnosis — [`spectra`] (spectrum-based fault localization);
//! * recovery — [`recovery`] (recoverable units, load balancing,
//!   adaptive memory arbitration) plus SUO-level corrective actions;
//! * the user view — [`perception`];
//! * development-time aids — [`devtools`];
//! * the platform and modeling substrates — [`simkit`], [`statemachine`].
//!
//! The [`TvDependabilityLoop`] runs a television SUO open- or closed-loop;
//! the [`experiments`] module regenerates every figure and narrative
//! result of the paper (see EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use trader::prelude::*;
//!
//! // A TV with a transient integration fault, run closed-loop.
//! let scenario = TimedScenario::teletext_session(20);
//! let mut looped = TvDependabilityLoop::closed(42);
//! // Window covering the teletext toggle at 300 ms.
//! looped.schedule_fault(
//!     faults::Schedule::Between {
//!         from: SimTime::from_millis(250),
//!         to: SimTime::from_millis(350),
//!     },
//!     TvFault::TeletextSyncLoss,
//! );
//! let outcome = looped.run(&scenario);
//! // The loop detects the desynchronization and repairs it.
//! assert!(outcome.recoveries > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod loop_;
pub mod report;
pub mod scenario;

pub use loop_::{
    ChannelAudit, LoopOutcome, TvDependabilityLoop, UnitRecoveryConfig, UnitRecoveryStyle,
};
pub use scenario::TimedScenario;

// Re-export the subsystem crates under their paper roles.
pub use awareness;
pub use detect;
pub use devtools;
pub use faults;
pub use mediasim;
pub use observe;
pub use perception;
pub use recovery;
pub use simkit;
pub use spectra;
pub use statemachine;
pub use telemetry;
pub use tvsim;

/// Convenient imports for examples and experiment code.
pub mod prelude {
    pub use crate::loop_::{
        ChannelAudit, LoopOutcome, TvDependabilityLoop, UnitRecoveryConfig, UnitRecoveryStyle,
    };
    pub use crate::scenario::TimedScenario;
    pub use crate::{experiments, faults};
    pub use awareness::{AwarenessMonitor, Comparator, CompareSpec, Configuration, MonitorBuilder};
    pub use detect::{ConsistencyRule, Detector, DetectorBank, ModeConsistencyDetector};
    pub use observe::{ObsValue, Observation, ObservationKind};
    pub use simkit::{SimDuration, SimRng, SimTime};
    pub use spectra::{Coefficient, Diagnoser};
    pub use statemachine::{Event, Executor, Expr, Machine, MachineBuilder, Value};
    pub use tvsim::{tv_spec_machine, Key, KeySequence, TvFault, TvSystem};
}
