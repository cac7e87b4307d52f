//! # awareness — the run-time awareness framework
//!
//! The core artifact of the Trader project reproduction (Brinksma & Hooman,
//! DATE 2008): a framework that executes a **model of desired behaviour**
//! next to a running System Under Observation (SUO) and compares the two —
//! "closing the loop" of feedback control around a software system
//! (paper Fig. 1), with the component design of paper Fig. 2:
//!
//! ```text
//!   SUO ──input events──► input channel ──► model (Executor) ──┐ expected
//!    │                                                         ▼
//!    └───output events──► output channel ───────────────► Comparator ─► errors
//!                                                              ▲
//!                 Configuration (thresholds, modes) ───────────┘
//! ```
//!
//! [`AwarenessMonitor`] is the one place the figure runs: its two
//! boundary channels are the Input and Output Observers, a
//! [`statemachine::Executor`] of the specification model is the Model
//! Executor, the [`Comparator`] keeps one record per observable, and
//! the monitor's own `running` flag and error list are the Controller
//! (lifecycle, error routing).
//!
//! The SUO and the monitor live on opposite sides of a **process
//! boundary** (Unix domain sockets in the original; a simulated
//! [`DelayChannel`] here) — which is why the [`Comparator`] must not be too
//! eager: small communication delays cause transient deviations. Per the
//! paper, every observable carries (1) a deviation **threshold** and (2) a
//! **maximum number of consecutive deviations** before an error is
//! reported, plus time-based vs event-based comparison and enable windows
//! driven by the model's *unstable* states.
//!
//! See [`AwarenessMonitor`] for the assembled framework.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod comparator;
pub mod config;
pub mod diagnosis;
pub mod error;
pub mod message;
pub mod monitor;
pub mod probes;
pub mod reliable;
pub mod supervisor;

pub use channel::DelayChannel;
pub use comparator::{Comparator, ComparatorStats, DegradationKnobs};
pub use config::{CheckPriority, CompareMode, CompareSpec, Configuration};
pub use diagnosis::{DiagnosisConfig, OnlineDiagnosis};
pub use error::DetectedError;
pub use message::Message;
pub use monitor::{to_obs_value, AwarenessMonitor, MonitorBuilder};
pub use probes::DeadlineMonitor;
pub use reliable::{BoundaryChannel, ProbeNames, ReliableChannel, ReliableConfig, ReliableStats};
pub use supervisor::{DegradationMode, Supervisor, SupervisorConfig, SupervisorReport};
