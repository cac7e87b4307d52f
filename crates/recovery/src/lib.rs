//! # recovery — partial recovery, load balancing, adaptive arbitration
//!
//! The recovery research of the Trader project (paper Sect. 4.5):
//!
//! * **Recoverable units** (Twente University): a framework "which allows
//!   independent recovery of parts of the system", with a *communication
//!   manager* controlling messages between units and a *recovery manager*
//!   executing recovery actions "such as killing and restarting units".
//!   See [`UnitHost`] and its [`CounterUnit`]s, [`CommManager`],
//!   [`RecoveryManager`].
//! * **Load balancing** (IMEC): migrating an image-processing task off an
//!   overloaded processor improves image quality under overload. See
//!   [`LoadBalancer`]; the migration mechanism lives in
//!   `tvsim::StreamingPipeline`.
//! * **Adaptive memory arbitration** (NXP Research): re-allocating
//!   arbiter slots at run time to resolve memory-access problems. See
//!   [`AdaptiveArbiter`] over `simkit::MemoryArbiter`.
//! * From the paper's **reusable fault-tolerance library**, the
//!   [`CircuitBreaker`] whose trip sends the awareness supervisor to
//!   safe mode.
//! * **Micro-reboot checkpoints**: [`CheckpointVault`] seals per-unit
//!   snapshots with seed-derived fingerprints so a faulty unit can be
//!   restored from its newest *valid* generation while the rest of the
//!   system keeps serving — the paper's local-recovery rung below a full
//!   restart. The closed loop's unit recovery is its one user.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm_manager;
pub mod library;
pub mod loadbalance;
pub mod memarbiter;
pub mod microreboot;
pub mod policy;
pub mod recovery_manager;
pub mod unit;

pub use comm_manager::{CommManager, UnitMessage};
pub use library::CircuitBreaker;
pub use loadbalance::{LoadBalancer, MigrationDecision};
pub use memarbiter::AdaptiveArbiter;
pub use microreboot::{CheckpointVault, RestoreOutcome, Snapshot};
pub use policy::EscalationPolicy;
pub use recovery_manager::{RecoveryAction, RecoveryManager, FULL_RESTART_OUTAGE};
pub use unit::{CounterUnit, UnitHost, UnitStatus};
