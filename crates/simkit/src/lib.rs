//! # simkit — deterministic simulated time, events and platform
//!
//! `simkit` is the execution platform substrate of the `trader-rs`
//! reproduction of the Trader run-time awareness project (Brinksma & Hooman,
//! DATE 2008). The paper's industrial cases run on a television
//! system-on-chip with multiple processors, busses, several types of memory
//! and dedicated accelerators; this crate provides the equivalent simulated
//! platform so that overload, task migration, memory-arbitration and
//! stress-test experiments exercise the same dynamics.
//!
//! Everything is **deterministic**: given the same seed and the same
//! inputs, every run produces the identical event order. The event queue
//! orders by `(time, insertion sequence)`.
//!
//! ## Quickstart
//!
//! The caller owns the virtual clock and jumps it to each event's time as
//! the event pops.
//!
//! ```
//! use simkit::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_millis(5), "pong");
//! queue.push(SimTime::from_millis(1), "ping");
//! let mut now = SimTime::ZERO;
//! let mut order = Vec::new();
//! while let Some(fired) = queue.pop() {
//!     now = fired.time;
//!     order.push(fired.event);
//! }
//! assert_eq!(order, ["ping", "pong"]);
//! assert_eq!(now, SimTime::from_millis(5));
//! ```
//!
//! ## Modules
//!
//! * [`time`] — simulated time ([`SimTime`], [`SimDuration`]).
//! * [`event`] — scheduled-event bookkeeping and deterministic ordering.
//! * [`queue`] — the event queue.
//! * [`task`] — periodic real-time task specifications and response-time
//!   analysis.
//! * [`resource`] — shared platform resources: preemptive CPUs, a shared
//!   bus, and a slot-based (TDM) memory arbiter.
//! * [`rng`] — seeded deterministic random numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod task;
pub mod time;

pub use event::{ScheduledEvent, SequenceNo};
pub use queue::EventQueue;
pub use resource::bus::{Bus, BusGrant, BusRequest, BusStats};
pub use resource::cpu::{Cpu, CpuStats, Job, JobId, JobOutcome};
pub use resource::memory::{MemoryArbiter, MemoryRequest, SlotTable};
pub use resource::PortId;
pub use rng::SimRng;
pub use task::{PeriodicTask, TaskId, TaskSet};
pub use time::{SimDuration, SimTime};
