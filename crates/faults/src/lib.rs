//! # faults — fault and stress injection
//!
//! The experiment side of dependability research: nothing can be measured
//! until faults are injected. This crate provides the generic machinery
//! the Trader-style experiments use:
//!
//! * [`Schedule`] / [`Injector`] — *when* faults activate (at a time,
//!   between times, after N events, periodically, probabilistically);
//! * [`CpuEater`], [`BusEater`], [`MemoryHog`] — the resource-stress
//!   faults of the TASS stress-testing approach (paper Sect. 4.7):
//!   "artificially takes away shared resources, such as CPU or bus
//!   bandwidth, to simulate the occurrence of errors or the addition of an
//!   additional resource user". The paper notes a software CPU eater "is
//!   already included in the current development software";
//! * [`deadlock::cycle_edges`] — circular-wait injection for the deadlock
//!   detector.
//!
//! TV-domain *programming* faults live with the SUO
//! (`tvsim::TvFault`); this crate schedules and activates them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadlock;
pub mod injector;
pub mod resource;
pub mod schedule;

pub use injector::Injector;
pub use resource::{BusEater, CpuEater, MemoryHog};
pub use schedule::Schedule;
