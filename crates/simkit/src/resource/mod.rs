//! Shared platform resources of the simulated system-on-chip.
//!
//! * [`cpu`] — a preemptive fixed-priority processor.
//! * [`bus`] — a bandwidth-shared interconnect.
//! * [`memory`] — a slot-based (TDM) memory arbiter with a run-time
//!   reconfigurable slot table.

use std::fmt;

pub mod bus;
pub mod cpu;
pub mod memory;

/// Identifier of a port on a shared resource (one per master component).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}
