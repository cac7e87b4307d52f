//! A slot-based (TDM) memory arbiter with a reconfigurable slot table.
//!
//! The Trader partner NXP Research investigated making memory arbitration
//! flexible enough to adapt at run time to problems concerning memory access
//! (paper Sect. 4.5). This module models the mechanism being adapted: a
//! time-division-multiplexed arbiter where a repeating frame of fixed-length
//! slots is assigned to ports, and the assignment (the *slot table*) can be
//! swapped while the system runs.

use super::PortId;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A repeating assignment of frame slots to ports.
///
/// `None` slots are idle (reserved headroom).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable {
    slots: Vec<Option<PortId>>,
}

impl SlotTable {
    /// Creates a table from explicit slot assignments.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn new(slots: Vec<Option<PortId>>) -> Self {
        assert!(!slots.is_empty(), "slot table must have at least one slot");
        SlotTable { slots }
    }

    /// A fair table: one slot per port, in order.
    pub fn round_robin(ports: &[PortId]) -> Self {
        assert!(!ports.is_empty(), "need at least one port");
        SlotTable {
            slots: ports.iter().copied().map(Some).collect(),
        }
    }

    /// A weighted table: `weights[i]` consecutive slots for each port.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or the lists differ in length.
    pub fn weighted(ports: &[PortId], weights: &[u32]) -> Self {
        assert_eq!(ports.len(), weights.len(), "ports/weights length mismatch");
        let mut slots = Vec::new();
        for (port, &w) in ports.iter().zip(weights) {
            for _ in 0..w {
                slots.push(Some(*port));
            }
        }
        assert!(!slots.is_empty(), "at least one weight must be positive");
        SlotTable { slots }
    }

    /// Number of slots in the frame.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the frame is empty (cannot happen for constructed tables).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot assignments.
    pub fn slots(&self) -> &[Option<PortId>] {
        &self.slots
    }

    /// Number of slots assigned to `port`.
    pub fn slots_for(&self, port: PortId) -> usize {
        self.slots.iter().filter(|s| **s == Some(port)).count()
    }

    /// Guaranteed bandwidth share for `port` (slots owned / frame length).
    pub fn share(&self, port: PortId) -> f64 {
        self.slots_for(port) as f64 / self.slots.len() as f64
    }
}

/// A memory access request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRequest {
    /// Issuing port.
    pub port: PortId,
    /// Number of slot-sized bursts needed to serve the request.
    pub bursts: u32,
}

/// Per-port latency statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PortStats {
    /// Requests served.
    pub requests: u64,
    /// Sum of request latencies.
    pub latency_sum: SimDuration,
    /// Maximum request latency.
    pub latency_max: SimDuration,
}

/// The TDM memory arbiter.
///
/// Requests from a port are served only in that port's slots; a request
/// needing `bursts` slots completes at the end of its final slot. Each port
/// serves its own requests in FIFO order (per-port queues are modeled by a
/// per-port "next free slot" cursor).
///
/// ```
/// use simkit::{MemoryArbiter, MemoryRequest, SlotTable, SimDuration, SimTime};
/// use simkit::PortId;
///
/// let table = SlotTable::round_robin(&[PortId(0), PortId(1)]);
/// let mut arb = MemoryArbiter::new(table, SimDuration::from_micros(10));
/// let done = arb.request(SimTime::ZERO, MemoryRequest { port: PortId(0), bursts: 1 });
/// // Port 0 owns the first slot of every frame: served in [0, 10us).
/// assert_eq!(done, SimTime::from_micros(10));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryArbiter {
    table: SlotTable,
    slot_duration: SimDuration,
    /// Earliest instant each port may start its next request (FIFO per port).
    port_free: BTreeMap<PortId, SimTime>,
    stats: BTreeMap<PortId, PortStats>,
    reconfigurations: u64,
}

impl MemoryArbiter {
    /// Creates an arbiter with the given table and slot length.
    ///
    /// # Panics
    ///
    /// Panics if `slot_duration` is zero.
    pub fn new(table: SlotTable, slot_duration: SimDuration) -> Self {
        assert!(!slot_duration.is_zero(), "slot duration must be positive");
        MemoryArbiter {
            table,
            slot_duration,
            port_free: BTreeMap::new(),
            stats: BTreeMap::new(),
            reconfigurations: 0,
        }
    }

    /// The active slot table.
    pub fn table(&self) -> &SlotTable {
        &self.table
    }

    /// Number of run-time reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Swaps in a new slot table at run time (the adaptive-arbitration
    /// recovery action). In-flight FIFO cursors are preserved.
    pub fn reconfigure(&mut self, table: SlotTable) {
        self.table = table;
        self.reconfigurations += 1;
    }

    /// Per-port statistics.
    pub fn port_stats(&self, port: PortId) -> Option<&PortStats> {
        self.stats.get(&port)
    }

    /// All per-port statistics.
    pub fn stats(&self) -> &BTreeMap<PortId, PortStats> {
        &self.stats
    }

    /// Index of the slot active at `t`, and that slot's start time.
    fn slot_at(&self, t: SimTime) -> (usize, SimTime) {
        let slot_ns = self.slot_duration.as_nanos();
        let abs_index = t.as_nanos() / slot_ns;
        let idx = (abs_index % self.table.len() as u64) as usize;
        (idx, SimTime::from_nanos(abs_index * slot_ns))
    }

    /// Serves a request issued at `now`; returns its completion instant.
    ///
    /// Returns [`SimTime::MAX`] if the port owns no slot in the current
    /// table (starvation — the condition adaptive arbitration repairs).
    ///
    /// # Panics
    ///
    /// Panics if `bursts` is zero.
    pub fn request(&mut self, now: SimTime, req: MemoryRequest) -> SimTime {
        assert!(req.bursts > 0, "request must need at least one burst");
        if self.table.slots_for(req.port) == 0 {
            return SimTime::MAX;
        }
        // FIFO per port: cannot start before earlier requests finished.
        let start_search = now.max(*self.port_free.get(&req.port).unwrap_or(&SimTime::ZERO));

        // Walk slots from the one containing `start_search` until the
        // request's bursts are all served.
        let (mut idx, mut slot_start) = self.slot_at(start_search);
        let mut remaining = req.bursts;
        let completion = loop {
            if self.table.slots()[idx] == Some(req.port) {
                remaining -= 1;
                if remaining == 0 {
                    break slot_start + self.slot_duration;
                }
            }
            idx = (idx + 1) % self.table.len();
            slot_start += self.slot_duration;
        };
        self.port_free.insert(req.port, completion);

        let latency = completion.since(now);
        let st = self.stats.entry(req.port).or_default();
        st.requests += 1;
        st.latency_sum += latency;
        if latency > st.latency_max {
            st.latency_max = latency;
        }
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }
    fn at_us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn own_slot_is_served_immediately() {
        let table = SlotTable::round_robin(&[PortId(0), PortId(1)]);
        let mut arb = MemoryArbiter::new(table, us(10));
        let done = arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(0),
                bursts: 1,
            },
        );
        assert_eq!(done, at_us(10));
    }

    #[test]
    fn foreign_slot_waits_for_turn() {
        let table = SlotTable::round_robin(&[PortId(0), PortId(1)]);
        let mut arb = MemoryArbiter::new(table, us(10));
        // Port 1's slot is the second of the frame: [10us, 20us).
        let done = arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(1),
                bursts: 1,
            },
        );
        assert_eq!(done, at_us(20));
    }

    #[test]
    fn multi_burst_spans_frames() {
        let table = SlotTable::round_robin(&[PortId(0), PortId(1)]);
        let mut arb = MemoryArbiter::new(table, us(10));
        // Port 0 owns slots [0,10) and [20,30): 2 bursts finish at 30us.
        let done = arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(0),
                bursts: 2,
            },
        );
        assert_eq!(done, at_us(30));
    }

    #[test]
    fn fifo_per_port() {
        let table = SlotTable::round_robin(&[PortId(0)]);
        let mut arb = MemoryArbiter::new(table, us(10));
        let d1 = arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(0),
                bursts: 1,
            },
        );
        let d2 = arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(0),
                bursts: 1,
            },
        );
        assert_eq!(d1, at_us(10));
        assert_eq!(d2, at_us(20));
    }

    #[test]
    fn unassigned_port_starves() {
        let table = SlotTable::round_robin(&[PortId(0)]);
        let mut arb = MemoryArbiter::new(table, us(10));
        let done = arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(9),
                bursts: 1,
            },
        );
        assert_eq!(done, SimTime::MAX);
    }

    #[test]
    fn reconfiguration_changes_shares() {
        let ports = [PortId(0), PortId(1)];
        let table = SlotTable::weighted(&ports, &[1, 1]);
        let mut arb = MemoryArbiter::new(table, us(10));
        assert!((arb.table().share(PortId(1)) - 0.5).abs() < 1e-12);
        arb.reconfigure(SlotTable::weighted(&ports, &[1, 3]));
        assert!((arb.table().share(PortId(1)) - 0.75).abs() < 1e-12);
        assert_eq!(arb.reconfigurations(), 1);
        // Port 1 now owns slots 1,2,3 of a 4-slot frame; a 3-burst request
        // issued at 0 completes at the end of slot 3 = 40us.
        let done = arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(1),
                bursts: 3,
            },
        );
        assert_eq!(done, at_us(40));
    }

    #[test]
    fn weighted_share_reduces_latency() {
        let ports = [PortId(0), PortId(1)];
        let mut fair = MemoryArbiter::new(SlotTable::weighted(&ports, &[1, 1]), us(10));
        let mut boosted = MemoryArbiter::new(SlotTable::weighted(&ports, &[1, 3]), us(10));
        let mut t_fair = SimTime::ZERO;
        let mut t_boost = SimTime::ZERO;
        for k in 0..50u64 {
            let now = SimTime::from_micros(k * 25);
            t_fair = fair.request(
                now,
                MemoryRequest {
                    port: PortId(1),
                    bursts: 2,
                },
            );
            t_boost = boosted.request(
                now,
                MemoryRequest {
                    port: PortId(1),
                    bursts: 2,
                },
            );
        }
        let _ = (t_fair, t_boost);
        let mean = |arb: &MemoryArbiter| {
            let s = arb.port_stats(PortId(1)).unwrap();
            s.latency_sum / s.requests
        };
        let (mf, mb) = (mean(&fair), mean(&boosted));
        assert!(mb < mf, "boosted {mb} should beat fair {mf}");
    }

    #[test]
    fn stats_track_max() {
        let table = SlotTable::round_robin(&[PortId(0), PortId(1)]);
        let mut arb = MemoryArbiter::new(table, us(10));
        arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(1),
                bursts: 1,
            },
        );
        let st = arb.port_stats(PortId(1)).unwrap();
        assert_eq!(st.requests, 1);
        assert_eq!(st.latency_max, us(20));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_table_rejected() {
        let _ = SlotTable::new(vec![]);
    }
}
