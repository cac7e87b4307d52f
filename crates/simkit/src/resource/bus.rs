//! A bandwidth-shared interconnect.
//!
//! Transfers are served in FIFO order at a configurable bandwidth. A
//! *stolen fraction* models the stress-testing approach of the paper's
//! Sect. 4.7, where shared bus bandwidth is artificially taken away to
//! simulate errors or an additional resource user.

use super::PortId;
use crate::time::{SimDuration, SimTime};

/// A transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusRequest {
    /// Issuing port.
    pub port: PortId,
    /// Transfer size in bytes.
    pub bytes: u64,
}

/// The result of issuing a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// When the transfer starts (after any backlog).
    pub start: SimTime,
    /// When the transfer completes.
    pub completion: SimTime,
}

impl BusGrant {
    /// Total latency from issue to completion.
    pub fn latency(&self, issued: SimTime) -> SimDuration {
        self.completion.since(issued)
    }
}

/// Aggregate bus statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusStats {
    /// Bytes moved.
    pub bytes: u64,
}

/// A FIFO bandwidth-shared bus.
///
/// ```
/// use simkit::{Bus, BusRequest, SimTime};
/// use simkit::PortId;
///
/// // 100 MB/s bus: 1 MB takes 10 ms.
/// let mut bus = Bus::new(100_000_000);
/// let grant = bus.request(SimTime::ZERO, BusRequest { port: PortId(0), bytes: 1_000_000 });
/// assert_eq!(grant.completion, SimTime::from_millis(10));
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    bandwidth_bps: u64,
    stolen_fraction: f64,
    busy_until: SimTime,
    stats: BusStats,
}

impl Bus {
    /// Creates a bus with the given bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn new(bandwidth_bps: u64) -> Self {
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        Bus {
            bandwidth_bps,
            stolen_fraction: 0.0,
            busy_until: SimTime::ZERO,
            stats: BusStats::default(),
        }
    }

    /// Steals `fraction` of the bandwidth (the bus-eater stress test).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction < 1.0`.
    pub fn set_stolen_fraction(&mut self, fraction: f64) {
        assert!(
            (0.0..1.0).contains(&fraction),
            "stolen fraction must be in [0,1), got {fraction}"
        );
        self.stolen_fraction = fraction;
    }

    /// Effective bandwidth after theft.
    pub fn effective_bandwidth_bps(&self) -> f64 {
        self.bandwidth_bps as f64 * (1.0 - self.stolen_fraction)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Issues a transfer at `now`; returns start and completion instants.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn request(&mut self, now: SimTime, req: BusRequest) -> BusGrant {
        assert!(req.bytes > 0, "transfer must move at least one byte");
        let start = now.max(self.busy_until);
        let secs = req.bytes as f64 / self.effective_bandwidth_bps();
        let duration = SimDuration::from_nanos((secs * 1e9).ceil() as u64);
        let completion = start + duration;
        self.busy_until = completion;

        self.stats.bytes += req.bytes;
        BusGrant { start, completion }
    }

    /// Utilization over `[0, horizon]`: fraction of time the bus was busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        let busy = self.busy_until.min(horizon);
        // busy_until only moves forward as transfers queue back-to-back, so
        // the bus was continuously busy whenever backlogged; this is an
        // upper bound that is exact for saturated workloads.
        busy.as_nanos() as f64 / horizon.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_bandwidth() {
        let mut bus = Bus::new(1_000_000); // 1 MB/s
        let g = bus.request(
            SimTime::ZERO,
            BusRequest {
                port: PortId(0),
                bytes: 500_000,
            },
        );
        assert_eq!(g.completion, SimTime::from_millis(500));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut bus = Bus::new(1_000_000);
        let g1 = bus.request(
            SimTime::ZERO,
            BusRequest {
                port: PortId(0),
                bytes: 100_000,
            },
        );
        let g2 = bus.request(
            SimTime::ZERO,
            BusRequest {
                port: PortId(1),
                bytes: 100_000,
            },
        );
        assert_eq!(g1.completion, SimTime::from_millis(100));
        assert_eq!(g2.start, SimTime::from_millis(100));
        assert_eq!(g2.completion, SimTime::from_millis(200));
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut bus = Bus::new(1_000_000);
        bus.request(
            SimTime::ZERO,
            BusRequest {
                port: PortId(0),
                bytes: 1_000,
            },
        );
        let g = bus.request(
            SimTime::from_millis(50),
            BusRequest {
                port: PortId(0),
                bytes: 1_000,
            },
        );
        assert_eq!(g.start, SimTime::from_millis(50));
    }

    #[test]
    fn stolen_bandwidth_slows_transfers() {
        let mut bus = Bus::new(1_000_000);
        bus.set_stolen_fraction(0.5);
        let g = bus.request(
            SimTime::ZERO,
            BusRequest {
                port: PortId(0),
                bytes: 100_000,
            },
        );
        assert_eq!(g.completion, SimTime::from_millis(200));
    }

    #[test]
    fn stats_accumulate() {
        let mut bus = Bus::new(1_000_000);
        bus.request(
            SimTime::ZERO,
            BusRequest {
                port: PortId(0),
                bytes: 1_000,
            },
        );
        bus.request(
            SimTime::ZERO,
            BusRequest {
                port: PortId(0),
                bytes: 2_000,
            },
        );
        assert_eq!(bus.stats().bytes, 3_000);
    }

    #[test]
    #[should_panic(expected = "stolen fraction")]
    fn full_theft_rejected() {
        let mut bus = Bus::new(1_000);
        bus.set_stolen_fraction(1.0);
    }

    #[test]
    fn utilization_saturated_is_one() {
        let mut bus = Bus::new(1_000_000);
        bus.request(
            SimTime::ZERO,
            BusRequest {
                port: PortId(0),
                bytes: 1_000_000,
            },
        );
        assert!((bus.utilization(SimTime::from_secs(1)) - 1.0).abs() < 1e-9);
    }
}
