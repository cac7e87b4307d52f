//! Adaptive memory arbitration (NXP Research, paper Sect. 4.5).
//!
//! Watches per-port memory latencies and reweights the TDM slot table at
//! run time when a port misses its latency target — "mak\[ing\] memory
//! arbitration more flexible such that it can be adapted at run-time to
//! deal with problems concerning memory access".

use simkit::resource::PortId;
use simkit::{MemoryArbiter, SimDuration, SlotTable};
use std::collections::BTreeMap;

/// Per-port latency targets and adaptation bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveArbiter {
    targets: BTreeMap<PortId, SimDuration>,
    /// Current weight per port (slots in the generated table).
    weights: BTreeMap<PortId, u32>,
    /// Stats baseline at the previous adapt call, per port:
    /// (requests, latency_sum) — adaptation judges the latency of the
    /// *window since the last check*, not the lifetime mean.
    baseline: BTreeMap<PortId, (u64, SimDuration)>,
    max_weight: u32,
}

impl AdaptiveArbiter {
    /// Creates an adaptive policy over the given ports, one slot each.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty or `max_weight` is zero.
    pub fn new(ports: &[PortId], max_weight: u32) -> Self {
        assert!(!ports.is_empty(), "need at least one port");
        assert!(max_weight > 0, "max weight must be positive");
        AdaptiveArbiter {
            targets: BTreeMap::new(),
            weights: ports.iter().map(|p| (*p, 1)).collect(),
            baseline: BTreeMap::new(),
            max_weight,
        }
    }

    /// Sets a port's mean-latency target.
    pub fn set_target(&mut self, port: PortId, target: SimDuration) {
        self.targets.insert(port, target);
    }

    /// The current weight of a port.
    pub fn weight(&self, port: PortId) -> u32 {
        self.weights.get(&port).copied().unwrap_or(0)
    }

    /// The slot table implied by the current weights.
    pub fn table(&self) -> SlotTable {
        let ports: Vec<PortId> = self.weights.keys().copied().collect();
        let weights: Vec<u32> = self.weights.values().copied().collect();
        SlotTable::weighted(&ports, &weights)
    }

    /// Checks the latency measured *since the previous adapt call*
    /// against targets; if a port is over target (and can still grow),
    /// boosts its weight and reconfigures the arbiter. Returns true if a
    /// reconfiguration happened.
    pub fn adapt(&mut self, arbiter: &mut MemoryArbiter) -> bool {
        let mut changed = false;
        for (&port, &target) in &self.targets {
            let Some(stats) = arbiter.port_stats(port) else {
                continue;
            };
            let (base_req, base_sum) = self
                .baseline
                .get(&port)
                .copied()
                .unwrap_or((0, SimDuration::ZERO));
            let delta_req = stats.requests.saturating_sub(base_req);
            if delta_req == 0 {
                continue;
            }
            let delta_mean = (stats.latency_sum - base_sum) / delta_req;
            self.baseline
                .insert(port, (stats.requests, stats.latency_sum));
            if delta_mean > target {
                let w = self.weights.entry(port).or_insert(0);
                if *w < self.max_weight {
                    *w += 1;
                    changed = true;
                }
            }
        }
        if changed {
            arbiter.reconfigure(self.table());
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{MemoryRequest, SimTime};

    fn ports() -> [PortId; 2] {
        [PortId(0), PortId(1)]
    }

    #[test]
    fn boosts_over_target_port() {
        let ps = ports();
        let mut policy = AdaptiveArbiter::new(&ps, 4);
        policy.set_target(PortId(1), SimDuration::from_micros(15));
        let mut arb = MemoryArbiter::new(policy.table(), SimDuration::from_micros(10));
        // Port 1 suffers: it owns the second slot, every request waits.
        for k in 0..20u64 {
            arb.request(
                SimTime::from_micros(k * 20),
                MemoryRequest {
                    port: PortId(1),
                    bursts: 1,
                },
            );
        }
        let port = arb.port_stats(PortId(1)).unwrap();
        assert!(port.latency_sum / port.requests > SimDuration::from_micros(15));
        assert!(policy.adapt(&mut arb));
        assert_eq!(policy.weight(PortId(1)), 2);
        assert_eq!(arb.reconfigurations(), 1);
        assert!((arb.table().share(PortId(1)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn within_target_no_change() {
        let ps = ports();
        let mut policy = AdaptiveArbiter::new(&ps, 4);
        policy.set_target(PortId(0), SimDuration::from_micros(1_000));
        let mut arb = MemoryArbiter::new(policy.table(), SimDuration::from_micros(10));
        arb.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(0),
                bursts: 1,
            },
        );
        assert!(!policy.adapt(&mut arb));
    }

    #[test]
    fn weight_capped_at_max() {
        let ps = ports();
        let mut policy = AdaptiveArbiter::new(&ps, 2);
        policy.set_target(PortId(1), SimDuration::from_nanos(1));
        let mut arb = MemoryArbiter::new(policy.table(), SimDuration::from_micros(10));
        for round in 0..5u64 {
            for k in 0..10u64 {
                arb.request(
                    SimTime::from_micros(round * 1_000 + k * 50),
                    MemoryRequest {
                        port: PortId(1),
                        bursts: 1,
                    },
                );
            }
            policy.adapt(&mut arb);
        }
        assert_eq!(policy.weight(PortId(1)), 2, "must cap at max_weight");
    }

    #[test]
    fn no_stats_no_adaptation() {
        let ps = ports();
        let mut policy = AdaptiveArbiter::new(&ps, 4);
        policy.set_target(PortId(0), SimDuration::from_nanos(1));
        let mut arb = MemoryArbiter::new(policy.table(), SimDuration::from_micros(10));
        assert!(!policy.adapt(&mut arb));
    }
}
