//! Resource-stress faults: the TASS stress-testing approach.
//!
//! Paper Sect. 4.7: stress testing "artificially takes away shared
//! resources, such as CPU or bus bandwidth, to simulate the occurrence of
//! errors or the addition of an additional resource user"; the software
//! CPU eater "is already included in the current development software and
//! can be activated by system testers".

use simkit::resource::PortId;
use simkit::{Bus, Cpu, MemoryArbiter, MemoryRequest, SimDuration, SimTime, TaskId};

/// The CPU eater: a periodic high-priority job that consumes a configured
/// fraction of one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuEater {
    /// The eater's task id (distinct from application tasks).
    pub task: TaskId,
    /// Release period.
    pub period: SimDuration,
    /// Fraction of the CPU to consume, `(0, 1)`.
    pub fraction: f64,
    /// Priority (0 = highest; testers usually run it above the
    /// application to model a worst case).
    pub priority: u8,
}

impl CpuEater {
    /// Creates an eater consuming `fraction` of a CPU.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    pub fn new(task: TaskId, period: SimDuration, fraction: f64, priority: u8) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0,1), got {fraction}"
        );
        assert!(!period.is_zero(), "period must be positive");
        CpuEater {
            task,
            period,
            fraction,
            priority,
        }
    }

    /// Work consumed per period.
    pub fn wcet(&self) -> SimDuration {
        self.period.mul_f64(self.fraction)
    }

    /// Releases the eater's jobs for the window `[from, to)` into `cpu`.
    ///
    /// Returns the number of jobs released.
    pub fn release_into(&self, cpu: &mut Cpu, from: SimTime, to: SimTime) -> u32 {
        let mut n = 0;
        let period_ns = self.period.as_nanos();
        let first = from.as_nanos().div_ceil(period_ns) * period_ns;
        let mut t = SimTime::from_nanos(first);
        while t < to {
            cpu.release(t, self.task, self.wcet(), self.priority, t + self.period);
            n += 1;
            t += self.period;
        }
        n
    }
}

/// The bus eater: steals a fraction of interconnect bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusEater {
    /// Fraction of bandwidth to steal, `[0, 1)`.
    pub fraction: f64,
}

impl BusEater {
    /// Creates a bus eater.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= fraction < 1`.
    pub fn new(fraction: f64) -> Self {
        assert!((0.0..1.0).contains(&fraction), "fraction must be in [0,1)");
        BusEater { fraction }
    }

    /// Applies the theft to a bus.
    pub fn apply(&self, bus: &mut Bus) {
        bus.set_stolen_fraction(self.fraction);
    }

    /// Removes the theft.
    pub fn remove(&self, bus: &mut Bus) {
        bus.set_stolen_fraction(0.0);
    }
}

/// The memory hog: floods a memory-arbiter port with requests, inflating
/// other ports' latencies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryHog {
    /// The port the hog issues from.
    pub port: PortId,
    /// Requests per issue burst.
    pub requests_per_burst: u32,
    /// Bursts per request.
    pub bursts_each: u32,
}

impl MemoryHog {
    /// Creates a hog.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(port: PortId, requests_per_burst: u32, bursts_each: u32) -> Self {
        assert!(requests_per_burst > 0 && bursts_each > 0);
        MemoryHog {
            port,
            requests_per_burst,
            bursts_each,
        }
    }

    /// Issues one burst of hog traffic at `now`.
    pub fn issue(&self, arbiter: &mut MemoryArbiter, now: SimTime) {
        for _ in 0..self.requests_per_burst {
            arbiter.request(
                now,
                MemoryRequest {
                    port: self.port,
                    bursts: self.bursts_each,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SlotTable;

    #[test]
    fn cpu_eater_consumes_configured_fraction() {
        let eater = CpuEater::new(TaskId(99), SimDuration::from_millis(10), 0.5, 0);
        assert_eq!(eater.wcet(), SimDuration::from_millis(5));
        let mut cpu = Cpu::new("c");
        let n = eater.release_into(&mut cpu, SimTime::ZERO, SimTime::from_millis(100));
        assert_eq!(n, 10);
        cpu.advance_to(SimTime::from_millis(100));
        assert!((cpu.stats().utilization() - 0.5).abs() < 0.01);
    }

    #[test]
    fn cpu_eater_starves_lower_priority_work() {
        let eater = CpuEater::new(TaskId(99), SimDuration::from_millis(10), 0.8, 0);
        let mut cpu = Cpu::new("c");
        // Application job: 5ms of work, priority 5, deadline 10ms.
        cpu.release(
            SimTime::ZERO,
            TaskId(1),
            SimDuration::from_millis(5),
            5,
            SimTime::from_millis(10),
        );
        eater.release_into(&mut cpu, SimTime::ZERO, SimTime::from_millis(30));
        let done = cpu.advance_to(SimTime::from_millis(30));
        let app = done.iter().find(|j| j.task == TaskId(1)).unwrap();
        assert!(!app.deadline_met, "eater must push the app job past 10ms");
    }

    #[test]
    fn bus_eater_apply_remove() {
        let mut bus = Bus::new(1_000_000);
        let eater = BusEater::new(0.75);
        eater.apply(&mut bus);
        assert_eq!(bus.effective_bandwidth_bps(), 250_000.0);
        eater.remove(&mut bus);
        assert_eq!(bus.effective_bandwidth_bps(), 1_000_000.0);
    }

    #[test]
    fn memory_hog_inflates_victim_latency() {
        let ports = [PortId(0), PortId(1)];
        let table = SlotTable::round_robin(&ports);
        let slot = SimDuration::from_micros(10);
        // Victim alone.
        let mut clean = MemoryArbiter::new(table.clone(), slot);
        let t_clean = clean.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(1),
                bursts: 1,
            },
        );
        // Victim behind a hog on its own port queue? No — hog uses port 0,
        // but TDM isolates ports, so same-table latency is unchanged. The
        // hog hurts when it shares the port (DMA behind the CPU's port).
        let mut hogged = MemoryArbiter::new(table, slot);
        let hog = MemoryHog::new(PortId(1), 5, 1);
        hog.issue(&mut hogged, SimTime::ZERO);
        let t_hogged = hogged.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(1),
                bursts: 1,
            },
        );
        assert!(
            t_hogged > t_clean,
            "hog must delay the victim: {t_hogged} vs {t_clean}"
        );
    }

    #[test]
    #[should_panic(expected = "fraction must be in (0,1)")]
    fn cpu_eater_rejects_full_theft() {
        let _ = CpuEater::new(TaskId(0), SimDuration::from_millis(1), 1.0, 0);
    }
}
