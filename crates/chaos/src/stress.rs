//! The resource stress leg: TASS-style eaters plus a deadlock cycle.
//!
//! Paper Sect. 4.7 stress testing "artificially takes away shared
//! resources" to expose robustness gaps. Each campaign composes the
//! three eaters against their resource models and injects a wait-for
//! cycle into the deadlock detector, asserting the platform *measures*
//! the stress rather than wedging under it.

use detect::WaitForGraph;
use faults::{deadlock, BusEater, CpuEater, MemoryHog};
use simkit::{
    Bus, BusRequest, Cpu, MemoryArbiter, MemoryRequest, PortId, SimDuration, SimTime, SlotTable,
    TaskId,
};

use crate::Fnv;

/// Seed-derived stress configuration.
#[derive(Debug, Clone, Copy)]
pub struct StressPlan {
    /// CPU share the eater consumes, `(0, 1)`.
    pub cpu_fraction: f64,
    /// Bus bandwidth share stolen, `[0, 1)`.
    pub bus_fraction: f64,
    /// Memory-hog requests per burst.
    pub hog_requests: u32,
    /// Memory bursts per hog request.
    pub hog_bursts: u32,
    /// Tasks in the injected wait-for cycle.
    pub deadlock_tasks: usize,
}

/// Measured effect of one stress run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressOutcome {
    /// Eater jobs released onto the CPU.
    pub cpu_jobs_released: u32,
    /// Jobs (eater + application) that completed.
    pub cpu_completed: u64,
    /// Application deadline misses under the eater.
    pub cpu_deadline_misses: u64,
    /// Measured processor utilization.
    pub cpu_utilization: f64,
    /// Frame-transfer latency on an idle bus.
    pub bus_nominal: SimDuration,
    /// The same transfer with the bus eater active.
    pub bus_stressed: SimDuration,
    /// Victim-port latency behind the memory hog's burst.
    pub hog_victim_latency: SimDuration,
    /// Length of the wait-for cycle the detector found (0 = missed).
    pub deadlock_cycle_len: usize,
}

impl StressOutcome {
    /// Mixes every measured value into a campaign or cell digest.
    pub(crate) fn mix_into(&self, h: &mut Fnv) {
        h.mix(self.cpu_jobs_released as u64);
        h.mix(self.cpu_completed);
        h.mix(self.cpu_deadline_misses);
        h.mix(self.cpu_utilization.to_bits());
        h.mix(self.bus_nominal.as_nanos());
        h.mix(self.bus_stressed.as_nanos());
        h.mix(self.hog_victim_latency.as_nanos());
        h.mix(self.deadlock_cycle_len as u64);
    }
}

impl StressPlan {
    /// Draws a plan from the campaign's RNG stream.
    pub fn from_rng(rng: &mut simkit::SimRng) -> Self {
        StressPlan {
            cpu_fraction: rng.uniform_f64(0.1, 0.6),
            bus_fraction: rng.uniform_f64(0.1, 0.7),
            hog_requests: 2 + rng.uniform_u64(0, 4) as u32,
            hog_bursts: 1 + rng.uniform_u64(0, 3) as u32,
            deadlock_tasks: (3 + rng.uniform_u64(0, 3)) as usize,
        }
    }

    /// Runs all four stress arms deterministically.
    pub fn run(&self) -> StressOutcome {
        let (cpu_jobs_released, cpu_completed, cpu_deadline_misses, cpu_utilization) =
            self.run_cpu_arm();
        let (bus_nominal, bus_stressed) = self.run_bus_arm();
        StressOutcome {
            cpu_jobs_released,
            cpu_completed,
            cpu_deadline_misses,
            cpu_utilization,
            bus_nominal,
            bus_stressed,
            hog_victim_latency: self.run_memory_arm(),
            deadlock_cycle_len: self.run_deadlock_arm(),
        }
    }

    /// The eater competes with a 50%-load application task for 400 ms.
    fn run_cpu_arm(&self) -> (u32, u64, u64, f64) {
        let period = SimDuration::from_millis(40);
        let mut cpu = Cpu::new("chaos-cpu");
        let eater = CpuEater::new(TaskId(100), period, self.cpu_fraction, 0);
        let mut released = 0;
        for k in 0..10u64 {
            let t = SimTime::from_nanos(k * period.as_nanos());
            released += eater.release_into(&mut cpu, t, t + period);
            cpu.release(t, TaskId(0), SimDuration::from_millis(20), 1, t + period);
        }
        let _ = cpu.advance_to(SimTime::from_millis(400));
        let stats = cpu.stats();
        (
            released,
            stats.completed,
            stats.deadline_misses,
            stats.utilization(),
        )
    }

    /// One 0.8 MB frame transfer on an 80 MB/s bus, idle vs. stolen.
    fn run_bus_arm(&self) -> (SimDuration, SimDuration) {
        let transfer = BusRequest {
            port: PortId(0),
            bytes: 800_000,
        };
        let mut idle = Bus::new(80_000_000);
        let nominal = idle.request(SimTime::ZERO, transfer).latency(SimTime::ZERO);
        let mut stressed = Bus::new(80_000_000);
        BusEater::new(self.bus_fraction).apply(&mut stressed);
        let under_theft = stressed
            .request(SimTime::ZERO, transfer)
            .latency(SimTime::ZERO);
        (nominal, under_theft)
    }

    /// The hog floods port 0; the victim on port 1 measures the queue.
    fn run_memory_arm(&self) -> SimDuration {
        let table = SlotTable::round_robin(&[PortId(0), PortId(1)]);
        let mut arbiter = MemoryArbiter::new(table, SimDuration::from_micros(10));
        let hog = MemoryHog::new(PortId(0), self.hog_requests, self.hog_bursts);
        hog.issue(&mut arbiter, SimTime::ZERO);
        let done = arbiter.request(
            SimTime::ZERO,
            MemoryRequest {
                port: PortId(1),
                bursts: 1,
            },
        );
        done.since(SimTime::ZERO)
    }

    /// Injects an N-task wait-for cycle and asks the detector for it.
    fn run_deadlock_arm(&self) -> usize {
        let names: Vec<String> = (0..self.deadlock_tasks)
            .map(|i| format!("chaos-task-{i}"))
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut graph = WaitForGraph::new();
        for (waiter, holder) in deadlock::cycle_edges(&refs) {
            graph.add_wait(waiter, holder);
        }
        graph.find_cycle().map_or(0, |cycle| cycle.len())
    }
}
