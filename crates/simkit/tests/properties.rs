//! Property-based tests of the simulation kernel's invariants.

use proptest::prelude::*;
use simkit::{
    Cpu, EventQueue, MemoryArbiter, MemoryRequest, PortId, SimDuration, SimTime, SlotTable, TaskId,
};

proptest! {
    /// Events always pop in nondecreasing time order, and insertion
    /// order breaks ties.
    #[test]
    fn queue_pops_sorted(events in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in events.iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.time, ev.seq));
        }
        prop_assert_eq!(popped.len(), events.len());
        for w in popped.windows(2) {
            prop_assert!(w[0] <= w[1], "out of order: {:?} then {:?}", w[0], w[1]);
        }
    }

    /// Time arithmetic: (t + d) - d == t, and since() is the inverse of +.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..1u64 << 40, d in 0u64..1u64 << 40) {
        let time = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur).since(time), dur);
    }

    /// CPU conservation: busy time never exceeds elapsed time, every
    /// released job eventually completes once advanced far enough, and
    /// total busy time equals total demand (speed 1).
    #[test]
    fn cpu_conserves_work(jobs in prop::collection::vec((1u64..50, 0u8..4), 1..40)) {
        let mut cpu = Cpu::new("p");
        let mut total_demand = SimDuration::ZERO;
        let mut t = SimTime::ZERO;
        for (i, (demand_ms, prio)) in jobs.iter().enumerate() {
            // Releases at 10ms intervals.
            t = SimTime::from_millis(10 * i as u64);
            let demand = SimDuration::from_millis(*demand_ms);
            total_demand += demand;
            cpu.release(t, TaskId(i as u32), demand, *prio, t + SimDuration::from_secs(100));
        }
        // Far enough that everything finishes.
        let done = cpu.advance_to(t + total_demand + SimDuration::from_secs(1));
        let stats = cpu.stats();
        prop_assert_eq!(stats.completed as usize + done.len() - done.len(), jobs.len());
        prop_assert_eq!(stats.busy, total_demand);
        prop_assert!(stats.busy <= stats.elapsed);
        prop_assert_eq!(cpu.ready_count(), 0);
    }

    /// Preemptive priority: among jobs released together, a strictly
    /// higher-priority job always completes no later than a lower one.
    #[test]
    fn cpu_priority_order(demands in prop::collection::vec(1u64..20, 2..10)) {
        let mut cpu = Cpu::new("p");
        for (i, d) in demands.iter().enumerate() {
            cpu.release(
                SimTime::ZERO,
                TaskId(i as u32),
                SimDuration::from_millis(*d),
                i as u8, // priority = index: task 0 highest
                SimTime::from_secs(10),
            );
        }
        let done = cpu.advance_to(SimTime::from_secs(10));
        let completion = |task: u32| {
            done.iter().find(|j| j.task == TaskId(task)).unwrap().completion
        };
        for i in 1..demands.len() as u32 {
            prop_assert!(completion(i - 1) <= completion(i));
        }
    }

    /// TDM arbiter: per-port requests complete FIFO, and completions land
    /// on slot boundaries.
    #[test]
    fn arbiter_fifo_and_aligned(
        reqs in prop::collection::vec((0u32..3, 1u32..4, 0u64..200), 1..40)
    ) {
        let ports = [PortId(0), PortId(1), PortId(2)];
        let table = SlotTable::round_robin(&ports);
        let slot = SimDuration::from_micros(10);
        let mut arb = MemoryArbiter::new(table, slot);
        let mut last_per_port = std::collections::BTreeMap::new();
        let mut now = SimTime::ZERO;
        for (port, bursts, gap) in reqs {
            now += SimDuration::from_micros(gap);
            let done = arb.request(now, MemoryRequest { port: PortId(port), bursts });
            prop_assert_eq!(done.as_nanos() % slot.as_nanos(), 0, "not slot aligned");
            if let Some(prev) = last_per_port.insert(port, done) {
                prop_assert!(done > prev, "per-port FIFO violated");
            }
        }
    }

    /// Weighted slot tables: shares are proportional to weights and sum
    /// to 1 over the assigned ports.
    #[test]
    fn slot_table_shares(weights in prop::collection::vec(1u32..8, 1..6)) {
        let ports: Vec<PortId> = (0..weights.len() as u32).map(PortId).collect();
        let table = SlotTable::weighted(&ports, &weights);
        let total: u32 = weights.iter().sum();
        let mut share_sum = 0.0;
        for (p, w) in ports.iter().zip(&weights) {
            let share = table.share(*p);
            prop_assert!((share - *w as f64 / total as f64).abs() < 1e-12);
            share_sum += share;
        }
        prop_assert!((share_sum - 1.0).abs() < 1e-9);
    }
}
