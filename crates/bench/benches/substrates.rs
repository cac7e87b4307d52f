//! Micro-benchmarks of the substrates the experiments run on: the
//! event queue the boundary channels run on, the state-machine executor,
//! the spectrum ranking,
//! and the instrumented TV — so regressions in the platform show up
//! independently of the experiment harnesses.

use bench::quick_criterion;
use criterion::Criterion;
use std::hint::black_box;
use trader::prelude::*;
use trader::simkit::{EventPriority, EventQueue, SimDuration};
use trader::spectra::SpectrumMatrix;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_simkit");
    group.bench_function("event_queue_100k_events", |b| {
        b.iter(|| {
            let mut queue: EventQueue<u32> = EventQueue::new();
            for i in 0..100_000u64 {
                let at = SimTime::from_nanos(i * 7 % 1_000_000);
                queue.push(at, EventPriority::NORMAL, i as u32);
            }
            let mut count = 0u64;
            while queue.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });
    group.finish();
}

fn bench_statemachine(c: &mut Criterion) {
    let machine = tv_spec_machine();
    let mut group = c.benchmark_group("substrate_statemachine");
    group.bench_function("tv_model_1k_events", |b| {
        b.iter(|| {
            let mut exec = Executor::new(&machine);
            exec.start();
            exec.step(&Event::plain("power"));
            for i in 0..1_000u64 {
                let at = SimTime::from_millis(i + 1);
                exec.step_at(at, &Event::plain("vol_up"));
            }
            black_box(exec.transitions_fired())
        })
    });
    group.finish();
}

fn bench_spectra(c: &mut Criterion) {
    // Paper-scale matrix: 60k blocks × 27 steps.
    let mut matrix = SpectrumMatrix::new(60_000);
    for step in 0..27u32 {
        matrix.add_step((0..12_000).map(|b| (b * 5 + step) % 60_000), step % 3 == 0);
    }
    let mut group = c.benchmark_group("substrate_spectra");
    group.bench_function("ochiai_rank_60k_blocks", |b| {
        b.iter(|| black_box(matrix.rank(Coefficient::Ochiai)))
    });
    group.finish();
}

fn bench_tvsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_tvsim");
    group.bench_function("instrumented_press_with_coverage", |b| {
        let mut tv = TvSystem::new();
        tv.press(SimTime::ZERO, Key::Power);
        let mut t = 1u64;
        b.iter(|| {
            t += 1;
            let obs = tv.press(SimTime::from_millis(t), Key::VolUp);
            black_box(obs.len())
        })
    });
    group.bench_function("awareness_monitor_press", |b| {
        let machine = tv_spec_machine();
        let mut monitor = MonitorBuilder::new(&machine)
            .output_delay(SimDuration::from_micros(500))
            .build();
        let mut tv = TvSystem::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            let at = SimTime::from_millis(t);
            for obs in tv.press(at, Key::Mute) {
                monitor.offer(&obs);
            }
            monitor.advance_to(at + SimDuration::from_millis(50));
            black_box(monitor.comparator_stats().comparisons)
        })
    });
    group.finish();
}

fn main() {
    let mut c = quick_criterion();
    bench_event_queue(&mut c);
    bench_statemachine(&mut c);
    bench_spectra(&mut c);
    bench_tvsim(&mut c);
    c.final_summary();
}
