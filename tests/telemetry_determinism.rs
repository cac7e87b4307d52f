//! Telemetry determinism: the flight recorder and metrics registry must
//! be bystanders, not actors.
//!
//! Two contracts from the telemetry design:
//!
//! 1. **Byte-identical readout** — a single-threaded loop run stamps
//!    every event with simkit virtual time, so two runs of the same seed
//!    drain byte-identical JSONL timelines and metrics readouts.
//! 2. **Merge order** — registries kept per worker merge into the same
//!    readout whatever order the workers are joined in.

use trader::faults::Schedule;
use trader::simkit::SimTime;
use trader::telemetry::{MetricsRegistry, Telemetry};
use trader::tvsim::TvFault;
use trader::{TimedScenario, TvDependabilityLoop};

fn recorded_run(seed: u64) -> (String, String, String) {
    let telemetry = Telemetry::recording(8_192);
    let mut looped = TvDependabilityLoop::closed(seed);
    looped.set_telemetry(telemetry.clone());
    looped.schedule_fault(
        Schedule::Between {
            from: SimTime::from_millis(250),
            to: SimTime::from_millis(350),
        },
        TvFault::TeletextSyncLoss,
    );
    looped.schedule_fault(Schedule::Always, TvFault::MuteInversion);
    looped.set_channel_loss(0.1);
    looped.use_reliable(true);
    let outcome = looped.run(&TimedScenario::teletext_session(40));
    (
        telemetry.events_jsonl(),
        telemetry.metrics_json().render(),
        outcome.summary(),
    )
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (events_a, metrics_a, summary_a) = recorded_run(11);
    let (events_b, metrics_b, summary_b) = recorded_run(11);
    assert_eq!(events_a, events_b, "event timelines diverged");
    assert_eq!(metrics_a, metrics_b, "metrics readouts diverged");
    assert_eq!(summary_a, summary_b);
    assert!(!events_a.is_empty(), "recording run captured nothing");

    // Every line is virtual-time stamped and well-formed JSONL.
    for line in events_a.lines() {
        assert!(line.starts_with("{\"t_ns\":"), "{line}");
        assert!(line.contains("\"clock\":\"virtual\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
}

#[test]
fn different_seeds_differ() {
    let (events_a, _, _) = recorded_run(11);
    let (events_b, _, _) = recorded_run(12);
    // Channel loss is seed-derived, so the timelines must not collide.
    assert_ne!(
        events_a, events_b,
        "distinct seeds produced equal timelines"
    );
}

#[test]
fn merged_registries_are_order_insensitive() {
    // Merge two registries in both orders; the readout must agree byte
    // for byte (the associativity/commutativity contract).
    let filled = |blocks: i64, samples: [u64; 2]| {
        let mut registry = MetricsRegistry::new();
        registry.incr("shard.blocks_scored", blocks);
        for ns in samples {
            registry.observe("shard.score_ns", ns);
        }
        registry
    };
    let a = filled(1_024, [1_200, 900]);
    let b = filled(1_024, [700, 1_500]);
    let mut ab = MetricsRegistry::new();
    ab.merge(&a);
    ab.merge(&b);
    let mut ba = MetricsRegistry::new();
    ba.merge(&b);
    ba.merge(&a);
    assert_eq!(ab.to_json().render(), ba.to_json().render());
    assert_eq!(ab.counter("shard.blocks_scored"), 2_048);
    assert_eq!(ab.histogram("shard.score_ns").map(|h| h.count()), Some(4));
}
