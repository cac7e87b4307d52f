//! Golden reports for the observation layer.
//!
//! Two observation paths are pinned here. E9 charges a simulated cost
//! per probe firing and per basic-block hit: its table is pinned field
//! by field, and its `Debug` rendering by an FNV-1a fingerprint. The
//! closed-loop flight-recorder run of `telemetry_determinism` drains a
//! JSONL timeline: its line count and fingerprint are pinned, so a
//! change to the recorder's event type cannot shift a byte of it.

use trader::experiments::e9_observation_overhead;
use trader::faults::Schedule;
use trader::simkit::SimTime;
use trader::telemetry::Telemetry;
use trader::tvsim::TvFault;
use trader::{TimedScenario, TvDependabilityLoop};

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn e9_report_is_pinned() {
    let report = e9_observation_overhead::run();
    let table = report.to_string();
    let cells: Vec<Vec<&str>> = table
        .lines()
        .skip(3)
        .filter(|line| line.starts_with('|'))
        .map(|line| {
            line.split('|')
                .map(str::trim)
                .filter(|cell| !cell.is_empty())
                .collect()
        })
        .collect();
    assert_eq!(
        cells,
        [
            ["events only", "55", "0", "1.10", "0.04%"],
            ["events + block coverage", "55", "58755", "1.34", "0.05%"],
            ["disabled (production)", "0", "0", "0.00", "0.00%"],
        ],
        "{report}"
    );
    assert_eq!(
        fnv1a(&format!("{report:?}")),
        0xbd4d_b1b9_f527_0942,
        "{report}"
    );
}

/// The closed-loop run of `telemetry_determinism::recorded_run(11)`.
fn recorded_timeline(seed: u64) -> String {
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
    looped.run(&TimedScenario::teletext_session(40));
    telemetry.events_jsonl()
}

#[test]
fn recorded_timeline_is_pinned() {
    let events = recorded_timeline(11);
    assert_eq!(events.lines().count(), 115);
    assert_eq!(fnv1a(&events), 0x8e54_3d2c_f0ef_526c);
}
