//! Golden fingerprints for the active health observatory's probe
//! schedule.
//!
//! The probed grid fingerprint folds each cell into a few counters, so
//! a change to which probe fires in which idle window could cancel out
//! there. These tests pin the schedule itself on two probed sessions:
//!
//! - a full-mix workload under micro-reboot recovery with menu, swivel,
//!   teletext and sleep-timer faults in their own windows: all six
//!   probe kinds fire, open teletext pages and menus defer probes (the
//!   foreground guard), and reboot outages swallow probe keys;
//! - a healthy session with random 50–120 ms gaps, so some idle windows
//!   are too short for the next probe and the rotation waits for a
//!   wider one.
//!
//! Each session runs dark and with a recording flight recorder; the
//! tests pin the per-kind firing counts, the outcome and a fingerprint
//! of the recorded timeline and metrics readout.

use trader::faults::Schedule;
use trader::simkit::{SimDuration, SimRng, SimTime};
use trader::telemetry::Telemetry;
use trader::tvsim::TvFault;
use trader::{LoopOutcome, TimedScenario, TvDependabilityLoop, UnitRecoveryStyle};

/// Probe kinds, in rotation order.
const KINDS: [&str; 6] = [
    "sleep-timer",
    "volume-nudge",
    "teletext-roundtrip",
    "menu-toggle",
    "swivel-jog",
    "channel-flip",
];

/// Fault windows (milliseconds) of the storm session.
const STORM: [(u64, u64, TvFault); 4] = [
    (3_000, 9_000, TvFault::MenuFreeze),
    (8_000, 16_000, TvFault::SwivelStuck),
    (18_000, 26_000, TvFault::TeletextSyncLoss),
    (24_000, 34_000, TvFault::SleepTimerLost),
];

fn storm_run(telemetry: &Telemetry) -> LoopOutcome {
    let mut looped = TvDependabilityLoop::closed(0x0050_524f_4245);
    for (from, to, fault) in STORM {
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_millis(from),
                to: SimTime::from_millis(to),
            },
            fault,
        );
    }
    looped.unit_recovery(UnitRecoveryStyle::MicroReboot);
    looped.active_probes();
    looped.set_telemetry(telemetry.clone());
    looped.run(&TimedScenario::full_mix_session(400))
}

fn ragged_run(telemetry: &Telemetry) -> LoopOutcome {
    let scenario = TimedScenario::random(
        300,
        SimDuration::from_millis(50),
        SimDuration::from_millis(120),
        &mut SimRng::seed(0x5241_4747),
    );
    let mut looped = TvDependabilityLoop::closed(0x0052_4147);
    looped.active_probes();
    looped.set_telemetry(telemetry.clone());
    looped.run(&scenario)
}

fn fnv1a(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one session pins.
struct Golden {
    /// Bursts fired per probe kind, in rotation order.
    fired: [i64; 6],
    /// Rotation slots consumed without pressing (foreground guard).
    deferred: i64,
    /// Probe keys swallowed by reboot outages.
    skipped_keys: i64,
    /// FNV-1a of the outcome's `Debug` rendering.
    outcome: u64,
    /// FNV-1a of the recorded event timeline followed by the metrics
    /// readout.
    telemetry: u64,
}

fn check(run: fn(&Telemetry) -> LoopOutcome, golden: &Golden) {
    let dark = run(&Telemetry::off());
    let telemetry = Telemetry::recording(1 << 16);
    let recorded = run(&telemetry);
    assert_eq!(dark, recorded, "recording telemetry changed the outcome");
    assert_eq!(telemetry.overwritten(), 0, "the ring must hold the run");

    let fired = KINDS.map(|kind| telemetry.counter(&format!("core.probes.fired.{kind}")));
    assert_eq!(fired, golden.fired);
    assert_eq!(telemetry.counter("core.probes.deferred"), golden.deferred);
    assert_eq!(
        telemetry.counter("core.probes.skipped_keys"),
        golden.skipped_keys
    );
    assert_eq!(fnv1a(&[&format!("{dark:?}")]), golden.outcome, "{dark:?}");
    let events = telemetry.events_jsonl();
    let metrics = telemetry.metrics_json().render();
    assert_eq!(fnv1a(&[&events, &metrics]), golden.telemetry);
}

#[test]
fn storm_probe_schedule_is_pinned() {
    check(
        storm_run,
        &Golden {
            fired: [67, 67, 53, 54, 66, 53],
            deferred: 39,
            skipped_keys: 14,
            outcome: 0x766e_e87b_f940_d73b,
            telemetry: 0xf71e_6893_8ba3_9e9f,
        },
    );
}

#[test]
fn ragged_window_probe_schedule_is_pinned() {
    check(
        ragged_run,
        &Golden {
            fired: [38, 38, 33, 31, 38, 34],
            deferred: 16,
            skipped_keys: 0,
            outcome: 0x3f02_dccb_f0d4_1d6b,
            telemetry: 0x594e_e41d_c995_a5d3,
        },
    );
}
