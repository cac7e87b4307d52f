//! Golden fingerprint for in-loop spectrum diagnosis.
//!
//! The fleet, E18 and E19 fingerprints never enable
//! `TvDependabilityLoop::diagnose_online`, so this test pins the one
//! path they leave out: a fault-storm-shaped session (a 500-press full
//! mix, every campaign fault class in its own window, reliable lossy
//! supervised channels, a 32-block suspect window). It runs the session
//! dark and with a recording flight recorder, and pins the outcome — the
//! suspect window and the diagnosis count included — plus a fingerprint
//! of the recorded timeline and metrics readout. A change to when or how
//! the suspect window is scored must leave all of it byte-identical.

use trader::awareness::SupervisorConfig;
use trader::faults::Schedule;
use trader::simkit::{SimDuration, SimTime};
use trader::telemetry::Telemetry;
use trader::tvsim::TvFault;
use trader::{LoopOutcome, TimedScenario, TvDependabilityLoop};

/// The five campaign fault classes, each active in its own window
/// (milliseconds) of the 50 s session; two pairs overlap.
const STORM: [(u64, u64, TvFault); 5] = [
    (4_000, 12_000, TvFault::TeletextSyncLoss),
    (10_000, 18_000, TvFault::MuteInversion),
    (20_000, 28_000, TvFault::StuckVolume),
    (30_000, 38_000, TvFault::ChannelSkip),
    (36_000, 44_000, TvFault::TeletextRenderFault),
];

fn storm_run(telemetry: &Telemetry) -> LoopOutcome {
    let mut looped = TvDependabilityLoop::closed(0x0053_544f_524d);
    for (from, to, fault) in STORM {
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_millis(from),
                to: SimTime::from_millis(to),
            },
            fault,
        );
    }
    looped.set_jitter(SimDuration::from_micros(1_500));
    looped.set_channel_loss(0.1);
    looped.use_reliable(true);
    looped.supervised(SupervisorConfig::with_micro_reboot());
    looped.diagnose_online(32);
    looped.set_telemetry(telemetry.clone());
    looped.run(&TimedScenario::full_mix_session(500))
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

#[test]
fn fault_storm_diagnosis_is_pinned() {
    let dark = storm_run(&Telemetry::off());
    let telemetry = Telemetry::recording(1 << 16);
    let recorded = storm_run(&telemetry);
    assert_eq!(dark, recorded, "recording telemetry changed the outcome");

    assert_eq!(dark.steps, 500);
    assert_eq!(dark.diagnoses_triggered, GOLDEN_DIAGNOSES, "{dark:?}");
    // The end-of-run window: 32 tied synthetic-bank blocks, in id order.
    let suspects: Vec<u32> = (46_000..46_032).collect();
    assert_eq!(dark.top_suspects, suspects, "{dark:?}");
    assert_eq!(fnv1a(&[&format!("{dark:?}")]), GOLDEN_OUTCOME, "{dark:?}");
    let events = telemetry.events_jsonl();
    let metrics = telemetry.metrics_json().render();
    assert!(events.contains("awareness.diagnosis.prime_suspect"));
    assert_eq!(fnv1a(&[&events, &metrics]), GOLDEN_TELEMETRY);
}

/// Failing steps, each an error-triggered diagnosis.
const GOLDEN_DIAGNOSES: u64 = 169;
/// FNV-1a of the outcome's `Debug` rendering.
const GOLDEN_OUTCOME: u64 = 0xeca5_381e_4ded_81af;
/// FNV-1a of the recorded event timeline followed by the metrics readout.
const GOLDEN_TELEMETRY: u64 = 0x9f00_180f_4e15_4c34;
