//! Golden fingerprints for error attribution: which unit a settle that
//! indicts several units reboots, which units it marks dirty, and which
//! targeted repairs it applies.
//!
//! The fleet and grid fingerprints fold whole campaigns into a few
//! counters, so a change to the attribution rule can cancel out there.
//! These sessions overlap faults in different units from 2 s to 30 s,
//! so single settles indict two or three units at once:
//!
//! - stuck volume plus a teletext render fault on a full-mix workload
//!   under full-restart recovery: the reboot target is the first
//!   indicted unit in unit order (audio before teletext);
//! - mute inversion, channel skip and teletext sync loss on a teletext
//!   workload under micro-reboot: every indicted unit, not only the
//!   rebooted one, stops being checkpoint-clean;
//! - the same three faults with targeted repairs instead of unit
//!   recovery: the audio repair is applied once per verdict and the
//!   teletext resync at most once per settle.
//!
//! Each session runs dark and with a recording flight recorder; the
//! tests pin the outcome and a fingerprint of the recorded timeline and
//! metrics readout.

use trader::faults::Schedule;
use trader::simkit::SimTime;
use trader::telemetry::Telemetry;
use trader::tvsim::TvFault;
use trader::{LoopOutcome, TimedScenario, TvDependabilityLoop, UnitRecoveryStyle};

const SEED: u64 = 0x5041_4952;

fn session(
    faults: &[TvFault],
    recovery: Option<UnitRecoveryStyle>,
    scenario: &TimedScenario,
    telemetry: &Telemetry,
) -> LoopOutcome {
    let mut looped = TvDependabilityLoop::closed(SEED);
    for &fault in faults {
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_secs(2),
                to: SimTime::from_secs(30),
            },
            fault,
        );
    }
    if let Some(config) = recovery {
        looped.unit_recovery(config);
    }
    looped.set_telemetry(telemetry.clone());
    looped.run(scenario)
}

fn full_restart_run(telemetry: &Telemetry) -> LoopOutcome {
    session(
        &[TvFault::StuckVolume, TvFault::TeletextRenderFault],
        Some(UnitRecoveryStyle::FullRestart),
        &TimedScenario::full_mix_session(400),
        telemetry,
    )
}

const THREE_UNITS: [TvFault; 3] = [
    TvFault::MuteInversion,
    TvFault::ChannelSkip,
    TvFault::TeletextSyncLoss,
];

fn micro_reboot_run(telemetry: &Telemetry) -> LoopOutcome {
    session(
        &THREE_UNITS,
        Some(UnitRecoveryStyle::MicroReboot),
        &TimedScenario::teletext_session(200),
        telemetry,
    )
}

fn targeted_repair_run(telemetry: &Telemetry) -> LoopOutcome {
    session(
        &THREE_UNITS,
        None,
        &TimedScenario::teletext_session(200),
        telemetry,
    )
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
    /// Corrective actions (reboot episodes or targeted repairs).
    recoveries: usize,
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

    assert_eq!(dark.recoveries, golden.recoveries, "{dark:?}");
    assert_eq!(fnv1a(&[&format!("{dark:?}")]), golden.outcome, "{dark:?}");
    let events = telemetry.events_jsonl();
    let metrics = telemetry.metrics_json().render();
    assert_eq!(fnv1a(&[&events, &metrics]), golden.telemetry);
}

#[test]
fn full_restart_targets_the_first_indicted_unit() {
    check(
        full_restart_run,
        &Golden {
            recoveries: 9,
            outcome: 0x402c_db3e_26a7_1130,
            telemetry: 0x07b2_f08c_a3dd_6837,
        },
    );
}

#[test]
fn micro_reboot_dirties_every_indicted_unit() {
    check(
        micro_reboot_run,
        &Golden {
            recoveries: 50,
            outcome: 0x19f3_6979_1b92_7423,
            telemetry: 0x709d_2142_4e17_a046,
        },
    );
}

#[test]
fn targeted_repairs_follow_each_verdict() {
    check(
        targeted_repair_run,
        &Golden {
            recoveries: 30,
            outcome: 0x6416_dece_7b83_8bcb,
            telemetry: 0x3559_b220_5615_a016,
        },
    );
}
