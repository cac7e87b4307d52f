//! Golden outcomes for monitor self-supervision.
//!
//! The fleet, grid and fault-storm fingerprints supervise with the
//! default watchdog bounds, so their monitors stay healthy and the
//! degraded modes never shape a comparison. These tests pin the paths
//! they leave out:
//!
//! - a starved loop: a 50 ms stall bound under random 20–80 ms press
//!   gaps, bare channels and a stuck-volume fault, so comparisons run
//!   in `Relaxed` mode and the ladder climbs to a monitor restart;
//! - an overloaded loop: any backlog counts as overload, over reliable
//!   channels that lose half their frames, so the monitor passes
//!   through `Shedding` and lands in `SafeMode` while a channel-skip
//!   fault is still active and the model still expects outputs;
//! - a starved bare monitor fed a near miss, the one place the half-unit
//!   slack that degradation grants exact specs shows (every TV
//!   observable is an integer or text).
//!
//! Each loop runs dark and with a recording flight recorder; the tests
//! pin the outcome, a fingerprint of the recorded timeline and metrics
//! readout, and check that every mode and rung the supervisor claims
//! shows on the timeline.

use trader::awareness::{
    AwarenessMonitor, ComparatorStats, CompareSpec, Configuration, MonitorBuilder, SupervisorConfig,
};
use trader::faults::Schedule;
use trader::observe::{ObsValue, Observation, ObservationKind};
use trader::simkit::{SimDuration, SimRng, SimTime};
use trader::statemachine::MachineBuilder;
use trader::telemetry::Telemetry;
use trader::tvsim::TvFault;
use trader::{ChannelAudit, LoopOutcome, TimedScenario, TvDependabilityLoop};

fn starved_run(telemetry: &Telemetry) -> LoopOutcome {
    let mut looped = TvDependabilityLoop::closed(0x0053_5441_5256);
    looped.schedule_fault(
        Schedule::Between {
            from: SimTime::from_millis(1_000),
            to: SimTime::from_millis(14_000),
        },
        TvFault::StuckVolume,
    );
    looped.supervised(SupervisorConfig {
        stall_after: SimDuration::from_millis(50),
        // Keep the breaker shut: the ladder keeps cycling below safe
        // mode, so comparisons go on in `Relaxed`.
        breaker_threshold: 1_000,
        ..SupervisorConfig::with_micro_reboot()
    });
    looped.set_telemetry(telemetry.clone());
    looped.run(&TimedScenario::random(
        300,
        SimDuration::from_millis(20),
        SimDuration::from_millis(80),
        &mut SimRng::seed(0x5354),
    ))
}

fn overloaded_run(telemetry: &Telemetry) -> LoopOutcome {
    let mut looped = TvDependabilityLoop::closed(0x004f_5645_524c);
    looped.schedule_fault(
        Schedule::Between {
            from: SimTime::from_millis(2_000),
            to: SimTime::from_millis(10_000),
        },
        TvFault::ChannelSkip,
    );
    looped.set_jitter(SimDuration::from_micros(1_500));
    looped.set_channel_loss(0.5);
    looped.use_reliable(true);
    looped.supervised(SupervisorConfig {
        overload_backlog: 0,
        // Trip the breaker before the monitor-restart rung, so the model
        // still runs in safe mode and every skipped check is visible.
        breaker_threshold: 3,
        ..SupervisorConfig::with_micro_reboot()
    });
    looped.set_telemetry(telemetry.clone());
    looped.run(&TimedScenario::full_mix_session(120))
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

/// Runs `run` dark and recorded, checks both agree, and returns the
/// outcome, the recorder, and the fingerprint of its timeline and
/// metrics readout.
fn run_twice(run: fn(&Telemetry) -> LoopOutcome) -> (LoopOutcome, Telemetry, u64) {
    let dark = run(&Telemetry::off());
    let telemetry = Telemetry::recording(1 << 16);
    let recorded = run(&telemetry);
    assert_eq!(dark, recorded, "recording telemetry changed the outcome");
    let fingerprint = fnv1a(&[
        &telemetry.events_jsonl(),
        &telemetry.metrics_json().render(),
    ]);
    (dark, telemetry, fingerprint)
}

/// The supervisor's ladder counters, cheapest rung first.
fn rungs(telemetry: &Telemetry) -> [i64; 5] {
    [
        "retries",
        "channel_restarts",
        "micro_reboots",
        "monitor_restarts",
        "safe_mode_entries",
    ]
    .map(|rung| telemetry.counter(&format!("awareness.supervisor.{rung}")))
}

/// True when the timeline records a mode transition into `mode`.
fn entered(telemetry: &Telemetry, mode: &str) -> bool {
    let to = format!("\"to\":\"{mode}\"");
    telemetry
        .events_jsonl()
        .lines()
        .any(|line| line.contains("awareness.supervisor.mode") && line.contains(&to))
}

#[test]
fn starved_loop_compares_relaxed_and_climbs_to_a_monitor_restart() {
    let (outcome, telemetry, fingerprint) = run_twice(starved_run);
    assert_eq!(
        outcome,
        LoopOutcome {
            steps: 300,
            failure_steps: 49,
            detected_errors: 28,
            recoveries: 16,
            detection_latency: Some(SimDuration::from_nanos(906_151_841)),
            fault_activations: 1,
            channels: Some(ChannelAudit {
                sent: 5,
                delivered: 5,
                lost: 0,
                in_flight: 0,
            }),
            ladder_rung: 4,
            ..LoopOutcome::default()
        }
    );
    assert_eq!(fingerprint, 0xab53_1532_ce0d_8232);

    // Rung 4 claimed: every rung up to the monitor restart fired.
    assert_eq!(rungs(&telemetry), [78, 44, 21, 13, 0]);
    assert_eq!(telemetry.counter("awareness.supervisor.stalls"), 156);
    assert_eq!(telemetry.counter("awareness.supervisor.overloads"), 0);
    assert!(entered(&telemetry, "relaxed"));
    assert!(!entered(&telemetry, "shedding"));
    assert!(!entered(&telemetry, "safe_mode"));
    assert_eq!(telemetry.counter("awareness.monitor.micro_reboots"), 21);
}

#[test]
fn overloaded_loop_sheds_then_lands_in_safe_mode() {
    let (outcome, telemetry, fingerprint) = run_twice(overloaded_run);
    assert_eq!(
        outcome,
        LoopOutcome {
            steps: 120,
            failure_steps: 101,
            detected_errors: 9,
            recoveries: 5,
            fault_activations: 1,
            channels: Some(ChannelAudit {
                sent: 156,
                delivered: 156,
                lost: 0,
                in_flight: 0,
            }),
            safe_mode_entries: 1,
            ladder_rung: 5,
            ..LoopOutcome::default()
        }
    );
    assert_eq!(fingerprint, 0x40f2_26be_28cb_0ced);

    // Rung 5 claimed: safe mode was entered, the breaker opening on
    // the way up before a monitor restart was due.
    assert_eq!(rungs(&telemetry), [9, 4, 2, 0, 1]);
    assert_eq!(telemetry.counter("awareness.supervisor.overloads"), 16);
    assert_eq!(telemetry.counter("awareness.supervisor.stalls"), 0);
    assert!(entered(&telemetry, "shedding"));
    assert!(entered(&telemetry, "safe_mode"));
    assert!(!entered(&telemetry, "relaxed"));
}

/// Presses the toggle at `at_ms`, shows `light` for it, and pumps the
/// monitor 10 ms later.
fn press_and_show(monitor: &mut AwarenessMonitor, at_ms: u64, light: f64) {
    let at = SimTime::from_millis(at_ms);
    monitor.offer(&Observation::key_press(at, "rc", "press", None));
    monitor.offer(&Observation::new(
        at,
        "suo",
        ObservationKind::Output {
            name: "light".into(),
            value: ObsValue::Num(light),
        },
    ));
    monitor.advance_to(at + SimDuration::from_millis(10));
}

#[test]
fn starved_monitor_grants_exact_specs_half_a_unit() {
    let machine = MachineBuilder::new("toggle")
        .state("off")
        .state("on")
        .initial("off")
        .output("light")
        .on("off", "press", "on", |t| t.output_const("light", 1))
        .on("on", "press", "off", |t| t.output_const("light", 0))
        .build()
        .unwrap();
    let mut monitor = MonitorBuilder::new(&machine)
        .configuration(Configuration::new().with_default_spec(CompareSpec::exact()))
        .supervised(SupervisorConfig {
            stall_after: SimDuration::from_millis(50),
            ..SupervisorConfig::with_micro_reboot()
        })
        .build();
    monitor.advance_to(SimTime::ZERO);
    // A 100 ms gap: the watchdog sees a stall and relaxes the monitor.
    monitor.advance_to(SimTime::from_millis(100));
    // 0.4 off: inside the relaxed slack, so no deviation.
    press_and_show(&mut monitor, 100, 1.4);
    // That 10 ms pump was healthy: nominal tolerances again, so the
    // same near miss is an error.
    press_and_show(&mut monitor, 110, 0.4);
    assert_eq!(
        *monitor.comparator_stats(),
        ComparatorStats {
            comparisons: 2,
            deviations: 1,
            errors: 1,
            skipped_disabled: 0,
            skipped_shed: 0,
        }
    );
    assert_eq!(monitor.errors().len(), 1);
    assert_eq!(monitor.errors()[0].time, SimTime::from_millis(110));
}
