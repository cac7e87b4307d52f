//! Property tests for the active health observatory's contracts:
//!
//! 1. a probe schedule is a pure function of the window sequence —
//!    seed-deterministic at the scheduler level and worker-invariant
//!    on the scorecard grid;
//! 2. probes on a fault-free TV never change the loop's verdict — the
//!    observatory buys coverage, never false alarms;
//! 3. the deadline monitor never alarms before its armed deadline, for
//!    any timer duration, grace, and heartbeat cadence that honours
//!    the watchdog contract.
//!
//! The grid cases run a handful of short loops each, so case counts
//! stay small; the committed E19 full-grid artifact covers the
//! exhaustive corner.

use awareness::probes::{DeadlineMonitor, ProbeConfig, ProbeScheduler, SLEEP_HEARTBEAT_SOURCE};
use chaos::scorecard::{run_scorecard, RecoveryStyle, ScorecardConfig};
use observe::{ObsValue, Observation, ObservationKind};
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};
use trader::{TimedScenario, TvDependabilityLoop};

fn ms(x: u64) -> SimTime {
    SimTime::from_millis(x)
}

/// An arbitrary idle-window sequence: cumulative gaps of 30..160 ms.
fn windows() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec(30u64..160, 1..40).prop_map(|gaps| {
        let mut at = 0u64;
        gaps.iter()
            .map(|gap| {
                let w = (at, at + gap);
                at += gap;
                w
            })
            .collect()
    })
}

fn scenario(kind: usize, len: usize) -> TimedScenario {
    match kind {
        0 => TimedScenario::idle_session(len),
        1 => TimedScenario::teletext_session(len),
        2 => TimedScenario::zapping_session(len),
        _ => TimedScenario::full_mix_session(len),
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(8))]

    /// Family 1a: the scheduler itself is deterministic — two clones
    /// fed the same window sequence plan byte-identical firings, and
    /// a skipped (too-short) window never advances the rotation.
    #[test]
    fn probe_schedule_is_a_pure_function_of_the_windows(windows in windows()) {
        let mut a = ProbeScheduler::new(ProbeConfig::default());
        a.register("volume", vec!["vol_up", "vol_down"]);
        a.register("menu", vec!["menu", "back"]);
        a.register("sleep", vec!["sleep"]);
        let mut b = a.clone();
        let mut fired = 0u64;
        for &(start, end) in &windows {
            let fa = a.plan_window(ms(start), ms(end));
            let fb = b.plan_window(ms(start), ms(end));
            prop_assert_eq!(&fa, &fb, "clone schedules diverged");
            if let Some(firing) = fa {
                // The rotation index only moves when a probe fires.
                prop_assert_eq!(firing.plan as u64, fired % 3);
                fired += 1;
                // Every key (plus settle margin) fits its window.
                let last = firing.keys.last().unwrap().0;
                prop_assert!(last + SimDuration::from_millis(25) <= ms(end));
            }
        }
        prop_assert_eq!(a.fired(), fired);
    }

    /// Family 2: on a fault-free TV, an idle-time probe burst must be
    /// invisible in the loop's verdict — same zero failures, zero
    /// detections, zero recoveries as the passive run, whatever the
    /// workload shape or seed.
    #[test]
    fn probes_never_change_fault_free_verdicts(
        seed in 0u64..1_000,
        kind in 0usize..4,
        len in 8usize..24,
    ) {
        let scenario = scenario(kind, len);
        let passive = TvDependabilityLoop::closed(seed).run(&scenario);
        let mut probed_loop = TvDependabilityLoop::closed(seed);
        probed_loop.active_probes();
        let probed = probed_loop.run(&scenario);

        prop_assert_eq!(passive.failure_steps, 0);
        prop_assert_eq!(probed.failure_steps, passive.failure_steps);
        prop_assert_eq!(probed.detected_errors, passive.detected_errors);
        prop_assert_eq!(probed.recoveries, passive.recoveries);
        prop_assert_eq!(probed.detection_latency, passive.detection_latency);
        prop_assert_eq!(probed.steps, passive.steps, "probe presses must not count as steps");
    }

    /// Family 3: the deadline monitor stays quiet strictly before its
    /// armed fire deadline as long as heartbeats honour the watchdog
    /// cadence, for any timer duration and grace.
    #[test]
    fn deadline_monitor_never_alarms_before_deadline(
        minutes in 1u64..=120,
        grace_ms in 1u64..5_000,
        cadence_ms in 50u64..=290,
        armed_at in 0u64..10_000,
    ) {
        let mut monitor = DeadlineMonitor::new(
            SimDuration::from_millis(300),
            SimDuration::from_millis(grace_ms),
        );
        monitor.observe(&Observation::new(
            ms(armed_at),
            "tv",
            ObservationKind::Output {
                name: "sleep.minutes".into(),
                value: ObsValue::Num(minutes as f64),
            },
        ));
        prop_assert!(monitor.is_armed());
        let deadline = monitor.fire_deadline().unwrap();
        prop_assert_eq!(
            deadline,
            ms(armed_at) + SimDuration::from_secs(minutes * 60) + SimDuration::from_millis(grace_ms)
        );

        let mut now = ms(armed_at);
        while now <= deadline {
            monitor.observe(&Observation::new(
                now,
                SLEEP_HEARTBEAT_SOURCE,
                ObservationKind::Value { name: "sleep.heartbeat".into(), value: minutes as f64 },
            ));
            let errors = monitor.tick(now);
            prop_assert!(errors.is_empty(), "alarm at {now} before deadline {deadline}");
            now += SimDuration::from_millis(cadence_ms);
        }
        prop_assert_eq!(monitor.alarms(), 0);
        // One tick past the deadline with the timer silent: exactly the
        // missed-obligation alarm, nothing earlier.
        let errors = monitor.tick(deadline + SimDuration::from_millis(1));
        prop_assert_eq!(errors.len(), 1);
        prop_assert!(errors[0].detector.starts_with("deadline:"));
    }
}

/// Family 1b: the probed scorecard grid is worker-invariant — the same
/// cells, fingerprints, and probe schedules whether one worker or
/// eight ran the matrix. Plain test (one grid, four worker counts) so
/// the runtime stays bounded.
#[test]
fn probed_scorecard_grid_is_worker_invariant() {
    let config = ScorecardConfig {
        reps: 1,
        scenario_len: 10,
        recoveries: vec![RecoveryStyle::MicroReboot],
        probes: true,
        adaptive: false,
    };
    let oracle = run_scorecard(&config, 1);
    for workers in [2, 4, 8] {
        let again = run_scorecard(&config, workers);
        assert_eq!(again.cells.len(), oracle.cells.len());
        for (cell, expected) in again.cells.iter().zip(&oracle.cells) {
            assert_eq!(
                cell.fingerprint(),
                expected.fingerprint(),
                "cell {:?} diverged at {workers} workers",
                expected.spec
            );
        }
        assert_eq!(
            again.fingerprint(),
            oracle.fingerprint(),
            "probed grid diverged at {workers} workers"
        );
    }
}
