//! Integration test for paper Fig. 2: the awareness-framework components
//! wired across a process boundary, validated model-to-model.

use awareness::{to_obs_value, CompareSpec, Configuration, MonitorBuilder};
use observe::{ObsValue, Observation, ObservationKind};
use simkit::{SimDuration, SimTime};
use statemachine::Executor;
use trader::prelude::*;

/// The full Fig. 2 wiring survives delay, jitter *and loss* on the output
/// channel without false errors, given a suitably tuned comparator.
#[test]
fn model_to_model_with_lossy_boundary() {
    // Loss means missed comparisons; consecutive-deviation debouncing set
    // per the boundary characteristics.
    let cfg = Configuration::new().with_default_spec(CompareSpec::exact().with_max_consecutive(3));
    let mut monitor = MonitorBuilder::new(tv_spec())
        .configuration(cfg)
        .output_delay(SimDuration::from_millis(2))
        .jitter(SimDuration::from_millis(2))
        .loss(0.05)
        .seed(17)
        .build();
    let mut suo = Executor::new(tv_spec());
    suo.start();

    let scenario = TimedScenario::teletext_session(60);
    for (at, key) in scenario.presses() {
        suo.step_at(*at, &key.event());
        monitor.offer(&Observation::key_press(
            *at,
            "rc",
            key.event_name(),
            key.payload(),
        ));
        for out in suo.drain_outputs() {
            monitor.offer(&Observation::new(
                *at,
                "suo",
                ObservationKind::Output {
                    name: out.name.into(),
                    value: to_obs_value(out.value),
                },
            ));
        }
        monitor.advance_to(*at + SimDuration::from_millis(99));
    }
    assert!(
        monitor.errors().is_empty(),
        "aligned models must not raise errors: {:?}",
        monitor.errors()
    );
    assert!(monitor.comparator_stats().comparisons > 50);
}

/// Controller lifecycle: a stopped monitor ignores the world.
#[test]
fn stopped_monitor_ignores_observations() {
    let mut monitor = MonitorBuilder::new(tv_spec()).build();
    monitor.stop();
    monitor.offer(&Observation::key_press(SimTime::ZERO, "rc", "power", None));
    monitor.offer(&Observation::new(
        SimTime::ZERO,
        "suo",
        ObservationKind::Output {
            name: "volume".into(),
            value: ObsValue::Num(99.0),
        },
    ));
    monitor.advance_to(SimTime::from_millis(100));
    assert!(monitor.errors().is_empty());
    assert_eq!(monitor.comparator_stats().comparisons, 0);
}

/// The unstable-state window (IEnableCompare): while the model sits in an
/// unstable state, comparison is suspended.
#[test]
fn unstable_states_suspend_comparison() {
    use statemachine::MachineBuilder;
    let machine = MachineBuilder::new("m")
        .state("steady")
        .state("switching")
        .unstable("switching")
        .state("done")
        .initial("steady")
        .output("o")
        .on("steady", "go", "switching", |t| t.output_const("o", 1))
        .after("switching", SimDuration::from_millis(50), "done", |t| {
            t.output_const("o", 2)
        })
        .build()
        .unwrap();
    let mut monitor = MonitorBuilder::new(&machine).build();
    monitor.offer(&Observation::key_press(
        SimTime::from_millis(10),
        "rc",
        "go",
        None,
    ));
    // While switching (unstable), a wildly wrong output is ignored.
    monitor.offer(&Observation::new(
        SimTime::from_millis(20),
        "suo",
        ObservationKind::Output {
            name: "o".into(),
            value: ObsValue::Num(999.0),
        },
    ));
    monitor.advance_to(SimTime::from_millis(40));
    assert!(monitor.errors().is_empty(), "{:?}", monitor.errors());
    assert!(monitor.comparator_stats().skipped_disabled > 0);
    // After settling (stable again), deviations are reported.
    monitor.offer(&Observation::new(
        SimTime::from_millis(80),
        "suo",
        ObservationKind::Output {
            name: "o".into(),
            value: ObsValue::Num(999.0),
        },
    ));
    monitor.advance_to(SimTime::from_millis(100));
    assert_eq!(monitor.errors().len(), 1);
}
