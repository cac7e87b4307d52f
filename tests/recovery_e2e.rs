//! End-to-end recovery: units, managers, escalation, deadlock breaking.

use detect::{DeadlockDetector, Detector, WaitForGraph};
use recovery::{
    CommManager, CounterUnit, EscalationPolicy, RecoveryAction, RecoveryManager, UnitHost,
    UnitMessage,
};
use simkit::{SimDuration, SimTime};
use trader::faults::deadlock::cycle_edges;

fn msg(to: &str) -> UnitMessage {
    UnitMessage {
        to: to.into(),
        topic: "work".into(),
        value: 1.0,
        reply_to: None,
    }
}

#[test]
fn fault_detect_recover_resume_cycle() {
    let mut host = UnitHost::new();
    host.register(CounterUnit::new("audio"));
    host.register(CounterUnit::new("video"));
    let mut comm = CommManager::new();
    let mut manager = RecoveryManager::with_defaults();

    // Steady state.
    for _ in 0..10 {
        comm.send(&mut host, msg("audio"));
        comm.send(&mut host, msg("video"));
    }

    // The video unit self-reports corruption; restart it.
    let t = SimTime::from_secs(1);
    manager
        .recover(t, &mut host, RecoveryAction::RestartUnit("video".into()))
        .unwrap();
    assert!(!host.is_running("video"));
    assert!(host.is_running("audio"), "independent recovery");

    // Traffic during the restart queues.
    comm.send(&mut host, msg("video"));
    comm.send(&mut host, msg("audio"));
    assert_eq!(comm.queued_for("video"), 1);

    // Restart completes; queued traffic flows.
    let back = host.tick(t + SimDuration::from_millis(200));
    assert_eq!(back, vec!["video".to_owned()]);
    comm.flush_returned(&mut host, &back);
    assert_eq!(comm.queued_for("video"), 0);
    assert_eq!(comm.stats().dropped, 0);
    // The restarted unit lost its in-memory count (cold restart).
    assert_eq!(host.unit("video").unwrap().count, 1.0);
}

#[test]
fn escalation_ladder_ends_in_full_restart() {
    let mut host = UnitHost::new();
    host.register(CounterUnit::new("flaky"));
    host.register(CounterUnit::new("stable"));
    let mut manager = RecoveryManager::with_defaults();
    let mut policy = EscalationPolicy::new(2, SimDuration::from_secs(60));

    let mut t = SimTime::from_secs(1);
    let mut full_restarts = 0;
    for _ in 0..3 {
        let action = policy.decide(t, "flaky");
        let is_full = action == RecoveryAction::RestartAll;
        manager.recover(t, &mut host, action).unwrap();
        host.tick(t + SimDuration::from_secs(5));
        t += SimDuration::from_secs(10);
        full_restarts += u32::from(is_full);
    }
    assert_eq!(full_restarts, 1, "only the third failure escalates");
    // Outage: 2 unit restarts + 1 full restart.
    assert_eq!(
        manager.total_outage(),
        SimDuration::from_millis(200) * 2 + SimDuration::from_secs(4)
    );
}

#[test]
fn deadlock_detected_and_broken_by_kill() {
    let mut detector = DeadlockDetector::new();
    for (a, b) in cycle_edges(&["decoder", "scaler", "mixer"]) {
        detector.graph_mut().add_wait(a, b);
    }
    let errs = detector.tick(SimTime::from_millis(5));
    assert_eq!(errs.len(), 1);
    assert!(errs[0].description.contains("decoder"));

    // Recovery: kill one participant; the cycle is gone.
    detector.graph_mut().remove_task("scaler");
    assert!(detector.tick(SimTime::from_millis(6)).is_empty());
    assert!(detector.graph().find_cycle().is_none());
}

#[test]
fn graph_cycles_detected_for_arbitrary_lengths() {
    for n in 1..8usize {
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut g = WaitForGraph::new();
        for (a, b) in cycle_edges(&refs) {
            g.add_wait(a, b);
        }
        let cycle = g.find_cycle().expect("cycle must be found");
        assert_eq!(cycle.len(), n);
    }
}
