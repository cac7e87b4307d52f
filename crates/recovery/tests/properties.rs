//! Property-based tests of the recovery framework's invariants.

use proptest::prelude::*;
use recovery::{
    CheckpointVault, CircuitBreaker, CommManager, CounterUnit, EscalationPolicy, RecoveryAction,
    RecoveryManager, RestoreOutcome, Snapshot, UnitHost, UnitMessage,
};
use simkit::{SimDuration, SimTime};

/// A non-empty snapshot built from generated (key index, bits) pairs;
/// values go through `f64::from_bits` so every bit pattern (NaN payloads
/// included) is exercised. Duplicate key indices collapse, so the result
/// may be smaller than `pairs` but never empty.
fn snapshot_from_pairs(pairs: &[(u8, u64)]) -> Snapshot {
    pairs
        .iter()
        .map(|(k, bits)| (format!("key{k}").into(), f64::from_bits(*bits)))
        .collect()
}

/// Byte-identical comparison: key-for-key, bit-for-bit (plain `==` would
/// call NaN != NaN).
fn bits_equal(a: &Snapshot, b: &Snapshot) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
}

fn msg(to: &str) -> UnitMessage {
    UnitMessage {
        to: to.into(),
        topic: "t".into(),
        value: 0.0,
        reply_to: None,
    }
}

proptest! {
    /// Message conservation: every sent message is
    /// eventually delivered or still queued — never silently lost.
    #[test]
    fn queue_policy_conserves_messages(
        ops in prop::collection::vec((0u8..3, 0u64..100), 1..100)
    ) {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("u"));
        let mut comm = CommManager::new();
        let mut manager = RecoveryManager::with_defaults();
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        for (op, gap) in ops {
            now += SimDuration::from_millis(gap);
            match op {
                0 => {
                    comm.send(&mut host, msg("u"));
                    sent += 1;
                }
                1 => {
                    // Restart (only when running, like a real manager).
                    if host.is_running("u") {
                        manager.recover(now, &mut host, RecoveryAction::RestartUnit("u".into()));
                    }
                }
                _ => {
                    let back = host.tick(now);
                    comm.flush_returned(&mut host, &back);
                }
            }
        }
        let stats = comm.stats();
        prop_assert_eq!(stats.dropped, 0, "queued messages must not drop");
        // Ledger: every one of my sends is either delivered or still
        // queued; redeliveries consume a queued entry and produce a
        // delivery (or re-queue), so they cancel out of the balance.
        prop_assert_eq!(
            stats.delivered + comm.queued_for("u") as u64,
            sent
        );
    }

    /// The circuit breaker: a success while closed always keeps it
    /// closed; `failure_threshold` consecutive failures always open it;
    /// and it never rejects while closed.
    #[test]
    fn breaker_state_machine(
        threshold in 1u32..5,
        outcomes in prop::collection::vec(any::<bool>(), 1..100)
    ) {
        let cooldown = SimDuration::from_millis(100);
        let mut b = CircuitBreaker::new(threshold, cooldown);
        let mut consecutive_failures = 0u32;
        let mut now = SimTime::ZERO;
        for &success in &outcomes {
            now += SimDuration::from_millis(1); // < cooldown: stays open
            if b.allows(now) {
                b.record(now, success);
                if success {
                    consecutive_failures = 0;
                } else {
                    consecutive_failures += 1;
                }
            } else {
                // Must only reject after enough consecutive failures.
                prop_assert!(consecutive_failures >= threshold);
            }
        }
    }

    /// Escalation policy: within a window, a unit never gets more than
    /// `max_restarts` unit-level restarts before a full restart.
    #[test]
    fn escalation_budget_respected(
        max_restarts in 1u32..4,
        failures in prop::collection::vec(0u64..5, 1..40)
    ) {
        let window = SimDuration::from_secs(1_000); // everything in-window
        let mut policy = EscalationPolicy::new(max_restarts, window);
        let mut now = SimTime::ZERO;
        let mut partial_since_escalation = 0u32;
        for gap in failures {
            now += SimDuration::from_millis(gap);
            match policy.decide(now, "u") {
                RecoveryAction::RestartUnit(_) => {
                    partial_since_escalation += 1;
                    prop_assert!(partial_since_escalation <= max_restarts);
                }
                RecoveryAction::RestartAll => {
                    partial_since_escalation = 0;
                }
            }
        }
    }

    /// Recovery outage accounting is additive: the total is the sum of
    /// the outages `recover` returned.
    #[test]
    fn outage_matches_log(actions in prop::collection::vec(0u8..2, 1..30)) {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("a"));
        host.register(CounterUnit::new("b"));
        let mut manager = RecoveryManager::with_defaults();
        let mut now = SimTime::ZERO;
        let mut returned = SimDuration::ZERO;
        for a in actions {
            now += SimDuration::from_secs(10);
            host.tick(now);
            let action = match a {
                0 => RecoveryAction::RestartUnit("a".into()),
                _ => RecoveryAction::RestartAll,
            };
            if let Some(outage) = manager.recover(now, &mut host, action) {
                returned += outage;
            }
        }
        prop_assert_eq!(returned, manager.total_outage());
    }

    /// Checkpoint round-trip: whatever bit patterns go into the sealed
    /// vault come back byte-identical from a restore — no
    /// canonicalisation, no drift.
    #[test]
    fn checkpoint_vault_round_trips_byte_identical(
        pairs in prop::collection::vec((0u8..26, any::<u64>()), 1..8)
    ) {
        let state = snapshot_from_pairs(&pairs);
        let mut vault = CheckpointVault::new(99, 4);
        vault.save("unit", SimTime::from_millis(3), state.clone());
        match vault.restore_latest("unit") {
            RestoreOutcome::Restored { state: restored, skipped, .. } => {
                prop_assert!(bits_equal(&restored, &state));
                prop_assert_eq!(skipped, 0);
            }
            other => prop_assert!(false, "expected restore, got {other:?}"),
        }
    }

    /// Eviction keeps exactly the newest `capacity` generations: count
    /// never exceeds capacity and the newest generation is always the
    /// last saved.
    #[test]
    fn eviction_keeps_newest_capacity(
        capacity in 1usize..5,
        saves in 1usize..12,
    ) {
        let mut vault = CheckpointVault::new(7, capacity);
        let mut last = 0;
        for i in 0..saves {
            let mut s = Snapshot::new();
            s.insert("v".into(), i as f64);
            last = vault.save("u", SimTime::from_millis(i as u64), s);
        }
        prop_assert_eq!(vault.count("u"), saves.min(capacity));
        prop_assert_eq!(vault.latest_generations(), vec![("u".to_string(), last)]);
        // The retained head restores to the last saved value.
        match vault.restore_latest("u") {
            RestoreOutcome::Restored { generation, state, .. } => {
                prop_assert_eq!(generation, last);
                prop_assert_eq!(state["v"], (saves - 1) as f64);
            }
            other => prop_assert!(false, "expected restore, got {other:?}"),
        }
    }

    /// Any single-bit flip in a sealed value is caught by the
    /// fingerprint: the corrupted generation is never served, and the
    /// vault falls back to the intact one underneath.
    #[test]
    fn single_bit_corruption_is_always_detected(
        bit in 0u32..64,
        pairs in prop::collection::vec((0u8..26, 0u64..1_000), 1..6)
    ) {
        let state = snapshot_from_pairs(&pairs);
        let mut vault = CheckpointVault::new(13, 4);
        vault.save("u", SimTime::from_millis(1), state.clone());
        vault.save("u", SimTime::from_millis(2), state.clone());
        prop_assert!(vault.corrupt_latest("u", bit));
        match vault.restore_latest("u") {
            RestoreOutcome::Restored { state: restored, skipped, time, .. } => {
                prop_assert_eq!(skipped, 1, "corrupt head must be skipped");
                prop_assert_eq!(time, SimTime::from_millis(1));
                prop_assert!(bits_equal(&restored, &state));
            }
            other => prop_assert!(false, "expected fallback, got {other:?}"),
        }
    }
}
