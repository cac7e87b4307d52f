//! Property-based robustness tests of the TV SUO.

use observe::{BlockCoverage, CoverageRuns};
use proptest::prelude::*;
use simkit::SimTime;
use tvsim::blocks::{CoverageRecorder, FirmwareOp};
use tvsim::{Key, SyntheticCodeBank, TvFault, TvSystem, Unit, UnitState, N_BLOCKS};

fn arb_key() -> impl Strategy<Value = Key> {
    prop_oneof![
        Just(Key::Power),
        (0u8..10).prop_map(Key::Digit),
        Just(Key::VolUp),
        Just(Key::VolDown),
        Just(Key::Mute),
        Just(Key::ChannelUp),
        Just(Key::ChannelDown),
        Just(Key::Teletext),
        Just(Key::DualScreen),
        Just(Key::Menu),
        Just(Key::Ok),
        Just(Key::Back),
        Just(Key::Epg),
        Just(Key::Pip),
        Just(Key::Source),
        Just(Key::SwivelLeft),
        Just(Key::SwivelRight),
        Just(Key::Sleep),
    ]
}

fn arb_fault() -> impl Strategy<Value = TvFault> {
    prop::sample::select(TvFault::ALL.to_vec())
}

/// One event a [`CoverageRecorder`] sees.
#[derive(Debug, Clone)]
enum CovStep {
    /// A bank execution of an op on a variant.
    Exec(FirmwareOp, u32),
    /// A hand-written block hit (anywhere, bank regions and out of range
    /// included).
    Hit(u32),
    /// A snapshot.
    Take,
    /// Coverage dropped without a snapshot.
    Reset,
}

fn arb_cov_step() -> impl Strategy<Value = CovStep> {
    // Few ops and a pinned last op make repeats within one interval
    // common; the last op owns the last region.
    let op = prop_oneof![
        prop::sample::select(FirmwareOp::ALL.to_vec()),
        prop::sample::select(vec![FirmwareOp::Audio, FirmwareOp::TeletextRender]),
        Just(FirmwareOp::Housekeeping),
    ];
    // Variants within the conditional bits, and any u32 (bits at or above
    // `VARIANT_BITS` select nothing).
    let variant = prop_oneof![
        0u32..(1 << SyntheticCodeBank::VARIANT_BITS),
        any::<u32>(),
        Just(u32::MAX),
        Just(1u32 << SyntheticCodeBank::VARIANT_BITS),
    ];
    prop_oneof![
        (op, variant).prop_map(|(op, v)| CovStep::Exec(op, v)),
        (0u32..N_BLOCKS + 64).prop_map(CovStep::Hit),
        Just(CovStep::Take),
        Just(CovStep::Reset),
    ]
}

proptest! {
    /// The TV never panics and keeps its state invariants under arbitrary
    /// key sequences with arbitrary active faults.
    #[test]
    fn tv_state_invariants_hold_under_faults(
        faults in prop::collection::vec(arb_fault(), 0..4),
        keys in prop::collection::vec(arb_key(), 1..120)
    ) {
        let mut tv = TvSystem::new();
        for f in faults {
            tv.inject_fault(f);
        }
        for (i, key) in keys.iter().enumerate() {
            let at = SimTime::from_millis(50 * (i as u64 + 1));
            let obs = tv.press(at, *key);
            // Invariants, fault or no fault:
            prop_assert!((0..=100).contains(&tv.volume_level()));
            prop_assert!((1..=99).contains(&tv.channel()));
            if tv.teletext().is_on() {
                prop_assert!((100..=899).contains(&tv.teletext().page()));
            }
            prop_assert!(tv.swivel().angle().abs() <= 45);
            prop_assert!(tv.sleep_timer().minutes() <= 120);
            // No OSD focus while in standby.
            if !tv.is_on() {
                prop_assert_eq!(tv.screen_mode(), "off");
            }
            // Observations are stamped with the press time.
            for o in &obs {
                prop_assert_eq!(o.time, at);
            }
            let _ = tv.tick(at);
        }
    }

    /// One routing rule: across a press, only the unit that serves the
    /// key changes state, plus the follow-ups a live press declares — a
    /// power cycle also touches teletext and the sleep timer, and a
    /// retune re-acquires teletext while it is on. A micro-reboot replay
    /// runs the serving unit's handler alone, so a change outside this
    /// set is one a replay cannot rebuild.
    #[test]
    fn a_press_changes_only_its_serving_unit_and_declared_follow_ups(
        faults in prop::collection::vec(arb_fault(), 0..4),
        keys in prop::collection::vec(arb_key(), 1..60)
    ) {
        let mut tv = TvSystem::new();
        for f in faults {
            tv.inject_fault(f);
        }
        tv.press(SimTime::ZERO, Key::Power);
        for (i, key) in keys.iter().enumerate() {
            let at = SimTime::from_millis(50 * (i as u64 + 1));
            let mut allowed = vec![tv.serving_unit(*key)];
            match key {
                Key::Power => allowed.extend([Unit::Teletext, Unit::Sleep]),
                Key::ChannelUp | Key::ChannelDown if tv.teletext().is_on() => {
                    allowed.push(Unit::Teletext);
                }
                _ => {}
            }
            let before = Unit::ALL.map(|u| tv.unit_state(u));
            tv.press(at, *key);
            for (unit, state) in Unit::ALL.into_iter().zip(before) {
                prop_assert!(
                    allowed.contains(&unit) || tv.unit_state(unit) == state,
                    "{:?} changed {:?}; it may change only {:?}",
                    key,
                    unit,
                    allowed
                );
            }
        }
    }

    /// The full-restart fallback: restoring any unit from an empty
    /// checkpoint reboots it to the state it has in a fresh set.
    #[test]
    fn an_empty_checkpoint_restores_power_on_defaults(
        faults in prop::collection::vec(arb_fault(), 0..4),
        keys in prop::collection::vec(arb_key(), 1..60)
    ) {
        let mut tv = TvSystem::new();
        for f in faults {
            tv.inject_fault(f);
        }
        tv.press(SimTime::ZERO, Key::Power);
        for (i, key) in keys.iter().enumerate() {
            tv.press(SimTime::from_millis(50 * (i as u64 + 1)), *key);
        }
        let fresh = TvSystem::new();
        for unit in Unit::ALL {
            tv.restore_unit(unit, &UnitState::new());
            prop_assert_eq!(tv.unit_state(unit), fresh.unit_state(unit), "{:?}", unit);
        }
        prop_assert_eq!(tv.teletext(), fresh.teletext());
        prop_assert_eq!(tv.sleep_timer(), fresh.sleep_timer());
        prop_assert_eq!(tv.swivel(), fresh.swivel());
    }

    /// Coverage accounting: every press marks at least one block, and
    /// snapshots never exceed the instrumented universe.
    #[test]
    fn coverage_bounds(keys in prop::collection::vec(arb_key(), 1..60)) {
        let mut tv = TvSystem::new();
        for (i, key) in keys.iter().enumerate() {
            let at = SimTime::from_millis(10 * (i as u64 + 1));
            tv.press(at, *key);
            let snap = tv.take_coverage();
            prop_assert!(snap.count() > 0, "a press must execute code");
            prop_assert!(snap.count() <= tv.n_blocks());
        }
    }

    /// Determinism: identical scenarios produce identical observations
    /// and identical coverage.
    #[test]
    fn tv_is_deterministic(keys in prop::collection::vec(arb_key(), 1..60)) {
        let run = || {
            let mut tv = TvSystem::new();
            let mut all = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                let at = SimTime::from_millis(10 * (i as u64 + 1));
                all.extend(tv.press(at, *key));
            }
            (all, tv.take_coverage())
        };
        let (obs_a, cov_a) = run();
        let (obs_b, cov_b) = run();
        prop_assert_eq!(obs_a, obs_b);
        prop_assert_eq!(cov_a, cov_b);
    }

    /// The recorder's fold rule: logging bank executions as one variant
    /// mask per op and replaying them at the take yields exactly the
    /// snapshots eager execution into a fresh bitset does, whatever the
    /// interleaving of executions, hand-written hits, takes and resets.
    #[test]
    fn deferred_coverage_equals_eager_execution(
        steps in prop::collection::vec(arb_cov_step(), 1..48)
    ) {
        let mut rec = CoverageRecorder::default();
        let bank = *rec.bank();
        let mut eager = BlockCoverage::new(N_BLOCKS);
        for step in steps {
            match step {
                CovStep::Exec(op, v) => {
                    rec.exec(op, v);
                    bank.execute(&mut eager, op, v);
                }
                CovStep::Hit(b) => {
                    rec.hit(b);
                    eager.hit(b);
                }
                CovStep::Take => prop_assert_eq!(rec.take(), eager.snapshot_and_reset()),
                CovStep::Reset => {
                    rec.reset();
                    eager.reset();
                }
            }
        }
        prop_assert_eq!(rec.take(), eager.snapshot_and_reset());
    }

    /// The two ways to take a step's coverage agree: on twin TVs with the
    /// same faults and keys (power cycles frequent, several presses per
    /// step at times), `take_coverage_runs` yields disjoint ranges and
    /// distinct ids outside every range, which together are exactly the
    /// hits of the twin's `take_coverage` snapshot.
    #[test]
    fn coverage_runs_equal_the_snapshot(
        faults in prop::collection::vec(arb_fault(), 0..4),
        steps in prop::collection::vec(
            (prop_oneof![arb_key(), Just(Key::Power)], any::<bool>()),
            1..60
        )
    ) {
        let (mut by_runs, mut by_snapshot) = (TvSystem::new(), TvSystem::new());
        for &f in &faults {
            by_runs.inject_fault(f);
            by_snapshot.inject_fault(f);
        }
        let mut runs = CoverageRuns::default();
        let n = steps.len();
        for (i, (key, take)) in steps.into_iter().enumerate() {
            let at = SimTime::from_millis(100 * (i as u64 + 1));
            by_runs.press(at, key);
            by_snapshot.press(at, key);
            if !take && i + 1 < n {
                continue;
            }
            by_runs.take_coverage_runs(&mut runs);
            let snapshot = by_snapshot.take_coverage();
            let mut ranges = runs.ranges.clone();
            ranges.sort_by_key(|r| r.start);
            for pair in ranges.windows(2) {
                prop_assert!(pair[0].end <= pair[1].start, "overlapping {:?}", pair);
            }
            let mut ids = runs.blocks.clone();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), runs.blocks.len(), "repeated ids");
            for b in &runs.blocks {
                prop_assert!(!ranges.iter().any(|r| r.contains(b)), "{} inside a range", b);
            }
            let mut hits: Vec<u32> = ranges.into_iter().flatten().chain(ids).collect();
            hits.sort_unstable();
            prop_assert_eq!(hits, snapshot.iter_hits().collect::<Vec<_>>());
        }
    }
}
