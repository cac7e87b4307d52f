//! Block-coverage snapshots, pinned for fixed key sequences.
//!
//! Every spectrum row the diagnosis reads is a `take_coverage()`
//! snapshot, so how the TV records block hits must not change what a
//! snapshot holds. This test pins an FNV-1a fingerprint of every
//! snapshot's bitset words in the three ways the loops read coverage:
//!
//! * a take after every press (the closed loop's spectrum rows);
//! * probe-like bursts and repairs whose coverage is dropped with
//!   `reset_coverage` between takes (probe presses and repair bursts);
//! * many presses accumulated before a single take (the open loop never
//!   snapshots until the end).
//!
//! The sessions include a teletext session under the render fault that
//! executes the designated fault block.

use simkit::{SimDuration, SimRng, SimTime};
use tvsim::{Key, KeySequence, TvFault, TvSystem};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one snapshot's bitset words into a running FNV-1a hash.
fn fold_snapshot(h: &mut u64, tv: &mut TvSystem, fault_hits: &mut usize) {
    let snap = tv.take_coverage();
    if snap.is_hit(tv.bank().teletext_fault_block()) {
        *fault_hits += 1;
    }
    for w in snap.words() {
        for b in w.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The sessions every mode replays: a fault set plus a key sequence.
fn sessions() -> Vec<(Vec<TvFault>, KeySequence)> {
    let mut rng = SimRng::seed(29);
    vec![
        (
            vec![TvFault::TeletextRenderFault],
            KeySequence::teletext_scenario(27),
        ),
        (vec![], KeySequence::full_mix_scenario(48)),
        (vec![], KeySequence::zapping_scenario(20)),
        (vec![], KeySequence::idle_scenario(12)),
        (
            vec![TvFault::TeletextSyncLoss, TvFault::StuckVolume],
            KeySequence::random(80, &mut rng),
        ),
        (TvFault::ALL.to_vec(), KeySequence::random(80, &mut rng)),
    ]
}

fn fresh_tv(faults: &[TvFault]) -> TvSystem {
    let mut tv = TvSystem::new();
    for &f in faults {
        tv.inject_fault(f);
    }
    tv
}

fn at(i: usize) -> SimTime {
    SimTime::from_millis(500 * i as u64)
}

/// Mode 1: one snapshot per press, sleep-timer ticks in between, and one
/// after a final tick that fires any armed sleep timer.
fn take_every_press() -> (u64, usize, usize) {
    let (mut h, mut snaps, mut fault_hits) = (FNV_OFFSET, 0, 0);
    for (faults, seq) in sessions() {
        let mut tv = fresh_tv(&faults);
        for (i, &key) in seq.keys().iter().enumerate() {
            tv.press(at(i), key);
            fold_snapshot(&mut h, &mut tv, &mut fault_hits);
            snaps += 1;
            tv.tick(at(i) + SimDuration::from_millis(250));
        }
        // A day later any armed sleep timer has powered the set down.
        tv.tick(SimTime::from_secs(24 * 3600));
        fold_snapshot(&mut h, &mut tv, &mut fault_hits);
        snaps += 1;
    }
    (h, snaps, fault_hits)
}

/// Mode 2: every fourth press is followed by a probe-like burst and a
/// repair whose coverage is discarded before the next take.
fn reset_after_bursts() -> (u64, usize, usize) {
    let (mut h, mut snaps, mut fault_hits) = (FNV_OFFSET, 0, 0);
    for (faults, seq) in sessions() {
        let mut tv = fresh_tv(&faults);
        for (i, &key) in seq.keys().iter().enumerate() {
            tv.press(at(i), key);
            fold_snapshot(&mut h, &mut tv, &mut fault_hits);
            snaps += 1;
            if i % 4 == 3 {
                for probe in [Key::VolUp, Key::VolDown, Key::Teletext, Key::Teletext] {
                    tv.press(at(i), probe);
                }
                tv.resync_teletext(at(i));
                tv.force_audio(at(i), tv.is_muted());
                tv.reset_coverage();
            }
        }
    }
    (h, snaps, fault_hits)
}

/// Mode 3: a whole session accumulated into one snapshot, as the open
/// loop does, with a repair executed before the take.
fn accumulate_then_take() -> (u64, usize, usize) {
    let (mut h, mut snaps, mut fault_hits) = (FNV_OFFSET, 0, 0);
    for (faults, seq) in sessions() {
        let mut tv = fresh_tv(&faults);
        for (i, &key) in seq.keys().iter().enumerate() {
            tv.press(at(i), key);
        }
        tv.resync_teletext(at(seq.len()));
        fold_snapshot(&mut h, &mut tv, &mut fault_hits);
        snaps += 1;
        // An immediate second take is empty.
        assert_eq!(tv.take_coverage().count(), 0);
    }
    (h, snaps, fault_hits)
}

#[test]
fn take_after_every_press_is_pinned() {
    let (h, snaps, fault_hits) = take_every_press();
    assert_eq!(snaps, 273);
    assert!(
        fault_hits > 0,
        "the teletext session reaches the fault block"
    );
    assert_eq!(
        (h, fault_hits),
        (0xd673_dab5_9d5d_f93e, 6),
        "{h:#018x} {fault_hits}"
    );
}

#[test]
fn reset_after_probe_bursts_is_pinned() {
    let (h, snaps, fault_hits) = reset_after_bursts();
    assert_eq!(snaps, 267);
    assert!(
        fault_hits > 0,
        "the teletext session reaches the fault block"
    );
    assert_eq!(
        (h, fault_hits),
        (0xebc0_cf94_26bb_7b13, 2),
        "{h:#018x} {fault_hits}"
    );
}

#[test]
fn accumulated_sessions_are_pinned() {
    let (h, snaps, fault_hits) = accumulate_then_take();
    assert_eq!(snaps, 6);
    assert!(
        fault_hits > 0,
        "the teletext session reaches the fault block"
    );
    assert_eq!(
        (h, fault_hits),
        (0x8d8e_f097_c5f8_b4f9, 2),
        "{h:#018x} {fault_hits}"
    );
}
