//! Golden reports for the comparator paths the loop never takes.
//!
//! The fleet, E18 and E19 fingerprints and the loop goldens all drive
//! the monitor the closed loop's way: exact event-based specs, one
//! debounce setting, reliable or jitter-free channels. E2, E8 and F2
//! drive the rest of the comparator: non-zero thresholds, several
//! debounce depths, time-based specs, `offer_input`, and a jittery
//! boundary without the reliable protocol. This test pins those three
//! reports exactly (at the seeds `paper_tables` and the benches use) —
//! the small ones field by field, the E2 sweep by an FNV-1a fingerprint
//! of its `Debug` rendering — so a change to the monitor or the
//! comparator must leave every one of them identical.

use trader::experiments::e8_model_to_model::E8Report;
use trader::experiments::f2_framework::F2Report;
use trader::experiments::{e2_comparator, e8_model_to_model, f2_framework};

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn e2_comparator_sweep_is_pinned() {
    let report = e2_comparator::run(9);
    // Eight sweep points: max_consecutive 0/1/2/4 × threshold 0/2.
    let false_errors: Vec<usize> = report.rows.iter().map(|r| r.false_errors).collect();
    assert_eq!(false_errors, [7, 6, 1, 1, 1, 1, 0, 0], "{report}");
    assert_eq!(
        fnv1a(&format!("{report:?}")),
        0x8f6d_fea3_86de_13d0,
        "{report}"
    );
}

#[test]
fn e8_report_is_pinned() {
    let healthy_player = |model_to_model_errors| E8Report {
        model_to_model_errors,
        model_to_model_comparisons: 60,
        player_healthy_errors: 0,
        player_fault_errors: 6,
        perf_clean_timeouts: 0,
        perf_corrupt_timeouts: 19,
        late_frames: 90,
    };
    // Seed 7's jitter draw costs the model-to-model pair one false
    // error; seed 9's costs none.
    assert_eq!(e8_model_to_model::run(7), healthy_player(1));
    assert_eq!(e8_model_to_model::run(9), healthy_player(0));
}

#[test]
fn f2_report_is_pinned() {
    assert_eq!(
        f2_framework::run(4),
        F2Report {
            inputs: 40,
            comparisons: 43,
            aligned_errors: 0,
            perturbed_errors: 2,
            messages_lost: 0,
        }
    );
}
