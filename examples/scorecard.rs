//! The dependability scorecard: the coverage matrix, human-readable.
//!
//! Runs the scorecard grid — every TV fault class crossed with every
//! workload scenario under one or all recovery styles — and prints the
//! coverage matrix the CI gate snapshots: ✓ cells detected every rep
//! (with the p95 virtual-time MTTD), ◐ cells detected some reps, ✗
//! cells the awareness loop is blind to under that workload. The ✗
//! cells are the product: each one is a concrete detector gap with a
//! reproducing seed.
//!
//! ```sh
//! cargo run --example scorecard            # quick grid (micro-reboot)
//! cargo run --example scorecard -- full    # all three recovery styles
//! ```

use chaos::experiments::e18_scorecard::{e18_report, E18Config};

fn main() {
    let full = std::env::args().nth(1).as_deref() == Some("full");
    let config = if full {
        E18Config::full()
    } else {
        E18Config::quick()
    };
    let report = e18_report(&config);
    println!("{report}");
    println!();
    println!(
        "matrix fingerprint {:016x} ({} across workers {:?})",
        report.scorecard.fingerprint(),
        if report.matrix_deterministic {
            "stable"
        } else {
            "UNSTABLE"
        },
        report.worker_counts,
    );
    let blind: Vec<String> = report
        .scorecard
        .cells
        .iter()
        .filter(|c| c.detected() == 0)
        .map(|c| {
            format!(
                "{}/{}/{}",
                c.spec.fault.name(),
                c.spec.scenario.name(),
                c.spec.recovery.name()
            )
        })
        .collect();
    if !blind.is_empty() {
        println!(
            "\n{} blind cell(s) — detector gaps to work on:",
            blind.len()
        );
        for key in blind {
            println!("  ✗ {key}");
        }
    }
    assert_eq!(
        report.scorecard.twin_false_alarms(),
        0,
        "fault-free twins must stay silent"
    );
}
