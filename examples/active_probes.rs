//! The active health observatory: one blind cell, before and after.
//!
//! E18's idle column is blind for every fault class — a fault the
//! workload never exercises never produces a comparator mismatch.
//! This example takes the canonical blind cell (`sleep-timer-lost`
//! under the idle workload) and runs it twice: passively, then with
//! the observatory on (idle-window liveness probes, the sleep-timer
//! deadline monitor, menu and swivel mode witnesses). With `-- full`
//! it re-runs the whole probed coverage matrix (the E19 experiment)
//! and prints the before/after column table.
//!
//! ```sh
//! cargo run --release --example active_probes           # one cell
//! cargo run --release --example active_probes -- full   # probed matrix
//! ```

use chaos::experiments::e19_active_probes::{e19_report, E19Config};
use chaos::scorecard::{CellSpec, RecoveryStyle, ScenarioKind};
use tvsim::TvFault;

fn cell(probes: bool) -> CellSpec {
    CellSpec {
        fault: TvFault::SleepTimerLost,
        scenario: ScenarioKind::Idle,
        recovery: RecoveryStyle::MicroReboot,
        reps: 3,
        scenario_len: 32,
        probes,
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("full") {
        let report = e19_report(&E19Config::quick());
        println!("{report}");
        return;
    }

    println!("cell: sleep-timer-lost x idle x micro-reboot (seed-derived, 3 reps + twin)\n");
    for (label, probes) in [("passive", false), ("observatory on", true)] {
        let outcome = cell(probes).run();
        println!(
            "{label:>15}: detected {}/{} reps, twin detections {}, fingerprint {:016x}",
            outcome.reps.iter().filter(|r| r.detected).count(),
            outcome.reps.len(),
            outcome.twin_detections,
            outcome.fingerprint(),
        );
    }
    println!(
        "\nThe probes arm the sleep timer in an idle window; the deadline monitor\n\
         alarms when virtual time passes the announced fire time with no power-off.\n\
         The fault-free twin runs with the same probes and stays silent — the\n\
         coverage is free. Run with `-- full` for the whole probed matrix."
    );
}
