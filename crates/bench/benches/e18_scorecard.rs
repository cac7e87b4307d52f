//! E18: the dependability scorecard — the full fault × workload ×
//! recovery coverage matrix, gated against the committed
//! `scorecard_baseline.json` and written out as `BENCH_e18.json` plus
//! the rendered matrix (`BENCH_e18_matrix.txt`) for CI artifacts.
//!
//! Set `E18_QUICK=1` for the CI grid (micro-reboot layer only, 40
//! cells, workers {1, 4}) instead of the full 120-cell three-layer
//! grid. Quick cells are byte-identical to their full-grid
//! counterparts, so both gate against the same committed baseline —
//! the quick run simply judges one layer of it.
//!
//! Set `E18_WRITE_BASELINE=1` to (re)write `scorecard_baseline.json`
//! from the current full-grid run instead of gating against it — the
//! one-time step after an *intentional* behaviour change; the diff then
//! shows reviewers exactly which cells moved.
//!
//! Hard asserts, grid size aside: the matrix must be deterministic
//! across worker counts, every fault-free twin must stay silent, and
//! the baseline verdict must report zero regressions.

use chaos::experiments::e18_scorecard::{
    baseline_json, cell_json, compare_with_baseline, e18_report, BaselineVerdict, E18Config,
    E18Report,
};
use chaos::scorecard::{CellOutcome, ScorecardConfig};
use telemetry::json::{workspace_root, write_bench_json, Json};

fn report_json(
    report: &E18Report,
    grid: &ScorecardConfig,
    quick: bool,
    verdict: &BaselineVerdict,
) -> Json {
    let sc = &report.scorecard;
    Json::object()
        .field("experiment", "e18_scorecard".into())
        .field("quick", quick.into())
        .field("reps", grid.reps.into())
        .field("scenario_len", grid.scenario_len.into())
        .field("hardware_threads", report.hardware_threads.into())
        .field("total_cells", sc.cells.len().into())
        .field("covered_cells", sc.covered_cells().into())
        .field("partial_cells", sc.partial_cells().into())
        .field("missed_cells", sc.missed_cells().into())
        .field("detection_coverage", report.detection_coverage.into())
        .field("twin_false_alarms", sc.twin_false_alarms().into())
        .field(
            "collateral_lost_presses",
            sc.cells
                .iter()
                .map(CellOutcome::collateral_lost_presses)
                .sum::<u64>()
                .into(),
        )
        .field(
            "matrix_fingerprint",
            format!("{:016x}", sc.fingerprint()).into(),
        )
        .field("matrix_deterministic", report.matrix_deterministic.into())
        .field("baseline_compared", verdict.compared.into())
        .field("scorecard_regressions", verdict.failures().into())
        .field(
            "cells",
            sc.cells.iter().map(cell_json).collect::<Vec<Json>>().into(),
        )
}

fn main() {
    let quick = std::env::var_os("E18_QUICK").is_some();
    let write_baseline = std::env::var_os("E18_WRITE_BASELINE").is_some();
    let config = if quick {
        E18Config::quick()
    } else {
        E18Config::full()
    };
    let report = e18_report(&config);
    println!("{report}");

    let cells = &report.scorecard.cells;
    assert!(
        cells.len() >= 40,
        "the matrix must enumerate at least 40 cells, got {}",
        cells.len()
    );
    assert!(
        report.matrix_deterministic,
        "scorecard matrix diverged across worker counts {:?}",
        report.worker_counts
    );
    assert_eq!(
        report.scorecard.twin_false_alarms(),
        0,
        "fault-free twin cells reported detections — false alarms"
    );

    let baseline_path = workspace_root().join("scorecard_baseline.json");
    if write_baseline {
        assert!(!quick, "write the baseline from the full grid only");
        std::fs::write(
            &baseline_path,
            baseline_json(&report.scorecard).render() + "\n",
        )
        .expect("write scorecard_baseline.json");
        println!("wrote {}", baseline_path.display());
    }
    let verdict = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            let baseline = Json::parse(&text).expect("scorecard_baseline.json is valid JSON");
            // The quick grid covers one recovery layer of the full
            // baseline; only a full run can vouch for every cell.
            compare_with_baseline(cells, &baseline, !quick)
        }
        Err(_) => {
            println!(
                "no {} — baseline gate skipped (run with E18_WRITE_BASELINE=1 to create it)",
                baseline_path.display()
            );
            BaselineVerdict {
                compared: 0,
                regressions: Vec::new(),
                missing: Vec::new(),
            }
        }
    };
    if verdict.compared > 0 {
        println!(
            "baseline gate: {} cell(s) compared, {} regression(s)",
            verdict.compared,
            verdict.failures()
        );
    }
    for line in verdict.regressions.iter().chain(verdict.missing.iter()) {
        eprintln!("  REGRESSION {line}");
    }

    let path = write_bench_json("e18", &report_json(&report, &config.grid, quick, &verdict))
        .expect("write BENCH_e18.json");
    println!("wrote {}", path.display());
    let matrix_path = workspace_root().join("BENCH_e18_matrix.txt");
    std::fs::write(&matrix_path, report.to_string()).expect("write BENCH_e18_matrix.txt");
    println!("wrote {}", matrix_path.display());

    assert_eq!(
        verdict.failures(),
        0,
        "scorecard regressed beyond the committed tolerance bands"
    );
}
