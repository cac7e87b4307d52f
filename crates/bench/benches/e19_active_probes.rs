//! E19: the active health observatory — the scorecard matrix re-run
//! with idle-window liveness probes, the sleep-timer deadline monitor
//! and the mode witnesses enabled, written out as `BENCH_e19.json`
//! plus the rendered before/after matrix (`BENCH_e19_matrix.txt`).
//!
//! Set `E19_QUICK=1` for the CI grid (micro-reboot layer only, 40
//! cells, workers {1, 4}, shorter probe-effect leg) instead of the
//! full 120-cell three-layer grid.
//!
//! Hard asserts: probed coverage must reach the floor *and* beat the
//! passive baseline, `sleep-timer-lost` must be detected in enough
//! workloads, the idle column must no longer be fully blind, every
//! fault-free twin must stay silent (probe false-alarm rate exactly
//! zero), the probed matrix must be byte-identical across worker
//! counts, and the observatory must pass the E15 probe-effect budget.

use chaos::experiments::e18_scorecard::cell_json;
use chaos::experiments::e19_active_probes::{e19_report, E19Config, E19Report};
use chaos::scorecard::DependabilityScorecard;
use telemetry::json::{workspace_root, write_bench_json, Json};

fn report_json(config: &E19Config, report: &E19Report, quick: bool) -> Json {
    let sc = &report.scorecard;
    let cells = |sc: &DependabilityScorecard| sc.cells.iter().map(cell_json).collect::<Vec<Json>>();
    let columns: Vec<Json> = report
        .columns
        .iter()
        .map(|col| {
            Json::object()
                .field("scenario", col.scenario.name().into())
                .field("cells", col.cells.into())
                .field("baseline_covered", col.baseline_covered.into())
                .field("probed_covered", col.probed_covered.into())
        })
        .collect();
    Json::object()
        .field("experiment", "e19_active_probes".into())
        .field("quick", quick.into())
        .field("reps", config.grid.reps.into())
        .field("scenario_len", config.grid.scenario_len.into())
        .field("hardware_threads", report.hardware_threads.into())
        .field("total_cells", sc.cells.len().into())
        .field("baseline_coverage", report.baseline_coverage.into())
        .field(
            "baseline_covered_cells",
            report.baseline.covered_cells().into(),
        )
        .field("covered_cells", sc.covered_cells().into())
        .field("partial_cells", sc.partial_cells().into())
        .field("missed_cells", sc.missed_cells().into())
        .field("detection_coverage", report.detection_coverage.into())
        .field("coverage_lift_ok", report.coverage_lift_ok.into())
        .field("idle_covered_cells", report.idle_covered_cells.into())
        .field("idle_total_cells", report.idle_total_cells.into())
        .field(
            "sleep_timer_lost_detected_workloads",
            report.sleep_timer_lost_detected_workloads.into(),
        )
        .field("sleep_timer_lost_ok", report.sleep_timer_lost_ok.into())
        .field("probe_false_alarms", sc.twin_false_alarms().into())
        .field(
            "matrix_fingerprint",
            format!("{:016x}", sc.fingerprint()).into(),
        )
        .field("matrix_deterministic", report.matrix_deterministic.into())
        .field(
            "probe_effect_within_budget",
            report.probe_effect.verdict.within_budget.into(),
        )
        .field(
            "probe_effect_overhead_fraction",
            report.probe_effect.verdict.overhead_fraction.into(),
        )
        .field(
            "probe_effect_outcomes_agree",
            report.probe_effect.outcomes_agree.into(),
        )
        .field("probe_bursts", report.probe_effect.probe_bursts.into())
        .field(
            "probe_events_recorded",
            report.probe_effect.events_recorded.into(),
        )
        .field("columns", columns.into())
        .field("cells", cells(sc).into())
        .field("baseline_cells", cells(&report.baseline).into())
}

fn main() {
    let quick = std::env::var_os("E19_QUICK").is_some();
    let config = if quick {
        E19Config::quick()
    } else {
        E19Config::full()
    };
    let report = e19_report(&config);
    println!("{report}");

    assert!(
        report.scorecard.cells.len() >= 40,
        "the probed matrix must enumerate at least 40 cells, got {}",
        report.scorecard.cells.len()
    );
    assert!(
        report.matrix_deterministic,
        "probed scorecard matrix diverged across worker counts {:?}",
        report.worker_counts
    );
    assert_eq!(
        report.scorecard.twin_false_alarms(),
        0,
        "active probes raised detections on fault-free twins"
    );
    assert!(
        report.coverage_lift_ok,
        "probed coverage {:.2} must reach the floor {:.2} and beat the passive baseline {:.2}",
        report.detection_coverage, config.coverage_floor, report.baseline_coverage
    );
    assert!(
        report.sleep_timer_lost_ok,
        "sleep-timer-lost detected in only {}/{} workloads (floor {})",
        report.sleep_timer_lost_detected_workloads,
        report.columns.len(),
        config.sleep_timer_floor
    );
    assert!(
        report.idle_covered_cells > 0,
        "the idle column is still fully blind with probes on"
    );
    assert!(
        report.probe_effect.outcomes_agree,
        "probed telemetry-on and telemetry-off arms diverged"
    );
    assert!(
        report.probe_effect.verdict.within_budget,
        "observatory blew the probe-effect budget: overhead {:.2}%",
        report.probe_effect.verdict.overhead_fraction * 100.0
    );

    let path = write_bench_json("e19", &report_json(&config, &report, quick))
        .expect("write BENCH_e19.json");
    println!("wrote {}", path.display());
    let matrix_path = workspace_root().join("BENCH_e19_matrix.txt");
    std::fs::write(&matrix_path, report.to_string()).expect("write BENCH_e19_matrix.txt");
    println!("wrote {}", matrix_path.display());
}
