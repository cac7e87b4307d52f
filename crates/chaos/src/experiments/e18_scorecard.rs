//! E18 — the dependability scorecard (paper §6: "demonstrate
//! dependability", not just engineer it).
//!
//! Where E16 compares recovery styles on one fault and E17 measures how
//! fast campaign populations execute, E18 asks the coverage question:
//! across **every** fault class × workload scenario × recovery style,
//! does the awareness loop detect the fault, how fast, at what
//! collateral cost — and does the fault-free twin of every cell stay
//! silent? The harness runs the [`crate::scorecard`] grid through a
//! closure mapping a worker count to the folded scorecard
//! ([`e18_report`] wires it to [`run_scorecard`]), and:
//!
//! * runs the sequential pass (1 worker) first as the oracle,
//! * re-runs the grid at every configured worker count and requires the
//!   matrix fingerprints to be **equal** — the matrix analogue of the
//!   fleet fingerprint invariant ([`E18Report::matrix_deterministic`]),
//! * renders the human-readable coverage matrix (✓ detected with p95
//!   MTTD, ◐ partial, ✗ missed) from the oracle's coverage accounting.
//!
//! The committed `scorecard_baseline.json` plus
//! [`compare_with_baseline`] turn the report into a CI gate: any cell
//! regressing beyond its tolerance band (detection rate drop, MTTD/MTTR
//! p95 inflation, any twin false alarm) fails the build loudly.

use serde::{Deserialize, Serialize};
use std::fmt;
use telemetry::json::Json;
use trader::report::render_table;

use crate::scorecard::{
    run_scorecard, CellOutcome, DependabilityScorecard, RecoveryStyle, ScorecardConfig,
};

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E18Config {
    /// Worker counts to validate matrix determinism across.
    pub worker_counts: Vec<usize>,
    /// The grid shape.
    pub grid: ScorecardConfig,
}

impl E18Config {
    /// The full grid: 120 cells, determinism checked at 1/2/4/8
    /// workers.
    pub fn full() -> Self {
        E18Config {
            worker_counts: vec![1, 2, 4, 8],
            grid: ScorecardConfig::full(),
        }
    }

    /// The CI grid: 40 cells (micro-reboot layer only), determinism
    /// checked at 1 and 4 workers. Its cells are byte-identical to
    /// their full-grid counterparts, so both gate against one baseline.
    pub fn quick() -> Self {
        E18Config {
            worker_counts: vec![1, 4],
            grid: ScorecardConfig::quick(),
        }
    }
}

/// The E18 report: the oracle pass's scorecard and the matrix
/// determinism verdict.
#[derive(Debug, Clone)]
pub struct E18Report {
    /// Worker counts the matrix was validated across.
    pub worker_counts: Vec<usize>,
    /// Hardware threads available to the sweep.
    pub hardware_threads: usize,
    /// The sequential oracle pass, cells in canonical grid order.
    pub scorecard: DependabilityScorecard,
    /// Covered cells over all cells of the oracle pass.
    pub detection_coverage: f64,
    /// True iff every worker count reproduced the oracle's matrix
    /// fingerprint.
    pub matrix_deterministic: bool,
}

/// Fully-covered cells over all cells (0.0 for an empty grid).
pub(crate) fn detection_coverage(scorecard: &DependabilityScorecard) -> f64 {
    if scorecard.cells.is_empty() {
        0.0
    } else {
        scorecard.covered_cells() as f64 / scorecard.cells.len() as f64
    }
}

/// True iff every listed worker count other than 1 reproduces the
/// sequential `oracle`'s matrix fingerprint.
pub(crate) fn reproduces(
    oracle: &DependabilityScorecard,
    worker_counts: &[usize],
    mut grid: impl FnMut(usize) -> DependabilityScorecard,
) -> bool {
    let fingerprint = oracle.fingerprint();
    worker_counts
        .iter()
        .filter(|&&workers| workers != 1)
        .all(|&workers| grid(workers).fingerprint() == fingerprint)
}

/// Runs the sweep over `grid`, a function executing the whole coverage
/// matrix at a given worker count ([`e18_report`] wires it to
/// [`run_scorecard`]; tests substitute a fake).
///
/// The sequential pass always runs first as the oracle, even when
/// `worker_counts` does not list 1; every listed worker count must then
/// reproduce the oracle's matrix fingerprint for
/// [`matrix_deterministic`](E18Report::matrix_deterministic) to hold.
pub fn run<F>(config: &E18Config, mut grid: F) -> E18Report
where
    F: FnMut(usize) -> DependabilityScorecard,
{
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scorecard = grid(1);
    let matrix_deterministic = reproduces(&scorecard, &config.worker_counts, grid);
    E18Report {
        worker_counts: config.worker_counts.clone(),
        hardware_threads,
        detection_coverage: detection_coverage(&scorecard),
        scorecard,
        matrix_deterministic,
    }
}

/// Runs the E18 coverage-matrix sweep over the scorecard grid.
pub fn e18_report(config: &E18Config) -> E18Report {
    run(config, |workers| run_scorecard(&config.grid, workers))
}

/// Every recovery layer present in `cells`, in order of first
/// appearance, rendered by [`render_matrix`] one after another.
pub(crate) fn render_layers(cells: &[CellOutcome]) -> String {
    let mut recoveries = Vec::new();
    for cell in cells {
        if !recoveries.contains(&cell.spec.recovery) {
            recoveries.push(cell.spec.recovery);
        }
    }
    let layers: Vec<String> = recoveries
        .into_iter()
        .map(|recovery| render_matrix(cells, recovery))
        .collect();
    layers.join("\n")
}

/// Renders one recovery layer of the coverage matrix: fault rows ×
/// scenario columns, each cell `✓ <p95 MTTD>` when every rep detected,
/// `◐ d/r` when some did, `✗` when none did (`!n` flags twin false
/// alarms — there should never be any).
pub fn render_matrix(cells: &[CellOutcome], recovery: RecoveryStyle) -> String {
    let layer: Vec<&CellOutcome> = cells
        .iter()
        .filter(|c| c.spec.recovery == recovery)
        .collect();
    let mut faults: Vec<&str> = Vec::new();
    let mut scenarios: Vec<&str> = Vec::new();
    for cell in &layer {
        if !faults.contains(&cell.spec.fault.name()) {
            faults.push(cell.spec.fault.name());
        }
        if !scenarios.contains(&cell.spec.scenario.name()) {
            scenarios.push(cell.spec.scenario.name());
        }
    }
    let mut header: Vec<&str> = vec!["fault \\ scenario"];
    header.extend(scenarios.iter());
    let rows: Vec<Vec<String>> = faults
        .iter()
        .map(|fault| {
            let mut row = vec![(*fault).to_owned()];
            for scenario in &scenarios {
                let cell = layer
                    .iter()
                    .find(|c| c.spec.fault.name() == *fault && c.spec.scenario.name() == *scenario);
                row.push(match cell {
                    None => "·".to_owned(),
                    Some(c) => {
                        let mut text = if c.covered() {
                            format!("✓ {:.1}ms", c.mttd_percentile_ns(0.95) as f64 / 1e6)
                        } else if c.detected() > 0 {
                            format!("◐ {}/{}", c.detected(), c.reps.len())
                        } else {
                            "✗".to_owned()
                        };
                        if c.twin_detections > 0 {
                            text.push_str(&format!(" !{}", c.twin_detections));
                        }
                        text
                    }
                });
            }
            row
        })
        .collect();
    format!(
        "recovery: {}\n{}",
        recovery.name(),
        render_table(&header, &rows)
    )
}

impl fmt::Display for E18Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sc = &self.scorecard;
        writeln!(
            f,
            "E18 dependability scorecard: {} cells ({} covered, {} partial, {} missed, \
             coverage {:.0}%), {} twin false alarm(s), fingerprint {:016x}, {}:",
            sc.cells.len(),
            sc.covered_cells(),
            sc.partial_cells(),
            sc.missed_cells(),
            self.detection_coverage * 100.0,
            sc.twin_false_alarms(),
            sc.fingerprint(),
            if self.matrix_deterministic {
                "deterministic"
            } else {
                "NONDETERMINISTIC"
            }
        )?;
        write!(f, "{}", render_layers(&sc.cells))
    }
}

/// Per-metric tolerance band for the baseline gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerance {
    /// Allowed absolute drop in a cell's detection rate.
    pub detection_rate_drop: f64,
    /// Allowed multiplicative inflation of MTTD p95.
    pub mttd_p95_inflate: f64,
    /// Allowed multiplicative inflation of MTTR p95.
    pub mttr_p95_inflate: f64,
}

impl Default for Tolerance {
    /// The default band: no detection-rate drop at all (the grid is
    /// bit-deterministic, so any drop is a real behaviour change) and
    /// 50% headroom on latency percentiles for intentional recovery
    /// retuning.
    fn default() -> Self {
        Tolerance {
            detection_rate_drop: 0.0,
            mttd_p95_inflate: 1.5,
            mttr_p95_inflate: 1.5,
        }
    }
}

impl Tolerance {
    fn from_json(json: &Json, base: Tolerance) -> Tolerance {
        let f = |key: &str, fallback: f64| json.get(key).and_then(Json::as_f64).unwrap_or(fallback);
        Tolerance {
            detection_rate_drop: f("detection_rate_drop", base.detection_rate_drop),
            mttd_p95_inflate: f("mttd_p95_inflate", base.mttd_p95_inflate),
            mttr_p95_inflate: f("mttr_p95_inflate", base.mttr_p95_inflate),
        }
    }
}

/// The baseline gate's verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineVerdict {
    /// Cells compared against a baseline entry.
    pub compared: usize,
    /// Human-readable regression descriptions (empty = gate passes).
    pub regressions: Vec<String>,
    /// Baseline cells absent from the current run (counted as
    /// regressions — a vanished cell is silent coverage loss).
    pub missing: Vec<String>,
}

impl BaselineVerdict {
    /// True iff no regression and nothing missing.
    pub fn passes(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Total failure count (`regressions + missing`) — the number CI
    /// greps for as `"scorecard_regressions"`.
    pub fn failures(&self) -> usize {
        self.regressions.len() + self.missing.len()
    }
}

/// Compares `cells` against a parsed `scorecard_baseline.json`.
///
/// Baseline format: `{"format": "scorecard-baseline-v1", "tolerance":
/// {...}, "class_tolerance": {"<fault>": {...}}, "cells": [...]}` where
/// each baseline cell carries the coordinate names and metrics
/// [`cell_json`] writes. Per-fault-class entries in `class_tolerance` override
/// the global band. Rules per matched cell:
///
/// * `detection_rate >= baseline - detection_rate_drop`,
/// * when both runs detected: `mttd_p95 <= baseline * mttd_p95_inflate`
///   (and likewise MTTR when both rebooted),
/// * `twin_detections == 0`, always — false alarms have no tolerance.
///
/// With `require_all`, baseline cells with no current counterpart land
/// in [`BaselineVerdict::missing`] (a vanished cell is silent coverage
/// loss); without it they are skipped — the CI quick grid runs one
/// recovery layer against the committed full-grid baseline and only its
/// own cells are judged. Current cells not in the baseline are always
/// ignored (new cells are new evidence, not regressions).
pub fn compare_with_baseline(
    cells: &[CellOutcome],
    baseline: &Json,
    require_all: bool,
) -> BaselineVerdict {
    let global = baseline
        .get("tolerance")
        .map_or_else(Tolerance::default, |t| {
            Tolerance::from_json(t, Tolerance::default())
        });
    let class_tolerance = baseline.get("class_tolerance");
    let tolerance_for = |fault: &str| -> Tolerance {
        class_tolerance
            .and_then(|c| c.get(fault))
            .map_or(global, |t| Tolerance::from_json(t, global))
    };

    let mut verdict = BaselineVerdict {
        compared: 0,
        regressions: Vec::new(),
        missing: Vec::new(),
    };
    let baseline_cells = baseline.get("cells").map_or(&[][..], |c| c.items());
    for base in baseline_cells {
        let (Some(fault), Some(scenario), Some(recovery)) = (
            base.get("fault").and_then(Json::as_str),
            base.get("scenario").and_then(Json::as_str),
            base.get("recovery").and_then(Json::as_str),
        ) else {
            verdict
                .missing
                .push("baseline cell without coordinates".to_owned());
            continue;
        };
        let key = format!("{fault}/{scenario}/{recovery}");
        let Some(cell) = cells.iter().find(|c| {
            c.spec.fault.name() == fault
                && c.spec.scenario.name() == scenario
                && c.spec.recovery.name() == recovery
        }) else {
            if require_all {
                verdict.missing.push(key);
            }
            continue;
        };
        verdict.compared += 1;
        let tol = tolerance_for(fault);

        let base_rate = base
            .get("detection_rate")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let detection_rate = cell.detection_rate();
        if detection_rate < base_rate - tol.detection_rate_drop - 1e-9 {
            verdict.regressions.push(format!(
                "{key}: detection rate {:.2} fell below baseline {:.2} (tolerance -{:.2})",
                detection_rate, base_rate, tol.detection_rate_drop
            ));
        }
        let base_mttd = base.get("mttd_p95_ns").and_then(Json::as_u64).unwrap_or(0);
        let mttd_p95 = cell.mttd_percentile_ns(0.95);
        if base_mttd > 0
            && mttd_p95 > 0
            && mttd_p95 as f64 > base_mttd as f64 * tol.mttd_p95_inflate
        {
            verdict.regressions.push(format!(
                "{key}: MTTD p95 {}ns exceeds baseline {}ns × {:.2}",
                mttd_p95, base_mttd, tol.mttd_p95_inflate
            ));
        }
        let base_mttr = base.get("mttr_p95_ns").and_then(Json::as_u64).unwrap_or(0);
        let mttr_p95 = cell.mttr_percentile_ns(0.95);
        if base_mttr > 0
            && mttr_p95 > 0
            && mttr_p95 as f64 > base_mttr as f64 * tol.mttr_p95_inflate
        {
            verdict.regressions.push(format!(
                "{key}: MTTR p95 {}ns exceeds baseline {}ns × {:.2}",
                mttr_p95, base_mttr, tol.mttr_p95_inflate
            ));
        }
        if cell.twin_detections > 0 {
            verdict.regressions.push(format!(
                "{key}: {} false alarm(s) on the fault-free twin",
                cell.twin_detections
            ));
        }
    }
    verdict
}

/// One cell as JSON: its coordinate names and every metric the
/// baseline gate compares — the cell record of both the committed
/// baseline and `BENCH_e18.json`.
pub fn cell_json(cell: &CellOutcome) -> Json {
    let windows: Vec<Json> = cell
        .reps
        .iter()
        .map(|rep| {
            Json::object()
                .field("window_from", rep.window_from.into())
                .field("detected", rep.detected.into())
        })
        .collect();
    Json::object()
        .field("fault", cell.spec.fault.name().into())
        .field("scenario", cell.spec.scenario.name().into())
        .field("recovery", cell.spec.recovery.name().into())
        .field("reps", cell.reps.len().into())
        .field("detected", cell.detected().into())
        .field("detection_rate", cell.detection_rate().into())
        .field("mttd_p50_ns", cell.mttd_percentile_ns(0.50).into())
        .field("mttd_p95_ns", cell.mttd_percentile_ns(0.95).into())
        .field("mttr_p50_ns", cell.mttr_percentile_ns(0.50).into())
        .field("mttr_p95_ns", cell.mttr_percentile_ns(0.95).into())
        .field(
            "collateral_lost_presses",
            cell.collateral_lost_presses().into(),
        )
        .field("twin_detections", cell.twin_detections.into())
        .field("window_detections", windows.into())
        .field("fingerprint", format!("{:016x}", cell.fingerprint()).into())
}

/// Renders a scorecard as the committed baseline document.
pub fn baseline_json(scorecard: &DependabilityScorecard) -> Json {
    let cells: Vec<Json> = scorecard.cells.iter().map(cell_json).collect();
    Json::object()
        .field("format", "scorecard-baseline-v1".into())
        .field(
            "tolerance",
            Json::object()
                .field("detection_rate_drop", 0.0.into())
                .field("mttd_p95_inflate", 1.5.into())
                .field("mttr_p95_inflate", 1.5.into()),
        )
        .field("class_tolerance", Json::object())
        .field(
            "matrix_fingerprint",
            format!("{:016x}", scorecard.fingerprint()).into(),
        )
        .field("cells", cells.into())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scorecard::{CellSpec, RepResult, ScenarioKind};
    use simkit::SimDuration;
    use telemetry::MetricsRegistry;
    use tvsim::TvFault;

    /// A fake micro-reboot cell: `detected` of `reps` reps detect, each
    /// after 2 ms.
    pub(crate) fn cell(
        fault: TvFault,
        scenario: ScenarioKind,
        detected: usize,
        reps: usize,
    ) -> CellOutcome {
        let spec = CellSpec {
            fault,
            scenario,
            recovery: RecoveryStyle::MicroReboot,
            reps,
            scenario_len: 8,
            probes: false,
            adaptive: false,
        };
        let mut metrics = MetricsRegistry::new();
        let reps = (0..reps)
            .map(|rep| {
                let hit = rep < detected;
                let mttd = hit.then(|| SimDuration::from_millis(2));
                if let Some(mttd) = mttd {
                    metrics.observe("scorecard.mttd_ns", mttd.as_nanos());
                }
                RepResult {
                    seed: spec.seed(rep),
                    window_from: spec.window_from(rep),
                    detected: hit,
                    mttd,
                    mttr: None,
                    collateral_lost_presses: 0,
                    micro_reboots: 0,
                    full_restarts: 0,
                    failure_steps: 0,
                    ladder_rung: 0,
                }
            })
            .collect();
        CellOutcome {
            spec,
            reps,
            twin_detections: 0,
            stress: None,
            metrics,
        }
    }

    fn synthetic_grid(workers: usize) -> DependabilityScorecard {
        let _ = workers; // must NOT leak into the cells
        DependabilityScorecard {
            cells: vec![
                cell(TvFault::StuckVolume, ScenarioKind::Idle, 2, 2),
                cell(TvFault::StuckVolume, ScenarioKind::Teletext, 1, 2),
                cell(TvFault::MenuFreeze, ScenarioKind::Idle, 0, 2),
                cell(TvFault::MenuFreeze, ScenarioKind::Teletext, 2, 2),
            ],
            workers: 1,
        }
    }

    fn config() -> E18Config {
        E18Config {
            worker_counts: vec![1, 2],
            grid: ScorecardConfig::quick(),
        }
    }

    /// Doubles a cell's slowest detection: one more MTTD sample at 4 ms.
    fn slow_down(cell: &mut CellOutcome) {
        cell.metrics.observe("scorecard.mttd_ns", 4_000_000);
    }

    #[test]
    fn coverage_accounting_partitions_the_cells() {
        let report = run(&config(), synthetic_grid);
        assert!(report.matrix_deterministic);
        let sc = &report.scorecard;
        assert_eq!(sc.cells.len(), 4);
        assert_eq!(sc.covered_cells(), 2);
        assert_eq!(sc.partial_cells(), 1);
        assert_eq!(sc.missed_cells(), 1);
        assert!((report.detection_coverage - 0.5).abs() < 1e-12);
        assert_eq!(sc.twin_false_alarms(), 0);
    }

    #[test]
    fn worker_dependent_cells_are_flagged() {
        let report = run(&config(), |workers| {
            let mut scorecard = synthetic_grid(workers);
            scorecard.cells[0].reps[0].seed ^= workers as u64;
            scorecard
        });
        assert!(!report.matrix_deterministic);
    }

    #[test]
    fn display_renders_the_matrix() {
        let report = run(&config(), synthetic_grid);
        let text = report.to_string();
        assert!(text.contains("recovery: micro-reboot"), "{text}");
        assert!(text.contains("✓"), "{text}");
        assert!(text.contains("◐ 1/2"), "{text}");
        assert!(text.contains("✗"), "{text}");
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let width = lines[1].chars().count();
        assert!(
            lines.iter().skip(1).all(|l| l.chars().count() == width),
            "matrix misaligned:\n{text}"
        );
    }

    #[test]
    fn baseline_round_trip_passes_its_own_gate() {
        let report = run(&config(), synthetic_grid);
        let baseline = baseline_json(&report.scorecard).render();
        let parsed = Json::parse(&baseline).expect("baseline renders valid JSON");
        let verdict = compare_with_baseline(&report.scorecard.cells, &parsed, true);
        assert!(verdict.passes(), "{:?}", verdict);
        assert_eq!(verdict.compared, 4);
        assert_eq!(verdict.failures(), 0);
    }

    #[test]
    fn detection_drop_and_twin_alarms_regress() {
        let report = run(&config(), synthetic_grid);
        let baseline = Json::parse(&baseline_json(&report.scorecard).render()).unwrap();
        let mut cells = report.scorecard.cells.clone();
        for rep in &mut cells[0].reps {
            rep.detected = false;
        }
        cells[3].twin_detections = 2;
        let verdict = compare_with_baseline(&cells, &baseline, true);
        assert_eq!(verdict.failures(), 2, "{:?}", verdict);
        assert!(verdict.regressions[0].contains("detection rate"));
        assert!(verdict.regressions[1].contains("false alarm"));
    }

    #[test]
    fn latency_inflation_beyond_band_regresses() {
        let report = run(&config(), synthetic_grid);
        let baseline = Json::parse(&baseline_json(&report.scorecard).render()).unwrap();
        let mut cells = report.scorecard.cells.clone();
        slow_down(&mut cells[0]); // 2.0× > the 1.5× band
        let verdict = compare_with_baseline(&cells, &baseline, true);
        assert_eq!(verdict.failures(), 1, "{:?}", verdict);
        assert!(verdict.regressions[0].contains("MTTD p95"));
    }

    #[test]
    fn class_tolerance_overrides_the_global_band() {
        let report = run(&config(), synthetic_grid);
        let mut doc = baseline_json(&report.scorecard).render();
        doc = doc.replace(
            "\"class_tolerance\":{}",
            "\"class_tolerance\":{\"stuck-volume\":{\"mttd_p95_inflate\":3.0}}",
        );
        let baseline = Json::parse(&doc).unwrap();
        let mut cells = report.scorecard.cells.clone();
        slow_down(&mut cells[0]); // within the per-class 3.0× band
        assert!(compare_with_baseline(&cells, &baseline, true).passes());
        slow_down(&mut cells[3]); // menu-freeze keeps the global 1.5×
        assert_eq!(compare_with_baseline(&cells, &baseline, true).failures(), 1);
    }

    #[test]
    fn vanished_cells_count_as_missing() {
        let report = run(&config(), synthetic_grid);
        let baseline = Json::parse(&baseline_json(&report.scorecard).render()).unwrap();
        let cells = report.scorecard.cells[1..].to_vec();
        let verdict = compare_with_baseline(&cells, &baseline, true);
        assert_eq!(verdict.missing.len(), 1);
        assert!(!verdict.passes());
    }
}
