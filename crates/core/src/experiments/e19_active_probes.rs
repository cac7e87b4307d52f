//! E19 — the active health observatory closes the scorecard's blind
//! cells (paper §4.1 observation, §6 demonstrated dependability).
//!
//! E18 revealed the coverage gaps: with passive monitoring alone, a
//! fault whose function the workload never invokes is invisible — the
//! idle column detects almost nothing, and `sleep-timer-lost` is blind
//! in four of five workloads. This experiment re-runs the full coverage
//! matrix with the observatory enabled (idle-window liveness probes,
//! the sleep-timer deadline monitor, menu and swivel mode witnesses)
//! and demands four things at once:
//!
//! 1. **Coverage lift** — detection coverage climbs from the passive
//!    baseline to at least [`E19Config::coverage_floor`], the idle
//!    column is no longer fully blind, and `sleep-timer-lost` is
//!    detected in most workloads.
//! 2. **Silent twins** — every cell's fault-free twin also runs with
//!    probes enabled and must report *zero* detections: active probing
//!    buys coverage without a single false alarm.
//! 3. **Determinism** — the probes-on matrix is byte-identical across
//!    worker counts, exactly like the passive grid.
//! 4. **Probe effect** — the E15 discipline applied to the observatory:
//!    a probed reference run with the flight recorder on must stay
//!    within the wall-clock budget of the same probed run with
//!    telemetry off, and both arms must produce identical outcomes.
//!
//! Like E18 the harness is chaos-agnostic: `chaos::scorecard` supplies
//! a closure mapping `(workers, probes)` to the grid's cell summaries.

use crate::experiments::e18_scorecard::{matrix_fingerprint, render_matrix, E18Cell};
use crate::loop_::{LoopOutcome, TvDependabilityLoop, PROBE_PLANS};
use crate::scenario::TimedScenario;
use faults::Schedule;
use observe::{BudgetVerdict, ProbeBudget};
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::fmt;
use std::time::Instant;
use telemetry::Telemetry;
use tvsim::TvFault;

/// E19 configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E19Config {
    /// Worker counts to validate probes-on matrix determinism across.
    pub worker_counts: Vec<usize>,
    /// Faulty runs per cell (base; adaptive cells extend to +2).
    pub reps: usize,
    /// Presses per run.
    pub scenario_len: usize,
    /// True selects the CI grid (micro-reboot layer only).
    pub quick: bool,
    /// Minimum probes-on detection coverage (covered / total cells).
    pub coverage_floor: f64,
    /// Workloads (of 5) in which `sleep-timer-lost` must be detected.
    pub sleep_timer_floor: usize,
    /// Probe-effect leg: presses in the probed reference scenario.
    pub effect_scenario_len: usize,
    /// Probe-effect leg: timed repetitions per arm (min is reported).
    pub effect_trials: usize,
    /// Probe-effect leg: flight-recorder ring capacity.
    pub effect_ring_capacity: usize,
    /// Probe-effect leg: wall-clock budget fraction.
    pub budget_fraction: f64,
}

impl E19Config {
    /// The full measurement: the 120-cell grid at 1/2/4/8 workers.
    pub fn full() -> Self {
        E19Config {
            worker_counts: vec![1, 2, 4, 8],
            reps: 3,
            scenario_len: 32,
            quick: false,
            coverage_floor: 0.55,
            sleep_timer_floor: 4,
            effect_scenario_len: 120,
            effect_trials: 7,
            effect_ring_capacity: 16_384,
            budget_fraction: ProbeBudget::DEFAULT_FRACTION,
        }
    }

    /// The CI measurement: the 40-cell micro-reboot layer, determinism
    /// at 1 and 4 workers, a shorter probe-effect leg.
    pub fn quick() -> Self {
        E19Config {
            worker_counts: vec![1, 4],
            quick: true,
            effect_scenario_len: 60,
            effect_trials: 5,
            effect_ring_capacity: 8_192,
            ..Self::full()
        }
    }
}

/// The probe-effect leg's result: E15's observer-must-not-degrade
/// discipline applied with the observatory active on *both* arms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeEffectLeg {
    /// The budget verdict over the min-of-trials pair.
    pub verdict: BudgetVerdict,
    /// Whether telemetry-off and telemetry-on arms produced identical
    /// probed loop outcomes.
    pub outcomes_agree: bool,
    /// Events captured by the instrumented arm's ring.
    pub events_recorded: usize,
    /// Probe bursts the instrumented arm counted across all kinds.
    pub probe_bursts: i64,
}

/// One scenario column's before/after coverage, for the idle-blindness
/// accounting and the report table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnCoverage {
    /// Scenario name.
    pub scenario: String,
    /// Cells in this column.
    pub cells: usize,
    /// Fully-covered cells with passive monitoring only.
    pub baseline_covered: usize,
    /// Fully-covered cells with the observatory enabled.
    pub probed_covered: usize,
}

/// The E19 report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E19Report {
    /// Base faulty runs per cell.
    pub reps: usize,
    /// Presses per run.
    pub scenario_len: usize,
    /// Worker counts the probed matrix was validated across.
    pub worker_counts: Vec<usize>,
    /// Hardware threads available to the sweep.
    pub hardware_threads: usize,
    /// Passive-baseline detection coverage (covered / total).
    pub baseline_coverage: f64,
    /// Passive-baseline fully-covered cells.
    pub baseline_covered_cells: usize,
    /// Probes-on fully-covered cells.
    pub covered_cells: usize,
    /// Probes-on partially-covered cells.
    pub partial_cells: usize,
    /// Probes-on blind cells.
    pub missed_cells: usize,
    /// Cells in the grid.
    pub total_cells: usize,
    /// Probes-on detection coverage (covered / total).
    pub detection_coverage: f64,
    /// True iff probed coverage reaches the floor *and* beats the
    /// passive baseline.
    pub coverage_lift_ok: bool,
    /// Per-scenario before/after column coverage.
    pub columns: Vec<ColumnCoverage>,
    /// Probes-on covered cells in the idle column.
    pub idle_covered_cells: usize,
    /// Idle-column cells in the grid.
    pub idle_total_cells: usize,
    /// Workloads (scenario columns) in which every `sleep-timer-lost`
    /// cell detected the fault in at least one rep, probes on.
    pub sleep_timer_lost_detected_workloads: usize,
    /// True iff the sleep-timer floor is met.
    pub sleep_timer_lost_ok: bool,
    /// Twin detections summed over the probed grid — the probe
    /// false-alarm count, which must be exactly zero.
    pub probe_false_alarms: u64,
    /// FNV-1a over the probed oracle pass's cell fingerprints.
    pub matrix_fingerprint: u64,
    /// True iff every worker count reproduced the probed oracle's
    /// cells exactly.
    pub matrix_deterministic: bool,
    /// The probe-effect leg.
    pub probe_effect: ProbeEffectLeg,
    /// The probed oracle pass's cells, canonical grid order.
    pub cells: Vec<E18Cell>,
    /// The passive baseline pass's cells, canonical grid order.
    pub baseline_cells: Vec<E18Cell>,
}

/// Fully-covered cells of a slice.
fn covered(cells: &[E18Cell]) -> usize {
    cells
        .iter()
        .filter(|c| c.reps > 0 && c.detected == c.reps)
        .count()
}

/// Builds the probe-effect reference loop: the E15 reference shape
/// (closed, reliable over a lossy boundary, transient sync loss plus a
/// persistent mute inversion) with the observatory switched on.
fn probed_reference_loop(telemetry: Telemetry) -> TvDependabilityLoop {
    let mut looped = TvDependabilityLoop::closed(42);
    looped.schedule_fault(
        Schedule::Between {
            from: SimTime::from_millis(250),
            to: SimTime::from_millis(350),
        },
        TvFault::TeletextSyncLoss,
    );
    looped.schedule_fault(
        Schedule::From {
            at: SimTime::from_millis(1650),
        },
        TvFault::MuteInversion,
    );
    looped.set_channel_loss(0.05);
    looped.use_reliable(true);
    looped.active_probes();
    looped.set_telemetry(telemetry);
    looped
}

fn run_effect_arm(scenario: &TimedScenario, telemetry: Telemetry) -> (u64, LoopOutcome) {
    let mut looped = probed_reference_loop(telemetry);
    let started = Instant::now();
    let outcome = looped.run(scenario);
    let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    (elapsed, outcome)
}

/// Runs the probe-effect leg (the E15 protocol: warm-up, alternated
/// arms, min-of-trials, escalation while over budget).
fn run_probe_effect(config: &E19Config) -> ProbeEffectLeg {
    let scenario = TimedScenario::teletext_session(config.effect_scenario_len);
    let trials = config.effect_trials.max(1);
    let budget = ProbeBudget::new(config.budget_fraction);

    let mut baseline_ns = u64::MAX;
    let mut instrumented_ns = u64::MAX;
    let mut baseline_outcome = None;
    let mut instrumented_outcome = None;
    let mut last_telemetry = Telemetry::off();
    let _ = run_effect_arm(&scenario, Telemetry::off());
    let _ = run_effect_arm(&scenario, Telemetry::recording(config.effect_ring_capacity));
    let max_trials = trials * 4;
    for trial in 0..max_trials {
        if trial >= trials && budget.judge(baseline_ns, instrumented_ns).within_budget {
            break;
        }
        let (off_ns, off_out) = run_effect_arm(&scenario, Telemetry::off());
        baseline_ns = baseline_ns.min(off_ns);
        baseline_outcome = Some(off_out);

        let telemetry = Telemetry::recording(config.effect_ring_capacity);
        let (on_ns, on_out) = run_effect_arm(&scenario, telemetry.clone());
        instrumented_ns = instrumented_ns.min(on_ns);
        instrumented_outcome = Some(on_out);
        last_telemetry = telemetry;
    }

    let probe_bursts = PROBE_PLANS
        .iter()
        .map(|plan| last_telemetry.counter(plan.fired))
        .sum();
    ProbeEffectLeg {
        verdict: budget.judge(baseline_ns, instrumented_ns),
        outcomes_agree: baseline_outcome == instrumented_outcome,
        events_recorded: last_telemetry.events_len(),
        probe_bursts,
    }
}

/// Runs the sweep. `grid` executes the whole coverage matrix at a given
/// `(workers, probes)` pair and returns the cell summaries in canonical
/// order (`chaos::scorecard` wires this to `run_scorecard`). The
/// passive baseline and the probed oracle both run sequentially; every
/// listed worker count must then reproduce the probed oracle exactly.
pub fn run<F>(config: &E19Config, mut grid: F) -> E19Report
where
    F: FnMut(usize, bool) -> Vec<E18Cell>,
{
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let baseline_cells = grid(1, false);
    let cells = grid(1, true);
    let mut matrix_deterministic = true;
    for &workers in &config.worker_counts {
        if workers == 1 {
            continue;
        }
        matrix_deterministic &= grid(workers, true) == cells;
    }

    let total_cells = cells.len();
    let covered_cells = covered(&cells);
    let partial_cells = cells
        .iter()
        .filter(|c| c.detected > 0 && c.detected < c.reps)
        .count();
    let missed_cells = cells.iter().filter(|c| c.detected == 0).count();
    let detection_coverage = if total_cells == 0 {
        0.0
    } else {
        covered_cells as f64 / total_cells as f64
    };
    let baseline_covered_cells = covered(&baseline_cells);
    let baseline_coverage = if baseline_cells.is_empty() {
        0.0
    } else {
        baseline_covered_cells as f64 / baseline_cells.len() as f64
    };

    let mut columns: Vec<ColumnCoverage> = Vec::new();
    for cell in &cells {
        if !columns.iter().any(|c| c.scenario == cell.scenario) {
            let in_column = |c: &&E18Cell| c.scenario == cell.scenario;
            columns.push(ColumnCoverage {
                scenario: cell.scenario.clone(),
                cells: cells.iter().filter(in_column).count(),
                baseline_covered: covered(
                    &baseline_cells
                        .iter()
                        .filter(in_column)
                        .cloned()
                        .collect::<Vec<_>>(),
                ),
                probed_covered: covered(
                    &cells.iter().filter(in_column).cloned().collect::<Vec<_>>(),
                ),
            });
        }
    }
    let (idle_covered_cells, idle_total_cells) = columns
        .iter()
        .find(|c| c.scenario == "idle")
        .map_or((0, 0), |c| (c.probed_covered, c.cells));

    // A workload counts for the sleep-timer row when every one of its
    // recovery-layer cells detected the fault in at least one rep.
    let sleep_timer_lost_detected_workloads = columns
        .iter()
        .filter(|col| {
            let layer: Vec<&E18Cell> = cells
                .iter()
                .filter(|c| c.fault == "sleep-timer-lost" && c.scenario == col.scenario)
                .collect();
            !layer.is_empty() && layer.iter().all(|c| c.detected > 0)
        })
        .count();

    E19Report {
        reps: config.reps,
        scenario_len: config.scenario_len,
        worker_counts: config.worker_counts.clone(),
        hardware_threads,
        baseline_coverage,
        baseline_covered_cells,
        covered_cells,
        partial_cells,
        missed_cells,
        total_cells,
        detection_coverage,
        coverage_lift_ok: detection_coverage >= config.coverage_floor
            && detection_coverage > baseline_coverage,
        columns,
        idle_covered_cells,
        idle_total_cells,
        sleep_timer_lost_detected_workloads,
        sleep_timer_lost_ok: sleep_timer_lost_detected_workloads >= config.sleep_timer_floor,
        probe_false_alarms: cells.iter().map(|c| c.twin_detections).sum(),
        matrix_fingerprint: matrix_fingerprint(&cells),
        matrix_deterministic,
        probe_effect: run_probe_effect(config),
        cells,
        baseline_cells,
    }
}

impl fmt::Display for E19Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E19 active health observatory: coverage {:.0}% -> {:.0}% ({} -> {} of {} cells), \
             idle column {}/{}, sleep-timer-lost in {}/5 workloads, {} probe false alarm(s), \
             fingerprint {:016x}, {}:",
            self.baseline_coverage * 100.0,
            self.detection_coverage * 100.0,
            self.baseline_covered_cells,
            self.covered_cells,
            self.total_cells,
            self.idle_covered_cells,
            self.idle_total_cells,
            self.sleep_timer_lost_detected_workloads,
            self.probe_false_alarms,
            self.matrix_fingerprint,
            if self.matrix_deterministic {
                "deterministic"
            } else {
                "NONDETERMINISTIC"
            }
        )?;
        for col in &self.columns {
            writeln!(
                f,
                "  {:<20} {:>2}/{} -> {:>2}/{}",
                col.scenario, col.baseline_covered, col.cells, col.probed_covered, col.cells
            )?;
        }
        writeln!(
            f,
            "probe effect: overhead {:.2}% ({}) | outcomes agree: {} | {} burst(s), {} event(s)",
            self.probe_effect.verdict.overhead_fraction * 100.0,
            if self.probe_effect.verdict.within_budget {
                "within budget"
            } else {
                "OVER BUDGET"
            },
            self.probe_effect.outcomes_agree,
            self.probe_effect.probe_bursts,
            self.probe_effect.events_recorded
        )?;
        let mut recoveries: Vec<&str> = Vec::new();
        for cell in &self.cells {
            if !recoveries.contains(&cell.recovery.as_str()) {
                recoveries.push(&cell.recovery);
            }
        }
        for (i, recovery) in recoveries.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}", render_matrix(&self.cells, recovery))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(fault: &str, scenario: &str, detected: usize, reps: usize) -> E18Cell {
        E18Cell {
            fault: fault.to_owned(),
            scenario: scenario.to_owned(),
            recovery: "micro-reboot".to_owned(),
            reps,
            detected,
            detection_rate: detected as f64 / reps.max(1) as f64,
            mttd_p50_ns: if detected > 0 { 1_000_000 } else { 0 },
            mttd_p95_ns: if detected > 0 { 2_000_000 } else { 0 },
            mttr_p50_ns: 0,
            mttr_p95_ns: 0,
            collateral_lost_presses: 0,
            twin_detections: 0,
            window_detections: Vec::new(),
            fingerprint: fault.len() as u64 ^ (detected as u64) << 8 ^ scenario.len() as u64,
        }
    }

    fn synthetic_grid(_workers: usize, probes: bool) -> Vec<E18Cell> {
        // Passive: only teletext detects. Probed: idle and teletext
        // detect everywhere, sleep-timer-lost in both workloads.
        let hit = |probed_hit: usize| if probes { probed_hit } else { 0 };
        vec![
            cell("sleep-timer-lost", "idle", hit(2), 2),
            cell("sleep-timer-lost", "teletext", hit(2), 2),
            cell("menu-freeze", "idle", hit(2), 2),
            cell("menu-freeze", "teletext", 2, 2),
        ]
    }

    fn config() -> E19Config {
        E19Config {
            worker_counts: vec![1, 2],
            reps: 2,
            scenario_len: 8,
            quick: true,
            coverage_floor: 0.55,
            sleep_timer_floor: 2,
            effect_scenario_len: 20,
            effect_trials: 1,
            effect_ring_capacity: 1_024,
            budget_fraction: ProbeBudget::DEFAULT_FRACTION,
        }
    }

    #[test]
    fn coverage_lift_and_columns_are_accounted() {
        let report = run(&config(), synthetic_grid);
        assert!(report.matrix_deterministic);
        assert_eq!(report.baseline_covered_cells, 1);
        assert_eq!(report.covered_cells, 4);
        assert!((report.detection_coverage - 1.0).abs() < 1e-12);
        assert!(report.coverage_lift_ok, "{report}");
        assert_eq!(report.idle_covered_cells, 2);
        assert_eq!(report.idle_total_cells, 2);
        assert_eq!(report.sleep_timer_lost_detected_workloads, 2);
        assert!(report.sleep_timer_lost_ok);
        assert_eq!(report.probe_false_alarms, 0);
        assert!(report.probe_effect.outcomes_agree, "{report}");
        assert!(report.probe_effect.probe_bursts > 0, "{report}");
    }

    #[test]
    fn worker_dependent_probed_cells_are_flagged() {
        let report = run(&config(), |workers, probes| {
            let mut cells = synthetic_grid(workers, probes);
            if probes {
                cells[0].fingerprint ^= workers as u64;
            }
            cells
        });
        assert!(!report.matrix_deterministic);
    }

    #[test]
    fn no_lift_fails_the_gate() {
        // Probes change nothing: floor unreached and no lift over the
        // baseline.
        let report = run(&config(), |w, _probes| synthetic_grid(w, false));
        assert!(!report.coverage_lift_ok, "{report}");
        assert_eq!(report.sleep_timer_lost_detected_workloads, 0);
        assert!(!report.sleep_timer_lost_ok);
    }

    #[test]
    fn display_renders_the_before_after_columns() {
        let report = run(&config(), synthetic_grid);
        let text = report.to_string();
        assert!(text.contains("E19 active health observatory"), "{text}");
        assert!(text.contains("idle"), "{text}");
        assert!(text.contains("->"), "{text}");
        assert!(text.contains("recovery: micro-reboot"), "{text}");
    }
}
