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
//! Like E18 the harness runs the [`crate::scorecard`] grid through a
//! closure, here mapping `(workers, probes)` to the folded scorecard
//! ([`e19_report`] wires it to [`run_scorecard`]).

use faults::Schedule;
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::fmt;
use std::time::Instant;
use telemetry::Telemetry;
use trader::observe::{BudgetVerdict, ProbeBudget};
use trader::{LoopOutcome, TimedScenario, TvDependabilityLoop};
use tvsim::TvFault;

use crate::experiments::e18_scorecard::{detection_coverage, render_layers, reproduces};
use crate::scorecard::{run_scorecard, DependabilityScorecard, ScenarioKind, ScorecardConfig};

/// E19 configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E19Config {
    /// Worker counts to validate probes-on matrix determinism across.
    pub worker_counts: Vec<usize>,
    /// The grid shape; the sweep runs it once passive and once probed,
    /// whatever `grid.probes` says.
    pub grid: ScorecardConfig,
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
            grid: ScorecardConfig::full(),
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
            grid: ScorecardConfig::quick(),
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
    /// Probe bursts the instrumented arm fired across all kinds (the
    /// samples in its `core.probes.latency_ns` histogram: one per
    /// burst).
    pub probe_bursts: u64,
}

/// One scenario column's before/after coverage, for the idle-blindness
/// accounting and the report table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnCoverage {
    /// The scenario column.
    pub scenario: ScenarioKind,
    /// Cells in this column.
    pub cells: usize,
    /// Fully-covered cells with passive monitoring only.
    pub baseline_covered: usize,
    /// Fully-covered cells with the observatory enabled.
    pub probed_covered: usize,
}

/// The E19 report.
#[derive(Debug, Clone)]
pub struct E19Report {
    /// Worker counts the probed matrix was validated across.
    pub worker_counts: Vec<usize>,
    /// Hardware threads available to the sweep.
    pub hardware_threads: usize,
    /// The passive baseline pass (sequential), canonical grid order.
    pub baseline: DependabilityScorecard,
    /// The probed oracle pass (sequential), canonical grid order.
    pub scorecard: DependabilityScorecard,
    /// Passive-baseline detection coverage (covered / total).
    pub baseline_coverage: f64,
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
    /// True iff every worker count reproduced the probed oracle's
    /// matrix fingerprint.
    pub matrix_deterministic: bool,
    /// The probe-effect leg.
    pub probe_effect: ProbeEffectLeg,
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

    let probe_bursts = last_telemetry
        .snapshot_metrics()
        .histogram("core.probes.latency_ns")
        .map_or(0, |h| h.count());
    ProbeEffectLeg {
        verdict: budget.judge(baseline_ns, instrumented_ns),
        outcomes_agree: baseline_outcome == instrumented_outcome,
        events_recorded: last_telemetry.events_len(),
        probe_bursts,
    }
}

/// Runs the sweep. `grid` executes the whole coverage matrix at a given
/// `(workers, probes)` pair ([`e19_report`] wires it to
/// [`run_scorecard`]; tests substitute a fake). The passive baseline
/// and the probed oracle both run sequentially; every listed worker
/// count must then reproduce the probed oracle's matrix fingerprint.
pub fn run<F>(config: &E19Config, mut grid: F) -> E19Report
where
    F: FnMut(usize, bool) -> DependabilityScorecard,
{
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let baseline = grid(1, false);
    let scorecard = grid(1, true);
    let matrix_deterministic = reproduces(&scorecard, &config.worker_counts, |workers| {
        grid(workers, true)
    });
    let baseline_coverage = detection_coverage(&baseline);
    let detection_coverage = detection_coverage(&scorecard);

    let covered_in = |sc: &DependabilityScorecard, scenario: ScenarioKind| {
        sc.cells
            .iter()
            .filter(|c| c.spec.scenario == scenario && c.covered())
            .count()
    };
    let columns: Vec<ColumnCoverage> = ScenarioKind::ALL
        .into_iter()
        .map(|scenario| ColumnCoverage {
            scenario,
            cells: scorecard
                .cells
                .iter()
                .filter(|c| c.spec.scenario == scenario)
                .count(),
            baseline_covered: covered_in(&baseline, scenario),
            probed_covered: covered_in(&scorecard, scenario),
        })
        .filter(|col| col.cells > 0)
        .collect();
    let (idle_covered_cells, idle_total_cells) = columns
        .iter()
        .find(|c| c.scenario == ScenarioKind::Idle)
        .map_or((0, 0), |c| (c.probed_covered, c.cells));

    // A workload counts for the sleep-timer row when every one of its
    // recovery-layer cells detected the fault in at least one rep.
    let sleep_timer_lost_detected_workloads = columns
        .iter()
        .filter(|col| {
            let mut layer = scorecard
                .cells
                .iter()
                .filter(|c| {
                    c.spec.fault == TvFault::SleepTimerLost && c.spec.scenario == col.scenario
                })
                .peekable();
            layer.peek().is_some() && layer.all(|c| c.detected() > 0)
        })
        .count();

    E19Report {
        worker_counts: config.worker_counts.clone(),
        hardware_threads,
        baseline_coverage,
        detection_coverage,
        coverage_lift_ok: detection_coverage >= config.coverage_floor
            && detection_coverage > baseline_coverage,
        columns,
        idle_covered_cells,
        idle_total_cells,
        sleep_timer_lost_detected_workloads,
        sleep_timer_lost_ok: sleep_timer_lost_detected_workloads >= config.sleep_timer_floor,
        matrix_deterministic,
        probe_effect: run_probe_effect(config),
        baseline,
        scorecard,
    }
}

/// Runs the E19 active-observatory sweep: the configured grid executed
/// passive and observatory-on, plus worker-count determinism on the
/// probed matrix.
pub fn e19_report(config: &E19Config) -> E19Report {
    run(config, |workers, probes| {
        let grid = ScorecardConfig {
            probes,
            ..config.grid.clone()
        };
        run_scorecard(&grid, workers)
    })
}

impl fmt::Display for E19Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sc = &self.scorecard;
        writeln!(
            f,
            "E19 active health observatory: coverage {:.0}% -> {:.0}% ({} -> {} of {} cells), \
             idle column {}/{}, sleep-timer-lost in {}/5 workloads, {} probe false alarm(s), \
             fingerprint {:016x}, {}:",
            self.baseline_coverage * 100.0,
            self.detection_coverage * 100.0,
            self.baseline.covered_cells(),
            sc.covered_cells(),
            sc.cells.len(),
            self.idle_covered_cells,
            self.idle_total_cells,
            self.sleep_timer_lost_detected_workloads,
            sc.twin_false_alarms(),
            sc.fingerprint(),
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
                col.scenario.name(),
                col.baseline_covered,
                col.cells,
                col.probed_covered,
                col.cells
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
        write!(f, "{}", render_layers(&sc.cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::e18_scorecard::tests::cell;

    fn synthetic_grid(_workers: usize, probes: bool) -> DependabilityScorecard {
        // Passive: only teletext detects. Probed: idle and teletext
        // detect everywhere, sleep-timer-lost in both workloads.
        let hit = |probed_hit: usize| if probes { probed_hit } else { 0 };
        DependabilityScorecard {
            cells: vec![
                cell(TvFault::SleepTimerLost, ScenarioKind::Idle, hit(2), 2),
                cell(TvFault::SleepTimerLost, ScenarioKind::Teletext, hit(2), 2),
                cell(TvFault::MenuFreeze, ScenarioKind::Idle, hit(2), 2),
                cell(TvFault::MenuFreeze, ScenarioKind::Teletext, 2, 2),
            ],
            workers: 1,
        }
    }

    fn config() -> E19Config {
        E19Config {
            worker_counts: vec![1, 2],
            grid: ScorecardConfig::quick(),
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
        assert_eq!(report.baseline.covered_cells(), 1);
        assert_eq!(report.scorecard.covered_cells(), 4);
        assert!((report.detection_coverage - 1.0).abs() < 1e-12);
        assert!(report.coverage_lift_ok, "{report}");
        assert_eq!(report.idle_covered_cells, 2);
        assert_eq!(report.idle_total_cells, 2);
        assert_eq!(report.sleep_timer_lost_detected_workloads, 2);
        assert!(report.sleep_timer_lost_ok);
        assert_eq!(report.scorecard.twin_false_alarms(), 0);
        assert!(report.probe_effect.outcomes_agree, "{report}");
        assert!(report.probe_effect.probe_bursts > 0, "{report}");
    }

    #[test]
    fn worker_dependent_probed_cells_are_flagged() {
        let report = run(&config(), |workers, probes| {
            let mut scorecard = synthetic_grid(workers, probes);
            if probes {
                scorecard.cells[0].reps[0].seed ^= workers as u64;
            }
            scorecard
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
