//! E15 — telemetry probe effect (paper Sect. 4.1).
//!
//! The flight recorder exists to make the awareness loop observable, but
//! the paper's constraint cuts both ways: the observer must not degrade
//! the observed. This experiment runs one reference scenario — a closed
//! loop with a scheduled sync-loss fault and a reliable, lossy boundary —
//! twice per trial: telemetry off ([`Telemetry::off`], the production
//! default) and telemetry on (a recording hub capturing every span,
//! event, and metric). Wall-clock time is taken as the **minimum over
//! trials on each arm** (the standard noise floor estimator), and the
//! overhead fraction is judged against the 5% [`ProbeBudget`].
//!
//! That protocol (warm-up pair, alternated arms, min-of-trials,
//! escalation while over budget) lives in one place,
//! [`measure_probe_effect`]; E19 reuses it with the active health
//! observatory switched on in both arms.
//!
//! Two properties are checked beyond timing:
//!
//! 1. **Non-interference** — both arms must produce *identical*
//!    [`LoopOutcome`]s: recording may cost time, but it must never change
//!    what the loop does (stamps come from virtual time, never from the
//!    host clock, so control flow cannot depend on the recorder).
//! 2. **Bounded memory** — the flight recorder is a fixed-capacity ring;
//!    the report carries the events captured and overwritten so the
//!    probe's memory footprint is visible, not just its time.

use crate::loop_::{LoopOutcome, TvDependabilityLoop};
use crate::report::{f2, render_table};
use crate::scenario::TimedScenario;
use faults::Schedule;
use observe::{BudgetVerdict, ProbeBudget};
use simkit::SimTime;
use std::fmt;
use std::time::Instant;
use telemetry::Telemetry;
use tvsim::TvFault;

/// E15 configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Config {
    /// Presses in the reference scenario.
    pub scenario_len: usize,
    /// Timed repetitions per arm (the minimum is reported).
    pub trials: usize,
    /// Flight-recorder ring capacity on the instrumented arm.
    pub ring_capacity: usize,
    /// The probe budget (fraction of baseline runtime).
    pub budget_fraction: f64,
}

impl E15Config {
    /// The full measurement: 120 presses, 7 trials.
    pub fn full() -> Self {
        E15Config {
            scenario_len: 120,
            trials: 7,
            ring_capacity: 16_384,
            budget_fraction: ProbeBudget::DEFAULT_FRACTION,
        }
    }

    /// A CI-sized measurement: 60 presses, 5 trials.
    pub fn quick() -> Self {
        E15Config {
            scenario_len: 60,
            trials: 5,
            ring_capacity: 8_192,
            budget_fraction: ProbeBudget::DEFAULT_FRACTION,
        }
    }
}

/// E15 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E15Report {
    /// The configuration that ran.
    pub config: E15Config,
    /// The budget verdict over the min-of-trials pair.
    pub verdict: BudgetVerdict,
    /// Whether the two arms produced identical loop outcomes.
    pub outcomes_agree: bool,
    /// Events captured by the instrumented arm's ring.
    pub events_recorded: usize,
    /// Events the ring overwrote (0 means the capacity held the run).
    pub events_overwritten: u64,
    /// Distinct metric names the instrumented arm populated.
    pub metric_names: usize,
    /// The instrumented arm's outcome summary line.
    pub summary: String,
}

impl fmt::Display for E15Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E15 telemetry probe effect: {} presses, {} trials, budget {:.0}%:",
            self.config.scenario_len,
            self.config.trials,
            self.verdict.max_overhead_fraction * 100.0
        )?;
        let rows = vec![
            vec![
                "off (production)".to_owned(),
                f2(self.verdict.baseline_ns as f64 / 1e6),
                "-".to_owned(),
                "-".to_owned(),
            ],
            vec![
                "recording".to_owned(),
                f2(self.verdict.instrumented_ns as f64 / 1e6),
                f2(self.verdict.overhead_fraction * 100.0) + "%",
                if self.verdict.within_budget {
                    "within budget".to_owned()
                } else {
                    "OVER BUDGET".to_owned()
                },
            ],
        ];
        writeln!(
            f,
            "{}",
            render_table(&["telemetry", "run (ms)", "overhead", "verdict"], &rows)
        )?;
        write!(
            f,
            "outcomes agree: {} | {} event(s) recorded, {} overwritten, {} metric name(s)",
            self.outcomes_agree, self.events_recorded, self.events_overwritten, self.metric_names
        )
    }
}

/// Builds the reference loop: closed, reliable over a lossy boundary,
/// with a transient sync-loss fault and a persistent mute inversion —
/// enough activity that every instrumented component actually fires —
/// and, when `probes` is set, the active health observatory.
fn reference_loop(telemetry: Telemetry, probes: bool) -> TvDependabilityLoop {
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
    if probes {
        looped.active_probes();
    }
    looped.set_telemetry(telemetry);
    looped
}

/// Runs one arm once, returning elapsed wall-clock nanoseconds and the
/// outcome.
fn run_arm(scenario: &TimedScenario, telemetry: Telemetry, probes: bool) -> (u64, LoopOutcome) {
    let mut looped = reference_loop(telemetry, probes);
    let started = Instant::now();
    let outcome = looped.run(scenario);
    let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    (elapsed, outcome)
}

/// One probe-effect measurement of the flight recorder on the
/// reference loop.
#[derive(Debug, Clone)]
pub struct ProbeEffect {
    /// The budget verdict over the min-of-trials pair.
    pub verdict: BudgetVerdict,
    /// Whether the telemetry-off and telemetry-on arms produced
    /// identical loop outcomes.
    pub outcomes_agree: bool,
    /// The last instrumented arm's outcome.
    pub outcome: LoopOutcome,
    /// The last instrumented arm's flight recorder.
    pub telemetry: Telemetry,
}

/// Measures the flight recorder's probe effect on the reference loop
/// (with the observatory on both arms when `probes` is set) by the
/// shared protocol: a warm-up pair, then the arms alternated within
/// each trial, the minimum over trials per arm judged against the
/// budget, escalating to up to 4x the configured trials while over it.
pub fn measure_probe_effect(config: &E15Config, probes: bool) -> ProbeEffect {
    let scenario = TimedScenario::teletext_session(config.scenario_len);
    let trials = config.trials.max(1);
    let budget = ProbeBudget::new(config.budget_fraction);
    let mut baseline_ns = u64::MAX;
    let mut instrumented_ns = u64::MAX;
    let mut baseline_outcome = None;
    let mut last = None;
    // Warm caches and the allocator before timing anything.
    let _ = run_arm(&scenario, Telemetry::off(), probes);
    let _ = run_arm(
        &scenario,
        Telemetry::recording(config.ring_capacity),
        probes,
    );
    // Alternate the arms within each trial so slow drifts (thermal,
    // scheduler) hit both equally instead of biasing one side. After the
    // configured trials, escalate with up to 3x more while the verdict
    // is over budget: the minimum estimator only converges *from above*,
    // so extra samples can lower a noise-inflated arm toward its true
    // floor but never push a genuinely over-budget probe under it.
    for trial in 0..trials * 4 {
        if trial >= trials && budget.judge(baseline_ns, instrumented_ns).within_budget {
            break;
        }
        let (off_ns, off_out) = run_arm(&scenario, Telemetry::off(), probes);
        baseline_ns = baseline_ns.min(off_ns);
        baseline_outcome = Some(off_out);

        let telemetry = Telemetry::recording(config.ring_capacity);
        let (on_ns, on_out) = run_arm(&scenario, telemetry.clone(), probes);
        instrumented_ns = instrumented_ns.min(on_ns);
        last = Some((on_out, telemetry));
    }
    let (outcome, telemetry) = last.expect("at least one trial");
    ProbeEffect {
        verdict: budget.judge(baseline_ns, instrumented_ns),
        outcomes_agree: baseline_outcome.as_ref() == Some(&outcome),
        outcome,
        telemetry,
    }
}

/// Runs E15.
pub fn run(config: &E15Config) -> E15Report {
    let effect = measure_probe_effect(config, false);
    let telemetry = &effect.telemetry;
    E15Report {
        config: config.clone(),
        verdict: effect.verdict,
        outcomes_agree: effect.outcomes_agree,
        events_recorded: telemetry.events_len(),
        events_overwritten: telemetry.overwritten(),
        metric_names: telemetry.snapshot_metrics().len(),
        summary: effect.outcome.summary(),
    }
}

/// Drains the reference scenario's instrumented timeline — the sample
/// flight-recorder dump CI uploads next to `BENCH_e15.json`. Purely
/// virtual-time stamped, so the bytes are identical on every host.
pub fn reference_trace(config: &E15Config) -> String {
    let scenario = TimedScenario::teletext_session(config.scenario_len);
    let telemetry = Telemetry::recording(config.ring_capacity);
    let mut looped = reference_loop(telemetry.clone(), false);
    let _ = looped.run(&scenario);
    telemetry.events_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> E15Config {
        E15Config {
            scenario_len: 20,
            trials: 1,
            ring_capacity: 1_024,
            budget_fraction: ProbeBudget::DEFAULT_FRACTION,
        }
    }

    #[test]
    fn recording_does_not_change_the_loop() {
        let report = run(&tiny());
        assert!(report.outcomes_agree, "{report}");
        assert!(report.events_recorded > 0, "{report}");
        assert!(report.summary.contains("steps=20"), "{report}");
    }

    #[test]
    fn reference_trace_is_deterministic_and_virtual() {
        let config = tiny();
        let a = reference_trace(&config);
        let b = reference_trace(&config);
        assert_eq!(a, b, "trace bytes diverged across same-seed runs");
        assert!(!a.is_empty());
        for line in a.lines() {
            assert!(line.contains("\"clock\":\"virtual\""), "{line}");
        }
    }

    #[test]
    fn display_renders_both_arms() {
        let report = run(&tiny());
        let text = report.to_string();
        assert!(text.contains("off (production)"), "{text}");
        assert!(text.contains("recording"), "{text}");
        assert!(text.contains("outcomes agree"), "{text}");
    }
}
