//! E3 — mode-consistency detection of teletext sync loss (paper
//! Sect. 4.3).
//!
//! "An approach which checks the consistency of internal modes of
//! components turned out to be successful to detect teletext problems due
//! to a loss of synchronization between components."

use crate::report::render_table;
use crate::scenario::TimedScenario;
use detect::{ConsistencyRule, Detector, ModeConsistencyDetector};
use std::fmt;
use tvsim::{TvFault, TvSystem};

/// E3 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E3Report {
    /// Violations on the healthy run (must be 0).
    pub healthy_violations: u64,
    /// Violations on the faulty run.
    pub faulty_violations: u64,
    /// Press index at which the sync loss was first detected.
    pub detected_at_press: Option<usize>,
    /// Press index at which the fault first manifested (first teletext
    /// toggle).
    pub fault_manifested_at_press: Option<usize>,
}

impl fmt::Display for E3Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E3 mode-consistency checking:")?;
        let rows = vec![
            vec![
                "healthy".to_owned(),
                self.healthy_violations.to_string(),
                "-".to_owned(),
            ],
            vec![
                "teletext sync loss".to_owned(),
                self.faulty_violations.to_string(),
                self.detected_at_press
                    .map(|p| format!("press #{p}"))
                    .unwrap_or_else(|| "missed".to_owned()),
            ],
        ];
        write!(
            f,
            "{}",
            render_table(&["run", "violations", "first detection"], &rows)
        )
    }
}

fn run_once(fault: Option<TvFault>) -> (u64, Option<usize>, Option<usize>) {
    let mut detector = ModeConsistencyDetector::new();
    detector.add_rule(ConsistencyRule::new(
        "txt-sync",
        "ui",
        "teletext",
        "decoder",
        ["teletext"],
    ));
    let mut tv = TvSystem::new();
    if let Some(fault) = fault {
        tv.inject_fault(fault);
    }
    let scenario = TimedScenario::teletext_session(27);
    let mut detected_at = None;
    let mut manifested_at = None;
    for (i, (at, key)) in scenario.presses().iter().enumerate() {
        let observations = tv.press(*at, *key);
        if manifested_at.is_none()
            && tv.teletext().is_on()
            && tv.teletext().decoder_mode() != "teletext"
        {
            manifested_at = Some(i);
        }
        for obs in &observations {
            if !detector.observe(obs).is_empty() && detected_at.is_none() {
                detected_at = Some(i);
            }
        }
        let _ = tv.tick(*at + simkit::SimDuration::from_millis(1));
    }
    (detector.violations(), detected_at, manifested_at)
}

/// Runs E3: a healthy control and a sync-loss run.
pub fn run() -> E3Report {
    let (healthy_violations, _, _) = run_once(None);
    let (faulty_violations, detected_at_press, fault_manifested_at_press) =
        run_once(Some(TvFault::TeletextSyncLoss));
    E3Report {
        healthy_violations,
        faulty_violations,
        detected_at_press,
        fault_manifested_at_press,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_run_is_clean() {
        let report = run();
        assert_eq!(report.healthy_violations, 0, "{report}");
    }

    #[test]
    fn sync_loss_detected_at_manifestation() {
        let report = run();
        assert!(report.faulty_violations > 0, "{report}");
        let detected = report.detected_at_press.expect("must detect");
        let manifested = report.fault_manifested_at_press.expect("must manifest");
        // Detection happens at the same press the inconsistency appears.
        assert_eq!(detected, manifested, "{report}");
    }
}
