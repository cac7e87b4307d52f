//! F1 — the closed awareness loop (paper Fig. 1).
//!
//! "The main approach of the Trader project is to 'close the loop' […] the
//! system gets a form of run-time awareness which makes it possible to
//! detect that its customer-perceived behavior is (or is likely to become)
//! erroneous. In addition, the aim is to provide the system with a
//! strategy to correct itself."
//!
//! The experiment: the same transient integration faults, run open-loop
//! (the traditional best-effort product) and closed-loop (Fig. 1). The
//! open loop never notices; its errors persist until the user works around
//! them. The closed loop detects and repairs.

use crate::loop_::TvDependabilityLoop;
use crate::report::{f2, render_table};
use crate::scenario::TimedScenario;
use faults::Schedule;
use simkit::SimTime;
use std::fmt;
use tvsim::TvFault;

/// One loop mode's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct F1Row {
    /// Mode label.
    pub mode: String,
    /// Presses with user-visible failures.
    pub failure_steps: usize,
    /// Failure ratio.
    pub failure_ratio: f64,
    /// Errors detected.
    pub detected: usize,
    /// Repairs applied.
    pub recoveries: usize,
    /// Detection latency (ms) from first fault activation.
    pub detection_latency_ms: Option<f64>,
}

/// F1 report.
#[derive(Debug, Clone, PartialEq)]
pub struct F1Report {
    /// Presses in the scenario.
    pub steps: usize,
    /// Open vs closed rows.
    pub rows: Vec<F1Row>,
}

impl fmt::Display for F1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F1 closed vs open loop over {} presses:", self.steps)?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    r.failure_steps.to_string(),
                    f2(r.failure_ratio * 100.0) + "%",
                    r.detected.to_string(),
                    r.recoveries.to_string(),
                    r.detection_latency_ms
                        .map(f2)
                        .unwrap_or_else(|| "-".to_owned()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "mode",
                    "failure steps",
                    "failure ratio",
                    "detected",
                    "repairs",
                    "latency (ms)"
                ],
                &rows
            )
        )
    }
}

fn schedule_faults(looped: &mut TvDependabilityLoop) {
    // A transient sync-loss window covering the first teletext toggle:
    // the missed notification leaves a persistent error behind.
    looped.schedule_fault(
        Schedule::Between {
            from: SimTime::from_millis(250),
            to: SimTime::from_millis(350),
        },
        TvFault::TeletextSyncLoss,
    );
    // A transient mute-inversion window covering the unmute press at
    // 1700 ms (teletext-session pattern: mute at 1600, unmute at 1700).
    looped.schedule_fault(
        Schedule::Between {
            from: SimTime::from_millis(1650),
            to: SimTime::from_millis(1750),
        },
        TvFault::MuteInversion,
    );
}

/// Runs F1 with a scenario of `presses` keys.
pub fn run(presses: usize, seed: u64) -> F1Report {
    let scenario = TimedScenario::teletext_session(presses);
    let mut rows = Vec::new();
    for closed in [false, true] {
        let mut looped = if closed {
            TvDependabilityLoop::closed(seed)
        } else {
            TvDependabilityLoop::open(seed)
        };
        schedule_faults(&mut looped);
        let outcome = looped.run(&scenario);
        rows.push(F1Row {
            mode: if closed {
                "closed loop".into()
            } else {
                "open loop".into()
            },
            failure_steps: outcome.failure_steps,
            failure_ratio: outcome.failure_ratio(),
            detected: outcome.detected_errors,
            recoveries: outcome.recoveries,
            detection_latency_ms: outcome.detection_latency.map(|d| d.as_millis_f64()),
        });
    }
    F1Report {
        steps: presses,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_outperforms_open_loop() {
        let report = run(40, 3);
        let open = &report.rows[0];
        let closed = &report.rows[1];
        assert!(
            open.failure_steps > 0,
            "faults must be user-visible: {report}"
        );
        assert!(
            closed.failure_steps < open.failure_steps,
            "closed loop must reduce failures: {report}"
        );
        assert_eq!(open.detected, 0);
        assert_eq!(open.recoveries, 0);
        assert!(closed.detected > 0);
        assert!(closed.recoveries > 0);
        assert!(closed.detection_latency_ms.is_some());
    }

    #[test]
    fn closed_loop_failure_ratio_low() {
        let report = run(40, 3);
        let closed = &report.rows[1];
        // Failures limited to the detection latency window.
        assert!(closed.failure_ratio < 0.15, "{report}");
    }
}
