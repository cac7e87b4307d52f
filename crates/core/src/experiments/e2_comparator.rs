//! E2 — comparator tuning (paper Sect. 4.3).
//!
//! "Experiments with earlier versions of the framework indicated that the
//! Comparator should not be too eager to report errors; small delays in
//! system-internal communication might easily lead to differences during
//! a short time interval." The framework therefore exposes, per
//! observable, (1) a deviation threshold and (2) a maximum number of
//! consecutive deviations — and the user faces "a trade-off between
//! taking more time to avoid false errors and reporting errors fast to
//! allow quick repair." This experiment sweeps both parameters.

use crate::report::{f2, render_table};
use crate::scenario::TimedScenario;
use awareness::{CompareSpec, Configuration, MonitorBuilder};
use simkit::{SimDuration, SimTime};
use std::fmt;
use tvsim::{tv_spec, TvFault, TvSystem};

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct E2Row {
    /// Deviation threshold.
    pub threshold: f64,
    /// Consecutive deviations tolerated.
    pub max_consecutive: u32,
    /// Errors reported on a *healthy* run (false errors).
    pub false_errors: usize,
    /// Detection latency for a persistent injected fault (ms), if
    /// detected at all.
    pub detection_latency_ms: Option<f64>,
}

/// E2 report: the full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct E2Report {
    /// Sweep rows.
    pub rows: Vec<E2Row>,
    /// Channel jitter used (communication-delay disturbance).
    pub jitter_ms: f64,
}

impl fmt::Display for E2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E2 comparator tuning (output-channel jitter {} ms):",
            self.jitter_ms
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    f2(r.threshold),
                    r.max_consecutive.to_string(),
                    r.false_errors.to_string(),
                    r.detection_latency_ms
                        .map(f2)
                        .unwrap_or_else(|| "missed".to_owned()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "threshold",
                    "max consec",
                    "false errors",
                    "detect latency (ms)"
                ],
                &rows
            )
        )
    }
}

fn run_once(
    threshold: f64,
    max_consecutive: u32,
    jitter: SimDuration,
    fault: Option<TvFault>,
    seed: u64,
) -> (usize, Option<SimTime>) {
    let cfg = Configuration::new().with_default_spec(
        CompareSpec::exact()
            .with_threshold(threshold)
            .with_max_consecutive(max_consecutive),
    );
    let mut monitor = MonitorBuilder::new(tv_spec())
        .configuration(cfg)
        // Substantial delay + jitter on the output path: input events
        // reach the model faster than outputs reach the comparator, so
        // around every state change the comparator briefly sees stale
        // values — the paper's transient.
        .output_delay(SimDuration::from_millis(30))
        .jitter(jitter)
        .seed(seed)
        .build();
    let mut tv = TvSystem::new();
    if let Some(fault) = fault {
        tv.inject_fault(fault);
    }
    let scenario = TimedScenario::teletext_session(40);
    let mut first_error_at = None;
    let mut errors = 0;
    for (at, key) in scenario.presses() {
        for obs in tv.press(*at, *key) {
            monitor.offer(&obs);
        }
        monitor.advance_to(*at + SimDuration::from_millis(99));
        for err in monitor.drain_errors() {
            errors += 1;
            first_error_at.get_or_insert(err.time);
        }
    }
    (errors, first_error_at)
}

/// Runs the E2 sweep.
pub fn run(seed: u64) -> E2Report {
    let jitter = SimDuration::from_millis(90);
    let mut rows = Vec::new();
    for &max_consecutive in &[0u32, 1, 2, 4] {
        for &threshold in &[0.0, 2.0] {
            let (false_errors, _) = run_once(threshold, max_consecutive, jitter, None, seed);
            // Persistent fault: volume sticks from the start; the first
            // vol_up press is at 700 ms (teletext-session pattern).
            let (_, detected_at) = run_once(
                threshold,
                max_consecutive,
                jitter,
                Some(TvFault::StuckVolume),
                seed,
            );
            let fault_visible = SimTime::from_millis(700);
            rows.push(E2Row {
                threshold,
                max_consecutive,
                false_errors,
                detection_latency_ms: detected_at
                    .filter(|t| *t >= fault_visible)
                    .map(|t| t.since(fault_visible).as_millis_f64()),
            });
        }
    }
    E2Report {
        rows,
        jitter_ms: jitter.as_millis_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_comparator_reports_false_errors() {
        let report = run(9);
        let eager = report
            .rows
            .iter()
            .find(|r| r.max_consecutive == 0 && r.threshold == 0.0)
            .unwrap();
        let tolerant = report
            .rows
            .iter()
            .find(|r| r.max_consecutive == 4 && r.threshold == 0.0)
            .unwrap();
        assert!(
            eager.false_errors > tolerant.false_errors,
            "eager {} vs tolerant {}",
            eager.false_errors,
            tolerant.false_errors
        );
        assert_eq!(tolerant.false_errors, 0, "{report}");
    }

    #[test]
    fn tolerance_costs_detection_latency() {
        let report = run(9);
        let eager = report
            .rows
            .iter()
            .find(|r| r.max_consecutive == 0 && r.threshold == 0.0)
            .unwrap();
        let moderate = report
            .rows
            .iter()
            .find(|r| r.max_consecutive == 2 && r.threshold == 0.0)
            .unwrap();
        let very_tolerant = report
            .rows
            .iter()
            .find(|r| r.max_consecutive == 4 && r.threshold == 0.0)
            .unwrap();
        let fast = eager.detection_latency_ms.expect("eager must detect");
        let slow = moderate
            .detection_latency_ms
            .expect("moderate tolerance must still detect");
        assert!(fast < slow, "eager {fast} vs moderate {slow}");
        // The far end of the trade-off: heavy tolerance detects an order
        // of magnitude later (if at all).
        match very_tolerant.detection_latency_ms {
            None => {}
            Some(very_slow) => assert!(
                very_slow > fast * 5.0,
                "tolerance must cost latency: {report}"
            ),
        }
    }

    #[test]
    fn threshold_also_suppresses_noise() {
        let report = run(9);
        for mc in [0u32, 1] {
            let tight = report
                .rows
                .iter()
                .find(|r| r.max_consecutive == mc && r.threshold == 0.0)
                .unwrap();
            let loose = report
                .rows
                .iter()
                .find(|r| r.max_consecutive == mc && r.threshold == 2.0)
                .unwrap();
            assert!(loose.false_errors <= tight.false_errors);
        }
    }
}
