//! E9 — observation overhead (paper Sect. 4.1).
//!
//! High-volume products cannot afford heavy monitoring: the paper's
//! challenge is dependability "with minimal additional hardware costs and
//! without degrading performance". This experiment measures the processing
//! overhead the observation layer adds, per instrumentation level.

use crate::report::{f2, render_table};
use crate::scenario::TimedScenario;
use observe::ObservationKind;
use simkit::SimDuration;
use std::fmt;
use tvsim::TvSystem;

/// One instrumentation level.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Row {
    /// Level label.
    pub level: String,
    /// Probe firings.
    pub firings: u64,
    /// Block-coverage hits.
    pub block_hits: u64,
    /// Total monitoring time.
    pub overhead_ms: f64,
    /// Overhead as a fraction of the scenario duration.
    pub overhead_pct: f64,
}

/// E9 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E9Report {
    /// Rows per instrumentation level.
    pub rows: Vec<E9Row>,
    /// Scenario duration (ms).
    pub scenario_ms: f64,
}

impl fmt::Display for E9Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E9 observation overhead over a {} ms scenario:",
            self.scenario_ms
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.level.clone(),
                    r.firings.to_string(),
                    r.block_hits.to_string(),
                    f2(r.overhead_ms),
                    f2(r.overhead_pct * 100.0) + "%",
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "level",
                    "probe firings",
                    "block hits",
                    "overhead (ms)",
                    "overhead"
                ],
                &rows
            )
        )
    }
}

/// Cost per event/output probe firing (socket message assembly).
const PROBE_COST: SimDuration = SimDuration::from_micros(20);
/// Cost per basic-block hit (one counter increment).
const BLOCK_HIT_COST: SimDuration = SimDuration::from_nanos(4);

/// Runs one level; returns (probe firings, block hits, overhead).
fn run_level(events: bool, coverage: bool) -> (u64, u64, SimDuration) {
    let mut tv = TvSystem::new();
    let scenario = TimedScenario::teletext_session(27);
    let (mut firings, mut block_hits) = (0u64, 0u64);
    for (at, key) in scenario.presses() {
        tv.reset_coverage(); // open a fresh counter window
        let observations = tv.press(*at, *key);
        if events {
            firings += observations
                .iter()
                .filter(|obs| {
                    matches!(
                        obs.kind,
                        ObservationKind::KeyPress { .. } | ObservationKind::Output { .. }
                    )
                })
                .count() as u64;
        }
        if coverage {
            block_hits += tv.take_coverage().count() as u64;
        }
    }
    let overhead = PROBE_COST * firings + BLOCK_HIT_COST * block_hits;
    (firings, block_hits, overhead)
}

/// Runs E9 across instrumentation levels.
pub fn run() -> E9Report {
    let scenario = TimedScenario::teletext_session(27);
    let scenario_len = scenario.end().as_millis_f64();
    let levels: [(&str, bool, bool); 3] = [
        ("events only", true, false),
        ("events + block coverage", true, true),
        ("disabled (production)", false, false),
    ];
    let rows = levels
        .iter()
        .map(|(label, events, coverage)| {
            let (firings, block_hits, overhead) = run_level(*events, *coverage);
            E9Row {
                level: (*label).to_owned(),
                firings,
                block_hits,
                overhead_ms: overhead.as_millis_f64(),
                overhead_pct: overhead.as_millis_f64() / scenario_len,
            }
        })
        .collect();
    E9Report {
        rows,
        scenario_ms: scenario_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_bounded() {
        let report = run();
        let full = report
            .rows
            .iter()
            .find(|r| r.level.contains("coverage"))
            .unwrap();
        // Even full instrumentation stays below 5% of the scenario.
        assert!(full.overhead_pct < 0.05, "{report}");
        assert!(full.block_hits > 50_000, "{report}");
    }

    #[test]
    fn disabled_probes_cost_nothing() {
        let report = run();
        let off = report
            .rows
            .iter()
            .find(|r| r.level.contains("disabled"))
            .unwrap();
        assert_eq!(off.firings, 0);
        assert_eq!(off.overhead_ms, 0.0);
    }

    #[test]
    fn coverage_dominates_event_probes() {
        let report = run();
        let events = report
            .rows
            .iter()
            .find(|r| r.level == "events only")
            .unwrap();
        let full = report
            .rows
            .iter()
            .find(|r| r.level.contains("coverage"))
            .unwrap();
        assert!(full.overhead_ms > events.overhead_ms, "{report}");
    }
}
