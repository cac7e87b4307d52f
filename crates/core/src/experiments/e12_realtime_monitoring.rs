//! E12 — real-time property monitoring (paper Sect. 4.3).
//!
//! "Moreover, we also monitor real-time properties, which are not
//! addressed by the techniques cited above. Closely related in this
//! respect is the MaC-RT system which also detects timeliness violations.
//! Main difference with our approach is the use of a timed version of
//! Linear Temporal Logic […], whereas we use executable timed state
//! machines to promote industrial acceptance and validation."
//!
//! This experiment monitors a timeliness property — "after `power`, the
//! screen must show video within 400 ms" — with a *timed state machine*
//! whose `after` transition encodes the deadline, and sweeps the deadline
//! parameter (the E12 ablation: tight deadlines detect fast but
//! false-alarm on slow-but-legal starts).

use crate::report::{f2, render_table};
use simkit::{SimDuration, SimTime};
use statemachine::{Event, Executor, Machine, MachineBuilder};
use std::fmt;

/// The timed monitor machine: `waiting --screen_on--> ok`, or
/// `waiting --after(deadline)--> violated`.
fn deadline_monitor(deadline: SimDuration) -> Machine {
    MachineBuilder::new("startup-deadline")
        .state("idle")
        .state("waiting")
        .state("ok")
        .state("violated")
        .initial("idle")
        .output("violation")
        .on("idle", "power", "waiting", |t| t)
        .on("waiting", "screen_on", "ok", |t| t)
        .after("waiting", deadline, "violated", |t| {
            t.output_const("violation", 1)
        })
        .build()
        .expect("monitor machine is valid")
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct E12Row {
    /// Monitored deadline (ms).
    pub deadline_ms: f64,
    /// Violation raised for a fast (200 ms) startup? (false alarm)
    pub false_alarm_fast: bool,
    /// Violation raised for a slow-but-legal (380 ms) startup?
    pub false_alarm_slow: bool,
    /// Violation raised for a hung startup? (true detection)
    pub detects_hang: bool,
    /// Detection latency for the hang (ms).
    pub hang_detect_ms: Option<f64>,
}

/// E12 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E12Report {
    /// Sweep rows.
    pub rows: Vec<E12Row>,
}

impl fmt::Display for E12Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E12 timed-state-machine real-time monitoring:")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    f2(r.deadline_ms),
                    r.false_alarm_fast.to_string(),
                    r.false_alarm_slow.to_string(),
                    r.detects_hang.to_string(),
                    r.hang_detect_ms.map(f2).unwrap_or_else(|| "-".to_owned()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "deadline (ms)",
                    "false alarm @200ms",
                    "false alarm @380ms",
                    "detects hang",
                    "latency (ms)"
                ],
                &rows
            )
        )
    }
}

/// Runs one startup against the monitor; `screen_at = None` models a hang.
fn observe_startup(machine: &Machine, screen_at: Option<SimTime>) -> (bool, Option<SimTime>) {
    let mut exec = Executor::new(machine);
    exec.start();
    exec.step_at(SimTime::from_millis(100), &Event::plain("power"));
    if let Some(at) = screen_at {
        exec.advance_to(at);
        exec.step(&Event::plain("screen_on"));
    }
    exec.advance_to(SimTime::from_secs(2));
    let violated = exec.is_active("violated");
    let when = exec
        .outputs()
        .iter()
        .find(|o| o.name == "violation")
        .map(|o| o.time);
    (violated, when)
}

/// Runs E12: deadline sweep against fast, slow and hung startups.
pub fn run() -> E12Report {
    let mut rows = Vec::new();
    for &deadline_ms in &[150.0f64, 300.0, 400.0, 800.0] {
        let machine = deadline_monitor(SimDuration::from_millis_f64(deadline_ms));
        let power_at = SimTime::from_millis(100);
        let (fast_violated, _) =
            observe_startup(&machine, Some(power_at + SimDuration::from_millis(200)));
        let (slow_violated, _) =
            observe_startup(&machine, Some(power_at + SimDuration::from_millis(380)));
        let (hang_violated, hang_when) = observe_startup(&machine, None);
        rows.push(E12Row {
            deadline_ms,
            false_alarm_fast: fast_violated,
            false_alarm_slow: slow_violated,
            detects_hang: hang_violated,
            hang_detect_ms: hang_when.map(|t| t.since(power_at).as_millis_f64()),
        });
    }
    E12Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_deadline_detects_the_hang() {
        let report = run();
        for row in &report.rows {
            assert!(row.detects_hang, "{report}");
            let latency = row.hang_detect_ms.expect("latency recorded");
            assert!((latency - row.deadline_ms).abs() < 1.0, "{report}");
        }
    }

    #[test]
    fn tight_deadline_false_alarms_loose_does_not() {
        let report = run();
        let tight = report.rows.iter().find(|r| r.deadline_ms == 150.0).unwrap();
        assert!(tight.false_alarm_fast, "{report}");
        let nominal = report.rows.iter().find(|r| r.deadline_ms == 400.0).unwrap();
        assert!(
            !nominal.false_alarm_fast && !nominal.false_alarm_slow,
            "{report}"
        );
        let tight300 = report.rows.iter().find(|r| r.deadline_ms == 300.0).unwrap();
        assert!(
            !tight300.false_alarm_fast && tight300.false_alarm_slow,
            "{report}"
        );
    }
}
