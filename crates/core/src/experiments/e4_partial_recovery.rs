//! E4 — partial recovery vs whole-system restart (paper Sect. 4.5).
//!
//! "A framework for partial recovery has been developed which allows
//! independent recovery of parts of the system […] A few first experiments
//! in the multimedia domain show that after some refactoring of the
//! system, independent recovery of parts of the system is possible
//! without large overhead."
//!
//! Four counter units take one message each per 10 ms tick for 10 s.
//! One tick after the 2 s mark the teletext unit is recovered once:
//! restarted alone (partial) or with every unit (full). No fault is
//! injected first; the rows compare what the two restarts cost the same
//! steady load in outage, delivered and dropped messages, and
//! availability.

use crate::report::{f2, render_table};
use recovery::{CommManager, CounterUnit, RecoveryAction, RecoveryManager, UnitHost, UnitMessage};
use simkit::{SimDuration, SimTime};
use std::fmt;

/// One strategy's measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct E4Row {
    /// Strategy name.
    pub strategy: String,
    /// User-visible outage of the *failed* unit.
    pub outage_ms: f64,
    /// Messages delivered during the run.
    pub delivered: u64,
    /// Messages dropped during the run.
    pub dropped: u64,
    /// Fraction of total unit-seconds available.
    pub availability: f64,
}

/// E4 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E4Report {
    /// Partial (unit restart) vs full (system restart) rows.
    pub rows: Vec<E4Row>,
}

impl fmt::Display for E4Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E4 partial recovery vs full restart:")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.strategy.clone(),
                    f2(r.outage_ms),
                    r.delivered.to_string(),
                    r.dropped.to_string(),
                    f2(r.availability * 100.0) + "%",
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "strategy",
                    "outage (ms)",
                    "delivered",
                    "dropped",
                    "availability"
                ],
                &rows
            )
        )
    }
}

const UNITS: [&str; 4] = ["tuner", "video", "audio", "teletext"];
const TICK: SimDuration = SimDuration::from_millis(10);
const HORIZON: SimDuration = SimDuration::from_secs(10);

fn run_strategy(partial: bool) -> E4Row {
    let mut host = UnitHost::new();
    for name in UNITS {
        host.register(CounterUnit::new(name));
    }
    let mut comm = CommManager::new();
    let mut manager = RecoveryManager::with_defaults();

    let recover_at = SimTime::from_secs(2) + TICK;
    let mut unit_seconds_up = 0.0f64;
    let mut unit_seconds_total = 0.0f64;

    let mut now = SimTime::ZERO;
    while now < SimTime::ZERO + HORIZON {
        now += TICK;
        // Workload: one message to each unit per tick.
        for name in UNITS {
            comm.send(
                &mut host,
                UnitMessage {
                    to: name.into(),
                    topic: "frame".into(),
                    value: 1.0,
                    reply_to: None,
                },
            );
        }
        if now == recover_at {
            let action = if partial {
                RecoveryAction::RestartUnit("teletext".into())
            } else {
                RecoveryAction::RestartAll
            };
            manager.recover(now, &mut host, action);
        }
        let returned = host.tick(now);
        comm.flush_returned(&mut host, &returned);
        // Availability accounting.
        for name in UNITS {
            unit_seconds_total += TICK.as_secs_f64();
            if host.is_running(name) {
                unit_seconds_up += TICK.as_secs_f64();
            }
        }
    }

    let stats = comm.stats();
    E4Row {
        strategy: if partial {
            "partial (restart unit)".into()
        } else {
            "full (restart all)".into()
        },
        outage_ms: manager.total_outage().as_millis_f64(),
        delivered: stats.delivered,
        dropped: stats.dropped,
        availability: unit_seconds_up / unit_seconds_total,
    }
}

/// Runs E4: the same disturbance handled both ways.
pub fn run() -> E4Report {
    E4Report {
        rows: vec![run_strategy(true), run_strategy(false)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_recovery_is_much_cheaper() {
        let report = run();
        let partial = &report.rows[0];
        let full = &report.rows[1];
        assert!(
            full.outage_ms >= partial.outage_ms * 10.0,
            "partial {} vs full {}: {report}",
            partial.outage_ms,
            full.outage_ms
        );
        assert!(partial.availability > full.availability, "{report}");
        // Partial keeps the availability high (paper: "without large
        // overhead").
        assert!(partial.availability > 0.99, "{report}");
    }

    #[test]
    fn both_strategies_deliver_most_messages() {
        let report = run();
        for row in &report.rows {
            assert!(row.delivered > 3_000, "{row:?}");
        }
        // Messages to the restarting unit are queued: the partial
        // restart loses nothing.
        assert_eq!(report.rows[0].dropped, 0);
    }
}
