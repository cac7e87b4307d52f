//! E6 — CPU-eater stress testing (paper Sect. 4.7).
//!
//! "The stress testing approach of TASS artificially takes away shared
//! resources, such as CPU or bus bandwidth, to simulate the occurrence of
//! errors or the addition of an additional resource user. […] A so-called
//! CPU eater, which consumes CPU cycles at the application level in
//! software, is already included in the current development software and
//! can be activated by system testers."

use crate::report::{f2, render_table};
use simkit::{PeriodicTask, SimDuration, TaskId, TaskSet};
use std::fmt;
use tvsim::{PipelineConfig, StreamingPipeline};

/// One eater setting.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Row {
    /// CPU fraction the eater consumes.
    pub eater_fraction: f64,
    /// Mean frame quality under stress.
    pub mean_quality: f64,
    /// Full-quality frame share.
    pub full_quality_share: f64,
    /// Frames with late enhancement (degraded picture).
    pub degraded: u64,
    /// Frames with late decode (broken picture).
    pub broken: u64,
    /// Measured processor utilization.
    pub utilization: f64,
    /// Development-time prediction: does fixed-priority response-time
    /// analysis declare the task set schedulable at this eater share?
    pub rta_schedulable: bool,
}

/// One bus-eater setting (the "or bus bandwidth" arm of the TASS
/// approach).
#[derive(Debug, Clone, PartialEq)]
pub struct E6BusRow {
    /// Fraction of bus bandwidth stolen.
    pub stolen_fraction: f64,
    /// Mean frame-transfer completion time (ms).
    pub mean_transfer_ms: f64,
    /// Transfers completing after the frame deadline.
    pub late_transfers: u64,
}

/// E6 report: the stress-response curves.
#[derive(Debug, Clone, PartialEq)]
pub struct E6Report {
    /// CPU-eater sweep rows, ascending eater share.
    pub rows: Vec<E6Row>,
    /// Bus-eater sweep rows, ascending stolen share.
    pub bus_rows: Vec<E6BusRow>,
}

impl fmt::Display for E6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E6 CPU-eater stress response:")?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    f2(r.eater_fraction * 100.0) + "%",
                    f2(r.mean_quality),
                    f2(r.full_quality_share * 100.0) + "%",
                    r.degraded.to_string(),
                    r.broken.to_string(),
                    f2(r.utilization * 100.0) + "%",
                    if r.rta_schedulable { "yes" } else { "no" }.to_owned(),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                &[
                    "eater",
                    "quality",
                    "full frames",
                    "degraded",
                    "broken",
                    "cpu load",
                    "RTA schedulable"
                ],
                &rows
            )
        )?;
        let bus_rows: Vec<Vec<String>> = self
            .bus_rows
            .iter()
            .map(|r| {
                vec![
                    f2(r.stolen_fraction * 100.0) + "%",
                    f2(r.mean_transfer_ms),
                    r.late_transfers.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["bus stolen", "mean transfer (ms)", "late"], &bus_rows)
        )
    }
}

/// The bus-eater arm: per-frame DMA transfers on a shared bus while a
/// stress injector steals bandwidth.
fn run_bus_arm() -> Vec<E6BusRow> {
    use faults::BusEater;
    use simkit::{Bus, BusRequest, PortId, SimTime};
    let frame = SimDuration::from_millis(40);
    // 80 MB/s bus; each frame moves 1.6 MB: 20 ms at nominal bandwidth.
    let mut out = Vec::new();
    for &stolen in &[0.0, 0.25, 0.45, 0.55, 0.75] {
        let mut bus = Bus::new(80_000_000);
        BusEater::new(stolen).apply(&mut bus);
        let mut late = 0u64;
        let mut sum_ms = 0.0;
        let frames = 100u64;
        for k in 0..frames {
            let start = SimTime::from_nanos(k * frame.as_nanos());
            let grant = bus.request(
                start,
                BusRequest {
                    port: PortId(0),
                    bytes: 1_600_000,
                },
            );
            let latency = grant.latency(start);
            sum_ms += latency.as_millis_f64();
            if latency > frame {
                late += 1;
            }
        }
        out.push(E6BusRow {
            stolen_fraction: stolen,
            mean_transfer_ms: sum_ms / frames as f64,
            late_transfers: late,
        });
    }
    out
}

/// Static schedulability prediction for one eater share — the
/// development-time analysis of paper Sect. 4.7, checked against the
/// simulated outcome.
fn rta_predicts_schedulable(fraction: f64) -> bool {
    let period = SimDuration::from_millis(40);
    let cfg = PipelineConfig::default();
    let mut set = TaskSet::new();
    if fraction > 0.0 {
        set.push(PeriodicTask::new(
            TaskId(100),
            "cpu-eater",
            period,
            period.mul_f64(fraction),
            0,
        ));
    }
    set.push(PeriodicTask::new(
        TaskId(0),
        "decode",
        period,
        cfg.decode_wcet,
        1,
    ));
    set.push(PeriodicTask::new(
        TaskId(1),
        "enhance",
        period,
        cfg.enhance_wcet,
        2,
    ));
    set.is_schedulable()
}

/// Runs E6: sweep the eater share on a single-processor pipeline.
pub fn run() -> E6Report {
    let mut rows = Vec::new();
    for &fraction in &[0.0, 0.10, 0.20, 0.30, 0.40, 0.50] {
        let mut p = StreamingPipeline::new(1, PipelineConfig::default());
        if fraction > 0.0 {
            // The eater runs above the application, like a tester-enabled
            // worst case.
            let wcet = SimDuration::from_millis(40).mul_f64(fraction);
            p.add_background_task(0, SimDuration::from_millis(40), wcet, 0);
        }
        let report = p.run_frames(200);
        rows.push(E6Row {
            eater_fraction: fraction,
            mean_quality: report.mean_quality,
            full_quality_share: report.full_quality as f64 / report.frames as f64,
            degraded: report.degraded,
            broken: report.broken,
            utilization: report.cpu_utilization[0],
            rta_schedulable: rta_predicts_schedulable(fraction),
        });
    }
    E6Report {
        rows,
        bus_rows: run_bus_arm(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_degrades_monotonically_under_stress() {
        let report = run();
        assert!(report.rows[0].mean_quality > 0.99, "{report}");
        for pair in report.rows.windows(2) {
            assert!(
                pair[1].mean_quality <= pair[0].mean_quality + 1e-9,
                "{report}"
            );
        }
        let worst = report.rows.last().unwrap();
        assert!(worst.mean_quality < 0.7, "{report}");
    }

    #[test]
    fn crossover_where_budget_exhausts() {
        // 30ms pipeline work + eater: the frame budget (40ms) exhausts
        // once the eater takes more than 10ms (25%).
        let report = run();
        let at_20 = report
            .rows
            .iter()
            .find(|r| r.eater_fraction == 0.20)
            .unwrap();
        let at_30 = report
            .rows
            .iter()
            .find(|r| r.eater_fraction == 0.30)
            .unwrap();
        assert!(at_20.full_quality_share > 0.9, "{report}");
        assert!(at_30.full_quality_share < 0.1, "{report}");
    }

    #[test]
    fn bus_eater_crossover_at_bandwidth_budget() {
        // 20 ms nominal transfer in a 40 ms frame: the budget exhausts at
        // 50% theft. Below: on time; above: every transfer late (and the
        // backlog compounds).
        let report = run();
        let at = |f: f64| {
            report
                .bus_rows
                .iter()
                .find(|r| (r.stolen_fraction - f).abs() < 1e-9)
                .unwrap()
        };
        assert_eq!(at(0.0).late_transfers, 0, "{report}");
        assert_eq!(at(0.45).late_transfers, 0, "{report}");
        assert!(at(0.55).late_transfers > 90, "{report}");
        assert!(at(0.55).mean_transfer_ms > at(0.45).mean_transfer_ms);
    }

    #[test]
    fn rta_prediction_matches_simulation() {
        // The development-time analysis and the run-time simulation must
        // agree on where the overload crossover sits.
        let report = run();
        for row in &report.rows {
            let simulated_healthy = row.full_quality_share > 0.9;
            assert_eq!(
                row.rta_schedulable, simulated_healthy,
                "RTA vs simulation disagree at eater {}: {report}",
                row.eater_fraction
            );
        }
    }

    #[test]
    fn utilization_rises_with_eater() {
        let report = run();
        let first = report.rows.first().unwrap();
        let last = report.rows.last().unwrap();
        assert!(last.utilization > first.utilization);
        assert!(last.utilization > 0.95);
    }
}
