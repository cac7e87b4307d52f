//! Metric names, the result table and the closing JSON line.

use trader::telemetry::json::Json;

/// Metrics gated end to end (untraced runs): name and unit. They are
/// defined on every workload; see the README for what each means there.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("press_us_p50", "us"),
    ("allocs_per_press", "count"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit. A layer a workload
/// does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("faults.poll.ns", "ns"),
    ("tvsim.press.ns", "ns"),
    ("tvsim.press.allocs", "count"),
    ("tvsim.take_coverage.ns", "ns"),
    ("tvsim.take_coverage.allocs", "count"),
    ("tvsim.repair.ns", "ns"),
    ("tvsim.repair.calls", "count"),
    ("statemachine.step.ns", "ns"),
    ("statemachine.step.allocs", "count"),
    ("awareness.offer.ns", "ns"),
    ("awareness.offer.allocs", "count"),
    ("awareness.advance.ns", "ns"),
    ("awareness.advance.allocs", "count"),
    ("awareness.drain.ns", "ns"),
    ("awareness.drain.allocs", "count"),
    ("awareness.channel.sent", "count"),
    ("awareness.channel.delivered", "count"),
    ("awareness.channel.lost", "count"),
    ("awareness.channel.delivery_ratio", "ratio"),
    ("awareness.errors_per_kpress", "1/kpress"),
    ("detect.observe.ns", "ns"),
    ("detect.errors_per_kpress", "1/kpress"),
    ("spectra.record.ns", "ns"),
    ("spectra.record.allocs", "count"),
    ("spectra.rerank.calls", "count"),
    ("spectra.rerank.useful_ratio", "ratio"),
    ("core.glue.ns", "ns"),
    ("core.glue.allocs", "count"),
    ("core.press.ns", "ns"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("core.setup_us", "us"),
    ("statemachine.build_us", "us"),
    ("tvsim.new_us", "us"),
    ("awareness.build_us", "us"),
    ("chaos.cell_ms.full-restart", "ms"),
    ("chaos.cell_ms.micro-reboot", "ms"),
    ("chaos.cell_ms.supervised-ladder", "ms"),
    ("chaos.cell_ms.idle", "ms"),
    ("chaos.cell_ms.zapping-burst", "ms"),
    ("chaos.cell_ms.teletext", "ms"),
    ("chaos.cell_ms.stress-mix", "ms"),
    ("chaos.cell_ms.multi-fault-overlap", "ms"),
    ("awareness.probes.grid_frac", "ratio"),
    ("chaos.campaign.closed_ms", "ms"),
    ("chaos.campaign.open_ms", "ms"),
    ("simkit.stress_ms", "ms"),
    ("chaos.exec.efficiency", "ratio"),
];

/// One measured value.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    /// Operations checked: sessions, grids or fleets.
    pub attempted: u64,
    /// Operations that failed their check or panicked.
    pub failed: u64,
    /// What failed, operations and run-level gates alike.
    pub problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str, trace: bool) -> Self {
        let mut report = Report {
            workload,
            trace,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        };
        if trace {
            for (name, unit) in PER_LAYER {
                report.set(name, unit, 0.0, 0);
            }
        }
        report
    }

    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        let metric = Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = metric,
            None => self.metrics.push(metric),
        }
    }

    /// Counts one checked operation; a failed check records `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Records a run-level failure (a broken trace bound, a missing
    /// metric) that belongs to no single operation.
    pub fn violation(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The gated metric set of this run, in declaration order.
    fn gated(&self) -> Vec<(&'static str, &'static str)> {
        if self.trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// Prints the table of every metric, the problems found, and — as
    /// the last line of standard output — the JSON result.
    pub fn print(&mut self) {
        let ops_failed = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.set(
            "ops_failed_frac",
            "ratio",
            ops_failed,
            self.attempted as usize,
        );
        let mut gated = Json::object();
        for (name, unit) in self.gated() {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() => {
                    gated = gated.field(
                        name,
                        Json::object()
                            .field("value", m.value.into())
                            .field("unit", unit.into()),
                    );
                }
                _ => self
                    .problems
                    .push(format!("metric {name} has no finite value")),
            }
        }
        println!(
            "{:<36} {:<15} {:>16} {:<9} {:>8}",
            "metric", "workload", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "{:<36} {:<15} {:>16.4} {:<9} {:>8}",
                m.name, self.workload, m.value, m.unit, m.samples
            );
        }
        for problem in &self.problems {
            println!("FAILED: {problem}");
        }
        let result = Json::object()
            .field("correct", self.correct().into())
            .field("attempted", self.attempted.into())
            .field("failed", self.failed.into())
            .field("metrics", gated);
        println!("{}", result.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_and_workload_name_is_valid() {
        let info = [
            "press_us_p95",
            "grid_s_p50",
            "campaigns_per_s",
            "detection_coverage",
            "mttd_ms_p50",
            "user_failure_frac",
            "ops_failed_frac",
            "hardware_threads",
            "press_us_p50_wall",
            "host_speed",
        ];
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .chain(info)
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(valid_name(name), "{name}");
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "a metric name is used twice");
    }

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// must agree name for name and unit for unit.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .expect("metric list present")
                .items()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn report_prints_exactly_the_gated_metrics() {
        let mut report = Report::new("steady-session", false);
        for (name, unit) in END_TO_END {
            report.set(name, unit, 1.5, 3);
        }
        report.check(true, String::new);
        assert!(report.correct());
        report.set("press_us_p50", "us", f64::NAN, 3);
        report.print();
        assert!(!report.correct(), "a non-finite gated value fails the run");
    }
}
