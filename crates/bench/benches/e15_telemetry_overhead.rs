//! E15: telemetry probe effect — the reference scenario timed with the
//! flight recorder off and on, judged against the 5% probe budget, with
//! a machine-readable `BENCH_e15.json` and a deterministic sample trace
//! (`BENCH_e15_trace.jsonl`) for CI artifacts.
//!
//! Set `E15_QUICK=1` to run the CI-sized measurement instead of the full
//! one.

use telemetry::json::{workspace_root, write_bench_json, Json};
use trader::experiments::e15_telemetry_overhead::{self, E15Config, E15Report};

fn report_json(report: &E15Report, quick: bool) -> Json {
    Json::object()
        .field("experiment", "e15_telemetry_overhead".into())
        .field("quick", quick.into())
        .field("scenario_len", report.config.scenario_len.into())
        .field("trials", report.config.trials.into())
        .field("ring_capacity", report.config.ring_capacity.into())
        .field("baseline_ns", report.verdict.baseline_ns.into())
        .field("instrumented_ns", report.verdict.instrumented_ns.into())
        .field("overhead_fraction", report.verdict.overhead_fraction.into())
        .field(
            "budget_fraction",
            report.verdict.max_overhead_fraction.into(),
        )
        .field("within_budget", report.verdict.within_budget.into())
        .field("outcomes_agree", report.outcomes_agree.into())
        .field("events_recorded", report.events_recorded.into())
        .field("events_overwritten", report.events_overwritten.into())
        .field("metric_names", report.metric_names.into())
        .field("summary", report.summary.clone().into())
}

fn main() {
    let quick = std::env::var_os("E15_QUICK").is_some();
    let config = if quick {
        E15Config::quick()
    } else {
        E15Config::full()
    };
    let report = e15_telemetry_overhead::run(&config);
    println!("{report}");

    assert!(
        report.outcomes_agree,
        "telemetry changed the loop's behaviour"
    );
    assert!(
        report.verdict.within_budget,
        "telemetry overhead {:.2}% exceeds the {:.0}% probe budget \
         (baseline {} ns, instrumented {} ns)",
        report.verdict.overhead_fraction * 100.0,
        report.verdict.max_overhead_fraction * 100.0,
        report.verdict.baseline_ns,
        report.verdict.instrumented_ns,
    );

    let path = write_bench_json("e15", &report_json(&report, quick)).expect("write BENCH_e15.json");
    println!("wrote {}", path.display());

    // The deterministic sample dump: same seed, same bytes, every host.
    let trace = e15_telemetry_overhead::reference_trace(&config);
    let trace_path = workspace_root().join("BENCH_e15_trace.jsonl");
    std::fs::write(&trace_path, &trace).expect("write BENCH_e15_trace.jsonl");
    println!(
        "wrote {} ({} lines)",
        trace_path.display(),
        trace.lines().count()
    );
}
