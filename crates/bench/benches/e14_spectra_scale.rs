//! E14: spectrum diagnosis at scale — the streaming columnar engine swept
//! across block counts and shard counts, with a machine-readable
//! `BENCH_e14.json` for CI trend lines.
//!
//! Set `E14_QUICK=1` to run the CI-sized grid instead of the full sweep.

use telemetry::json::{write_bench_json, Json};
use trader::experiments::e14_spectra_scale::{self, E14Config, E14Report};

fn report_json(report: &E14Report, quick: bool) -> Json {
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|c| {
            Json::object()
                .field("n_blocks", c.n_blocks.into())
                .field("shards", c.shards.into())
                .field("accumulate_ms", c.accumulate_ms.into())
                .field("score_ms", c.score_ms.into())
                .field("speedup_vs_one_shard", c.speedup_vs_one_shard.into())
                .field("fault_rank", c.fault_rank.map_or(Json::Null, Json::from))
        })
        .collect();
    Json::object()
        .field("experiment", "e14_spectra_scale".into())
        .field("quick", quick.into())
        .field("steps", report.steps.into())
        .field("top_k", report.top_k.into())
        .field("hardware_threads", report.hardware_threads.into())
        .field("oracle_agrees", report.oracle_agrees.into())
        .field("cells", cells.into())
}

fn main() {
    let quick = std::env::var_os("E14_QUICK").is_some();
    let config = if quick {
        E14Config::quick()
    } else {
        E14Config::full()
    };
    let report = e14_spectra_scale::run(&config);
    println!("{report}");
    assert!(
        report.oracle_agrees,
        "sharded window diverged from the dense oracle"
    );
    let path = write_bench_json("e14", &report_json(&report, quick)).expect("write BENCH_e14.json");
    println!("wrote {}", path.display());
}
