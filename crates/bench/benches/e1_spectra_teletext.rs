//! E1 (paper Sect. 4.4): spectrum-based teletext diagnosis at paper scale.
//!
//! Besides the Criterion timing, writes `BENCH_e1.json` so CI can assert
//! the paper's anchor result — the faulty block ranks #1 — on every run.

use bench::quick_criterion;
use criterion::Criterion;
use std::hint::black_box;
use telemetry::json::{write_bench_json, Json};
use trader::experiments::e1_spectra;

fn benches(c: &mut Criterion) {
    let report = e1_spectra::run(27);
    println!("{report}");
    let json = Json::object()
        .field("experiment", "e1_spectra_teletext".into())
        .field("n_blocks", report.n_blocks.into())
        .field("key_presses", report.key_presses.into())
        .field("blocks_executed", report.blocks_executed.into())
        .field("failing_steps", report.failing_steps.into())
        .field("fault_block", report.fault_block.into())
        .field("ochiai_best_case_rank", report.ochiai_best_case_rank.into())
        .field("ochiai_wasted_effort", report.ochiai_wasted_effort.into());
    let path = write_bench_json("e1", &json).expect("write BENCH_e1.json");
    println!("wrote {}", path.display());

    let mut group = c.benchmark_group("e1_spectra_teletext");
    group.bench_function("diagnose_60k_blocks_27_presses", |b| {
        b.iter(|| black_box(e1_spectra::run(27)))
    });
    group.finish();
}

fn main() {
    let mut c = quick_criterion();
    benches(&mut c);
    c.final_summary();
}
