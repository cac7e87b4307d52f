//! E1 (paper Sect. 4.4): spectrum-based teletext diagnosis at paper scale.
//!
//! Writes `BENCH_e1.json` so CI can assert the paper's anchor result —
//! the faulty block ranks #1 — on every run. The fault's mid-tie rank
//! rides along, so the trajectory shows when its tie group grows.

use telemetry::json::{write_bench_json, Json};
use trader::experiments::e1_spectra;

fn main() {
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
        .field(
            "ochiai_mid_tie_rank",
            report.rank_by_coefficient["ochiai"].into(),
        )
        .field("ochiai_wasted_effort", report.ochiai_wasted_effort.into());
    let path = write_bench_json("e1", &json).expect("write BENCH_e1.json");
    println!("wrote {}", path.display());
}
