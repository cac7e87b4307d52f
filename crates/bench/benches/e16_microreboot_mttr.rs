//! E16: micro-reboot MTTR — full-restart vs checkpoint-based
//! micro-reboot recovery across the chaos regression's seed-derived
//! campaigns, judged against the 2x MTTR floor and the zero
//! collateral-loss requirement, with a machine-readable
//! `BENCH_e16.json` for CI artifacts.
//!
//! Set `E16_QUICK=1` to run the CI-sized campaign subset instead of the
//! full 24. The quick subset must keep at least one single-unit
//! campaign (seed 14 in the current derivation) or the verdict has no
//! population to judge.

use chaos::experiments::e16_microreboot_mttr::{self, E16Report, MTTR_IMPROVEMENT_FLOOR};
use chaos::CampaignSpec;
use telemetry::json::{write_bench_json, Json};

/// The CI-sized subset: seed 14 is the regression set's single-unit
/// compared campaign; the other two keep multi-unit coverage in the
/// collateral-loss total.
const QUICK_SEEDS: [u64; 3] = [2, 5, 14];

fn report_json(report: &E16Report, quick: bool) -> Json {
    Json::object()
        .field("experiment", "e16_microreboot_mttr".into())
        .field("quick", quick.into())
        .field("campaigns", report.results.len().into())
        .field("single_unit_campaigns", report.single_unit_campaigns.into())
        .field("compared_campaigns", report.compared_campaigns.into())
        .field("mttr_floor", MTTR_IMPROVEMENT_FLOOR.into())
        .field(
            "min_mttr_ratio",
            report.min_mttr_ratio.map_or(Json::Null, Json::from),
        )
        .field(
            "mean_mttr_full_ns",
            report
                .mean_mttr_full
                .map_or(Json::Null, |m| m.as_nanos().into()),
        )
        .field(
            "mean_mttr_micro_ns",
            report
                .mean_mttr_micro
                .map_or(Json::Null, |m| m.as_nanos().into()),
        )
        .field(
            "micro_lost_unaffected_total",
            report.micro_lost_unaffected_total.into(),
        )
        .field(
            "micro_reboots_total",
            report
                .results
                .iter()
                .map(|r| r.micro.micro_reboots)
                .sum::<u64>()
                .into(),
        )
        .field(
            "full_restarts_total",
            report
                .results
                .iter()
                .map(|r| r.full.full_restarts)
                .sum::<u64>()
                .into(),
        )
        .field("mttr_improvement_ok", report.mttr_improvement_ok.into())
}

fn main() {
    let quick = std::env::var_os("E16_QUICK").is_some();
    let campaigns: Vec<CampaignSpec> = if quick {
        QUICK_SEEDS.map(CampaignSpec::from_seed).to_vec()
    } else {
        (0..24).map(CampaignSpec::from_seed).collect()
    };
    let report = e16_microreboot_mttr::run(&campaigns);
    println!("{report}");

    assert!(
        report.compared_campaigns > 0,
        "no single-unit campaign produced recovery episodes in both \
         arms — the MTTR claim has no population"
    );
    assert!(
        report.mttr_improvement_ok,
        "micro-reboot MTTR claim failed: min ratio {:?} (floor {}x), \
         {} presses lost on unaffected units",
        report.min_mttr_ratio, MTTR_IMPROVEMENT_FLOOR, report.micro_lost_unaffected_total,
    );

    let path = write_bench_json("e16", &report_json(&report, quick)).expect("write BENCH_e16.json");
    println!("wrote {}", path.display());
}
