//! The committed E16 numbers (`BENCH_e16.json`): micro-reboot versus
//! full-restart MTTR over the chaos regression's 24 seed-derived
//! campaigns. Both recovery styles run here, so any change to how the
//! loop checkpoints, reboots or accounts outages moves them.

use chaos::experiments::e16_microreboot_mttr;
use chaos::CampaignSpec;
use simkit::SimDuration;

#[test]
fn regression_set_matches_the_committed_e16_numbers() {
    let campaigns: Vec<CampaignSpec> = (0..24).map(CampaignSpec::from_seed).collect();
    let report = e16_microreboot_mttr::run(&campaigns);
    assert_eq!(report.results.len(), 24);
    assert_eq!(report.single_unit_campaigns, 2);
    assert_eq!(report.compared_campaigns, 1);
    assert_eq!(report.min_mttr_ratio, Some(73.39449541284404));
    assert_eq!(
        report.mean_mttr_full,
        Some(SimDuration::from_nanos(4_000_000_000))
    );
    assert_eq!(
        report.mean_mttr_micro,
        Some(SimDuration::from_nanos(54_500_000))
    );
    assert_eq!(report.micro_lost_unaffected_total, 0);
    let micro_reboots: u64 = report.results.iter().map(|r| r.micro.micro_reboots).sum();
    let full_restarts: u64 = report.results.iter().map(|r| r.full.full_restarts).sum();
    assert_eq!(micro_reboots, 75);
    assert_eq!(full_restarts, 22);
    assert!(report.mttr_improvement_ok, "{report}");
}
