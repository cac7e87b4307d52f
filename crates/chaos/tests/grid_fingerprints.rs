//! The committed behaviour fingerprints of the full 120-cell scorecard
//! grid: the passive grid (E18) and the probed grid (E19). Any change
//! to what the loop detects, when, or how it recovers moves them, so a
//! refactor of the loop must leave both byte-identical. The passive
//! grid must also re-render the committed `scorecard_baseline.json`
//! byte for byte, which pins the baseline format.

use chaos::experiments::e18_scorecard::baseline_json;
use chaos::scorecard::{run_scorecard, DependabilityScorecard, ScorecardConfig};

fn grid(probes: bool) -> DependabilityScorecard {
    let config = ScorecardConfig {
        probes,
        ..ScorecardConfig::full()
    };
    run_scorecard(&config, 2)
}

#[test]
fn full_passive_grid_matches_the_committed_e18_fingerprint() {
    let scorecard = grid(false);
    assert_eq!(scorecard.fingerprint(), 0x5a3f_0d9b_0478_98d2);
    let committed = include_str!("../../../scorecard_baseline.json");
    assert!(
        baseline_json(&scorecard).render() + "\n" == committed,
        "the passive grid no longer re-renders scorecard_baseline.json"
    );
}

#[test]
fn full_probed_grid_matches_the_committed_e19_fingerprint() {
    assert_eq!(grid(true).fingerprint(), 0xfda8_8d12_9270_4757);
}
