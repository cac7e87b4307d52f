//! The committed behaviour fingerprints of the full 120-cell scorecard
//! grid: the passive grid (E18) and the probed grid (E19). Any change
//! to what the loop detects, when, or how it recovers moves them, so a
//! refactor of the loop must leave both byte-identical.

use chaos::scorecard::{run_scorecard, ScorecardConfig};

fn grid_fingerprint(probes: bool) -> u64 {
    let config = ScorecardConfig {
        probes,
        ..ScorecardConfig::full()
    };
    run_scorecard(&config, 2).fingerprint()
}

#[test]
fn full_passive_grid_matches_the_committed_e18_fingerprint() {
    assert_eq!(grid_fingerprint(false), 0x5a3f_0d9b_0478_98d2);
}

#[test]
fn full_probed_grid_matches_the_committed_e19_fingerprint() {
    assert_eq!(grid_fingerprint(true), 0xfda8_8d12_9270_4757);
}
