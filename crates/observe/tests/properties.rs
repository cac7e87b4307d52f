//! Property-based tests of the observation layer's block coverage.

use observe::BlockCoverage;
use proptest::prelude::*;

proptest! {
    /// Coverage snapshot reflects exactly the distinct in-range hits, and
    /// the reset leaves nothing behind.
    #[test]
    fn coverage_snapshot_exact(hits in prop::collection::vec(0u32..2_000, 0..300)) {
        let mut cov = BlockCoverage::new(1_000);
        for &h in &hits {
            cov.hit(h);
        }
        let snap = cov.snapshot_and_reset();
        let mut distinct: Vec<u32> = hits.iter().copied().filter(|h| *h < 1_000).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(snap.count() as usize, distinct.len());
        prop_assert_eq!(snap.iter_hits().collect::<Vec<_>>(), distinct);
        prop_assert!(!cov.any_hit());
    }
}
