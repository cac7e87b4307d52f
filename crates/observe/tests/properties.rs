//! Property-based tests of the observation layer's data structures.

use observe::{BlockCoverage, RingBuffer};
use proptest::prelude::*;

proptest! {
    /// A ring buffer always retains exactly the newest min(n, cap)
    /// items, in order.
    #[test]
    fn ring_keeps_newest(cap in 1usize..50, items in prop::collection::vec(any::<u32>(), 0..200)) {
        let mut ring = RingBuffer::new(cap);
        ring.extend(items.iter().copied());
        let kept: Vec<u32> = ring.iter().copied().collect();
        let expected: Vec<u32> = items
            .iter()
            .skip(items.len().saturating_sub(cap))
            .copied()
            .collect();
        prop_assert_eq!(kept, expected);
        prop_assert_eq!(ring.evicted() as usize, items.len().saturating_sub(cap));
    }

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
