//! Basic-block coverage recording.
//!
//! The diagnosis technique of the paper (Sect. 4.4, after Zoeteweij et al.)
//! instruments the C code of the TV to record which of ~60 000 basic blocks
//! execute between consecutive key presses. [`BlockCoverage`] is that
//! instrumentation target: a dense bitset over block ids, snapshotted and
//! reset at every scenario step to form one row of the spectrum matrix.
//! [`CoverageRuns`] is the same row as its recorder already knows it:
//! contiguous block ranges plus single blocks, folded without a bitset.

use std::ops::Range;

/// An immutable snapshot of which blocks were hit during one interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSnapshot {
    words: Vec<u64>,
    n_blocks: u32,
}

impl BlockSnapshot {
    /// True if `block` was hit.
    pub fn is_hit(&self, block: u32) -> bool {
        if block >= self.n_blocks {
            return false;
        }
        let (w, b) = (block / 64, block % 64);
        self.words[w as usize] & (1u64 << b) != 0
    }

    /// Number of blocks hit.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Total number of instrumented blocks.
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// Iterates over the hit block ids in ascending order.
    ///
    /// Built on [`BlockSnapshot::iter_hit_words`], so runtime is
    /// proportional to the number of *hits*, not the number of
    /// instrumented blocks — the sparse fast path that keeps folding a
    /// snapshot into columnar diagnosis counters cheap at million-block
    /// scale.
    pub fn iter_hits(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter_hit_words().flat_map(|(wi, word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(wi as u32 * 64 + b)
            })
        })
    }

    /// Iterates over `(word_index, word)` pairs for **nonzero** bitset
    /// words only, in ascending word order.
    ///
    /// This is the sparse step representation consumers fold over: a
    /// typical scenario step touches a small fraction of the blocks, so
    /// skipping zero words makes per-step accumulation O(hit words)
    /// instead of O(total words).
    pub fn iter_hit_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, w)| **w != 0)
            .map(|(i, &w)| (i, w))
    }

    /// Raw bitset words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// One interval's block coverage as runs: disjoint block `ranges` plus
/// distinct single `blocks` that lie outside every range.
///
/// Region-shaped coverage (a function's consecutive basic blocks light
/// up together) is a handful of ranges, so a consumer that folds hits
/// into per-block counters can bump each range as one slice instead of
/// materializing and scanning a bitset. The hit set is the union of the
/// ranges and the blocks; the invariants make every hit appear exactly
/// once, which counters (unlike a bitset) rely on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageRuns {
    /// Disjoint ranges of hit blocks.
    pub ranges: Vec<Range<u32>>,
    /// Distinct hit blocks outside every range.
    pub blocks: Vec<u32>,
}

/// A mutable block-hit recorder.
///
/// ```
/// use observe::BlockCoverage;
///
/// let mut cov = BlockCoverage::new(1000);
/// cov.hit(3);
/// cov.hit(999);
/// let snap = cov.snapshot_and_reset();
/// assert_eq!(snap.count(), 2);
/// assert!(snap.is_hit(3));
/// assert!(!cov.any_hit()); // reset
/// ```
#[derive(Debug, Clone)]
pub struct BlockCoverage {
    words: Vec<u64>,
    n_blocks: u32,
}

impl BlockCoverage {
    /// Creates coverage over `n_blocks` instrumented blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero.
    pub fn new(n_blocks: u32) -> Self {
        assert!(n_blocks > 0, "need at least one block");
        BlockCoverage {
            words: vec![0u64; n_blocks.div_ceil(64) as usize],
            n_blocks,
        }
    }

    /// Number of instrumented blocks.
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// Records execution of `block`. Out-of-range ids are ignored (robust
    /// against instrumentation drift).
    #[inline]
    pub fn hit(&mut self, block: u32) {
        if block < self.n_blocks {
            let (w, b) = (block / 64, block % 64);
            self.words[w as usize] |= 1u64 << b;
        }
    }

    /// True if `block` is currently marked hit.
    pub fn is_hit(&self, block: u32) -> bool {
        if block >= self.n_blocks {
            return false;
        }
        let (w, b) = (block / 64, block % 64);
        self.words[w as usize] & (1u64 << b) != 0
    }

    /// True if anything was hit since the last reset.
    pub fn any_hit(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// Number of distinct blocks currently marked.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Snapshots the current hits and clears the recorder — one scenario
    /// step's spectrum row.
    pub fn snapshot_and_reset(&mut self) -> BlockSnapshot {
        let snap = BlockSnapshot {
            words: self.words.clone(),
            n_blocks: self.n_blocks,
        };
        self.reset();
        snap
    }

    /// Clears the recorder without taking a snapshot — for intervals
    /// whose coverage is discarded.
    pub fn reset(&mut self) {
        self.words.fill(0);
    }

    /// Appends the hit block ids below `end` to `out` in ascending
    /// order, each once, and clears them; hits at or above `end` stay.
    /// Only the words below `end` are visited.
    pub fn drain_hits_below(&mut self, end: u32, out: &mut Vec<u32>) {
        let end = end.min(self.n_blocks);
        let words = end.div_ceil(64) as usize;
        for (base, word) in (0u32..).step_by(64).zip(&mut self.words[..words]) {
            let below = if end - base >= 64 {
                u64::MAX
            } else {
                (1u64 << (end - base)) - 1
            };
            let mut rest = *word & below;
            *word &= !below;
            while rest != 0 {
                out.push(base + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_query() {
        let mut cov = BlockCoverage::new(130);
        cov.hit(0);
        cov.hit(64);
        cov.hit(129);
        assert!(cov.is_hit(0));
        assert!(cov.is_hit(64));
        assert!(cov.is_hit(129));
        assert!(!cov.is_hit(1));
        assert_eq!(cov.count(), 3);
    }

    #[test]
    fn repeat_hits_count_once_in_bitset() {
        let mut cov = BlockCoverage::new(10);
        cov.hit(5);
        cov.hit(5);
        assert_eq!(cov.count(), 1);
    }

    #[test]
    fn out_of_range_ignored() {
        let mut cov = BlockCoverage::new(10);
        cov.hit(10);
        cov.hit(u32::MAX);
        assert!(!cov.any_hit());
        assert!(!cov.is_hit(10));
    }

    #[test]
    fn snapshot_resets() {
        let mut cov = BlockCoverage::new(100);
        cov.hit(42);
        let snap = cov.snapshot_and_reset();
        assert!(snap.is_hit(42));
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.n_blocks(), 100);
        assert!(!cov.any_hit());
        assert_eq!(cov.count(), 0);
    }

    #[test]
    fn reset_clears_without_snapshot() {
        let mut cov = BlockCoverage::new(100);
        cov.hit(7);
        cov.hit(99);
        cov.reset();
        assert!(!cov.any_hit());
    }

    #[test]
    fn drain_below_lists_and_clears_only_the_hits_below() {
        let mut cov = BlockCoverage::new(200);
        for b in [199u32, 3, 64, 3, 65, 130, 131] {
            cov.hit(b);
        }
        let mut out = vec![7];
        cov.drain_hits_below(131, &mut out);
        assert_eq!(out, vec![7, 3, 64, 65, 130]);
        let rest: Vec<u32> = cov.clone().snapshot_and_reset().iter_hits().collect();
        assert_eq!(rest, vec![131, 199]);
        cov.drain_hits_below(u32::MAX, &mut out);
        assert_eq!(out[5..], [131, 199]);
        assert!(!cov.any_hit());
    }

    #[test]
    fn snapshot_iter_hits() {
        let mut cov = BlockCoverage::new(200);
        for b in [3u32, 64, 65, 199] {
            cov.hit(b);
        }
        let snap = cov.snapshot_and_reset();
        let hits: Vec<u32> = snap.iter_hits().collect();
        assert_eq!(hits, vec![3, 64, 65, 199]);
        assert!(!snap.is_hit(200));
    }

    #[test]
    fn hit_words_skip_zero_words() {
        let mut cov = BlockCoverage::new(64 * 10);
        cov.hit(0);
        cov.hit(64 * 9); // words 1..=8 stay zero
        let snap = cov.snapshot_and_reset();
        let words: Vec<(usize, u64)> = snap.iter_hit_words().collect();
        assert_eq!(words, vec![(0, 1), (9, 1)]);
        assert_eq!(snap.count(), 2);
    }

    #[test]
    fn iter_hits_matches_per_bit_scan() {
        let mut cov = BlockCoverage::new(500);
        for b in (0..500).step_by(13) {
            cov.hit(b);
        }
        let snap = cov.snapshot_and_reset();
        let sparse: Vec<u32> = snap.iter_hits().collect();
        let dense: Vec<u32> = (0..500).filter(|b| snap.is_hit(*b)).collect();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn scale_to_sixty_thousand_blocks() {
        // The paper's experiment size: 60 000 blocks.
        let mut cov = BlockCoverage::new(60_000);
        for b in (0..60_000).step_by(7) {
            cov.hit(b);
        }
        let snap = cov.snapshot_and_reset();
        assert_eq!(snap.count(), 60_000 / 7 + 1);
        assert_eq!(snap.words().len(), 60_000usize.div_ceil(64));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = BlockCoverage::new(0);
    }
}
