//! The spectrum matrix: block-hit rows per scenario step plus the error
//! vector.

use crate::counts::EMPTY_BLOCKS_MSG;
use crate::ranking::Ranking;
use crate::similarity::{Coefficient, Counts};

/// Block-hit spectra for a whole scenario.
///
/// Each *step* (e.g. the interval between two key presses) contributes one
/// bitset row of hit blocks and one pass/fail verdict. Column statistics
/// produce the per-block [`Counts`] that similarity coefficients score.
///
/// This dense row-retaining layout is the reproduction's **oracle**: it
/// mirrors the paper's matrix literally and every other layout is tested
/// against it. Memory is O(steps × blocks), so diagnosis itself runs on
/// the [`crate::Diagnoser`]'s streaming [`crate::CountsMatrix`] and the
/// sharded [`crate::score_top_k`] scorer, which reproduce its rankings
/// exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumMatrix {
    n_blocks: u32,
    words_per_row: usize,
    rows: Vec<Vec<u64>>,
    verdicts: Vec<bool>, // true = step failed
}

impl SpectrumMatrix {
    /// Creates an empty matrix over `n_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero.
    pub fn new(n_blocks: u32) -> Self {
        assert!(n_blocks > 0, "{}", EMPTY_BLOCKS_MSG);
        SpectrumMatrix {
            n_blocks,
            words_per_row: n_blocks.div_ceil(64) as usize,
            rows: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Number of instrumented blocks (columns).
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// Number of scenario steps recorded (rows).
    pub fn steps(&self) -> usize {
        self.rows.len()
    }

    /// Number of failing steps.
    pub fn failing_steps(&self) -> usize {
        self.verdicts.iter().filter(|v| **v).count()
    }

    /// Adds a step from an iterator of hit block ids.
    ///
    /// `failed` is the error detector's verdict for the step.
    ///
    /// An id `>= n_blocks` indicates instrumentation drift and trips a
    /// debug assertion. Release builds saturate: the stray id is dropped
    /// from the row (it cannot be attributed to any real block) and the
    /// step is otherwise recorded normally.
    pub fn add_step(&mut self, hits: impl IntoIterator<Item = u32>, failed: bool) {
        let mut row = vec![0u64; self.words_per_row];
        for b in hits {
            debug_assert!(
                b < self.n_blocks,
                "block id {b} out of range (n_blocks = {})",
                self.n_blocks
            );
            if b < self.n_blocks {
                row[(b / 64) as usize] |= 1u64 << (b % 64);
            }
        }
        self.rows.push(row);
        self.verdicts.push(failed);
    }

    /// Number of distinct blocks hit in at least one step.
    pub fn blocks_touched(&self) -> u32 {
        let mut acc = vec![0u64; self.words_per_row];
        for row in &self.rows {
            for (a, w) in acc.iter_mut().zip(row) {
                *a |= w;
            }
        }
        acc.iter().map(|w| w.count_ones()).sum()
    }

    /// Contingency counts for one block.
    pub fn counts(&self, block: u32) -> Counts {
        let mut c = Counts::default();
        let (w, b) = ((block / 64) as usize, block % 64);
        for (row, &failed) in self.rows.iter().zip(&self.verdicts) {
            let hit = row[w] & (1u64 << b) != 0;
            match (hit, failed) {
                (true, true) => c.a11 += 1,
                (true, false) => c.a10 += 1,
                (false, true) => c.a01 += 1,
                (false, false) => c.a00 += 1,
            }
        }
        c
    }

    /// Scores every block with `coefficient` and returns the ranking.
    ///
    /// Blocks never hit in any step score 0 and are kept (they dilute the
    /// ranking exactly as in the real experiment).
    pub fn rank(&self, coefficient: Coefficient) -> Ranking {
        let mut scores: Vec<f64> = Vec::with_capacity(self.n_blocks as usize);
        // Column-wise walk, word at a time, for cache efficiency.
        for block in 0..self.n_blocks {
            scores.push(coefficient.score(self.counts(block)));
        }
        Ranking::from_scores(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_steps() {
        let mut m = SpectrumMatrix::new(100);
        m.add_step([1, 2, 3].iter().copied(), false);
        m.add_step([3, 4].iter().copied(), true);
        assert_eq!(m.steps(), 2);
        assert_eq!(m.failing_steps(), 1);
        assert_eq!(m.blocks_touched(), 4);
    }

    #[test]
    fn counts_match_definition() {
        let mut m = SpectrumMatrix::new(8);
        m.add_step([0].iter().copied(), true); // block0: hit/fail
        m.add_step([0, 1].iter().copied(), false); // block0: hit/pass
        m.add_step([1].iter().copied(), true); // block0: miss/fail
        m.add_step([].iter().copied(), false); // block0: miss/pass
        let c = m.counts(0);
        assert_eq!((c.a11, c.a10, c.a01, c.a00), (1, 1, 1, 1));
    }

    #[test]
    fn faulty_block_ranks_first() {
        // Fault in block 9: executing it always fails the step.
        let mut m = SpectrumMatrix::new(20);
        m.add_step([1, 2, 9].iter().copied(), true);
        m.add_step([1, 2, 3].iter().copied(), false);
        m.add_step([2, 9].iter().copied(), true);
        m.add_step([4, 5].iter().copied(), false);
        let r = m.rank(Coefficient::Ochiai);
        assert_eq!(r.entries()[0].block, 9);
        assert_eq!(r.rank_of(9), Some(1.0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn out_of_range_hits_debug_assert() {
        let mut m = SpectrumMatrix::new(10);
        m.add_step([99].iter().copied(), true);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn out_of_range_hits_saturate_in_release() {
        let mut m = SpectrumMatrix::new(10);
        m.add_step([99].iter().copied(), true);
        assert_eq!(m.blocks_touched(), 0);
        assert_eq!(m.steps(), 1);
    }

    #[test]
    #[should_panic(expected = "need at least one block")]
    fn zero_blocks_rejected() {
        let _ = SpectrumMatrix::new(0);
    }
}
