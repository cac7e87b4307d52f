//! Streaming columnar counts accumulator: the scalable alternative to
//! retaining dense spectrum rows.
//!
//! [`SpectrumMatrix`] keeps one bitset row per
//! scenario step, so its memory is O(steps × blocks) and scoring walks
//! every row per block. That is the faithful, obviously-correct *oracle*
//! — but it caps out near the paper's 60 000-block experiment. All any
//! similarity coefficient actually needs per block is the 2×2
//! contingency [`Counts`]; [`CountsMatrix`] therefore folds each step
//! directly into per-block `(a_ef, a_ep)` counters (hit-in-failing /
//! hit-in-passing) and derives the miss cells from the global step
//! totals. Memory is O(blocks) regardless of scenario length, and a
//! step costs O(hits), not O(blocks):
//!
//! ```text
//!   step (sparse hits)          columnar counters (two u32 per block)
//!   ┌──────────────┐            a_ef: [ 0 1 0 0 3 … ]   += hit & failed
//!   │ 17, 94, 2051 │ ─ fold ──▶ a_ep: [ 5 0 2 9 0 … ]   += hit & passed
//!   └──────────────┘            failing_steps / passing_steps (totals)
//! ```
//!
//! `a_nf = failing_steps − a_ef` and `a_np = passing_steps − a_ep` are
//! reconstructed on demand, so the counts — and thus every score and
//! every ranking — are *exactly* those the dense matrix would produce
//! (the equivalence is property-tested in `tests/properties.rs`).

use crate::matrix::SpectrumMatrix;
use crate::ranking::Ranking;
use crate::similarity::{Coefficient, Counts};
use observe::BlockSnapshot;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Panic message shared by every spectrum builder that rejects an empty
/// block range.
pub(crate) const EMPTY_BLOCKS_MSG: &str = "need at least one block (n_blocks == 0)";

/// Columnar per-block contingency counters over a whole scenario.
///
/// ```
/// use spectra::{Coefficient, CountsMatrix};
///
/// // 4 blocks, 3 steps. Block 2 is hit exactly when the step fails.
/// let mut m = CountsMatrix::new(4);
/// m.add_step([0, 1].iter().copied(), false);
/// m.add_step([0, 2].iter().copied(), true);
/// m.add_step([0, 2, 3].iter().copied(), true);
/// assert_eq!(m.rank(Coefficient::Ochiai).entries()[0].block, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountsMatrix {
    n_blocks: u32,
    /// Per block: steps in which it was hit *and* the step failed.
    a_ef: Vec<u32>,
    /// Per block: steps in which it was hit *and* the step passed.
    a_ep: Vec<u32>,
    failing_steps: u32,
    passing_steps: u32,
}

impl CountsMatrix {
    /// Creates an empty accumulator over `n_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero.
    pub fn new(n_blocks: u32) -> Self {
        assert!(n_blocks > 0, "{}", EMPTY_BLOCKS_MSG);
        CountsMatrix {
            n_blocks,
            a_ef: vec![0; n_blocks as usize],
            a_ep: vec![0; n_blocks as usize],
            failing_steps: 0,
            passing_steps: 0,
        }
    }

    /// Folds a dense [`SpectrumMatrix`] into columnar counters (used to
    /// migrate existing matrices and to cross-check the two layouts).
    pub fn from_matrix(matrix: &SpectrumMatrix) -> Self {
        let mut m = CountsMatrix::new(matrix.n_blocks());
        for step in 0..matrix.steps() {
            let failed = matrix.error_vector()[step];
            m.add_step(
                (0..matrix.n_blocks()).filter(|b| matrix.is_hit(step, *b)),
                failed,
            );
        }
        m
    }

    /// Number of instrumented blocks.
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// Number of scenario steps folded in so far.
    pub fn steps(&self) -> usize {
        (self.failing_steps + self.passing_steps) as usize
    }

    /// Number of failing steps.
    pub fn failing_steps(&self) -> usize {
        self.failing_steps as usize
    }

    /// Number of passing steps.
    pub fn passing_steps(&self) -> usize {
        self.passing_steps as usize
    }

    /// Number of distinct blocks hit in at least one step.
    pub fn blocks_touched(&self) -> u32 {
        self.a_ef
            .iter()
            .zip(&self.a_ep)
            .filter(|(ef, ep)| **ef > 0 || **ep > 0)
            .count() as u32
    }

    #[inline]
    fn hit(&mut self, block: u32, failed: bool) {
        debug_assert!(
            block < self.n_blocks,
            "block id {block} out of range (n_blocks = {})",
            self.n_blocks
        );
        if block < self.n_blocks {
            if failed {
                self.a_ef[block as usize] += 1;
            } else {
                self.a_ep[block as usize] += 1;
            }
        }
    }

    fn finish_step(&mut self, failed: bool) {
        if failed {
            self.failing_steps += 1;
        } else {
            self.passing_steps += 1;
        }
    }

    /// Folds one step given as a sparse iterator of hit block ids.
    ///
    /// Each id must appear at most once (ids come from a coverage bitset,
    /// which cannot repeat). Out-of-range ids trip a debug assertion;
    /// release builds ignore them (saturating into a no-op), matching
    /// [`SpectrumMatrix::add_step`].
    pub fn add_step(&mut self, hits: impl IntoIterator<Item = u32>, failed: bool) {
        for b in hits {
            self.hit(b, failed);
        }
        self.finish_step(failed);
    }

    /// Folds one step given as contiguous id ranges — the cheapest sparse
    /// representation for region-shaped coverage (consecutive basic
    /// blocks of the same function light up together).
    ///
    /// Ranges must not overlap each other. Portions beyond `n_blocks`
    /// trip a debug assertion and are clamped in release builds.
    pub fn add_step_ranges(&mut self, ranges: &[Range<u32>], failed: bool) {
        for r in ranges {
            debug_assert!(
                r.end <= self.n_blocks,
                "range {r:?} out of range (n_blocks = {})",
                self.n_blocks
            );
            let lo = r.start.min(self.n_blocks) as usize;
            let hi = r.end.min(self.n_blocks) as usize;
            let column = if failed {
                &mut self.a_ef
            } else {
                &mut self.a_ep
            };
            for c in &mut column[lo..hi] {
                *c += 1;
            }
        }
        self.finish_step(failed);
    }

    /// Folds one step from a coverage snapshot, visiting only nonzero
    /// bitset words ([`BlockSnapshot::iter_hit_words`]).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot covers a different number of blocks.
    pub fn add_snapshot(&mut self, snapshot: &BlockSnapshot, failed: bool) {
        assert_eq!(
            snapshot.n_blocks(),
            self.n_blocks,
            "snapshot block count mismatch"
        );
        let column = if failed {
            &mut self.a_ef
        } else {
            &mut self.a_ep
        };
        for (wi, word) in snapshot.iter_hit_words() {
            let base = wi as u32 * 64;
            let mut rest = word;
            while rest != 0 {
                let b = base + rest.trailing_zeros();
                rest &= rest - 1;
                // The last word may carry bits past n_blocks in theory;
                // BlockCoverage never sets them, so this stays in range.
                column[b as usize] += 1;
            }
        }
        self.finish_step(failed);
    }

    /// Contingency counts for one block, identical to what
    /// [`SpectrumMatrix::counts`] reconstructs from dense rows.
    #[inline]
    pub fn counts(&self, block: u32) -> Counts {
        Counts::from_columnar(
            self.a_ef[block as usize],
            self.a_ep[block as usize],
            self.failing_steps,
            self.passing_steps,
        )
    }

    /// Suspiciousness score of one block under `coefficient`.
    #[inline]
    pub fn score(&self, block: u32, coefficient: Coefficient) -> f64 {
        coefficient.score(self.counts(block))
    }

    /// Scores every block and returns the full ranking — same semantics
    /// as [`SpectrumMatrix::rank`], O(blocks) scoring instead of
    /// O(blocks × steps).
    ///
    /// For million-block matrices prefer [`crate::topk::score_top_k`],
    /// which never materializes the full ranking.
    pub fn rank(&self, coefficient: Coefficient) -> Ranking {
        let scores: Vec<f64> = (0..self.n_blocks)
            .map(|b| self.score(b, coefficient))
            .collect();
        Ranking::from_scores(scores, coefficient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use observe::BlockCoverage;

    #[test]
    fn counts_match_dense_oracle() {
        let steps: &[(&[u32], bool)] = &[
            (&[0, 1, 5], true),
            (&[1, 2], false),
            (&[], true),
            (&[0, 5, 7], false),
        ];
        let mut dense = SpectrumMatrix::new(8);
        let mut columnar = CountsMatrix::new(8);
        for (hits, failed) in steps {
            dense.add_step(hits.iter().copied(), *failed);
            columnar.add_step(hits.iter().copied(), *failed);
        }
        for b in 0..8 {
            assert_eq!(dense.counts(b), columnar.counts(b), "block {b}");
        }
        assert_eq!(dense.blocks_touched(), columnar.blocks_touched());
        assert_eq!(dense.failing_steps(), columnar.failing_steps());
        assert_eq!(dense.steps(), columnar.steps());
        for coef in Coefficient::ALL {
            assert_eq!(dense.rank(coef), columnar.rank(coef), "{coef}");
        }
    }

    #[test]
    fn from_matrix_round_trip() {
        let mut dense = SpectrumMatrix::new(70);
        dense.add_step([0, 64, 69].iter().copied(), true);
        dense.add_step([1, 64].iter().copied(), false);
        let columnar = CountsMatrix::from_matrix(&dense);
        for b in 0..70 {
            assert_eq!(dense.counts(b), columnar.counts(b));
        }
    }

    #[test]
    fn range_steps_match_id_steps() {
        let mut by_id = CountsMatrix::new(100);
        let mut by_range = CountsMatrix::new(100);
        by_id.add_step((10..20).chain(50..55), true);
        by_range.add_step_ranges(&[10..20, 50..55], true);
        by_id.add_step(30..40, false);
        by_range.add_step_ranges(std::slice::from_ref(&(30..40)), false);
        assert_eq!(by_id, by_range);
    }

    #[test]
    fn snapshot_folding_matches_id_folding() {
        let mut cov = BlockCoverage::new(300);
        for b in [0u32, 63, 64, 65, 170, 299] {
            cov.hit(b);
        }
        let snap = cov.snapshot_and_reset();
        let mut by_snap = CountsMatrix::new(300);
        by_snap.add_snapshot(&snap, true);
        let mut by_id = CountsMatrix::new(300);
        by_id.add_step(snap.iter_hits(), true);
        assert_eq!(by_snap, by_id);
        assert_eq!(by_snap.counts(64).a11, 1);
        assert_eq!(by_snap.counts(1).a01, 1);
    }

    #[test]
    #[should_panic(expected = "need at least one block")]
    fn zero_blocks_rejected() {
        let _ = CountsMatrix::new(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_debug_asserts() {
        let mut m = CountsMatrix::new(10);
        m.add_step([99].iter().copied(), true);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn out_of_range_id_ignored_in_release() {
        let mut m = CountsMatrix::new(10);
        m.add_step([99].iter().copied(), true);
        assert_eq!(m.blocks_touched(), 0);
        assert_eq!(m.failing_steps(), 1);
    }
}
