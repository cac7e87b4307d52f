//! The end-to-end diagnoser: coverage steps + verdicts in, suspects out.
//!
//! [`Diagnoser`] folds each step into a columnar [`CountsMatrix`] in
//! O(hits) and keeps no per-step rows. Two reads score the same counts:
//! the Ochiai top-k window the awareness loop reads *while running*
//! ([`Diagnoser::top_k`]), and the full report under any coefficient
//! that the paper's experiment ranks at the end
//! ([`Diagnoser::diagnose`]).

use crate::counts::CountsMatrix;
use crate::report::DiagnosisReport;
use crate::similarity::Coefficient;
use crate::topk::{score_top_k, TopK};
use observe::{BlockSnapshot, CoverageRuns};

/// Accumulates scenario steps; scores a suspect window or a full report
/// on read.
///
/// The intended flow mirrors the paper's experiment: after each key press,
/// snapshot the [`observe::BlockCoverage`] of the instrumented system, attach the
/// error detector's verdict, and diagnose — at any step, mid-run, or once
/// at the end. Memory is O(blocks) and a step costs O(hits): it only
/// bumps counters.
///
/// ```
/// use spectra::{Diagnoser, Coefficient};
/// use observe::BlockCoverage;
///
/// let mut cov = BlockCoverage::new(50);
/// let mut diag = Diagnoser::new(50).with_top_k(3);
///
/// // Step 1: blocks 1,2 run; no error.
/// cov.hit(1); cov.hit(2);
/// diag.append_snapshot(&cov.snapshot_and_reset(), false);
/// // Step 2: blocks 2,7 run; error detected (7 is the fault).
/// cov.hit(2); cov.hit(7);
/// diag.append_snapshot(&cov.snapshot_and_reset(), true);
///
/// assert_eq!(diag.top_k().prime_suspect(), Some(7)); // the loop's window
/// let report = diag.diagnose(Coefficient::Ochiai); // the full ranking
/// assert_eq!(report.ranking.entries()[0].block, 7);
/// ```
#[derive(Debug, Clone)]
pub struct Diagnoser {
    counts: CountsMatrix,
    k: usize,
}

impl Diagnoser {
    /// Creates a diagnoser over `n_blocks` instrumented blocks.
    ///
    /// Its window scores with Ochiai (the coefficient the Trader work
    /// found most effective) over the top 10 by default.
    pub fn new(n_blocks: u32) -> Self {
        Diagnoser {
            counts: CountsMatrix::new(n_blocks),
            k: 10,
        }
    }

    /// Sets the size of the suspect window.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Folds one step (sparse hit ids) into the counters.
    pub fn append_step(&mut self, hits: impl IntoIterator<Item = u32>, failed: bool) {
        self.counts.add_step(hits, failed);
    }

    /// Folds one step from a coverage snapshot into the counters.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot covers a different number of blocks.
    pub fn append_snapshot(&mut self, snapshot: &BlockSnapshot, failed: bool) {
        self.counts.add_snapshot(snapshot, failed);
    }

    /// Folds one step given as coverage runs into the counters
    /// ([`CountsMatrix::add_runs`]).
    pub fn append_runs(&mut self, runs: &CoverageRuns, failed: bool) {
        self.counts.add_runs(runs, failed);
    }

    /// Scores the steps appended so far and returns the Ochiai top-k
    /// window (empty before the first step). Each call is one O(blocks)
    /// pass on the calling thread — a read is too short for scoring
    /// shards to pay for their threads — that scores a run of equal
    /// counts the window turns away once, and the result equals the
    /// full ranking's `top(k)` over the same steps.
    pub fn top_k(&self) -> TopK {
        if self.counts.steps() == 0 {
            return TopK::empty(self.counts.n_blocks());
        }
        score_top_k(&self.counts, Coefficient::Ochiai, self.k, 1)
    }

    /// The accumulated columnar counters.
    pub fn counts(&self) -> &CountsMatrix {
        &self.counts
    }

    /// Number of steps appended.
    pub fn steps(&self) -> usize {
        self.counts.steps()
    }

    /// Ranks *all* blocks under `coefficient` and assembles the report
    /// (O(blocks log blocks): an end-of-scenario summary, not a
    /// per-step read).
    pub fn diagnose(&self, coefficient: Coefficient) -> DiagnosisReport {
        DiagnosisReport {
            n_blocks: self.counts.n_blocks(),
            steps: self.counts.steps(),
            failing_steps: self.counts.failing_steps(),
            blocks_touched: self.counts.blocks_touched(),
            ranking: self.counts.rank(coefficient),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::SpectrumMatrix;
    use observe::BlockCoverage;

    #[test]
    fn full_flow_localizes_fault() {
        let mut cov = BlockCoverage::new(1000);
        let mut diag = Diagnoser::new(1000);
        // Fault in block 500: any step touching it fails.
        for step in 0..20u32 {
            for b in (step * 37..step * 37 + 30).map(|b| b % 1000) {
                cov.hit(b);
            }
            let touches_fault = {
                let lo = step * 37 % 1000;
                (lo..lo + 30).contains(&500)
            };
            if touches_fault {
                cov.hit(500);
            }
            diag.append_snapshot(&cov.snapshot_and_reset(), touches_fault);
        }
        assert_eq!(diag.steps(), 20);
        let report = diag.diagnose(Coefficient::Ochiai);
        assert!(report.failing_steps > 0);
        let rank = report.ranking.rank_of(500).unwrap();
        // The fault must be in the tied-top group.
        assert_eq!(report.ranking.best_case_rank_of(500), Some(1));
        assert!(rank <= 30.0, "rank {rank} too deep");
    }

    #[test]
    fn record_hits_convenience() {
        let mut diag = Diagnoser::new(10);
        diag.append_step([1, 2], false);
        diag.append_step([2, 3], true);
        let report = diag.diagnose(Coefficient::Jaccard);
        assert_eq!(report.steps, 2);
        assert_eq!(report.failing_steps, 1);
        assert_eq!(report.blocks_touched, 3);
        assert_eq!(report.ranking.entries()[0].block, 3);
    }

    #[test]
    fn incremental_matches_dense_after_every_step() {
        let steps: Vec<(Vec<u32>, bool)> = (0..15u32)
            .map(|s| {
                let mut hits: Vec<u32> = (0..200).filter(|b| (b * 3 + s * 7) % 11 == 0).collect();
                let failed = s % 4 == 1;
                if failed {
                    hits.push(150);
                }
                hits.retain(|b| *b != 150 || failed);
                (hits, failed)
            })
            .collect();
        let mut dense = SpectrumMatrix::new(200);
        let mut inc = Diagnoser::new(200).with_top_k(8);
        for (hits, failed) in &steps {
            dense.add_step(hits.iter().copied(), *failed);
            inc.append_step(hits.iter().copied(), *failed);
            // After every step: window == dense oracle's top slice.
            let oracle = dense.rank(Coefficient::Ochiai);
            assert_eq!(inc.top_k().entries(), oracle.top(8));
        }
        assert_eq!(inc.steps(), steps.len());
        assert_eq!(inc.top_k().prime_suspect(), Some(150));
        // Full report agrees with the dense diagnosis byte for byte.
        assert_eq!(
            inc.diagnose(Coefficient::Ochiai).ranking,
            dense.rank(Coefficient::Ochiai)
        );
    }

    #[test]
    fn incremental_snapshot_flow() {
        let mut cov = BlockCoverage::new(500);
        let mut inc = Diagnoser::new(500).with_top_k(2);
        assert!(inc.top_k().entries().is_empty());
        cov.hit(3);
        cov.hit(4);
        inc.append_snapshot(&cov.snapshot_and_reset(), false);
        cov.hit(4);
        cov.hit(99);
        inc.append_snapshot(&cov.snapshot_and_reset(), true);
        assert_eq!(inc.top_k().prime_suspect(), Some(99));
        assert_eq!(inc.counts().blocks_touched(), 3);
        assert_eq!(inc.diagnose(Coefficient::Ochiai).failing_steps, 1);
    }
}
