//! The end-to-end diagnosers: coverage snapshots + verdicts in, report out.
//!
//! Two flavours:
//!
//! * [`Diagnoser`] — post-mortem, dense. Retains the full
//!   [`SpectrumMatrix`] (the oracle layout) and ranks once at the end.
//! * [`IncrementalDiagnoser`] — streaming. Folds each step into a
//!   columnar [`CountsMatrix`] in O(hits) and scores a bounded top-k
//!   window whenever it is read, so the awareness loop can diagnose
//!   *while running* instead of after the fact.

use crate::counts::CountsMatrix;
use crate::matrix::SpectrumMatrix;
use crate::report::DiagnosisReport;
use crate::similarity::Coefficient;
use crate::topk::{score_top_k, TopK};
use observe::{BlockSnapshot, CoverageRuns};

/// Accumulates scenario steps and produces a [`DiagnosisReport`].
///
/// The intended flow mirrors the paper's experiment: after each key press,
/// snapshot the [`observe::BlockCoverage`] of the instrumented system, attach the
/// error detector's verdict, and finally diagnose.
///
/// ```
/// use spectra::{Diagnoser, Coefficient};
/// use observe::BlockCoverage;
///
/// let mut cov = BlockCoverage::new(50);
/// let mut diag = Diagnoser::new(50);
///
/// // Step 1: blocks 1,2 run; no error.
/// cov.hit(1); cov.hit(2);
/// diag.record_step(cov.snapshot_and_reset(), false);
/// // Step 2: blocks 2,7 run; error detected (7 is the fault).
/// cov.hit(2); cov.hit(7);
/// diag.record_step(cov.snapshot_and_reset(), true);
///
/// let report = diag.diagnose(Coefficient::Ochiai);
/// assert_eq!(report.ranking.entries()[0].block, 7);
/// ```
#[derive(Debug, Clone)]
pub struct Diagnoser {
    matrix: SpectrumMatrix,
}

impl Diagnoser {
    /// Creates a diagnoser over `n_blocks` instrumented blocks.
    pub fn new(n_blocks: u32) -> Self {
        Diagnoser {
            matrix: SpectrumMatrix::new(n_blocks),
        }
    }

    /// Records one scenario step.
    pub fn record_step(&mut self, snapshot: BlockSnapshot, failed: bool) {
        self.matrix.add_snapshot(&snapshot, failed);
    }

    /// Records a step directly from hit ids (testing convenience).
    pub fn record_hits(&mut self, hits: impl IntoIterator<Item = u32>, failed: bool) {
        self.matrix.add_step(hits, failed);
    }

    /// The accumulated matrix.
    pub fn matrix(&self) -> &SpectrumMatrix {
        &self.matrix
    }

    /// Number of steps recorded.
    pub fn steps(&self) -> usize {
        self.matrix.steps()
    }

    /// Ranks blocks and assembles the report.
    pub fn diagnose(&self, coefficient: Coefficient) -> DiagnosisReport {
        let ranking = self.matrix.rank(coefficient);
        DiagnosisReport {
            n_blocks: self.matrix.n_blocks(),
            steps: self.matrix.steps(),
            failing_steps: self.matrix.failing_steps(),
            blocks_touched: self.matrix.blocks_touched(),
            ranking,
        }
    }
}

/// A streaming diagnoser whose suspect window is scored on read.
///
/// Memory is O(blocks) — steps are folded into the columnar
/// [`CountsMatrix`] and discarded — and an append costs O(hits): it
/// only bumps counters. [`top_k`](Self::top_k) scores the accumulated
/// counts when asked, so the current best suspects are available
/// mid-scenario at any step, and a caller that reads once per scenario
/// pays for one scoring pass, not one per step:
///
/// ```
/// use spectra::IncrementalDiagnoser;
///
/// let mut diag = IncrementalDiagnoser::new(1000).with_top_k(3);
/// diag.append_step([1, 2].iter().copied(), false);
/// diag.append_step([2, 7].iter().copied(), true);
/// assert_eq!(diag.top_k().prime_suspect(), Some(7)); // mid-run, after step 2
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalDiagnoser {
    counts: CountsMatrix,
    k: usize,
}

impl IncrementalDiagnoser {
    /// Creates a streaming diagnoser over `n_blocks` blocks.
    ///
    /// It scores with Ochiai (the coefficient the Trader work found most
    /// effective) over a top-10 window by default.
    pub fn new(n_blocks: u32) -> Self {
        IncrementalDiagnoser {
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

    /// Scores the steps appended so far and returns the top-k window
    /// (empty before the first step). Each call is one O(blocks) pass
    /// on the calling thread — a read is too short for scoring shards to
    /// pay for their threads — that scores a run of equal counts the
    /// window turns away once, and the result equals the dense ranking's
    /// `top(k)` over the same steps.
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

    /// Ranks *all* blocks and assembles a full report (O(blocks log
    /// blocks) — intended for end-of-scenario summaries, not the
    /// per-step hot path).
    pub fn diagnose(&self) -> DiagnosisReport {
        DiagnosisReport {
            n_blocks: self.counts.n_blocks(),
            steps: self.counts.steps(),
            failing_steps: self.counts.failing_steps(),
            blocks_touched: self.counts.blocks_touched(),
            ranking: self.counts.rank(Coefficient::Ochiai),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            diag.record_step(cov.snapshot_and_reset(), touches_fault);
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
        diag.record_hits([1, 2], false);
        diag.record_hits([2, 3], true);
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
        let mut dense = Diagnoser::new(200);
        let mut inc = IncrementalDiagnoser::new(200).with_top_k(8);
        for (hits, failed) in &steps {
            dense.record_hits(hits.iter().copied(), *failed);
            inc.append_step(hits.iter().copied(), *failed);
            // After every step: window == dense oracle's top slice.
            let oracle = dense.matrix().rank(Coefficient::Ochiai);
            assert_eq!(inc.top_k().entries(), oracle.top(8));
        }
        assert_eq!(inc.steps(), steps.len());
        assert_eq!(inc.top_k().prime_suspect(), Some(150));
        // Full report agrees with the dense diagnosis byte for byte.
        assert_eq!(
            inc.diagnose().ranking,
            dense.diagnose(Coefficient::Ochiai).ranking
        );
    }

    #[test]
    fn incremental_snapshot_flow() {
        let mut cov = BlockCoverage::new(500);
        let mut inc = IncrementalDiagnoser::new(500).with_top_k(2);
        assert!(inc.top_k().entries().is_empty());
        cov.hit(3);
        cov.hit(4);
        inc.append_snapshot(&cov.snapshot_and_reset(), false);
        cov.hit(4);
        cov.hit(99);
        inc.append_snapshot(&cov.snapshot_and_reset(), true);
        assert_eq!(inc.top_k().prime_suspect(), Some(99));
        assert_eq!(inc.counts().blocks_touched(), 3);
        assert_eq!(inc.diagnose().failing_steps, 1);
    }
}
