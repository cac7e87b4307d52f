//! Property-based tests of spectrum-matrix and ranking invariants, and
//! the equivalence suite for the scalable diagnosis engine: the
//! streaming columnar [`CountsMatrix`], the sharded top-k scorer and the
//! [`Diagnoser`]'s two reads must reproduce the dense [`SpectrumMatrix`]
//! oracle exactly — same counts, same scores, same tie order — for
//! every coefficient.

use observe::{BlockCoverage, CoverageRuns};
use proptest::prelude::*;
use spectra::{
    score_top_k, Coefficient, CountsMatrix, Diagnoser, DiagnosisReport, Ranking, SpectrumMatrix,
};

/// A generated scenario: per step, a de-duplicated in-range hit list
/// plus a verdict. Small block counts keep score ties frequent, which
/// is exactly the regime where ordering bugs hide.
fn scenario_strategy(
    n_blocks: u32,
    max_steps: usize,
) -> impl Strategy<Value = Vec<(Vec<u32>, bool)>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u32..n_blocks, 0..(n_blocks as usize).min(24)),
            any::<bool>(),
        ),
        1..max_steps,
    )
    .prop_map(|steps| {
        steps
            .into_iter()
            .map(|(mut hits, failed)| {
                hits.sort_unstable();
                hits.dedup();
                (hits, failed)
            })
            .collect()
    })
}

/// Coverage runs from one label per block: 0 a miss, 1 the next block
/// of the current range (or a new one), 2 the first block of a new range
/// (so ranges may touch), 3 a single block. The runs' invariants hold
/// by construction: disjoint ranges, distinct blocks outside them.
fn runs_from_labels(labels: &[u8]) -> CoverageRuns {
    let mut runs = CoverageRuns::default();
    for (b, &label) in (0u32..).zip(labels) {
        match (label, runs.ranges.last_mut()) {
            (1, Some(r)) if r.end == b => r.end += 1,
            (1 | 2, _) => runs.ranges.push(b..b + 1),
            (3, _) => runs.blocks.push(b),
            _ => {}
        }
    }
    runs
}

/// A region-shaped scenario: 40 regions of `stretch` blocks each, every
/// region hit whole or missed per step, so runs of equal counts span
/// whole regions. With 1,024-block regions the matrix has enough blocks
/// for every requested shard count to run.
fn region_strategy() -> impl Strategy<Value = (u32, Vec<(Vec<u32>, bool)>)> {
    (
        prop::sample::select(vec![3u32, 1_024]),
        prop::collection::vec(
            (prop::collection::vec(any::<bool>(), 40), any::<bool>()),
            1..8,
        ),
    )
        .prop_map(|(stretch, steps)| {
            let steps = steps
                .into_iter()
                .map(|(regions, failed)| {
                    let hits = (0u32..)
                        .zip(regions)
                        .filter(|&(_, hit)| hit)
                        .flat_map(|(r, _)| r * stretch..(r + 1) * stretch)
                        .collect();
                    (hits, failed)
                })
                .collect();
            (40 * stretch, steps)
        })
}

fn build_both(n_blocks: u32, steps: &[(Vec<u32>, bool)]) -> (SpectrumMatrix, CountsMatrix) {
    let mut dense = SpectrumMatrix::new(n_blocks);
    let mut columnar = CountsMatrix::new(n_blocks);
    for (hits, failed) in steps {
        dense.add_step(hits.iter().copied(), *failed);
        columnar.add_step(hits.iter().copied(), *failed);
    }
    (dense, columnar)
}

proptest! {
    /// Contingency counts always sum to the number of steps, for every
    /// block.
    #[test]
    fn counts_partition_steps(
        steps in prop::collection::vec(
            (prop::collection::vec(0u32..64, 0..20), any::<bool>()),
            1..30
        )
    ) {
        let mut m = SpectrumMatrix::new(64);
        for (hits, failed) in &steps {
            m.add_step(hits.iter().copied(), *failed);
        }
        for block in 0..64u32 {
            let c = m.counts(block);
            prop_assert_eq!(
                (c.a11 + c.a10 + c.a01 + c.a00) as usize,
                steps.len()
            );
            prop_assert_eq!(c.failures() as usize,
                steps.iter().filter(|(_, f)| *f).count());
        }
    }

    /// Every coefficient yields finite scores; Ochiai/Tarantula/Jaccard
    /// stay within [0, 1].
    #[test]
    fn coefficient_ranges(
        a11 in 0u32..50, a10 in 0u32..50, a01 in 0u32..50, a00 in 0u32..50
    ) {
        let c = spectra::Counts { a11, a10, a01, a00 };
        for coef in Coefficient::ALL {
            let s = coef.score(c);
            prop_assert!(s.is_finite(), "{coef}: {s}");
        }
        for coef in [Coefficient::Ochiai, Coefficient::Tarantula, Coefficient::Jaccard] {
            let s = coef.score(c);
            prop_assert!((0.0..=1.0).contains(&s), "{coef}: {s}");
        }
    }

    /// A ranking is always a permutation of all blocks, sorted by
    /// nonincreasing score, and mid-tie ranks stay within [1, n].
    #[test]
    fn ranking_is_sorted_permutation(scores in prop::collection::vec(0.0f64..1.0, 1..100)) {
        let n = scores.len();
        let r = Ranking::from_scores(scores);
        prop_assert_eq!(r.len(), n);
        let mut blocks: Vec<u32> = r.entries().iter().map(|e| e.block).collect();
        blocks.sort_unstable();
        prop_assert_eq!(blocks, (0..n as u32).collect::<Vec<_>>());
        for w in r.entries().windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for b in 0..n as u32 {
            let rank = r.rank_of(b).unwrap();
            prop_assert!(rank >= 1.0 && rank <= n as f64);
            let wasted = r.wasted_effort(b).unwrap();
            prop_assert!((0.0..=1.0).contains(&wasted));
        }
    }

    /// A block hit in *all and only* failing steps never ranks below a
    /// block with any imperfection, under Ochiai.
    #[test]
    fn perfect_block_wins(
        verdicts in prop::collection::vec(any::<bool>(), 2..30),
        noise in prop::collection::vec(any::<bool>(), 2..30)
    ) {
        prop_assume!(verdicts.iter().any(|v| *v));
        prop_assume!(verdicts.iter().any(|v| !*v));
        let mut m = SpectrumMatrix::new(2);
        for (i, failed) in verdicts.iter().enumerate() {
            let mut hits = Vec::new();
            if *failed {
                hits.push(0); // block 0: perfect correlation
            }
            if noise.get(i).copied().unwrap_or(false) {
                hits.push(1); // block 1: random
            }
            m.add_step(hits.into_iter(), *failed);
        }
        let r = m.rank(Coefficient::Ochiai);
        let s0 = r.entries().iter().find(|e| e.block == 0).unwrap().score;
        let s1 = r.entries().iter().find(|e| e.block == 1).unwrap().score;
        prop_assert!(s0 >= s1, "perfect {s0} vs noisy {s1}");
        prop_assert!((s0 - 1.0).abs() < 1e-12);
    }

    /// Streaming columnar counts equal the dense oracle's counts for
    /// every block, and the derived full rankings are byte-identical
    /// for every coefficient.
    #[test]
    fn streaming_counts_equal_dense(steps in scenario_strategy(48, 24)) {
        let (dense, columnar) = build_both(48, &steps);
        prop_assert_eq!(dense.steps(), columnar.steps());
        prop_assert_eq!(dense.failing_steps(), columnar.failing_steps());
        prop_assert_eq!(dense.blocks_touched(), columnar.blocks_touched());
        for b in 0..48u32 {
            prop_assert_eq!(dense.counts(b), columnar.counts(b), "block {}", b);
        }
        for coef in Coefficient::ALL {
            prop_assert_eq!(dense.rank(coef), columnar.rank(coef), "{}", coef);
        }
    }

    /// Sharded top-k equals the dense full sort's top slice — exactly,
    /// ties included — for every coefficient, shard count, and k, on
    /// scattered hits and on region-shaped ones, whose long runs of
    /// equal counts the scorer skips after a turned-away block.
    #[test]
    fn sharded_top_k_equals_full_sort(
        scenario in prop_oneof![
            scenario_strategy(40, 16).prop_map(|steps| (40, steps)),
            region_strategy(),
        ],
        shards in 1usize..9,
        k in 0usize..50
    ) {
        let (n_blocks, steps) = scenario;
        let (dense, columnar) = build_both(n_blocks, &steps);
        for coef in Coefficient::ALL {
            let oracle = dense.rank(coef);
            let top = score_top_k(&columnar, coef, k, shards);
            prop_assert_eq!(
                top.entries(), oracle.top(k),
                "coef={} shards={} k={}", coef, shards, k
            );
        }
    }

    /// The diagnoser scores its window on read: a read after
    /// any step — chosen by `read_mask` bit i after step i, or none
    /// before the last step when `lazy` — equals the dense oracle's top
    /// slice over the steps seen so far, however many reads came before.
    #[test]
    fn incremental_window_tracks_dense(
        steps in scenario_strategy(32, 12),
        read_mask in any::<u16>(),
        lazy in any::<bool>()
    ) {
        let mut dense = SpectrumMatrix::new(32);
        let mut inc = Diagnoser::new(32).with_top_k(6);
        prop_assert!(inc.top_k().entries().is_empty());
        for (i, (hits, failed)) in steps.iter().enumerate() {
            dense.add_step(hits.iter().copied(), *failed);
            inc.append_step(hits.iter().copied(), *failed);
            let last = i + 1 == steps.len();
            if last || (!lazy && read_mask & (1 << i) != 0) {
                let (window, oracle) = (inc.top_k(), dense.rank(Coefficient::Ochiai));
                prop_assert_eq!(window.entries(), oracle.top(6), "read after step {}", i);
            }
        }
    }

    /// The diagnoser's full report equals the one the dense oracle gives
    /// over the same steps, after every step and for every coefficient:
    /// block count, steps, failing steps, blocks touched and ranking.
    #[test]
    fn diagnose_equals_dense_report(steps in scenario_strategy(40, 12)) {
        let mut dense = SpectrumMatrix::new(40);
        let mut diag = Diagnoser::new(40);
        for (i, (hits, failed)) in steps.iter().enumerate() {
            dense.add_step(hits.iter().copied(), *failed);
            diag.append_step(hits.iter().copied(), *failed);
            for coef in Coefficient::ALL {
                let oracle = DiagnosisReport {
                    n_blocks: dense.n_blocks(),
                    steps: dense.steps(),
                    failing_steps: dense.failing_steps(),
                    blocks_touched: dense.blocks_touched(),
                    ranking: dense.rank(coef),
                };
                prop_assert_eq!(diag.diagnose(coef), oracle, "coef={} after step {}", coef, i);
            }
        }
    }

    /// Tie-handling: steps that hit *no* blocks leave every block tied at
    /// score zero for hit-driven coefficients; the top-k must then be the
    /// first k block ids in ascending order (the dense tie order).
    #[test]
    fn all_tied_ranking_is_block_id_order(
        n_steps in 1usize..8,
        shards in 1usize..5,
        failed in any::<bool>()
    ) {
        let mut columnar = CountsMatrix::new(25);
        for _ in 0..n_steps {
            columnar.add_step(std::iter::empty(), failed);
        }
        let top = score_top_k(&columnar, Coefficient::Ochiai, 10, shards);
        let blocks: Vec<u32> = top.entries().iter().map(|e| e.block).collect();
        prop_assert_eq!(blocks, (0..10u32).collect::<Vec<_>>());
        prop_assert!(top.entries().iter().all(|e| e.score == 0.0));
    }

    /// Folding a snapshot equals folding its hit ids one by one, on
    /// region-shaped coverage: contiguous block runs long enough to fill
    /// whole bitset words, runs reaching the last block (a full or a
    /// partial last word), and block counts that are not a multiple of
    /// 64.
    #[test]
    fn snapshot_fold_equals_id_fold(
        words in 1u32..8,
        short_by in 0u32..64,
        steps in prop::collection::vec(
            (prop::collection::vec((0u32..512, 1u32..200), 0..4), any::<bool>(), any::<bool>()),
            1..10
        )
    ) {
        let n_blocks = words * 64 - short_by;
        let mut by_snap = CountsMatrix::new(n_blocks);
        let mut by_id = CountsMatrix::new(n_blocks);
        let mut cov = BlockCoverage::new(n_blocks);
        for (regions, to_end, failed) in steps {
            for (start, len) in regions {
                let start = start % n_blocks;
                for b in start..(start + len).min(n_blocks) {
                    cov.hit(b);
                }
            }
            if to_end {
                for b in n_blocks.saturating_sub(70)..n_blocks {
                    cov.hit(b);
                }
            }
            let snap = cov.snapshot_and_reset();
            by_snap.add_snapshot(&snap, failed);
            by_id.add_step(snap.iter_hits(), failed);
        }
        prop_assert_eq!(by_snap, by_id);
    }

    /// Folding coverage runs equals folding the same hits one id at a
    /// time: long and short ranges, touching ranges, single blocks, in
    /// any order, and ranges reaching the last block.
    #[test]
    fn runs_fold_equals_id_fold(
        n_blocks in 1usize..300,
        steps in prop::collection::vec(
            (
                // Mostly range blocks, so long ranges are common.
                prop::collection::vec(
                    prop::sample::select(vec![0u8, 0, 0, 1, 1, 1, 1, 1, 1, 2, 3, 3]),
                    300
                ),
                any::<bool>(),
                any::<bool>()
            ),
            1..8
        )
    ) {
        let mut by_runs = CountsMatrix::new(n_blocks as u32);
        let mut by_id = CountsMatrix::new(n_blocks as u32);
        for (labels, reversed, failed) in steps {
            let mut runs = runs_from_labels(&labels[..n_blocks]);
            if reversed {
                runs.ranges.reverse();
                runs.blocks.reverse();
            }
            let ranges = runs.ranges.iter().cloned().flatten();
            by_id.add_step(ranges.chain(runs.blocks.iter().copied()), failed);
            by_runs.add_runs(&runs, failed);
        }
        prop_assert_eq!(by_runs, by_id);
    }
}
