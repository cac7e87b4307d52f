//! Sharded parallel top-k scoring over columnar counters.
//!
//! A full [`Ranking`](crate::Ranking) of a million-block matrix
//! materializes (and sorts) a million entries to answer a question whose
//! useful payload is "which handful of blocks should a developer look
//! at first". [`score_top_k`] instead partitions the block range across
//! worker shards (scoped threads — no runtime dependency), keeps a
//! bounded worst-out heap of size *k* per shard, and merges the shard
//! winners:
//!
//! ```text
//!   blocks 0..n  ──split──▶  [shard 0 | shard 1 | … | shard s−1]
//!                               │          │              │
//!                           top-k heap  top-k heap     top-k heap
//!                               └────────┬─┴──────────────┘
//!                                  merge, sort, truncate(k)
//! ```
//!
//! **Top-k semantics.** Entries are ordered exactly like the dense
//! ranking — descending score, ties broken by ascending block id — so
//! the result equals `matrix.rank(c).top(k)` *byte for byte* for every
//! shard count (property-tested in `tests/properties.rs`). Scores come
//! from pure per-block arithmetic on identical counts, so shard
//! placement cannot perturb them. Coefficient scores are never NaN
//! (degenerate denominators score 0.0), which is what makes this total
//! order well-defined.

use crate::counts::CountsMatrix;
use crate::ranking::RankingEntry;
use crate::similarity::Coefficient;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::thread;

/// Ranking order: descending score, then ascending block id.
///
/// `Ordering::Less` means `a` ranks *before* (is more suspicious than)
/// `b`. This is the exact comparator [`crate::Ranking::from_scores`]
/// sorts with.
#[inline]
pub fn rank_cmp(a: &RankingEntry, b: &RankingEntry) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then(a.block.cmp(&b.block))
}

/// The k most suspicious blocks, best first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopK {
    coefficient: Coefficient,
    requested_k: usize,
    n_blocks: u32,
    entries: Vec<RankingEntry>,
}

impl TopK {
    /// An empty result (no steps scored yet).
    pub fn empty(coefficient: Coefficient, k: usize, n_blocks: u32) -> Self {
        TopK {
            coefficient,
            requested_k: k,
            n_blocks,
            entries: Vec::new(),
        }
    }

    /// The coefficient that produced the scores.
    pub fn coefficient(&self) -> Coefficient {
        self.coefficient
    }

    /// The `k` that was asked for (entries may be fewer when the matrix
    /// has fewer blocks).
    pub fn requested_k(&self) -> usize {
        self.requested_k
    }

    /// Total blocks in the scored matrix.
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// Entries in ranking order (best first).
    pub fn entries(&self) -> &[RankingEntry] {
        &self.entries
    }

    /// The most suspicious block, if any step has been scored.
    pub fn prime_suspect(&self) -> Option<u32> {
        self.entries.first().map(|e| e.block)
    }

    /// 1-based position of `block` within the retained window, or `None`
    /// if it did not make the top k.
    pub fn position_of(&self, block: u32) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.block == block)
            .map(|p| p + 1)
    }

    /// True when `block` made the window.
    pub fn contains(&self, block: u32) -> bool {
        self.position_of(block).is_some()
    }
}

/// Max-heap wrapper whose *greatest* element is the worst-ranked entry,
/// so `peek`/`pop` evict the current loser of the window.
struct WorstFirst(RankingEntry);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        rank_cmp(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for WorstFirst {}
impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_cmp(&self.0, &other.0)
    }
}

/// Scores `lo..hi` and keeps the k best in ranking order.
fn partition_top_k(
    matrix: &CountsMatrix,
    coefficient: Coefficient,
    lo: u32,
    hi: u32,
    k: usize,
) -> Vec<RankingEntry> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<WorstFirst> = BinaryHeap::with_capacity(k + 1);
    for block in lo..hi {
        let entry = RankingEntry {
            block,
            score: matrix.score(block, coefficient),
        };
        if heap.len() < k {
            heap.push(WorstFirst(entry));
        } else if let Some(worst) = heap.peek() {
            if rank_cmp(&entry, &worst.0) == Ordering::Less {
                heap.pop();
                heap.push(WorstFirst(entry));
            }
        }
    }
    let mut kept: Vec<RankingEntry> = heap.into_iter().map(|w| w.0).collect();
    kept.sort_by(rank_cmp);
    kept
}

/// Shard boundaries: `shards + 1` cut points evenly splitting `0..n`.
fn cuts(n: u32, shards: usize) -> Vec<u32> {
    (0..=shards)
        .map(|s| (u64::from(n) * s as u64 / shards as u64) as u32)
        .collect()
}

/// Below this many blocks per shard, spawning a thread costs more than
/// it saves (BENCH_e14 measured `thread::scope` overhead pushing small
/// "speedups" to 0.63–0.93×), so the effective shard count is clamped
/// to keep every worker at least this busy. Callers that default
/// `shards` to `available_parallelism()` — the in-loop incremental
/// diagnoser does — thereby fall back to the inline single-shard path
/// on loop-sized matrices.
const MIN_BLOCKS_PER_SHARD: u32 = 4_096;

/// The shard count actually worth running for an `n`-block matrix.
fn effective_shards(n: u32, requested: usize) -> usize {
    requested.min(((n / MIN_BLOCKS_PER_SHARD) as usize).max(1))
}

/// Scores every block of `matrix` under `coefficient` across `shards`
/// parallel workers and returns the `k` most suspicious blocks.
///
/// The result is identical for every `shards` value and equals the dense
/// ranking's `top(k)`; only wall-clock time varies. Shards beyond the
/// hardware's parallelism still produce correct results (the OS simply
/// time-slices them). Small matrices are scored inline: the effective
/// shard count is clamped so each worker gets at least
/// 4 096 blocks, and a single effective shard skips
/// `thread::scope` entirely.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn score_top_k(
    matrix: &CountsMatrix,
    coefficient: Coefficient,
    k: usize,
    shards: usize,
) -> TopK {
    assert!(shards > 0, "need at least one shard");
    let n = matrix.n_blocks();
    let shards = effective_shards(n, shards);
    let bounds = cuts(n, shards);
    let mut merged: Vec<RankingEntry> = if shards == 1 {
        partition_top_k(matrix, coefficient, 0, n, k)
    } else {
        let shard_tops: Vec<Vec<RankingEntry>> = thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .windows(2)
                .map(|w| {
                    let (lo, hi) = (w[0], w[1]);
                    scope.spawn(move || partition_top_k(matrix, coefficient, lo, hi, k))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scorer shard panicked"))
                .collect()
        });
        shard_tops.into_iter().flatten().collect()
    };
    merged.sort_by(rank_cmp);
    merged.truncate(k);
    TopK {
        coefficient,
        requested_k: k,
        n_blocks: n,
        entries: merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix(n_blocks: u32) -> CountsMatrix {
        let mut m = CountsMatrix::new(n_blocks);
        // Fault region: blocks 40..43 hit exactly in failing steps.
        for s in 0..12u32 {
            let failed = s % 3 == 0;
            let mut hits: Vec<u32> = (0..n_blocks)
                .filter(|b| (b + s) % 7 == 0 && !(40..43).contains(b))
                .collect();
            if failed {
                hits.extend(40..43.min(n_blocks));
            }
            m.add_step(hits, failed);
        }
        m
    }

    #[test]
    fn equals_dense_top_k_for_all_shard_counts() {
        let m = sample_matrix(257);
        for coef in Coefficient::ALL {
            let dense = m.rank(coef);
            for shards in [1usize, 2, 3, 4, 8, 16] {
                for k in [0usize, 1, 5, 64, 257, 1000] {
                    let top = score_top_k(&m, coef, k, shards);
                    assert_eq!(
                        top.entries(),
                        dense.top(k),
                        "coef={coef} shards={shards} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_queries() {
        let m = sample_matrix(100);
        let top = score_top_k(&m, Coefficient::Ochiai, 5, 2);
        assert_eq!(top.requested_k(), 5);
        assert_eq!(top.n_blocks(), 100);
        assert_eq!(top.entries().len(), 5);
        assert_eq!(top.prime_suspect(), Some(40));
        assert_eq!(top.position_of(40), Some(1));
        assert!(top.contains(41));
        assert!(!top.contains(99));
        assert_eq!(top.coefficient(), Coefficient::Ochiai);
    }

    #[test]
    fn cuts_cover_range_without_gaps() {
        for (n, shards) in [(10u32, 3usize), (1, 8), (257, 4), (64, 64)] {
            let c = cuts(n, shards);
            assert_eq!(c.len(), shards + 1);
            assert_eq!(c[0], 0);
            assert_eq!(c[shards], n);
            assert!(c.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn empty_top_k() {
        let t = TopK::empty(Coefficient::Jaccard, 7, 50);
        assert!(t.entries().is_empty());
        assert_eq!(t.prime_suspect(), None);
        assert_eq!(t.requested_k(), 7);
    }

    #[test]
    fn shard_clamp_keeps_workers_busy() {
        assert_eq!(effective_shards(257, 8), 1);
        assert_eq!(effective_shards(4_095, 8), 1);
        assert_eq!(effective_shards(8_192, 8), 2);
        assert_eq!(effective_shards(60_000, 8), 8);
        assert_eq!(effective_shards(1_000_000, 8), 8);
        assert_eq!(effective_shards(0, 3), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let m = sample_matrix(10);
        let _ = score_top_k(&m, Coefficient::Ochiai, 3, 0);
    }
}
