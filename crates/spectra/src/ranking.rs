//! Ranking blocks by suspiciousness.

/// One entry of a ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingEntry {
    /// Block id.
    pub block: u32,
    /// Suspiciousness score.
    pub score: f64,
}

/// A full suspiciousness ranking of all blocks.
///
/// Ties are broken by block id in the sorted order, but **rank queries use
/// mid-tie ranks** (the standard metric for diagnostic quality: the
/// expected position of the fault if ties are inspected in random order).
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    entries: Vec<RankingEntry>,
}

impl Ranking {
    /// Builds a ranking from per-block scores (`scores[i]` is block `i`'s).
    pub fn from_scores(scores: Vec<f64>) -> Self {
        let mut entries: Vec<RankingEntry> = scores
            .into_iter()
            .enumerate()
            .map(|(i, score)| RankingEntry {
                block: i as u32,
                score,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.block.cmp(&b.block))
        });
        Ranking { entries }
    }

    /// Entries in descending score order.
    pub fn entries(&self) -> &[RankingEntry] {
        &self.entries
    }

    /// The top `k` entries.
    ///
    /// This slice is the oracle the sharded scorer is tested against:
    /// [`crate::score_top_k`] must reproduce it byte for byte for every
    /// shard count (same descending-score, ascending-block-id order).
    pub fn top(&self, k: usize) -> &[RankingEntry] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// The mid-tie rank of `block` (1-based), or `None` if absent.
    ///
    /// With `b` blocks scoring strictly higher and `t` blocks tied
    /// (including the block itself), the rank is `b + (t + 1) / 2`.
    pub fn rank_of(&self, block: u32) -> Option<f64> {
        let score = self
            .entries
            .iter()
            .find(|e| e.block == block)
            .map(|e| e.score)?;
        let higher = self.entries.iter().filter(|e| e.score > score).count();
        let tied = self.entries.iter().filter(|e| e.score == score).count();
        Some(higher as f64 + (tied as f64 + 1.0) / 2.0)
    }

    /// Strict best-case rank: 1 + number of strictly higher scores.
    pub fn best_case_rank_of(&self, block: u32) -> Option<usize> {
        let score = self
            .entries
            .iter()
            .find(|e| e.block == block)
            .map(|e| e.score)?;
        Some(1 + self.entries.iter().filter(|e| e.score > score).count())
    }

    /// Wasted effort: fraction of *other* blocks a developer inspects
    /// before reaching `block` (mid-tie), in `[0, 1]`.
    pub fn wasted_effort(&self, block: u32) -> Option<f64> {
        let rank = self.rank_of(block)?;
        let n = self.entries.len() as f64;
        if n <= 1.0 {
            return Some(0.0);
        }
        Some((rank - 1.0) / (n - 1.0))
    }

    /// Number of ranked blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the ranking is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranking(scores: &[f64]) -> Ranking {
        Ranking::from_scores(scores.to_vec())
    }

    #[test]
    fn sorts_descending() {
        let r = ranking(&[0.1, 0.9, 0.5]);
        let blocks: Vec<u32> = r.entries().iter().map(|e| e.block).collect();
        assert_eq!(blocks, vec![1, 2, 0]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn rank_of_unique_scores() {
        let r = ranking(&[0.1, 0.9, 0.5]);
        assert_eq!(r.rank_of(1), Some(1.0));
        assert_eq!(r.rank_of(2), Some(2.0));
        assert_eq!(r.rank_of(0), Some(3.0));
        assert_eq!(r.rank_of(99), None);
    }

    #[test]
    fn mid_tie_rank() {
        // Three blocks tied at the top: mid-tie rank = 2.
        let r = ranking(&[0.9, 0.9, 0.9, 0.1]);
        assert_eq!(r.rank_of(0), Some(2.0));
        assert_eq!(r.rank_of(1), Some(2.0));
        assert_eq!(r.best_case_rank_of(0), Some(1));
        assert_eq!(r.rank_of(3), Some(4.0));
    }

    #[test]
    fn wasted_effort_bounds() {
        let r = ranking(&[0.9, 0.5, 0.1]);
        assert_eq!(r.wasted_effort(0), Some(0.0));
        assert_eq!(r.wasted_effort(2), Some(1.0));
        assert_eq!(r.wasted_effort(1), Some(0.5));
    }

    #[test]
    fn top_k_clamps() {
        let r = ranking(&[0.3, 0.2]);
        assert_eq!(r.top(1).len(), 1);
        assert_eq!(r.top(10).len(), 2);
    }

    #[test]
    fn tie_order_is_by_block_id() {
        let r = ranking(&[0.5, 0.5]);
        assert_eq!(r.entries()[0].block, 0);
        assert_eq!(r.entries()[1].block, 1);
    }
}
