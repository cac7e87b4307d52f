//! Diagnosis reports.

use crate::ranking::Ranking;
use std::fmt;

/// The outcome of diagnosing one scenario.
///
/// The fields mirror the numbers the paper reports for its teletext
/// experiment: total instrumented blocks (60 000), scenario length
/// (27 key presses), blocks executed (13 796), and the rank of the
/// faulty block (1).
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    /// Total instrumented blocks.
    pub n_blocks: u32,
    /// Scenario steps (intervals between key presses).
    pub steps: usize,
    /// Steps the error detector flagged.
    pub failing_steps: usize,
    /// Distinct blocks executed at least once.
    pub blocks_touched: u32,
    /// The suspiciousness ranking.
    pub ranking: Ranking,
}

impl DiagnosisReport {
    /// Convenience: the mid-tie rank of a known-injected fault.
    pub fn fault_rank(&self, block: u32) -> Option<f64> {
        self.ranking.rank_of(block)
    }

    /// The `k` most suspicious blocks (what a developer inspects first).
    pub fn top_suspects(&self, k: usize) -> &[crate::RankingEntry] {
        self.ranking.top(k)
    }

    /// Paper-style one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} blocks, {} steps ({} failing), {} blocks executed, top suspect: block {}",
            self.n_blocks,
            self.steps,
            self.failing_steps,
            self.blocks_touched,
            self.ranking
                .entries()
                .first()
                .map(|e| e.block.to_string())
                .unwrap_or_else(|| "-".to_owned())
        )
    }
}

impl fmt::Display for DiagnosisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use crate::diagnosis::Diagnoser;
    use crate::similarity::Coefficient;

    #[test]
    fn summary_mentions_key_numbers() {
        let mut d = Diagnoser::new(100);
        d.append_step([1, 2, 50], true);
        d.append_step([1, 2], false);
        let r = d.diagnose(Coefficient::Ochiai);
        let s = r.summary();
        assert!(s.contains("100 blocks"));
        assert!(s.contains("2 steps"));
        assert!(s.contains("1 failing"));
        assert!(s.contains("block 50"));
        assert_eq!(r.to_string(), s);
        assert_eq!(r.fault_rank(50), Some(1.0));
    }
}
