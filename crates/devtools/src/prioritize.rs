//! Warning ranking and its evaluation.

use crate::likelihood::execution_likelihood;
use crate::warning::CodeModel;

/// Quality of a warning ranking against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct RankingQuality {
    /// Total warnings.
    pub total: usize,
    /// Total true faults.
    pub true_faults: usize,
    /// True faults among the top 10% of the ranking.
    pub hits_top_10pct: usize,
    /// True faults among the top 25% of the ranking.
    pub hits_top_25pct: usize,
    /// Mean (1-based) rank of the true faults.
    pub mean_true_fault_rank: f64,
}

/// Ranks violation indices by execution likelihood × severity weight
/// (the Boogerd–Moonen ordering), descending.
pub fn rank_by_likelihood(model: &CodeModel) -> Vec<usize> {
    let likelihood = execution_likelihood(&model.functions);
    let mut idx: Vec<usize> = (0..model.violations.len()).collect();
    idx.sort_by(|&a, &b| {
        let va = &model.violations[a];
        let vb = &model.violations[b];
        let sa = likelihood[va.function] * va.severity.weight();
        let sb = likelihood[vb.function] * vb.severity.weight();
        sb.partial_cmp(&sa)
            .expect("scores are finite")
            .then(a.cmp(&b))
    });
    idx
}

/// The naive baseline: textual order (file, then function, then line) —
/// how an engineer works through a raw inspection report.
pub fn rank_textual(model: &CodeModel) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..model.violations.len()).collect();
    idx.sort_by_key(|&i| {
        let v = &model.violations[i];
        (model.functions[v.function].file, v.function, v.line, i)
    });
    idx
}

/// Evaluates a ranking (a permutation of violation indices).
///
/// # Panics
///
/// Panics if `ranking` is not a permutation of the violation indices.
pub fn evaluate_ranking(model: &CodeModel, ranking: &[usize]) -> RankingQuality {
    assert_eq!(ranking.len(), model.violations.len(), "not a permutation");
    let total = ranking.len();
    let true_faults = model.true_faults();
    let top = |fraction: f64| -> usize {
        let k = ((total as f64 * fraction).ceil() as usize).max(1);
        ranking[..k.min(total)]
            .iter()
            .filter(|&&i| model.violations[i].is_true_fault)
            .count()
    };
    let rank_sum: usize = ranking
        .iter()
        .enumerate()
        .filter(|(_, &i)| model.violations[i].is_true_fault)
        .map(|(pos, _)| pos + 1)
        .sum();
    RankingQuality {
        total,
        true_faults,
        hits_top_10pct: top(0.10),
        hits_top_25pct: top(0.25),
        mean_true_fault_rank: if true_faults == 0 {
            0.0
        } else {
            rank_sum as f64 / true_faults as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn likelihood_ranking_beats_textual() {
        // Aggregate over several seeds: the effect is statistical, not
        // guaranteed per instance.
        let mut smart_rank_sum = 0.0;
        let mut naive_rank_sum = 0.0;
        let mut smart_hits = 0;
        let mut naive_hits = 0;
        for seed in 0..8u64 {
            let model = CodeModel::generate(250, 400, seed);
            let smart = evaluate_ranking(&model, &rank_by_likelihood(&model));
            let naive = evaluate_ranking(&model, &rank_textual(&model));
            smart_rank_sum += smart.mean_true_fault_rank;
            naive_rank_sum += naive.mean_true_fault_rank;
            smart_hits += smart.hits_top_25pct;
            naive_hits += naive.hits_top_25pct;
        }
        assert!(
            smart_rank_sum < naive_rank_sum,
            "smart {smart_rank_sum:.1} vs naive {naive_rank_sum:.1}"
        );
        assert!(
            smart_hits > naive_hits,
            "smart hits {smart_hits} vs naive {naive_hits}"
        );
    }

    #[test]
    fn rankings_are_permutations() {
        let model = CodeModel::generate(100, 60, 3);
        for ranking in [rank_by_likelihood(&model), rank_textual(&model)] {
            let mut sorted = ranking.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..60).collect::<Vec<_>>());
        }
    }

    #[test]
    fn evaluation_counts_consistent() {
        let model = CodeModel::generate(100, 80, 5);
        let q = evaluate_ranking(&model, &rank_by_likelihood(&model));
        assert_eq!(q.total, 80);
        assert!(q.hits_top_10pct <= q.hits_top_25pct);
        assert!(q.hits_top_25pct <= q.true_faults);
        assert!(q.mean_true_fault_rank >= 1.0);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn wrong_length_rejected() {
        let model = CodeModel::generate(100, 10, 1);
        let _ = evaluate_ranking(&model, &[0, 1]);
    }
}
