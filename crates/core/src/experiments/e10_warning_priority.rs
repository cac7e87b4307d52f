//! E10 — execution-likelihood warning prioritization (paper Sect. 4.7,
//! after Boogerd & Moonen).
//!
//! "the use of code analysis to prioritize the warnings of a software
//! inspection tool such as QA-C".

use crate::report::{f2, render_table};
use devtools::{evaluate_ranking, rank_by_likelihood, rank_textual, CodeModel};
use std::fmt;

/// One ranking strategy's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct E10Row {
    /// Strategy label.
    pub strategy: String,
    /// Mean rank of the true faults (lower = better).
    pub mean_true_fault_rank: f64,
    /// True faults in the top 10%.
    pub hits_top_10pct: usize,
    /// True faults in the top 25%.
    pub hits_top_25pct: usize,
}

/// E10 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E10Report {
    /// Total warnings.
    pub warnings: usize,
    /// Total true faults.
    pub true_faults: usize,
    /// Strategy rows.
    pub rows: Vec<E10Row>,
}

impl fmt::Display for E10Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E10 warning prioritization ({} warnings, {} true faults):",
            self.warnings, self.true_faults
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.strategy.clone(),
                    f2(r.mean_true_fault_rank),
                    r.hits_top_10pct.to_string(),
                    r.hits_top_25pct.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "strategy",
                    "mean fault rank",
                    "top 10% hits",
                    "top 25% hits"
                ],
                &rows
            )
        )
    }
}

/// Runs E10 on a synthetic codebase (averaged over several seeds inside
/// the report rows would hide the table shape; one representative seed).
pub fn run(seed: u64) -> E10Report {
    let model = CodeModel::generate(400, 600, seed);
    let smart = evaluate_ranking(&model, &rank_by_likelihood(&model));
    let naive = evaluate_ranking(&model, &rank_textual(&model));
    E10Report {
        warnings: smart.total,
        true_faults: smart.true_faults,
        rows: vec![
            E10Row {
                strategy: "execution likelihood × severity".into(),
                mean_true_fault_rank: smart.mean_true_fault_rank,
                hits_top_10pct: smart.hits_top_10pct,
                hits_top_25pct: smart.hits_top_25pct,
            },
            E10Row {
                strategy: "textual (file/line) order".into(),
                mean_true_fault_rank: naive.mean_true_fault_rank,
                hits_top_10pct: naive.hits_top_10pct,
                hits_top_25pct: naive.hits_top_25pct,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prioritization_beats_textual_order() {
        let report = run(11);
        let smart = &report.rows[0];
        let naive = &report.rows[1];
        assert!(
            smart.mean_true_fault_rank < naive.mean_true_fault_rank,
            "{report}"
        );
        assert!(smart.hits_top_25pct >= naive.hits_top_25pct, "{report}");
    }

    #[test]
    fn counts_are_sane() {
        let report = run(11);
        assert_eq!(report.warnings, 600);
        assert!(report.true_faults > 50);
        for row in &report.rows {
            assert!(row.hits_top_10pct <= row.hits_top_25pct);
        }
    }
}
