//! Monitoring-overhead budgets.
//!
//! The paper's central constraint: dependability measures for high-volume
//! products must come "with minimal additional hardware costs and without
//! degrading performance". A [`ProbeBudget`] states how much of that an
//! instrumentation layer may spend, and judges a measured pair against it.

/// A probe-effect budget: the largest fraction of baseline runtime an
/// instrumentation layer is allowed to add (paper Sect. 4.1: observe
/// "without degrading performance").
///
/// E9 budgets the *simulated* probe cost against virtual time; this type
/// budgets *real* wall-clock overhead — the telemetry experiment (E15)
/// times a reference scenario with recording off and on and judges the
/// difference against the budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeBudget {
    /// Maximum tolerated `(instrumented - baseline) / baseline`.
    pub max_overhead_fraction: f64,
}

impl ProbeBudget {
    /// The default telemetry budget: 5% of baseline runtime.
    pub const DEFAULT_FRACTION: f64 = 0.05;

    /// A budget tolerating `max_overhead_fraction` relative overhead.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is not positive and finite.
    pub fn new(max_overhead_fraction: f64) -> Self {
        assert!(
            max_overhead_fraction > 0.0 && max_overhead_fraction.is_finite(),
            "budget fraction must be positive and finite"
        );
        ProbeBudget {
            max_overhead_fraction,
        }
    }

    /// Judges a measured (baseline, instrumented) wall-clock pair.
    ///
    /// An instrumented run *faster* than baseline (measurement noise)
    /// reports a negative overhead fraction and is trivially within
    /// budget. A zero baseline is judged within budget only if the
    /// instrumented time is also zero.
    pub fn judge(&self, baseline_ns: u64, instrumented_ns: u64) -> BudgetVerdict {
        let overhead_fraction = if baseline_ns == 0 {
            if instrumented_ns == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (instrumented_ns as f64 - baseline_ns as f64) / baseline_ns as f64
        };
        BudgetVerdict {
            baseline_ns,
            instrumented_ns,
            overhead_fraction,
            max_overhead_fraction: self.max_overhead_fraction,
            within_budget: overhead_fraction <= self.max_overhead_fraction,
        }
    }
}

/// The outcome of judging one measurement pair against a [`ProbeBudget`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetVerdict {
    /// Wall-clock nanoseconds with instrumentation off.
    pub baseline_ns: u64,
    /// Wall-clock nanoseconds with instrumentation on.
    pub instrumented_ns: u64,
    /// `(instrumented - baseline) / baseline`; negative means the
    /// instrumented run was faster (noise).
    pub overhead_fraction: f64,
    /// The budget the pair was judged against.
    pub max_overhead_fraction: f64,
    /// True iff `overhead_fraction <= max_overhead_fraction`.
    pub within_budget: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_judges_both_sides() {
        let budget = ProbeBudget::new(ProbeBudget::DEFAULT_FRACTION);
        let ok = budget.judge(1_000_000, 1_040_000);
        assert!(ok.within_budget);
        assert!((ok.overhead_fraction - 0.04).abs() < 1e-9);
        let over = budget.judge(1_000_000, 1_060_000);
        assert!(!over.within_budget);
        let noise = budget.judge(1_000_000, 990_000);
        assert!(noise.within_budget);
        assert!(noise.overhead_fraction < 0.0);
    }

    #[test]
    fn budget_zero_baseline() {
        let budget = ProbeBudget::new(0.1);
        assert!(budget.judge(0, 0).within_budget);
        assert!(!budget.judge(0, 1).within_budget);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn budget_rejects_nonpositive_fraction() {
        let _ = ProbeBudget::new(0.0);
    }
}
