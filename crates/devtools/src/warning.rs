//! A synthetic code model with seeded inspection warnings.
//!
//! QA-C output on the proprietary TV codebase is not reproducible; the
//! substitution (DESIGN.md) is a synthetic call graph with planted
//! violations. True faults — the ones a later release actually fixed —
//! occur preferentially in frequently executed code, which is exactly the
//! empirical regularity the Boogerd–Moonen prioritization exploits.

use simkit::SimRng;

/// Warning severity as reported by the inspection tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WarnSeverity {
    /// Style-level.
    Low,
    /// Possible defect.
    Medium,
    /// Likely defect.
    High,
}

impl WarnSeverity {
    /// Numeric weight for prioritization.
    pub fn weight(self) -> f64 {
        match self {
            WarnSeverity::Low => 1.0,
            WarnSeverity::Medium => 2.0,
            WarnSeverity::High => 4.0,
        }
    }
}

/// One function in the synthetic codebase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionDecl {
    /// Function name.
    pub name: String,
    /// Source file the function lives in (files are ordered arbitrarily
    /// with respect to the call-graph structure, as in real codebases).
    pub file: u32,
    /// Indices of callees in the code model.
    pub calls: Vec<usize>,
    /// True for program entry points (always executed).
    pub entry: bool,
}

/// An inspection warning.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index of the containing function.
    pub function: usize,
    /// Line within the function (for textual ordering).
    pub line: u32,
    /// Tool-reported severity.
    pub severity: WarnSeverity,
    /// Ground truth: was this warning a real fault (fixed later)?
    pub is_true_fault: bool,
}

/// A synthetic codebase: call graph plus violations.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeModel {
    /// The functions.
    pub functions: Vec<FunctionDecl>,
    /// The planted violations.
    pub violations: Vec<Violation>,
}

impl CodeModel {
    /// Generates a layered call graph of `n_functions` with
    /// `n_violations` planted warnings, deterministically from `seed`.
    ///
    /// Layer 0 holds the entry points; each function calls 1–3 functions
    /// of the next layer. True faults are planted among warnings with
    /// probability proportional to the containing function's execution
    /// likelihood (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `n_functions < 8` or `n_violations` is zero.
    pub fn generate(n_functions: usize, n_violations: usize, seed: u64) -> Self {
        assert!(n_functions >= 8, "need at least 8 functions");
        assert!(n_violations > 0, "need at least one violation");
        let mut rng = SimRng::seed(seed);
        let n_layers = 5usize;
        let per_layer = n_functions / n_layers;
        let mut functions = Vec::with_capacity(n_functions);
        for i in 0..n_functions {
            let layer = (i / per_layer).min(n_layers - 1);
            let next_start = (layer + 1) * per_layer;
            let calls = if next_start < n_functions {
                let next_end = (next_start + per_layer).min(n_functions);
                let n_calls = rng.uniform_u64(1, 3) as usize;
                (0..n_calls)
                    .map(|_| rng.uniform_u64(next_start as u64, next_end as u64 - 1) as usize)
                    .collect()
            } else {
                Vec::new()
            };
            functions.push(FunctionDecl {
                name: format!("f{i}"),
                file: rng.uniform_u64(0, (n_functions / 5).max(1) as u64 - 1) as u32,
                calls,
                entry: layer == 0,
            });
        }
        let likelihood = crate::likelihood::execution_likelihood(&functions);
        let mut violations = Vec::with_capacity(n_violations);
        for _ in 0..n_violations {
            let function = rng.uniform_u64(0, n_functions as u64 - 1) as usize;
            let severity = match rng.uniform_u64(0, 2) {
                0 => WarnSeverity::Low,
                1 => WarnSeverity::Medium,
                _ => WarnSeverity::High,
            };
            // True-fault probability grows with execution likelihood:
            // faults in dead code never got observed and fixed.
            let p_true = 0.05 + 0.5 * likelihood[function];
            violations.push(Violation {
                function,
                line: rng.uniform_u64(1, 500) as u32,
                severity,
                is_true_fault: rng.chance(p_true),
            });
        }
        CodeModel {
            functions,
            violations,
        }
    }

    /// Number of true faults among the violations.
    pub fn true_faults(&self) -> usize {
        self.violations.iter().filter(|v| v.is_true_fault).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = CodeModel::generate(100, 50, 4);
        let b = CodeModel::generate(100, 50, 4);
        assert_eq!(a, b);
        assert_eq!(a.functions.len(), 100);
        assert_eq!(a.violations.len(), 50);
    }

    #[test]
    fn has_entries_and_leaves() {
        let m = CodeModel::generate(100, 10, 1);
        assert!(m.functions.iter().any(|f| f.entry));
        assert!(m.functions.iter().any(|f| f.calls.is_empty()));
        // Calls only point forward (layered DAG).
        for (i, f) in m.functions.iter().enumerate() {
            for &c in &f.calls {
                assert!(c > i);
            }
        }
    }

    #[test]
    fn some_true_faults_planted() {
        let m = CodeModel::generate(200, 100, 9);
        let t = m.true_faults();
        assert!(t > 5 && t < 80, "true faults: {t}");
    }

    #[test]
    fn severity_weights_ordered() {
        assert!(WarnSeverity::High.weight() > WarnSeverity::Medium.weight());
        assert!(WarnSeverity::Medium.weight() > WarnSeverity::Low.weight());
    }
}
