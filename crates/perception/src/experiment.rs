//! The factorial controlled experiment.
//!
//! Reproduces the design of the DTI experiments: irritation measured
//! across function × attribution × user-group cells, with effect sizes
//! (η², fraction of variance explained) per factor. The paper's headline:
//! attribution explains more variance than stated importance.

use crate::attribution::Attribution;
use crate::failure::{FailureIncident, ProductFunction};
use crate::panel::Panel;
use std::collections::BTreeMap;

/// A factorial design: functions × attributions.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorialDesign {
    /// The functions (with stated importances) under study.
    pub functions: Vec<ProductFunction>,
    /// The attribution conditions.
    pub attributions: Vec<Attribution>,
    /// Failure duration used in every cell (seconds).
    pub duration_s: f64,
    /// Failure frequency used in every cell (per week).
    pub frequency_per_week: f64,
}

impl FactorialDesign {
    /// The paper-shaped design: image quality and swivel (equal stated
    /// importance), crossed with all attributions.
    pub fn paper_design() -> Self {
        FactorialDesign {
            functions: vec![
                ProductFunction::new("image-quality", 9.0),
                ProductFunction::new("swivel", 9.0),
                ProductFunction::new("volume", 7.0),
                ProductFunction::new("teletext", 5.0),
            ],
            attributions: Attribution::ALL.to_vec(),
            duration_s: 120.0,
            frequency_per_week: 3.0,
        }
    }
}

/// Variance decomposition of the factorial outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectSizes {
    /// Cell means keyed by `(function, attribution)`.
    pub cell_means: BTreeMap<(String, String), f64>,
    /// η² of the attribution factor.
    pub eta_sq_attribution: f64,
    /// η² of the function factor.
    pub eta_sq_function: f64,
}

/// Runs the factorial experiment on a panel of `panel_size` users.
pub fn run_factorial(design: &FactorialDesign, panel_size: usize, seed: u64) -> EffectSizes {
    let panel = Panel::sample(panel_size, seed);
    let mut cell_means = BTreeMap::new();
    // Collect cell means.
    for func in &design.functions {
        for attr in &design.attributions {
            let incident = FailureIncident::new(
                func.clone(),
                *attr,
                design.duration_s,
                design.frequency_per_week,
            );
            let result = panel.assess_controlled(&incident);
            cell_means.insert((func.name.clone(), attr.to_string()), result.mean);
        }
    }
    let all: Vec<f64> = cell_means.values().copied().collect();
    let grand = all.iter().sum::<f64>() / all.len() as f64;
    let ss_total: f64 = all.iter().map(|x| (x - grand).powi(2)).sum();

    // Factor means.
    let mut by_attr: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut by_func: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((f, a), v) in &cell_means {
        by_attr.entry(a.as_str()).or_default().push(*v);
        by_func.entry(f.as_str()).or_default().push(*v);
    }
    let ss_factor = |groups: &BTreeMap<&str, Vec<f64>>| -> f64 {
        groups
            .values()
            .map(|vals| {
                let m = vals.iter().sum::<f64>() / vals.len() as f64;
                vals.len() as f64 * (m - grand).powi(2)
            })
            .sum()
    };
    let (eta_a, eta_f) = if ss_total > 0.0 {
        (
            ss_factor(&by_attr) / ss_total,
            ss_factor(&by_func) / ss_total,
        )
    } else {
        (0.0, 0.0)
    };

    EffectSizes {
        cell_means,
        eta_sq_attribution: eta_a,
        eta_sq_function: eta_f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_effect_exceeds_function_effect() {
        let design = FactorialDesign::paper_design();
        let effects = run_factorial(&design, 120, 7);
        assert!(
            effects.eta_sq_attribution > effects.eta_sq_function,
            "attribution η²={:.3} must exceed function η²={:.3}",
            effects.eta_sq_attribution,
            effects.eta_sq_function
        );
        assert!(effects.eta_sq_attribution > 0.3);
    }

    #[test]
    fn internal_cells_exceed_external_cells() {
        let design = FactorialDesign::paper_design();
        let effects = run_factorial(&design, 120, 7);
        for func in &design.functions {
            let internal = effects.cell_means[&(func.name.clone(), "internal".to_owned())];
            let external = effects.cell_means[&(func.name.clone(), "external".to_owned())];
            assert!(internal >= external, "{}", func.name);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let design = FactorialDesign::paper_design();
        let a = run_factorial(&design, 60, 5);
        let b = run_factorial(&design, 60, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn eta_squares_bounded() {
        let effects = run_factorial(&FactorialDesign::paper_design(), 40, 2);
        assert!((0.0..=1.0).contains(&effects.eta_sq_attribution));
        assert!((0.0..=1.0).contains(&effects.eta_sq_function));
    }
}
