//! E7 — user perception of failures (paper Sect. 4.6).
//!
//! "users, when asked, rank both image quality and a motorized swivel
//! […] as important. Under observation, however, users often turn out to
//! be very tolerant concerning bad image quality (which is attributed to
//! external sources), but get irritated if the swivel does not work
//! correctly."

use crate::report::{f2, f3, render_table};
use perception::{run_factorial, FactorialDesign, FailureIncident, Panel};
use std::fmt;

/// E7 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E7Report {
    /// Stated importance of image quality (asked).
    pub stated_importance_image: f64,
    /// Stated importance of the swivel (asked).
    pub stated_importance_swivel: f64,
    /// Observed panel irritation for bad image quality.
    pub observed_irritation_image: f64,
    /// Observed panel irritation for the stuck swivel.
    pub observed_irritation_swivel: f64,
    /// η² of the attribution factor in the factorial design.
    pub eta_sq_attribution: f64,
    /// η² of the function factor.
    pub eta_sq_function: f64,
}

impl fmt::Display for E7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E7 user perception (panel of 200):")?;
        let rows = vec![
            vec![
                "image quality".to_owned(),
                f2(self.stated_importance_image),
                f2(self.observed_irritation_image),
            ],
            vec![
                "swivel".to_owned(),
                f2(self.stated_importance_swivel),
                f2(self.observed_irritation_swivel),
            ],
        ];
        write!(
            f,
            "{}",
            render_table(
                &["function", "stated importance", "observed irritation"],
                &rows
            )
        )?;
        writeln!(
            f,
            "effect sizes: attribution η² = {}, function η² = {}",
            f3(self.eta_sq_attribution),
            f3(self.eta_sq_function)
        )
    }
}

/// Runs E7 with the given panel seed.
pub fn run(seed: u64) -> E7Report {
    let panel = Panel::sample(200, seed);
    let image = FailureIncident::bad_image_quality();
    let swivel = FailureIncident::stuck_swivel();
    let image_result = panel.assess(&image);
    let swivel_result = panel.assess(&swivel);
    let effects = run_factorial(&FactorialDesign::paper_design(), 200, seed);
    E7Report {
        stated_importance_image: image.function.stated_importance,
        stated_importance_swivel: swivel.function.stated_importance,
        observed_irritation_image: image_result.mean,
        observed_irritation_swivel: swivel_result.mean,
        eta_sq_attribution: effects.eta_sq_attribution,
        eta_sq_function: effects.eta_sq_function,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_inversion_reproduced() {
        let report = run(42);
        // Stated: image quality at least as important as the swivel.
        assert!(report.stated_importance_image >= report.stated_importance_swivel);
        // Observed: the swivel failure irritates more.
        assert!(
            report.observed_irritation_swivel > report.observed_irritation_image,
            "{report}"
        );
    }

    #[test]
    fn attribution_is_the_dominant_factor() {
        let report = run(42);
        assert!(
            report.eta_sq_attribution > report.eta_sq_function,
            "{report}"
        );
    }
}
