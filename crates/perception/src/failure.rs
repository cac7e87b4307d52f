//! Product functions and failure incidents.

use crate::attribution::Attribution;

/// A product function as users see it, with its *stated* importance
/// (what users say when asked, on a 0–10 scale).
#[derive(Debug, Clone, PartialEq)]
pub struct ProductFunction {
    /// Function name (e.g. `"image-quality"`, `"swivel"`).
    pub name: String,
    /// Stated importance, 0–10.
    pub stated_importance: f64,
}

impl ProductFunction {
    /// Creates a function.
    ///
    /// # Panics
    ///
    /// Panics if `stated_importance` is outside `[0, 10]`.
    pub fn new(name: impl Into<String>, stated_importance: f64) -> Self {
        assert!(
            (0.0..=10.0).contains(&stated_importance),
            "importance must be in [0,10]"
        );
        ProductFunction {
            name: name.into(),
            stated_importance,
        }
    }
}

/// One failure as experienced by a user.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureIncident {
    /// The failing function.
    pub function: ProductFunction,
    /// Who the user blames.
    pub attribution: Attribution,
    /// How long the failure was noticeable, seconds.
    pub duration_s: f64,
    /// How often it recurs, events per week.
    pub frequency_per_week: f64,
}

impl FailureIncident {
    /// Creates an incident.
    ///
    /// # Panics
    ///
    /// Panics on negative duration or frequency.
    pub fn new(
        function: ProductFunction,
        attribution: Attribution,
        duration_s: f64,
        frequency_per_week: f64,
    ) -> Self {
        assert!(duration_s >= 0.0 && frequency_per_week >= 0.0);
        FailureIncident {
            function,
            attribution,
            duration_s,
            frequency_per_week,
        }
    }

    /// The paper's image-quality case: important function, externally
    /// attributed degradation.
    pub fn bad_image_quality() -> Self {
        FailureIncident::new(
            ProductFunction::new("image-quality", 9.0),
            Attribution::External,
            600.0,
            3.0,
        )
    }

    /// The paper's swivel case: comparably important (as stated),
    /// internally attributed failure.
    pub fn stuck_swivel() -> Self {
        FailureIncident::new(
            ProductFunction::new("swivel", 8.5),
            Attribution::Internal,
            120.0,
            3.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cases_have_comparable_stated_importance() {
        let iq = FailureIncident::bad_image_quality();
        let sw = FailureIncident::stuck_swivel();
        assert!((iq.function.stated_importance - sw.function.stated_importance).abs() <= 1.0);
        assert_eq!(iq.attribution, Attribution::External);
        assert_eq!(sw.attribution, Attribution::Internal);
    }

    #[test]
    #[should_panic(expected = "importance must be in")]
    fn importance_bounds() {
        let _ = ProductFunction::new("x", 11.0);
    }

    #[test]
    #[should_panic]
    fn negative_duration_rejected() {
        let _ = FailureIncident::new(
            ProductFunction::new("x", 5.0),
            Attribution::Internal,
            -1.0,
            1.0,
        );
    }
}
