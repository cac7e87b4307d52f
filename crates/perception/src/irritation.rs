//! The irritation model.

use crate::failure::FailureIncident;
use crate::usage::{UsageProfile, UserGroup};

/// Parametric model of user irritation caused by a failure.
///
/// ```text
/// irritation = importance_weight            (stated importance / 10)
///            × attribution_factor           (internal ≫ external)
///            × recurrence_factor            (log-ish in frequency)
///            × duration_factor              (saturating in duration)
///            × exposure                     (does the user meet it?)
///            × group_sensitivity
///            scaled to a 0–10 score.
/// ```
///
/// The multiplicative form encodes the paper's central finding: a large
/// attribution factor difference overrides comparable stated importance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrritationModel {
    /// Output scale (score of the worst plausible incident).
    pub scale: f64,
    /// Weight of recurrence saturation.
    pub frequency_half_point: f64,
    /// Duration (seconds) at which the duration factor reaches half.
    pub duration_half_point_s: f64,
}

impl Default for IrritationModel {
    fn default() -> Self {
        IrritationModel {
            scale: 10.0,
            frequency_half_point: 2.0,
            duration_half_point_s: 30.0,
        }
    }
}

impl IrritationModel {
    /// Creates the default calibrated model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Saturating recurrence factor in `[0, 1]`.
    fn frequency_factor(&self, per_week: f64) -> f64 {
        per_week / (per_week + self.frequency_half_point)
    }

    /// Saturating duration factor in `[0, 1]`.
    fn duration_factor(&self, duration_s: f64) -> f64 {
        duration_s / (duration_s + self.duration_half_point_s)
    }

    /// Scores an incident for a user of `group` with `profile`, 0–10.
    pub fn score(
        &self,
        incident: &FailureIncident,
        group: UserGroup,
        profile: &UsageProfile,
    ) -> f64 {
        // Encounter factor: saturating in exposure — a user who uses a
        // feature at all is irritated when it fails, largely independent
        // of how big a share of their attention it takes. Zero exposure
        // still means zero irritation.
        let exposure = profile.exposure(&incident.function.name).min(1.0).sqrt();
        self.score_with_exposure(incident, group, exposure)
    }

    /// Scores an incident in a *controlled experiment* setting: the
    /// participant is made to experience the failure directly, so the
    /// exposure factor is 1 regardless of their home usage profile (how
    /// the DTI studies were run).
    pub fn score_controlled(&self, incident: &FailureIncident, group: UserGroup) -> f64 {
        self.score_with_exposure(incident, group, 1.0)
    }

    fn score_with_exposure(
        &self,
        incident: &FailureIncident,
        group: UserGroup,
        exposure: f64,
    ) -> f64 {
        let importance = incident.function.stated_importance / 10.0;
        let attribution = incident.attribution.factor();
        let frequency = self.frequency_factor(incident.frequency_per_week);
        let duration = self.duration_factor(incident.duration_s);
        let raw = importance * attribution * frequency * duration * exposure * group.sensitivity();
        (raw * self.scale).min(10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::Attribution;
    use crate::failure::ProductFunction;

    fn incident(attr: Attribution, importance: f64) -> FailureIncident {
        FailureIncident::new(
            ProductFunction::new("image-quality", importance),
            attr,
            120.0,
            3.0,
        )
    }

    #[test]
    fn attribution_dominates_equal_importance() {
        let m = IrritationModel::new();
        let g = UserGroup::Family;
        let p = g.default_profile();
        let internal = m.score(&incident(Attribution::Internal, 9.0), g, &p);
        let external = m.score(&incident(Attribution::External, 9.0), g, &p);
        assert!(
            internal > external * 3.0,
            "internal {internal} vs external {external}"
        );
    }

    #[test]
    fn paper_finding_swivel_beats_image_quality() {
        // Stated importance comparable; observed irritation inverts by
        // attribution — the Sect. 4.6 result.
        let m = IrritationModel::new();
        let g = UserGroup::Elderly;
        let p = g.default_profile();
        let iq = m.score(&FailureIncident::bad_image_quality(), g, &p);
        let sw = m.score(&FailureIncident::stuck_swivel(), g, &p);
        assert!(sw > iq, "swivel {sw} must irritate more than image {iq}");
    }

    #[test]
    fn unused_feature_does_not_irritate() {
        let m = IrritationModel::new();
        let g = UserGroup::Casual; // no teletext in the casual mix
        let p = g.default_profile();
        let inc = FailureIncident::new(
            ProductFunction::new("teletext", 9.0),
            Attribution::Internal,
            600.0,
            10.0,
        );
        assert_eq!(m.score(&inc, g, &p), 0.0);
    }

    #[test]
    fn score_monotone_in_frequency_and_duration() {
        let m = IrritationModel::new();
        let g = UserGroup::Family;
        let p = g.default_profile();
        let mk = |freq: f64, dur: f64| {
            m.score(
                &FailureIncident::new(
                    ProductFunction::new("image-quality", 8.0),
                    Attribution::Internal,
                    dur,
                    freq,
                ),
                g,
                &p,
            )
        };
        assert!(mk(5.0, 60.0) > mk(1.0, 60.0));
        assert!(mk(3.0, 300.0) > mk(3.0, 10.0));
    }

    #[test]
    fn score_bounded() {
        let m = IrritationModel::new();
        let g = UserGroup::Enthusiast;
        let p = g.default_profile();
        let inc = FailureIncident::new(
            ProductFunction::new("image-quality", 10.0),
            Attribution::Internal,
            1e9,
            1e9,
        );
        let s = m.score(&inc, g, &p);
        assert!((0.0..=10.0).contains(&s));
    }
}
