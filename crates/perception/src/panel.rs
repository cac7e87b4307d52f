//! Synthetic user panels.

use crate::failure::FailureIncident;
use crate::irritation::IrritationModel;
use crate::usage::UserGroup;
use simkit::SimRng;

/// Per-incident panel statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelResult {
    /// Mean irritation score (0–10).
    pub mean: f64,
    /// Minimum observed score.
    pub min: f64,
    /// Maximum observed score.
    pub max: f64,
}

/// A synthetic controlled-experiment panel: users sampled across groups
/// with individual sensitivity noise.
#[derive(Debug, Clone)]
pub struct Panel {
    model: IrritationModel,
    users: Vec<(UserGroup, f64)>, // (group, personal noise multiplier)
}

impl Panel {
    /// Samples `n` users uniformly across groups with ±20% personal
    /// variation, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sample(n: usize, seed: u64) -> Self {
        assert!(n > 0, "panel must have at least one user");
        let mut rng = SimRng::seed(seed);
        let users = (0..n)
            .map(|_| {
                let group = *rng.pick(&UserGroup::ALL).expect("groups non-empty");
                let noise = rng.uniform_f64(0.8, 1.2);
                (group, noise)
            })
            .collect();
        Panel {
            model: IrritationModel::new(),
            users,
        }
    }

    /// Panel size.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True for an empty panel (cannot be constructed via [`Panel::sample`]).
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Scores one incident across the panel, weighting by each user's
    /// home usage profile (field setting).
    pub fn assess(&self, incident: &FailureIncident) -> PanelResult {
        self.assess_with(incident, false)
    }

    /// Scores one incident in the controlled-experiment setting (every
    /// participant experiences the failure directly).
    pub fn assess_controlled(&self, incident: &FailureIncident) -> PanelResult {
        self.assess_with(incident, true)
    }

    fn assess_with(&self, incident: &FailureIncident, controlled: bool) -> PanelResult {
        let scores: Vec<f64> = self
            .users
            .iter()
            .map(|(group, noise)| {
                let base = if controlled {
                    self.model.score_controlled(incident, *group)
                } else {
                    let profile = group.default_profile();
                    self.model.score(incident, *group, &profile)
                };
                (base * noise).min(10.0)
            })
            .collect();
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        PanelResult {
            mean,
            min: scores.iter().copied().fold(f64::INFINITY, f64::min),
            max: scores.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_is_deterministic() {
        let p1 = Panel::sample(50, 11);
        let p2 = Panel::sample(50, 11);
        let inc = FailureIncident::stuck_swivel();
        assert_eq!(p1.assess(&inc), p2.assess(&inc));
        assert_eq!(p1.len(), 50);
        assert!(!p1.is_empty());
    }

    #[test]
    fn swivel_vs_image_quality_on_panel() {
        let panel = Panel::sample(200, 42);
        let sw = panel.assess(&FailureIncident::stuck_swivel());
        let iq = panel.assess(&FailureIncident::bad_image_quality());
        assert!(
            sw.mean > iq.mean,
            "swivel {:.2} must exceed image quality {:.2}",
            sw.mean,
            iq.mean
        );
    }

    #[test]
    fn stats_are_coherent() {
        let panel = Panel::sample(100, 3);
        let r = panel.assess(&FailureIncident::stuck_swivel());
        assert!(r.min <= r.mean && r.mean <= r.max);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_panel_rejected() {
        let _ = Panel::sample(0, 1);
    }
}
