//! User groups and usage profiles.

use std::collections::BTreeMap;
use std::fmt;

/// User groups studied in the controlled experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UserGroup {
    /// Watches occasionally, few features.
    Casual,
    /// Power user: many features, high expectations.
    Enthusiast,
    /// Shared living-room set: kids, locks, guides.
    Family,
    /// Values simplicity and physical controls.
    Elderly,
}

impl UserGroup {
    /// All groups.
    pub const ALL: [UserGroup; 4] = [
        UserGroup::Casual,
        UserGroup::Enthusiast,
        UserGroup::Family,
        UserGroup::Elderly,
    ];

    /// Baseline irritation sensitivity of the group (multiplier):
    /// enthusiasts notice and mind more; casual viewers forgive more.
    pub fn sensitivity(self) -> f64 {
        match self {
            UserGroup::Casual => 0.8,
            UserGroup::Enthusiast => 1.25,
            UserGroup::Family => 1.0,
            UserGroup::Elderly => 1.1,
        }
    }

    /// The group's default usage profile.
    pub fn default_profile(self) -> UsageProfile {
        let mut mix = BTreeMap::new();
        let (hours, entries): (f64, &[(&str, f64)]) = match self {
            UserGroup::Casual => (
                1.5,
                &[("image-quality", 0.8), ("volume", 0.15), ("swivel", 0.05)],
            ),
            UserGroup::Enthusiast => (
                4.0,
                &[
                    ("image-quality", 0.5),
                    ("teletext", 0.2),
                    ("epg", 0.15),
                    ("volume", 0.1),
                    ("swivel", 0.05),
                ],
            ),
            UserGroup::Family => (
                3.0,
                &[
                    ("image-quality", 0.6),
                    ("child-lock", 0.1),
                    ("epg", 0.1),
                    ("volume", 0.15),
                    ("swivel", 0.05),
                ],
            ),
            UserGroup::Elderly => (
                5.0,
                &[
                    ("image-quality", 0.6),
                    ("volume", 0.2),
                    ("teletext", 0.1),
                    ("swivel", 0.1),
                ],
            ),
        };
        for (k, v) in entries {
            mix.insert((*k).to_owned(), *v);
        }
        UsageProfile {
            hours_per_day: hours,
            feature_mix: mix,
        }
    }
}

impl fmt::Display for UserGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UserGroup::Casual => "casual",
            UserGroup::Enthusiast => "enthusiast",
            UserGroup::Family => "family",
            UserGroup::Elderly => "elderly",
        };
        f.write_str(s)
    }
}

/// How a user uses the product: daily hours and feature mix.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageProfile {
    /// Viewing hours per day.
    pub hours_per_day: f64,
    /// Share of attention per feature (sums to ≈1).
    pub feature_mix: BTreeMap<String, f64>,
}

impl UsageProfile {
    /// The exposure weight of a function for this profile: how much the
    /// user actually encounters it (0 when unused).
    pub fn exposure(&self, function: &str) -> f64 {
        let share = self.feature_mix.get(function).copied().unwrap_or(0.0);
        // Normalize hours against a 4h/day reference viewer.
        share * (self.hours_per_day / 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_paper_functions() {
        for g in UserGroup::ALL {
            let p = g.default_profile();
            assert!(p.exposure("image-quality") > 0.0, "{g}");
            assert!(p.exposure("swivel") > 0.0, "{g}");
            assert!(p.exposure("nonexistent") == 0.0);
        }
    }

    #[test]
    fn feature_mix_roughly_normalized() {
        for g in UserGroup::ALL {
            let sum: f64 = g.default_profile().feature_mix.values().sum();
            assert!((sum - 1.0).abs() < 0.01, "{g}: {sum}");
        }
    }

    #[test]
    fn sensitivity_varies_by_group() {
        assert!(UserGroup::Enthusiast.sensitivity() > UserGroup::Casual.sensitivity());
    }

    #[test]
    fn exposure_scales_with_hours() {
        let enthusiast = UserGroup::Enthusiast.default_profile();
        let casual = UserGroup::Casual.default_profile();
        // The enthusiast watches much more; even with a lower image share
        // their exposure is comparable or higher.
        assert!(enthusiast.exposure("teletext") > casual.exposure("teletext"));
    }
}
