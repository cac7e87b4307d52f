//! Comparator configuration (the `Configuration` component of Fig. 2).

use serde::{Deserialize, Serialize};
use simkit::SimDuration;
use std::collections::BTreeMap;

/// When comparison of an observable happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompareMode {
    /// Compare whenever a new observed value arrives.
    EventBased,
    /// Compare on a fixed period (combinable with enable windows).
    TimeBased {
        /// Comparison period.
        period: SimDuration,
    },
}

/// Per-observable comparison tolerances — the two parameters the paper
/// singles out (Sect. 4.3): a deviation **threshold** and a maximum number
/// of **consecutive deviations** tolerated before an error is reported —
/// plus when the comparison happens.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompareSpec {
    /// Maximal allowed |expected − observed| (0.0 = exact).
    pub threshold: f64,
    /// Deviations tolerated in a row before reporting. `0` = report on the
    /// first deviating comparison (the "too eager" configuration).
    pub max_consecutive: u32,
    /// Event- or time-based comparison.
    pub mode: CompareMode,
}

impl CompareSpec {
    /// An exact, immediate, event-based spec (the eager default).
    pub fn exact() -> Self {
        CompareSpec {
            threshold: 0.0,
            max_consecutive: 0,
            mode: CompareMode::EventBased,
        }
    }

    /// Sets the deviation threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be >= 0");
        self.threshold = threshold;
        self
    }

    /// Sets the consecutive-deviation tolerance.
    pub fn with_max_consecutive(mut self, max: u32) -> Self {
        self.max_consecutive = max;
        self
    }

    /// Switches to time-based comparison with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn time_based(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        self.mode = CompareMode::TimeBased { period };
        self
    }
}

impl Default for CompareSpec {
    fn default() -> Self {
        CompareSpec::exact()
    }
}

/// The configuration component: which observables exist and how each is
/// compared (`IConfigInfo`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Configuration {
    specs: BTreeMap<String, CompareSpec>,
    default_spec: CompareSpec,
}

impl Configuration {
    /// Creates a configuration whose unlisted observables use
    /// [`CompareSpec::exact`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the spec used for observables without an explicit entry.
    pub fn with_default_spec(mut self, spec: CompareSpec) -> Self {
        self.default_spec = spec;
        self
    }

    /// Declares an observable with its spec.
    pub fn observable(mut self, name: impl Into<String>, spec: CompareSpec) -> Self {
        self.specs.insert(name.into(), spec);
        self
    }

    /// The spec for `name` (explicit or default).
    pub fn spec(&self, name: &str) -> CompareSpec {
        self.specs.get(name).copied().unwrap_or(self.default_spec)
    }

    /// Iterates over explicitly declared observables.
    pub fn declared(&self) -> impl Iterator<Item = (&str, &CompareSpec)> {
        self.specs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of explicitly declared observables.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when nothing is explicitly declared.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_exact_event_based() {
        let s = CompareSpec::default();
        assert_eq!(s.threshold, 0.0);
        assert_eq!(s.max_consecutive, 0);
        assert_eq!(s.mode, CompareMode::EventBased);
    }

    #[test]
    fn builder_chain() {
        let s = CompareSpec::exact()
            .with_threshold(1.5)
            .with_max_consecutive(3)
            .time_based(SimDuration::from_millis(20));
        assert_eq!(s.threshold, 1.5);
        assert_eq!(s.max_consecutive, 3);
        assert_eq!(
            s.mode,
            CompareMode::TimeBased {
                period: SimDuration::from_millis(20)
            }
        );
    }

    #[test]
    fn configuration_lookup_falls_back() {
        let cfg = Configuration::new()
            .observable("volume", CompareSpec::exact().with_threshold(2.0))
            .with_default_spec(CompareSpec::exact().with_max_consecutive(5));
        assert_eq!(cfg.spec("volume").threshold, 2.0);
        assert_eq!(cfg.spec("other").max_consecutive, 5);
        assert_eq!(cfg.len(), 1);
        assert!(!cfg.is_empty());
        assert_eq!(cfg.declared().count(), 1);
    }

    #[test]
    #[should_panic(expected = "threshold must be >= 0")]
    fn negative_threshold_rejected() {
        let _ = CompareSpec::exact().with_threshold(-1.0);
    }
}
