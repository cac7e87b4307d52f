//! The comparator: expected vs observed, with debouncing.

use crate::config::{CheckPriority, CompareMode, CompareSpec, Configuration};
use crate::error::DetectedError;
use observe::ObsValue;
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::collections::BTreeMap;
use telemetry::Telemetry;

/// Counters describing comparator activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComparatorStats {
    /// Comparisons performed.
    pub comparisons: u64,
    /// Comparisons that deviated beyond threshold.
    pub deviations: u64,
    /// Errors actually reported (after debouncing).
    pub errors: u64,
    /// Comparisons skipped because comparison was disabled.
    pub skipped_disabled: u64,
    /// Comparisons shed because the check's priority fell below the
    /// degradation floor.
    pub skipped_shed: u64,
}

/// Tolerance adjustments the supervisor applies under degradation.
///
/// Neutral by default: thresholds unscaled, no extra debouncing, no
/// check shed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationKnobs {
    /// Multiplier on every spec's deviation threshold (≥ 1 widens). For
    /// exact (zero-threshold) specs a scale above 1 also grants a small
    /// absolute slack so "widen" means something.
    pub threshold_scale: f64,
    /// Added to every spec's `max_consecutive` debounce.
    pub extra_consecutive: u32,
    /// Checks below this priority are skipped entirely.
    pub min_priority: CheckPriority,
}

impl Default for DegradationKnobs {
    fn default() -> Self {
        DegradationKnobs {
            threshold_scale: 1.0,
            extra_consecutive: 0,
            min_priority: CheckPriority::Low,
        }
    }
}

/// Compares the model's expected outputs with the system's observed
/// outputs (the `Comparator` component of Fig. 2, with `IEnableCompare`).
///
/// ```
/// use awareness::{Comparator, Configuration, CompareSpec};
/// use observe::ObsValue;
/// use simkit::SimTime;
///
/// let cfg = Configuration::new()
///     .observable("volume", CompareSpec::exact().with_max_consecutive(1));
/// let mut cmp = Comparator::new(cfg);
/// cmp.set_expected("volume", ObsValue::Num(10.0));
/// // First deviation: tolerated (max_consecutive = 1).
/// assert!(cmp.observe(SimTime::ZERO, "volume", ObsValue::Num(0.0)).is_none());
/// // Second in a row: reported.
/// assert!(cmp.observe(SimTime::ZERO, "volume", ObsValue::Num(0.0)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Comparator {
    config: Configuration,
    observables: BTreeMap<String, Observable>,
    enabled: bool,
    degradation: DegradationKnobs,
    stats: ComparatorStats,
    telemetry: Telemetry,
}

/// Everything the comparator keeps about one observable. A missing
/// entry and one whose values are cleared behave the same.
#[derive(Debug, Clone)]
struct Observable {
    /// Its spec, resolved from the configuration once.
    spec: CompareSpec,
    /// The model's latest expected value.
    expected: Option<ObsValue>,
    /// The system's latest observed value.
    observed: Option<ObsValue>,
    /// Deviations in a row since the last match or report.
    consecutive: u32,
    /// When a time-based spec last compared it.
    last_compared: SimTime,
}

impl Observable {
    fn new(spec: CompareSpec) -> Self {
        Observable {
            spec,
            expected: None,
            observed: None,
            consecutive: 0,
            last_compared: SimTime::ZERO,
        }
    }

    fn clear(&mut self) {
        *self = Observable::new(self.spec);
    }

    /// Compares the expected with the observed value, counting into
    /// `stats`; returns the error once the deviation streak exceeds the
    /// (degraded) debounce.
    fn compare(
        &mut self,
        now: SimTime,
        name: &str,
        enabled: bool,
        degradation: &DegradationKnobs,
        stats: &mut ComparatorStats,
        telemetry: &Telemetry,
    ) -> Option<DetectedError> {
        if !enabled {
            stats.skipped_disabled += 1;
            return None;
        }
        let spec = self.spec;
        if spec.priority < degradation.min_priority {
            stats.skipped_shed += 1;
            return None;
        }
        // Nothing to compare against yet.
        let (Some(expected), Some(actual)) = (&self.expected, &self.observed) else {
            return None;
        };
        stats.comparisons += 1;
        telemetry.metric_incr("awareness.comparator.comparisons", 1);
        let deviation = expected.distance(actual);
        let threshold = if degradation.threshold_scale > 1.0 {
            // Exact specs get an absolute slack of 0.5 per unit of scale
            // above 1 so widening applies to them too.
            spec.threshold * degradation.threshold_scale
                + if spec.threshold == 0.0 {
                    0.5 * (degradation.threshold_scale - 1.0)
                } else {
                    0.0
                }
        } else {
            spec.threshold
        };
        if deviation <= threshold {
            self.consecutive = 0;
            return None;
        }
        stats.deviations += 1;
        telemetry.metric_incr("awareness.comparator.deviations", 1);
        self.consecutive += 1;
        if self.consecutive <= spec.max_consecutive + degradation.extra_consecutive {
            return None;
        }
        let consecutive = std::mem::take(&mut self.consecutive);
        stats.errors += 1;
        telemetry.count(now, "awareness.comparator.errors", 1);
        Some(DetectedError {
            time: now,
            observable: name.to_owned(),
            expected: expected.clone(),
            actual: actual.clone(),
            deviation,
            consecutive,
        })
    }
}

impl Comparator {
    /// Creates a comparator with the given configuration, enabled.
    pub fn new(config: Configuration) -> Self {
        Comparator {
            config,
            observables: BTreeMap::new(),
            enabled: true,
            degradation: DegradationKnobs::default(),
            stats: ComparatorStats::default(),
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle. Comparisons and deviations are
    /// metrics-only (too frequent for the timeline); reported errors are
    /// signal-level and land on the flight recorder too.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Applies (or, with [`DegradationKnobs::default`], removes) the
    /// supervisor's degradation adjustments.
    pub fn set_degradation(&mut self, knobs: DegradationKnobs) {
        assert!(knobs.threshold_scale >= 1.0, "degradation must not tighten");
        self.degradation = knobs;
    }

    /// The degradation adjustments currently in force.
    pub fn degradation(&self) -> &DegradationKnobs {
        &self.degradation
    }

    /// Enables or disables comparison (`IEnableCompare`): the monitor
    /// disables it while the model is in an unstable state.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// True when comparison is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Activity counters.
    pub fn stats(&self) -> &ComparatorStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Records the model's expected value for an observable.
    pub fn set_expected(&mut self, name: impl Into<String>, value: ObsValue) {
        let name = name.into();
        match self.observables.get_mut(&name) {
            Some(record) => record.expected = Some(value),
            None => {
                let mut record = Observable::new(self.config.spec(&name));
                record.expected = Some(value);
                self.observables.insert(name, record);
            }
        }
    }

    /// The current expected value, if any.
    pub fn expected(&self, name: &str) -> Option<&ObsValue> {
        self.observables.get(name)?.expected.as_ref()
    }

    /// The most recent observed value, if any.
    pub fn observed(&self, name: &str) -> Option<&ObsValue> {
        self.observables.get(name)?.observed.as_ref()
    }

    /// Ingests an observed value; for event-based observables this
    /// performs a comparison and may report an error.
    pub fn observe(&mut self, now: SimTime, name: &str, value: ObsValue) -> Option<DetectedError> {
        let record = match self.observables.get_mut(name) {
            Some(record) => record,
            None => self
                .observables
                .entry(name.to_owned())
                .or_insert_with(|| Observable::new(self.config.spec(name))),
        };
        record.observed = Some(value);
        match record.spec.mode {
            CompareMode::EventBased => record.compare(
                now,
                name,
                self.enabled,
                &self.degradation,
                &mut self.stats,
                &self.telemetry,
            ),
            CompareMode::TimeBased { .. } => None,
        }
    }

    /// Performs due time-based comparisons at `now`.
    pub fn tick(&mut self, now: SimTime) -> Vec<DetectedError> {
        let mut out = Vec::new();
        for (name, spec) in self.config.declared() {
            let CompareMode::TimeBased { period } = spec.mode else {
                continue;
            };
            let record = match self.observables.get_mut(name) {
                Some(record) => record,
                None => self
                    .observables
                    .entry(name.to_owned())
                    .or_insert_with(|| Observable::new(*spec)),
            };
            if now.since(record.last_compared) < period {
                continue;
            }
            record.last_compared = now;
            out.extend(record.compare(
                now,
                name,
                self.enabled,
                &self.degradation,
                &mut self.stats,
                &self.telemetry,
            ));
        }
        out
    }

    /// Clears deviation counters and cached values (after recovery).
    pub fn reset(&mut self) {
        self.observables.values_mut().for_each(Observable::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    fn num(x: f64) -> ObsValue {
        ObsValue::Num(x)
    }

    #[test]
    fn matching_values_are_silent() {
        let mut c = Comparator::new(Configuration::new());
        c.set_expected("v", num(5.0));
        assert!(c.observe(SimTime::ZERO, "v", num(5.0)).is_none());
        assert_eq!(c.stats().comparisons, 1);
        assert_eq!(c.stats().deviations, 0);
    }

    #[test]
    fn eager_spec_reports_first_deviation() {
        let mut c = Comparator::new(Configuration::new());
        c.set_expected("v", num(5.0));
        let err = c.observe(SimTime::from_millis(1), "v", num(9.0)).unwrap();
        assert_eq!(err.deviation, 4.0);
        assert_eq!(err.consecutive, 1);
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn threshold_tolerates_small_deviation() {
        let cfg = Configuration::new().observable("v", CompareSpec::exact().with_threshold(2.0));
        let mut c = Comparator::new(cfg);
        c.set_expected("v", num(5.0));
        assert!(c.observe(SimTime::ZERO, "v", num(6.5)).is_none());
        assert!(c.observe(SimTime::ZERO, "v", num(8.0)).is_some());
    }

    #[test]
    fn consecutive_deviation_debouncing() {
        let cfg =
            Configuration::new().observable("v", CompareSpec::exact().with_max_consecutive(2));
        let mut c = Comparator::new(cfg);
        c.set_expected("v", num(1.0));
        assert!(c.observe(SimTime::ZERO, "v", num(0.0)).is_none()); // 1st
        assert!(c.observe(SimTime::ZERO, "v", num(0.0)).is_none()); // 2nd
        let err = c.observe(SimTime::ZERO, "v", num(0.0)).unwrap(); // 3rd
        assert_eq!(err.consecutive, 3);
    }

    #[test]
    fn matching_value_resets_streak() {
        let cfg =
            Configuration::new().observable("v", CompareSpec::exact().with_max_consecutive(2));
        let mut c = Comparator::new(cfg);
        c.set_expected("v", num(1.0));
        c.observe(SimTime::ZERO, "v", num(0.0));
        c.observe(SimTime::ZERO, "v", num(0.0));
        // Transient resolves: match resets the streak.
        c.observe(SimTime::ZERO, "v", num(1.0));
        assert!(c.observe(SimTime::ZERO, "v", num(0.0)).is_none());
        assert_eq!(c.stats().errors, 0);
    }

    #[test]
    fn disabled_comparator_skips() {
        let mut c = Comparator::new(Configuration::new());
        c.set_expected("v", num(1.0));
        c.set_enabled(false);
        assert!(!c.is_enabled());
        assert!(c.observe(SimTime::ZERO, "v", num(9.0)).is_none());
        assert_eq!(c.stats().skipped_disabled, 1);
        c.set_enabled(true);
        assert!(c.observe(SimTime::ZERO, "v", num(9.0)).is_some());
    }

    #[test]
    fn text_values_compare_symbolically() {
        let mut c = Comparator::new(Configuration::new());
        c.set_expected("mode", ObsValue::Text("teletext".into()));
        assert!(c
            .observe(SimTime::ZERO, "mode", ObsValue::Text("teletext".into()))
            .is_none());
        let err = c
            .observe(SimTime::ZERO, "mode", ObsValue::Text("video".into()))
            .unwrap();
        assert!(err.deviation.is_infinite());
    }

    #[test]
    fn time_based_compares_on_tick_only() {
        let cfg = Configuration::new().observable(
            "v",
            CompareSpec::exact().time_based(SimDuration::from_millis(10)),
        );
        let mut c = Comparator::new(cfg);
        c.set_expected("v", num(1.0));
        assert!(c.observe(SimTime::from_millis(1), "v", num(0.0)).is_none());
        // Before the period: no comparison.
        assert!(c.tick(SimTime::from_millis(5)).is_empty());
        // At the period: compares and reports.
        let errs = c.tick(SimTime::from_millis(10));
        assert_eq!(errs.len(), 1);
        // Next period not due yet.
        assert!(c.tick(SimTime::from_millis(15)).is_empty());
        let errs = c.tick(SimTime::from_millis(20));
        assert_eq!(errs.len(), 1);
    }

    #[test]
    fn unknown_observable_waits_for_both_sides() {
        let mut c = Comparator::new(Configuration::new());
        assert!(c.observe(SimTime::ZERO, "v", num(1.0)).is_none());
        assert_eq!(c.stats().comparisons, 0);
        c.set_expected("v", num(2.0));
        assert!(c.observe(SimTime::ZERO, "v", num(1.0)).is_some());
    }

    #[test]
    fn degradation_widens_tolerances() {
        let mut c = Comparator::new(Configuration::new());
        c.set_degradation(DegradationKnobs {
            threshold_scale: 3.0,
            extra_consecutive: 1,
            min_priority: CheckPriority::Low,
        });
        c.set_expected("v", num(5.0));
        // Exact spec gains absolute slack 0.5 * (3 - 1) = 1.0.
        assert!(c.observe(SimTime::ZERO, "v", num(5.9)).is_none());
        assert_eq!(c.stats().deviations, 0);
        // Beyond the widened threshold: one extra consecutive tolerated.
        assert!(c.observe(SimTime::ZERO, "v", num(9.0)).is_none());
        assert!(c.observe(SimTime::ZERO, "v", num(9.0)).is_some());
        // Symbolic mismatches are never masked by widening.
        c.set_expected("mode", ObsValue::Text("tv".into()));
        c.observe(SimTime::ZERO, "mode", ObsValue::Text("menu".into()));
        let err = c
            .observe(SimTime::ZERO, "mode", ObsValue::Text("menu".into()))
            .unwrap();
        assert!(err.deviation.is_infinite());
    }

    #[test]
    fn shedding_skips_below_priority_floor() {
        let cfg = Configuration::new()
            .observable(
                "telemetry",
                CompareSpec::exact().with_priority(CheckPriority::Low),
            )
            .observable(
                "safety",
                CompareSpec::exact().with_priority(CheckPriority::Critical),
            );
        let mut c = Comparator::new(cfg);
        c.set_degradation(DegradationKnobs {
            threshold_scale: 1.0,
            extra_consecutive: 0,
            min_priority: CheckPriority::Normal,
        });
        c.set_expected("telemetry", num(1.0));
        c.set_expected("safety", num(1.0));
        assert!(c.observe(SimTime::ZERO, "telemetry", num(99.0)).is_none());
        assert_eq!(c.stats().skipped_shed, 1);
        assert!(c.observe(SimTime::ZERO, "safety", num(99.0)).is_some());
        // Back to normal: the shed check bites again.
        c.set_degradation(DegradationKnobs::default());
        assert!(c.observe(SimTime::ZERO, "telemetry", num(99.0)).is_some());
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Comparator::new(Configuration::new());
        c.set_expected("v", num(1.0));
        c.observe(SimTime::ZERO, "v", num(1.0));
        c.reset();
        assert!(c.expected("v").is_none());
        assert!(c.observed("v").is_none());
    }
}
