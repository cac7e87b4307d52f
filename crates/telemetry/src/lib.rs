//! Flight-recorder telemetry for the awareness loop.
//!
//! The paper's monitor must observe the system under observation without
//! disturbing it (lightweight observation, minimal probe effect) — and
//! this crate applies the same discipline to the monitor itself. It is
//! std-only (consistent with the offline shims policy) and provides:
//!
//! * [`FlightRecorder`] — a fixed-capacity, overwrite-oldest ring of
//!   structured [`Event`]s (span enter/exit, counter deltas, state
//!   transitions, gauges) stamped with simkit virtual time, drainable
//!   to deterministic JSONL for post-mortem forensics;
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   log-scale [`Histogram`]s with p50/p95/p99 readout, mergeable across
//!   threads for sharded workloads;
//! * [`Telemetry`] — the cheap cloneable handle threaded through the
//!   loop. A disabled handle ([`Telemetry::off`], also `Default`) is a
//!   `None` and every call is a branch on it, so instrumentation left in
//!   place costs next to nothing when telemetry is off — the property
//!   experiment E15 budgets (≤5% overhead with telemetry *on*).
//!
//! Event and metric names are `&'static str` in dotted
//! `crate.component.metric` form (e.g. `awareness.comparator.errors`),
//! so recording never allocates for names and dumps are `grep`-friendly.
//!
//! The handle is intentionally **not** `Send` (`Rc<RefCell<..>>`): the
//! awareness loop is single-threaded by design, and threaded code (the
//! sharded spectra scorer) instead keeps one plain [`MetricsRegistry`]
//! per shard and merges after join — see [`MetricsRegistry::merge`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use event::{Event, EventKind};
pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use recorder::FlightRecorder;

use simkit::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Everything a recording handle shares: the ring and the registry.
#[derive(Debug)]
struct Hub {
    ring: FlightRecorder,
    metrics: MetricsRegistry,
}

/// Cheap cloneable telemetry handle; clones share one recorder/registry.
///
/// ```
/// use telemetry::Telemetry;
/// use simkit::SimTime;
///
/// let t = Telemetry::recording(64);
/// t.span_enter(SimTime::from_micros(1), "demo.work.step");
/// t.count(SimTime::from_micros(2), "demo.work.items", 3);
/// t.span_exit(SimTime::from_micros(5), "demo.work.step");
/// assert_eq!(t.counter("demo.work.items"), 3);
/// assert_eq!(t.events_jsonl().lines().count(), 3);
///
/// let off = Telemetry::off();
/// off.count(SimTime::ZERO, "demo.work.items", 1); // no-op, near-zero cost
/// assert!(!off.is_on());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    hub: Option<Rc<RefCell<Hub>>>,
}

impl Telemetry {
    /// A disabled handle: every recording call is a no-op.
    pub fn off() -> Telemetry {
        Telemetry { hub: None }
    }

    /// An enabled handle with a flight recorder holding `capacity`
    /// events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn recording(capacity: usize) -> Telemetry {
        Telemetry {
            hub: Some(Rc::new(RefCell::new(Hub {
                ring: FlightRecorder::new(capacity),
                metrics: MetricsRegistry::new(),
            }))),
        }
    }

    /// True if this handle records anything.
    pub fn is_on(&self) -> bool {
        self.hub.is_some()
    }

    fn record(&self, at: SimTime, name: &'static str, kind: EventKind) {
        if let Some(hub) = &self.hub {
            hub.borrow_mut().ring.record(at, name, kind);
        }
    }

    // ---- timeline events (simulated time) ----

    /// Records entry into a named span at simulated instant `at`.
    pub fn span_enter(&self, at: SimTime, name: &'static str) {
        self.record(at, name, EventKind::SpanEnter);
    }

    /// Records exit from a named span at simulated instant `at`.
    pub fn span_exit(&self, at: SimTime, name: &'static str) {
        self.record(at, name, EventKind::SpanExit);
    }

    /// Adds `delta` to the named counter *and* records the change as a
    /// timeline event — for signal-level occurrences (errors, recoveries,
    /// retransmissions) where each instance matters forensically. For
    /// high-frequency counts use [`Telemetry::metric_incr`].
    pub fn count(&self, at: SimTime, name: &'static str, delta: i64) {
        if let Some(hub) = &self.hub {
            let mut hub = hub.borrow_mut();
            hub.metrics.incr(name, delta);
            hub.ring.record(at, name, EventKind::Counter { delta });
        }
    }

    /// Records a state transition event (e.g. degradation modes).
    pub fn transition(
        &self,
        at: SimTime,
        name: &'static str,
        from: &'static str,
        to: &'static str,
    ) {
        self.record(at, name, EventKind::Transition { from, to });
    }

    /// Sets the named gauge and records the new value as an event.
    pub fn gauge(&self, at: SimTime, name: &'static str, value: i64) {
        if let Some(hub) = &self.hub {
            let mut hub = hub.borrow_mut();
            hub.metrics.set_gauge(name, value);
            hub.ring.record(at, name, EventKind::Gauge { value });
        }
    }

    // ---- metrics-only paths (no timeline event) ----

    /// Adds `delta` to the named counter without a timeline event — for
    /// high-frequency counts (comparisons, frames, messages) that would
    /// flood the ring.
    pub fn metric_incr(&self, name: &'static str, delta: i64) {
        if let Some(hub) = &self.hub {
            hub.borrow_mut().metrics.incr(name, delta);
        }
    }

    /// Sets the named gauge without a timeline event — for values
    /// re-sampled every pump (backlogs, depths) where only the latest
    /// matters.
    pub fn metric_gauge(&self, name: &'static str, value: i64) {
        if let Some(hub) = &self.hub {
            hub.borrow_mut().metrics.set_gauge(name, value);
        }
    }

    /// Records a sample (typically nanoseconds) into the named histogram.
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        if let Some(hub) = &self.hub {
            hub.borrow_mut().metrics.observe(name, ns);
        }
    }

    // ---- readout ----

    /// Current value of a counter; zero when disabled or never touched.
    pub fn counter(&self, name: &str) -> i64 {
        self.hub
            .as_ref()
            .map_or(0, |hub| hub.borrow().metrics.counter(name))
    }

    /// A copy of the metrics registry (empty when disabled).
    pub fn snapshot_metrics(&self) -> MetricsRegistry {
        self.hub
            .as_ref()
            .map_or_else(MetricsRegistry::new, |hub| hub.borrow().metrics.clone())
    }

    /// The metrics readout as a JSON object (deterministic field order).
    pub fn metrics_json(&self) -> Json {
        self.snapshot_metrics().to_json()
    }

    /// The whole event ring as JSONL, oldest first; empty when disabled.
    pub fn events_jsonl(&self) -> String {
        self.hub
            .as_ref()
            .map_or_else(String::new, |hub| hub.borrow().ring.to_jsonl())
    }

    /// The newest `n` events as JSONL; empty when disabled.
    pub fn tail_jsonl(&self, n: usize) -> String {
        self.hub
            .as_ref()
            .map_or_else(String::new, |hub| hub.borrow().ring.tail_jsonl(n))
    }

    /// Events lost to ring overwriting; zero when disabled.
    pub fn overwritten(&self) -> u64 {
        self.hub
            .as_ref()
            .map_or(0, |hub| hub.borrow().ring.overwritten())
    }

    /// Number of events currently in the ring; zero when disabled.
    pub fn events_len(&self) -> usize {
        self.hub.as_ref().map_or(0, |hub| hub.borrow().ring.len())
    }

    /// Clears the ring and the registry.
    pub fn clear(&self) {
        if let Some(hub) = &self.hub {
            let mut hub = hub.borrow_mut();
            hub.ring.clear();
            hub.metrics = MetricsRegistry::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let t = Telemetry::off();
        t.span_enter(SimTime::ZERO, "a.b.c");
        t.count(SimTime::ZERO, "a.b.c", 1);
        t.observe_ns("a.b.ns", 5);
        assert!(!t.is_on());
        assert_eq!(t.counter("a.b.c"), 0);
        assert_eq!(t.events_jsonl(), "");
        assert_eq!(t.events_len(), 0);
    }

    #[test]
    fn default_is_off() {
        assert!(!Telemetry::default().is_on());
    }

    #[test]
    fn clones_share_one_hub() {
        let t = Telemetry::recording(16);
        let u = t.clone();
        u.count(SimTime::from_micros(1), "x.y.z", 2);
        t.count(SimTime::from_micros(2), "x.y.z", 3);
        assert_eq!(t.counter("x.y.z"), 5);
        assert_eq!(u.events_len(), 2);
    }

    #[test]
    fn count_hits_both_ring_and_registry() {
        let t = Telemetry::recording(8);
        t.count(SimTime::from_nanos(7), "a.b.hits", 1);
        t.metric_incr("a.b.quiet", 10);
        assert_eq!(t.counter("a.b.hits"), 1);
        assert_eq!(t.counter("a.b.quiet"), 10);
        let dump = t.events_jsonl();
        assert!(dump.contains("a.b.hits"));
        assert!(
            !dump.contains("a.b.quiet"),
            "metric_incr must skip the ring"
        );
    }

    #[test]
    fn transition_and_gauge_render() {
        let t = Telemetry::recording(8);
        t.transition(SimTime::from_nanos(1), "m.s.mode", "normal", "safe");
        t.gauge(SimTime::from_nanos(2), "m.s.depth", 4);
        let dump = t.events_jsonl();
        assert!(dump.contains(r#""from":"normal","to":"safe""#), "{dump}");
        assert!(dump.contains(r#""value":4"#), "{dump}");
        assert_eq!(t.snapshot_metrics().gauge("m.s.depth"), Some(4));
    }

    #[test]
    fn clear_empties_both_sides() {
        let t = Telemetry::recording(4);
        t.count(SimTime::ZERO, "a.b.c", 1);
        t.clear();
        assert_eq!(t.counter("a.b.c"), 0);
        assert_eq!(t.events_jsonl(), "");
    }
}
