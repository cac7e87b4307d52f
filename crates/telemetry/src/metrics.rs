//! Metrics registry: named counters, gauges, and log-scale histograms.
//!
//! Readout must be deterministic — the registry backs the byte-identical
//! JSONL check of the determinism tests — so [`MetricsRegistry::to_json`]
//! emits every section sorted by the dotted `crate.component.metric`
//! name regardless of insertion order. Storage, however, is a small flat
//! vec probed with a pointer-identity fast path: names are `&'static
//! str` literals, so a recording site almost always passes the very same
//! slice and the lookup is a handful of pointer compares instead of a
//! tree walk over long shared-prefix strings — this is the probe-budget
//! hot path (E15). Histograms use fixed power-of-two buckets, which
//! makes merging two registries (E14's per-shard scorers) a plain
//! element-wise add: associative, commutative, and lossless with respect
//! to percentile readout.

use crate::json::Json;

/// Number of histogram buckets: one per power of two of a `u64`, plus a
/// dedicated zero bucket at index 0.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log-scale histogram of `u64` samples (typically
/// nanoseconds).
///
/// Bucket `0` holds zeros; bucket `i >= 1` holds samples whose highest
/// set bit is `i - 1`, i.e. values in `[2^(i-1), 2^i)`. A percentile
/// readout is therefore exact to within one bucket — a factor-of-two
/// relative error bound — while `count`/`sum`/`min`/`max` stay exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Index of the bucket a sample lands in.
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_high(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `[low, high]` bounds of the bucket holding the `q`-quantile
    /// sample (`0.0 <= q <= 1.0`), or `None` if empty.
    ///
    /// The true quantile value is guaranteed to lie within the returned
    /// bucket, so the relative error of either bound is at most one
    /// bucket (a factor of two).
    pub fn percentile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]: {q}");
        if self.count == 0 {
            return None;
        }
        // Rank of the quantile sample, 1-based, nearest-rank method.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Tighten with the exact extremes where they apply.
                let low = bucket_low(i).max(self.min);
                let high = bucket_high(i).min(self.max);
                return Some((low.min(high), high));
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.count)
    }

    /// Point estimate for the `q`-quantile: the upper bound of its
    /// bucket (conservative for latency budgets), or `0` if empty.
    pub fn percentile(&self, q: f64) -> u64 {
        self.percentile_bounds(q).map_or(0, |(_, high)| high)
    }

    /// Adds every sample of `other` into `self` (element-wise bucket
    /// add — associative and commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Renders the summary readout (exact stats + bucketed percentiles).
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("count", self.count.into())
            .field("sum", self.sum.into())
            .field("min", self.min().map_or(Json::Null, Json::from))
            .field("max", self.max().map_or(Json::Null, Json::from))
            .field("p50", self.percentile(0.50).into())
            .field("p95", self.percentile(0.95).into())
            .field("p99", self.percentile(0.99).into())
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Plain value type — no interior mutability, `Send` — so threaded code
/// (E14's sharded scorer) keeps one registry per shard and merges after
/// join rather than contending on a lock inside the measured region.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, i64)>,
    gauges: Vec<(&'static str, i64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

/// Finds `name` in a flat metric table, or inserts a default entry.
/// Pointer identity (same literal, same call site) short-circuits the
/// content comparison.
fn slot<'a, T: Default>(entries: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T {
    let found = entries
        .iter()
        .position(|(n, _)| std::ptr::eq::<str>(*n, name) || *n == name);
    let index = match found {
        Some(i) => i,
        None => {
            entries.push((name, T::default()));
            entries.len() - 1
        }
    };
    &mut entries[index].1
}

/// Read-only lookup by content.
fn get<'a, T>(entries: &'a [(&'static str, T)], name: &str) -> Option<&'a T> {
    entries.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn incr(&mut self, name: &'static str, delta: i64) {
        *slot(&mut self.counters, name) += delta;
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> i64 {
        get(&self.counters, name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: i64) {
        *slot(&mut self.gauges, name) = value;
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        get(&self.gauges, name).copied()
    }

    /// Records `value` into the named histogram (created empty).
    pub fn observe(&mut self, name: &'static str, value: u64) {
        slot(&mut self.histograms, name).record(value);
    }

    /// Read access to a histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        get(&self.histograms, name)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Distinct metric names across all three sections.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Merges every metric of `other` into `self`: counters add, gauges
    /// take `other`'s value (last-writer-wins), histograms merge
    /// bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for &(name, delta) in &other.counters {
            *slot(&mut self.counters, name) += delta;
        }
        for &(name, value) in &other.gauges {
            *slot(&mut self.gauges, name) = value;
        }
        for (name, theirs) in &other.histograms {
            slot(&mut self.histograms, name).merge(theirs);
        }
    }

    /// Folds any number of registries into a fresh one, in iteration
    /// order. Counter and histogram merging is associative and
    /// commutative, so for those sections the result only depends on
    /// the *set* of inputs — this is how a campaign fleet combines its
    /// per-worker registries into one worker-count-invariant readout.
    /// (Gauges remain last-writer-wins, so gauge values follow the
    /// iteration order given here.)
    pub fn merge_all<'a>(
        registries: impl IntoIterator<Item = &'a MetricsRegistry>,
    ) -> MetricsRegistry {
        let mut merged = MetricsRegistry::new();
        for registry in registries {
            merged.merge(registry);
        }
        merged
    }

    /// Renders the full readout as one JSON object with `counters`,
    /// `gauges`, and `histograms` sections, names sorted — byte-identical
    /// across runs that recorded the same values regardless of the order
    /// they recorded them in.
    pub fn to_json(&self) -> Json {
        fn sorted<'a, T>(entries: &'a [(&'static str, T)]) -> Vec<&'a (&'static str, T)> {
            let mut refs: Vec<_> = entries.iter().collect();
            refs.sort_by_key(|(n, _)| *n);
            refs
        }
        let mut counters = Json::object();
        for &&(name, value) in &sorted(&self.counters) {
            counters = counters.field(name, value.into());
        }
        let mut gauges = Json::object();
        for &&(name, value) in &sorted(&self.gauges) {
            gauges = gauges.field(name, value.into());
        }
        let mut histograms = Json::object();
        for (name, h) in sorted(&self.histograms) {
            histograms = histograms.field(name, h.to_json());
        }
        Json::object()
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert!(bucket_low(i) <= bucket_high(i));
            if i > 0 {
                assert_eq!(bucket_index(bucket_low(i)), i);
                assert_eq!(bucket_index(bucket_high(i)), i);
            }
        }
    }

    #[test]
    fn exact_stats_and_bracketing_percentiles() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1100);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(1000));
        // p50 of {10,20,30,40,1000} is 30 (nearest rank 3).
        let (low, high) = h.percentile_bounds(0.50).unwrap();
        assert!(low <= 30 && 30 <= high, "[{low},{high}]");
        // The bracket is at most one power-of-two bucket wide.
        assert!(high < 2 * low.max(1));
        // p99 lands in the max's bucket, clamped to the exact max.
        assert_eq!(h.percentile(0.99), 1000);
    }

    #[test]
    fn empty_histogram_readout() {
        let h = Histogram::new();
        assert_eq!(h.percentile_bounds(0.5), None);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [1u64, 5, 9, 100] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 700, 0] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.incr("a.b.c", 2);
        m.incr("a.b.c", 3);
        m.set_gauge("a.b.depth", 7);
        m.observe("a.b.ns", 128);
        assert_eq!(m.counter("a.b.c"), 5);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.gauge("a.b.depth"), Some(7));
        assert_eq!(m.histogram("a.b.ns").unwrap().count(), 1);
    }

    #[test]
    fn merge_all_folds_in_order_and_is_order_insensitive_for_counters() {
        let mut a = MetricsRegistry::new();
        a.incr("presses", 3);
        a.observe("lat.ns", 10);
        let mut b = MetricsRegistry::new();
        b.incr("presses", 4);
        b.observe("lat.ns", 90);
        let forward = MetricsRegistry::merge_all([&a, &b]);
        let backward = MetricsRegistry::merge_all([&b, &a]);
        assert_eq!(forward.counter("presses"), 7);
        assert_eq!(
            forward.to_json().render(),
            backward.to_json().render(),
            "counter/histogram merging must be order-insensitive"
        );
        assert!(MetricsRegistry::merge_all([]).is_empty());
    }

    #[test]
    fn registry_merge_and_deterministic_readout() {
        let mut a = MetricsRegistry::new();
        a.incr("z.last", 1);
        a.observe("lat.ns", 4);
        let mut b = MetricsRegistry::new();
        b.incr("z.last", 2);
        b.incr("a.first", 1);
        b.set_gauge("g", 9);
        b.observe("lat.ns", 8);
        a.merge(&b);
        assert_eq!(a.counter("z.last"), 3);
        assert_eq!(a.histogram("lat.ns").unwrap().count(), 2);
        // Readout sorts names lexicographically regardless of insertion.
        let rendered = a.to_json().render();
        let first = rendered.find("a.first").unwrap();
        let last = rendered.find("z.last").unwrap();
        assert!(first < last, "{rendered}");
    }
}
