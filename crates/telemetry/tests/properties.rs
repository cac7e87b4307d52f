//! Property tests for the telemetry primitives: the ring recorder's
//! bounded-newest-N guarantee, histogram merge algebra, and the
//! one-bucket relative-error bound of percentile readout.

use proptest::prelude::*;
use simkit::SimTime;
use telemetry::{EventKind, FlightRecorder, Histogram, MetricsRegistry};

/// Records `values[i]` as a counter event stamped `i` nanoseconds in.
fn fill(ring: &mut FlightRecorder, values: &[i64]) {
    for (i, &v) in values.iter().enumerate() {
        ring.record(
            SimTime::from_nanos(i as u64),
            "prop.ring.tick",
            EventKind::Counter { delta: v },
        );
    }
}

proptest! {
    /// The ring never exceeds its capacity and always holds exactly the
    /// newest `min(len, capacity)` events, in recording order.
    #[test]
    fn ring_keeps_newest_n_in_order(
        capacity in 1usize..40,
        values in prop::collection::vec(-1000i64..1000, 0..200)
    ) {
        let mut ring = FlightRecorder::new(capacity);
        fill(&mut ring, &values);

        prop_assert!(ring.len() <= ring.capacity());
        prop_assert_eq!(ring.len(), values.len().min(capacity));
        prop_assert_eq!(
            ring.overwritten(),
            values.len().saturating_sub(capacity) as u64
        );

        let kept: Vec<i64> = ring
            .iter()
            .map(|e| match e.kind {
                EventKind::Counter { delta } => delta,
                _ => unreachable!(),
            })
            .collect();
        let expected: Vec<i64> = values
            .iter()
            .copied()
            .skip(values.len().saturating_sub(capacity))
            .collect();
        prop_assert_eq!(kept, expected, "ring lost or reordered the newest events");

        // Stamps come out strictly increasing — oldest first.
        let stamps: Vec<u64> = ring.iter().map(|e| e.at.as_nanos()).collect();
        prop_assert!(stamps.windows(2).all(|w| w[0] < w[1]));
    }

    /// `tail(n)` is always the suffix of the full iteration.
    #[test]
    fn ring_tail_is_suffix(
        capacity in 1usize..30,
        n in 0usize..50,
        values in prop::collection::vec(0i64..10, 0..100)
    ) {
        let mut ring = FlightRecorder::new(capacity);
        fill(&mut ring, &values);
        let all: Vec<u64> = ring.iter().map(|e| e.at.as_nanos()).collect();
        let tail: Vec<u64> = ring.tail(n).iter().map(|e| e.at.as_nanos()).collect();
        prop_assert_eq!(&all[all.len() - tail.len()..], &tail[..]);
        prop_assert_eq!(tail.len(), n.min(all.len()));
    }

    /// Histogram merge is associative and commutative, and merging
    /// equals having recorded every sample into one histogram.
    #[test]
    fn histogram_merge_is_associative_commutative(
        xs in prop::collection::vec(0u64..1_000_000, 0..60),
        ys in prop::collection::vec(0u64..1_000_000, 0..60),
        zs in prop::collection::vec(0u64..1_000_000, 0..60)
    ) {
        let build = |samples: &[u64]| {
            let mut h = Histogram::new();
            for &s in samples {
                h.record(s);
            }
            h
        };
        let (a, b, c) = (build(&xs), build(&ys), build(&zs));

        // Commutative: a+b == b+a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Associative: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merge equals single-pass recording.
        let mut all = xs.clone();
        all.extend(&ys);
        all.extend(&zs);
        prop_assert_eq!(&ab_c, &build(&all));
    }

    /// `percentile_bounds(q)` brackets the exact nearest-rank quantile,
    /// and the bracket is never wider than one log-scale bucket (a
    /// factor of two in the value).
    #[test]
    fn percentile_brackets_true_value_within_one_bucket(
        samples in prop::collection::vec(0u64..10_000_000, 1..120),
        q_millis in 0u64..=1000
    ) {
        let q = q_millis as f64 / 1000.0;
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }

        // Exact nearest-rank quantile from the sorted samples.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];

        let (low, high) = h.percentile_bounds(q).unwrap();
        prop_assert!(
            low <= exact && exact <= high,
            "exact {exact} outside bracket [{low},{high}] at q={q}"
        );
        // One power-of-two bucket: high < 2*max(low,1).
        prop_assert!(high <= 2u64.saturating_mul(low.max(1)), "[{low},{high}]");
        // The point estimate is the bracket's upper edge.
        prop_assert_eq!(h.percentile(q), high);
    }

    /// Registry merge matches recording everything into one registry,
    /// regardless of how samples are split across shards — the property
    /// the sharded E14 scorer relies on.
    #[test]
    fn registry_merge_matches_single_shard(
        samples in prop::collection::vec((0u8..3, 0u64..100_000), 0..120),
        shards in 1usize..6
    ) {
        const NAMES: [&str; 3] = ["a.shard.ns", "b.shard.items", "c.shard.depth"];
        let mut whole = MetricsRegistry::new();
        let mut parts: Vec<MetricsRegistry> = (0..shards).map(|_| MetricsRegistry::new()).collect();
        for (i, &(kind, value)) in samples.iter().enumerate() {
            let name = NAMES[kind as usize];
            let part = &mut parts[i % shards];
            match kind {
                0 => {
                    whole.observe(name, value);
                    part.observe(name, value);
                }
                1 => {
                    whole.incr(name, value as i64);
                    part.incr(name, value as i64);
                }
                _ => {
                    // Gauges are last-writer-wins; merge order is shard
                    // order, so only compare the counter/histogram parts
                    // by skipping gauges here.
                    whole.incr(name, 1);
                    part.incr(name, 1);
                }
            }
        }
        let mut merged = MetricsRegistry::new();
        for part in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(merged.to_json().render(), whole.to_json().render());
    }
}
