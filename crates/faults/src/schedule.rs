//! Fault activation schedules.

use simkit::{SimDuration, SimRng, SimTime};

/// When a fault is active.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Active from `at` onward (a permanent fault appearing at `at`).
    From {
        /// Activation instant.
        at: SimTime,
    },
    /// Active inside the window `[from, to)` (a transient fault).
    Between {
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// Active once `count` events have been processed.
    AfterEvents {
        /// Event-count threshold.
        count: u64,
    },
    /// Active periodically: within the first `duty` of every `period`
    /// (intermittent contact, thermal cycling).
    Periodic {
        /// Cycle length.
        period: SimDuration,
        /// Active prefix of each cycle.
        duty: SimDuration,
    },
    /// Always active.
    Always,
}

impl Schedule {
    /// True if the fault is active at `now` with `events` processed.
    pub fn is_active(&self, now: SimTime, events: u64) -> bool {
        match self {
            Schedule::From { at } => now >= *at,
            Schedule::Between { from, to } => now >= *from && now < *to,
            Schedule::AfterEvents { count } => events >= *count,
            Schedule::Periodic { period, duty } => {
                let phase = now.as_nanos() % period.as_nanos().max(1);
                phase < duty.as_nanos()
            }
            Schedule::Always => true,
        }
    }

    /// A deterministic transient window spanning `[from_frac, to_frac)`
    /// of `horizon` — the scorecard grid derives every cell's fault
    /// phase this way (from the rep index, not an RNG draw), so cell
    /// results are a pure function of the cell's coordinates.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= from_frac < to_frac <= 1.0`.
    pub fn window_fraction(horizon: SimTime, from_frac: f64, to_frac: f64) -> Schedule {
        assert!(
            (0.0..1.0).contains(&from_frac) && from_frac < to_frac && to_frac <= 1.0,
            "window fractions must satisfy 0 <= from < to <= 1: [{from_frac}, {to_frac})"
        );
        let span = horizon.as_nanos() as f64;
        Schedule::Between {
            from: SimTime::from_nanos((span * from_frac) as u64),
            to: SimTime::from_nanos((span * to_frac) as u64),
        }
    }

    /// A random transient window of length `len` inside `[0, horizon)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is at least `horizon`.
    pub fn random_window(horizon: SimTime, len: SimDuration, rng: &mut SimRng) -> Schedule {
        assert!(
            len.as_nanos() < horizon.as_nanos(),
            "window must fit inside horizon"
        );
        let start = rng.uniform_u64(0, horizon.as_nanos() - len.as_nanos());
        Schedule::Between {
            from: SimTime::from_nanos(start),
            to: SimTime::from_nanos(start + len.as_nanos()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn from_schedule() {
        let s = Schedule::From { at: ms(10) };
        assert!(!s.is_active(ms(9), 0));
        assert!(s.is_active(ms(10), 0));
        assert!(s.is_active(ms(1000), 0));
    }

    #[test]
    fn between_schedule() {
        let s = Schedule::Between {
            from: ms(10),
            to: ms(20),
        };
        assert!(!s.is_active(ms(9), 0));
        assert!(s.is_active(ms(10), 0));
        assert!(s.is_active(ms(19), 0));
        assert!(!s.is_active(ms(20), 0));
    }

    #[test]
    fn after_events_schedule() {
        let s = Schedule::AfterEvents { count: 5 };
        assert!(!s.is_active(ms(1000), 4));
        assert!(s.is_active(SimTime::ZERO, 5));
    }

    #[test]
    fn periodic_schedule() {
        let s = Schedule::Periodic {
            period: SimDuration::from_millis(10),
            duty: SimDuration::from_millis(3),
        };
        assert!(s.is_active(ms(0), 0));
        assert!(s.is_active(ms(2), 0));
        assert!(!s.is_active(ms(3), 0));
        assert!(!s.is_active(ms(9), 0));
        assert!(s.is_active(ms(12), 0));
    }

    #[test]
    fn always_is_active() {
        assert!(Schedule::Always.is_active(ms(0), 0));
        assert!(Schedule::Always.is_active(ms(1000), 1000));
    }

    #[test]
    fn window_fraction_spans_the_requested_slice() {
        let horizon = SimTime::from_secs(4);
        let s = Schedule::window_fraction(horizon, 0.25, 0.75);
        assert!(!s.is_active(ms(999), 0));
        assert!(s.is_active(ms(1000), 0));
        assert!(s.is_active(ms(2999), 0));
        assert!(!s.is_active(ms(3000), 0));
    }

    #[test]
    #[should_panic(expected = "window fractions")]
    fn window_fraction_rejects_inverted_bounds() {
        let _ = Schedule::window_fraction(SimTime::from_secs(1), 0.7, 0.3);
    }

    #[test]
    fn random_window_is_deterministic_and_in_range() {
        let mut r1 = SimRng::seed(3);
        let mut r2 = SimRng::seed(3);
        let horizon = SimTime::from_secs(10);
        let len = SimDuration::from_secs(1);
        let a = Schedule::random_window(horizon, len, &mut r1);
        let b = Schedule::random_window(horizon, len, &mut r2);
        let (Schedule::Between { from: fa, to: ta }, Schedule::Between { from: fb, to: tb }) =
            (&a, &b)
        else {
            panic!("wrong variant");
        };
        assert_eq!((fa, ta), (fb, tb));
        assert!(*ta <= horizon);
        assert_eq!(ta.since(*fa), len);
    }
}
