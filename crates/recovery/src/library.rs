//! The reusable fault-tolerance library.
//!
//! Paper Sect. 4.5: "To realize these concepts, a reusable fault tolerance
//! library has been implemented." This module provides its circuit
//! breaker: it stops hammering a failing component, and its trip sends
//! the awareness supervisor to safe mode.

use simkit::{SimDuration, SimTime};

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls pass through.
    Closed,
    /// Calls are rejected until the cool-down elapses.
    Open {
        /// When the breaker half-opens.
        until: SimTime,
    },
    /// One probe call is allowed.
    HalfOpen,
}

/// A circuit breaker over simulated time.
///
/// After `failure_threshold` consecutive failures the breaker opens for
/// `cooldown`; the first call after cool-down is a probe (half-open):
/// success closes the breaker, failure re-opens it. While the probe is
/// in flight, further calls are rejected — exactly one probe may be
/// outstanding at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown: SimDuration,
    consecutive_failures: u32,
    state: BreakerState,
    probe_in_flight: bool,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is zero or the cooldown is zero.
    pub fn new(failure_threshold: u32, cooldown: SimDuration) -> Self {
        assert!(failure_threshold > 0, "threshold must be positive");
        assert!(!cooldown.is_zero(), "cooldown must be positive");
        CircuitBreaker {
            failure_threshold,
            cooldown,
            consecutive_failures: 0,
            state: BreakerState::Closed,
            probe_in_flight: false,
        }
    }

    /// Current state (resolving due half-open transitions at `now`).
    pub fn state(&mut self, now: SimTime) -> BreakerState {
        if let BreakerState::Open { until } = self.state {
            if now >= until {
                self.state = BreakerState::HalfOpen;
                self.probe_in_flight = false;
            }
        }
        self.state
    }

    /// True if a call may proceed at `now`.
    ///
    /// In half-open, exactly one probe is admitted until its outcome is
    /// [`CircuitBreaker::record`]ed; concurrent callers are rejected.
    pub fn allows(&mut self, now: SimTime) -> bool {
        match self.state(now) {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Records the outcome of a permitted call.
    pub fn record(&mut self, now: SimTime, success: bool) {
        self.probe_in_flight = false;
        match (self.state(now), success) {
            (BreakerState::HalfOpen, true) | (BreakerState::Closed, true) => {
                self.consecutive_failures = 0;
                self.state = BreakerState::Closed;
            }
            (BreakerState::HalfOpen, false) => {
                self.state = BreakerState::Open {
                    until: now + self.cooldown,
                };
            }
            (BreakerState::Closed, false) => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.state = BreakerState::Open {
                        until: now + self.cooldown,
                    };
                }
            }
            (BreakerState::Open { .. }, _) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold() {
        let mut b = CircuitBreaker::new(2, SimDuration::from_millis(100));
        let t = SimTime::ZERO;
        assert!(b.allows(t));
        b.record(t, false);
        assert!(b.allows(t));
        b.record(t, false);
        assert!(!b.allows(t), "breaker must be open");
    }

    #[test]
    fn breaker_half_open_probe() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_millis(100));
        b.record(SimTime::ZERO, false);
        assert!(!b.allows(SimTime::from_millis(50)));
        // Cooldown elapsed: one probe allowed.
        assert!(b.allows(SimTime::from_millis(100)));
        b.record(SimTime::from_millis(100), true);
        assert_eq!(b.state(SimTime::from_millis(100)), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_open_admits_exactly_one_probe() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_millis(100));
        b.record(SimTime::ZERO, false);
        let t = SimTime::from_millis(100);
        // Cooldown elapsed: the first caller gets the probe slot ...
        assert!(b.allows(t));
        // ... and every concurrent caller is rejected while it is in
        // flight (this used to admit unlimited probes).
        assert!(!b.allows(t), "second probe must be rejected");
        assert!(!b.allows(t), "third probe must be rejected");
        // The probe's outcome frees the slot: success closes the breaker
        // and traffic flows again.
        b.record(t, true);
        assert_eq!(b.state(t), BreakerState::Closed);
        assert!(b.allows(t));
        assert!(b.allows(t));
    }

    #[test]
    fn breaker_failed_probe_frees_slot_after_next_cooldown() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_millis(100));
        b.record(SimTime::ZERO, false);
        assert!(b.allows(SimTime::from_millis(100)));
        b.record(SimTime::from_millis(100), false);
        // Re-opened; after the next cooldown a fresh probe is admitted
        // even though the previous probe failed.
        assert!(b.allows(SimTime::from_millis(200)));
        assert!(!b.allows(SimTime::from_millis(200)));
    }

    #[test]
    fn breaker_reopens_on_failed_probe() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_millis(100));
        b.record(SimTime::ZERO, false);
        assert!(b.allows(SimTime::from_millis(100)));
        b.record(SimTime::from_millis(100), false);
        assert!(!b.allows(SimTime::from_millis(150)));
        assert!(b.allows(SimTime::from_millis(200)));
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = CircuitBreaker::new(2, SimDuration::from_millis(100));
        b.record(SimTime::ZERO, false);
        b.record(SimTime::ZERO, true);
        b.record(SimTime::ZERO, false);
        assert!(b.allows(SimTime::ZERO), "streak was broken by success");
    }
}
