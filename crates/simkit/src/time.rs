//! Simulated time.
//!
//! Time is measured in integer **nanoseconds** since the start of the
//! simulation. Integer time keeps the kernel exactly deterministic (no
//! floating-point drift) while still being fine-grained enough for the
//! microsecond/millisecond scale of the television platform models.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (nanoseconds since simulation start).
///
/// ```
/// use simkit::SimTime;
/// let t = SimTime::from_millis(3) + simkit::SimDuration::from_micros(500);
/// assert_eq!(t.as_nanos(), 3_500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
///
/// ```
/// use simkit::SimDuration;
/// assert_eq!(SimDuration::from_millis(2) * 3, SimDuration::from_millis(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no event is ever scheduled at or past this instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is later than `self`
    /// (saturating), so callers never observe negative spans.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional milliseconds (rounded to ns).
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be >= 0, got {ms}"
        );
        SimDuration((ms * 1_000_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a non-negative fraction, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    pub fn mul_f64(self, f: f64) -> SimDuration {
        assert!(f.is_finite() && f >= 0.0, "factor must be >= 0, got {f}");
        SimDuration((self.0 as f64 * f).round() as u64)
    }

    /// The ratio `self / other` as a float; `0.0` when `other` is zero.
    pub fn ratio(self, other: SimDuration) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div for SimDuration {
    /// Integer division: how many times `rhs` fits in `self`.
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_millis_f64(), 1000.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(4);
        assert_eq!((t + d).as_nanos(), 14_000_000);
        assert_eq!((t - d).as_nanos(), 6_000_000);
        assert_eq!(t - SimTime::from_millis(4), SimDuration::from_millis(6));
    }

    #[test]
    fn subtraction_saturates() {
        let t = SimTime::from_millis(1);
        assert_eq!(t - SimDuration::from_millis(5), SimTime::ZERO);
        assert_eq!(
            SimTime::from_millis(1).since(SimTime::from_millis(9)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_millis(1).saturating_sub(SimDuration::from_millis(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d / SimDuration::from_millis(3), 3);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(5));
        assert!((d.ratio(SimDuration::from_millis(40)) - 0.25).abs() < 1e-12);
        assert_eq!(d.ratio(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn from_millis_f64_rounds() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimDuration::from_millis_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn from_millis_f64_rejects_negative() {
        let _ = SimDuration::from_millis_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1).to_string(), "1.000ms");
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_nanos(7)),
            Some(SimTime::from_nanos(7))
        );
    }
}
