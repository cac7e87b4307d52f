//! Detected model/system deviations.

use observe::ObsValue;
use simkit::SimTime;
use std::fmt;

/// An error reported by the comparator: the system's observed behaviour
/// deviated from the model's expected behaviour beyond the configured
/// tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedError {
    /// When the error was raised.
    pub time: SimTime,
    /// The observable that deviated.
    pub observable: String,
    /// What the model expected.
    pub expected: ObsValue,
    /// What the system produced.
    pub actual: ObsValue,
    /// How many consecutive deviating comparisons preceded the report.
    pub consecutive: u32,
}

impl fmt::Display for DetectedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: `{}` expected {} but observed {} ({} consecutive deviations)",
            self.time, self.observable, self.expected, self.actual, self.consecutive
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DetectedError {
            time: SimTime::from_millis(5),
            observable: "volume".into(),
            expected: ObsValue::Num(10.0),
            actual: ObsValue::Num(0.0),
            consecutive: 3,
        };
        let s = e.to_string();
        assert!(s.contains("volume"));
        assert!(s.contains("10"));
        assert!(s.contains("3 consecutive"));
    }
}
