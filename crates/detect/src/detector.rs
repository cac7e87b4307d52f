//! The detector abstraction and the errors detectors raise.

use observe::Observation;
use simkit::SimTime;
use std::fmt;

/// How serious a detected error is for the user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorSeverity {
    /// Degrades a feature the user is using.
    Major,
    /// The product is unusable (hang, black screen).
    Critical,
}

impl fmt::Display for ErrorSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorSeverity::Major => "major",
            ErrorSeverity::Critical => "critical",
        };
        f.write_str(s)
    }
}

/// A detected error: the part of system state that may lead to a failure
/// (terminology of Avižienis et al., adopted by the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorEvent {
    /// Detection instant.
    pub time: SimTime,
    /// Which detector raised it.
    pub detector: String,
    /// Human-readable description.
    pub description: String,
    /// Severity class.
    pub severity: ErrorSeverity,
}

impl fmt::Display for ErrorEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.severity, self.detector, self.time, self.description
        )
    }
}

/// A run-time error detector: the shared feed of observations (and,
/// for timeout-style detectors, of time) that the loop, the probes and
/// the benchmarks drive. Each detector stamps its own name on the
/// [`ErrorEvent::detector`] it raises.
pub trait Detector {
    /// Feeds one observation; returns any errors it implies.
    fn observe(&mut self, observation: &Observation) -> Vec<ErrorEvent>;

    /// Advances time (for timeout-style detectors); returns errors due.
    fn tick(&mut self, _now: SimTime) -> Vec<ErrorEvent> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering() {
        assert!(ErrorSeverity::Major < ErrorSeverity::Critical);
    }

    #[test]
    fn error_display() {
        let e = ErrorEvent {
            time: SimTime::from_millis(1),
            detector: "d".into(),
            description: "boom".into(),
            severity: ErrorSeverity::Critical,
        };
        assert_eq!(e.to_string(), "[critical] d at 1.000ms: boom");
    }
}
