//! The detector abstraction and the bank that hosts many of them.

use observe::Observation;
use serde::{Deserialize, Serialize};
use simkit::SimTime;
use std::fmt;

/// How serious a detected error is for the user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ErrorSeverity {
    /// Cosmetic or self-healing.
    Minor,
    /// Degrades a feature the user is using.
    Major,
    /// The product is unusable (hang, black screen).
    Critical,
}

impl fmt::Display for ErrorSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorSeverity::Minor => "minor",
            ErrorSeverity::Major => "major",
            ErrorSeverity::Critical => "critical",
        };
        f.write_str(s)
    }
}

/// A detected error: the part of system state that may lead to a failure
/// (terminology of Avižienis et al., adopted by the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// A run-time error detector.
pub trait Detector {
    /// The detector's name (used in [`ErrorEvent::detector`]).
    fn name(&self) -> &str;

    /// Feeds one observation; returns any errors it implies.
    fn observe(&mut self, observation: &Observation) -> Vec<ErrorEvent>;

    /// Advances time (for timeout-style detectors); returns errors due.
    fn tick(&mut self, _now: SimTime) -> Vec<ErrorEvent> {
        Vec::new()
    }
}

/// A group of detectors fed from one observation stream.
///
/// ```
/// use detect::{ConsistencyRule, DetectorBank, ModeConsistencyDetector};
/// use observe::{Observation, ObservationKind};
/// use simkit::SimTime;
///
/// let mut modes = ModeConsistencyDetector::new();
/// modes.add_rule(ConsistencyRule::new(
///     "txt-sync", "ui", "teletext", "decoder", ["teletext"],
/// ));
/// let mut bank = DetectorBank::new();
/// bank.add(modes);
/// let mode = |c: &'static str, m: &'static str| Observation::new(
///     SimTime::ZERO, c,
///     ObservationKind::Mode { component: c.into(), mode: m.into() },
/// );
/// // A rule is checkable only once both components report a mode.
/// assert!(bank.observe(&mode("decoder", "video")).is_empty());
/// let errs = bank.observe(&mode("ui", "teletext"));
/// assert_eq!(errs.len(), 1);
/// ```
#[derive(Default)]
pub struct DetectorBank {
    detectors: Vec<Box<dyn Detector>>,
    raised: u64,
}

impl fmt::Debug for DetectorBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectorBank")
            .field("detectors", &self.detectors.len())
            .field("raised", &self.raised)
            .finish()
    }
}

impl DetectorBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a detector.
    pub fn add(&mut self, detector: impl Detector + 'static) {
        self.detectors.push(Box::new(detector));
    }

    /// Number of hosted detectors.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// True when the bank hosts no detectors.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// Total errors raised through this bank.
    pub fn raised(&self) -> u64 {
        self.raised
    }

    /// Fans one observation out to every detector.
    pub fn observe(&mut self, observation: &Observation) -> Vec<ErrorEvent> {
        let mut out = Vec::new();
        for d in &mut self.detectors {
            out.extend(d.observe(observation));
        }
        self.raised += out.len() as u64;
        out
    }

    /// Ticks every detector.
    pub fn tick(&mut self, now: SimTime) -> Vec<ErrorEvent> {
        let mut out = Vec::new();
        for d in &mut self.detectors {
            out.extend(d.tick(now));
        }
        self.raised += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Always;
    impl Detector for Always {
        fn name(&self) -> &str {
            "always"
        }
        fn observe(&mut self, observation: &Observation) -> Vec<ErrorEvent> {
            vec![ErrorEvent {
                time: observation.time,
                detector: "always".into(),
                description: "err".into(),
                severity: ErrorSeverity::Minor,
            }]
        }
    }

    fn obs() -> Observation {
        Observation::key_press(SimTime::from_millis(3), "x", "ok", None)
    }

    #[test]
    fn bank_fans_out_and_counts() {
        let mut bank = DetectorBank::new();
        bank.add(Always);
        bank.add(Always);
        assert_eq!(bank.len(), 2);
        let errs = bank.observe(&obs());
        assert_eq!(errs.len(), 2);
        assert_eq!(bank.raised(), 2);
        assert!(bank.tick(SimTime::ZERO).is_empty());
    }

    #[test]
    fn severity_ordering() {
        assert!(ErrorSeverity::Minor < ErrorSeverity::Major);
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
