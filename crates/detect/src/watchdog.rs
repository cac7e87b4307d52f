//! Watchdog (timeliness) detection.
//!
//! The paper stresses that its awareness approach "also monitor\[s\]
//! real-time properties" (Sect. 4.3). The watchdog is the simplest such
//! monitor: a source must produce a heartbeat observation within its
//! deadline, or the system is assumed hung.

use crate::detector::{Detector, ErrorEvent, ErrorSeverity};
use observe::Observation;
use simkit::{SimDuration, SimTime};

/// Detects a missing heartbeat from a named source.
#[derive(Debug, Clone)]
pub struct WatchdogDetector {
    source: String,
    deadline: SimDuration,
    last_seen: SimTime,
    armed: bool,
    fired_for_current_silence: bool,
}

impl WatchdogDetector {
    /// Creates a watchdog expecting observations from `source` at least
    /// every `deadline`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn new(source: impl Into<String>, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "watchdog deadline must be positive");
        WatchdogDetector {
            source: source.into(),
            deadline,
            last_seen: SimTime::ZERO,
            armed: false,
            fired_for_current_silence: false,
        }
    }

    /// Arms the watchdog at `now` (starts the first deadline window).
    pub fn arm(&mut self, now: SimTime) {
        self.armed = true;
        self.last_seen = now;
        self.fired_for_current_silence = false;
    }

    /// The watched source name.
    pub fn source(&self) -> &str {
        &self.source
    }
}

impl Detector for WatchdogDetector {
    fn observe(&mut self, observation: &Observation) -> Vec<ErrorEvent> {
        if observation.source == self.source {
            self.last_seen = observation.time;
            self.fired_for_current_silence = false;
            if !self.armed {
                self.armed = true;
            }
        }
        Vec::new()
    }

    fn tick(&mut self, now: SimTime) -> Vec<ErrorEvent> {
        if !self.armed || self.fired_for_current_silence {
            return Vec::new();
        }
        if now.since(self.last_seen) > self.deadline {
            self.fired_for_current_silence = true;
            vec![ErrorEvent {
                time: now,
                detector: format!("watchdog:{}", self.source),
                description: format!(
                    "no heartbeat from `{}` for {} (deadline {})",
                    self.source,
                    now.since(self.last_seen),
                    self.deadline
                ),
                severity: ErrorSeverity::Critical,
            }]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use observe::ObservationKind;

    fn heartbeat(source: &'static str, at_ms: u64) -> Observation {
        Observation::new(
            SimTime::from_millis(at_ms),
            source,
            ObservationKind::Value {
                name: "hb".into(),
                value: 1.0,
            },
        )
    }

    #[test]
    fn quiet_before_arming() {
        let mut w = WatchdogDetector::new("decoder", SimDuration::from_millis(10));
        assert!(w.tick(SimTime::from_millis(100)).is_empty());
    }

    #[test]
    fn fires_once_per_silence() {
        let mut w = WatchdogDetector::new("decoder", SimDuration::from_millis(10));
        w.arm(SimTime::ZERO);
        assert!(w.tick(SimTime::from_millis(5)).is_empty());
        let errs = w.tick(SimTime::from_millis(11));
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].severity, ErrorSeverity::Critical);
        // Same silence: no duplicate.
        assert!(w.tick(SimTime::from_millis(20)).is_empty());
    }

    #[test]
    fn heartbeat_resets_window() {
        let mut w = WatchdogDetector::new("decoder", SimDuration::from_millis(10));
        w.arm(SimTime::ZERO);
        w.observe(&heartbeat("decoder", 8));
        assert!(w.tick(SimTime::from_millis(15)).is_empty());
        assert_eq!(w.tick(SimTime::from_millis(19)).len(), 1);
    }

    #[test]
    fn recovery_after_timeout_rearms() {
        let mut w = WatchdogDetector::new("decoder", SimDuration::from_millis(10));
        w.arm(SimTime::ZERO);
        assert_eq!(w.tick(SimTime::from_millis(11)).len(), 1);
        w.observe(&heartbeat("decoder", 12));
        assert!(w.tick(SimTime::from_millis(20)).is_empty());
        assert_eq!(w.tick(SimTime::from_millis(23)).len(), 1);
    }

    #[test]
    fn ignores_other_sources() {
        let mut w = WatchdogDetector::new("decoder", SimDuration::from_millis(10));
        w.arm(SimTime::ZERO);
        w.observe(&heartbeat("tuner", 9));
        assert_eq!(w.tick(SimTime::from_millis(11)).len(), 1);
    }

    #[test]
    fn first_observation_arms_implicitly() {
        let mut w = WatchdogDetector::new("decoder", SimDuration::from_millis(10));
        w.observe(&heartbeat("decoder", 5));
        assert!(w.tick(SimTime::from_millis(14)).is_empty());
        assert_eq!(w.tick(SimTime::from_millis(16)).len(), 1);
    }
}
