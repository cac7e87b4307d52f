//! Active observability: the sleep-timer deadline monitor.
//!
//! The passive awareness loop only sees what user traffic exercises —
//! the E18 scorecard's idle column is blind for every fault class
//! because a dormant function never produces a comparator mismatch.
//! The closed loop's observatory (`TvDependabilityLoop::active_probes`
//! in `trader`) therefore *generates* observations, per the paper's
//! §4.1 observation taxonomy (in-situ probing vs. passive output
//! comparison). Its probe table holds one row per self-check (volume
//! nudge-and-restore, teletext round-trip, menu open/close, swivel jog,
//! sleep-timer arm, channel flip): the keys, the telemetry names, the
//! foreground guard and the mode witness. The loop fires the next row
//! into each idle window between user presses, through both the SUO
//! and the model executor, so divergence raises a *normal* comparator
//! verdict — no new error path.
//!
//! This module holds what a key sequence cannot check:
//! [`DeadlineMonitor`] tracks *armed obligations* (the sleep-timer fire
//! time) on the E12 timed-property pattern. A [`WatchdogDetector`]
//! watches the timer service's heartbeat, and a fire-time deadline
//! alarms when virtual time passes the obligation with no event. This
//! catches `sleep-timer-lost`, which no output comparison can see
//! inside a short scenario. Like the probe rotation it is free of
//! randomness and wall-clock state, so the scorecard matrix stays
//! byte-identical across worker counts.

use detect::{Detector, ErrorEvent, ErrorSeverity, WatchdogDetector};
use observe::{Observation, ObservationKind};
use simkit::{SimDuration, SimTime};

/// The sleep-timer obligation monitor: heartbeat watchdog plus an
/// armed fire-time deadline.
///
/// Arms when the TV reports a non-zero `sleep.minutes` output; from
/// then on the timer service must (1) heartbeat within
/// `heartbeat_deadline` of virtual time (checked by an embedded
/// [`WatchdogDetector`] on the `sleep.timer` source) and (2) actually
/// fire — power the set off — by the announced fire time plus `grace`.
/// A lost timer interrupt silences both, so either check catches
/// `sleep-timer-lost` without any output comparison. Disarms when the
/// timer is cancelled (`sleep.minutes` back to 0) or the set powers
/// off (`screen.mode` = `off` — the obligation was met or mooted).
#[derive(Debug, Clone)]
pub struct DeadlineMonitor {
    watchdog: WatchdogDetector,
    grace: SimDuration,
    armed: bool,
    fire_deadline: Option<SimTime>,
    alarms: u64,
}

/// The heartbeat source name the sleep-timer service reports under.
pub const SLEEP_HEARTBEAT_SOURCE: &str = "sleep.timer";

impl DeadlineMonitor {
    /// Creates a monitor expecting a heartbeat at least every
    /// `heartbeat_deadline` while armed, and the timer to fire within
    /// `grace` of its announced expiry.
    pub fn new(heartbeat_deadline: SimDuration, grace: SimDuration) -> Self {
        DeadlineMonitor {
            watchdog: WatchdogDetector::new(SLEEP_HEARTBEAT_SOURCE, heartbeat_deadline),
            grace,
            armed: false,
            fire_deadline: None,
            alarms: 0,
        }
    }

    /// Routes one observation. `sleep.minutes` outputs arm / extend /
    /// cancel the obligation; `screen.mode = off` resolves it (the set
    /// powered down, by timer or by hand); heartbeats from the timer
    /// service feed the watchdog. Never raises an error itself — all
    /// alarms come from [`DeadlineMonitor::tick`].
    pub fn observe(&mut self, observation: &Observation) {
        if observation.source == SLEEP_HEARTBEAT_SOURCE {
            self.watchdog.observe(observation);
            return;
        }
        if let ObservationKind::Output { name, value } = &observation.kind {
            match &**name {
                "sleep.minutes" => {
                    let minutes = value.as_num().unwrap_or(0.0);
                    if minutes > 0.0 {
                        let fire_at = observation.time
                            + SimDuration::from_secs(minutes as u64 * 60)
                            + self.grace;
                        if !self.armed {
                            self.armed = true;
                            self.watchdog.arm(observation.time);
                        }
                        self.fire_deadline = Some(fire_at);
                    } else if self.armed {
                        self.resolve();
                    }
                }
                "screen.mode" if self.armed && value.as_text() == Some("off") => {
                    self.resolve();
                }
                _ => {}
            }
        }
    }

    fn resolve(&mut self) {
        self.armed = false;
        self.fire_deadline = None;
    }

    /// Checks the armed obligation at `now`: heartbeat silence past the
    /// watchdog deadline, or virtual time past the fire deadline with
    /// no power-off event. Quiet when nothing is armed. A missed fire
    /// deadline alarms once and closes the obligation.
    pub fn tick(&mut self, now: SimTime) -> Vec<ErrorEvent> {
        if !self.armed {
            return Vec::new();
        }
        let mut errors = self.watchdog.tick(now);
        if let Some(deadline) = self.fire_deadline {
            if now > deadline {
                errors.push(ErrorEvent {
                    time: now,
                    detector: format!("deadline:{SLEEP_HEARTBEAT_SOURCE}"),
                    description: format!(
                        "sleep timer armed but did not fire by {deadline} (now {now})"
                    ),
                    severity: ErrorSeverity::Critical,
                });
                self.armed = false;
                self.fire_deadline = None;
            }
        }
        self.alarms += errors.len() as u64;
        errors
    }

    /// True while an obligation is armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The pending fire deadline, when armed.
    pub fn fire_deadline(&self) -> Option<SimTime> {
        self.fire_deadline
    }

    /// Alarms raised (heartbeat timeouts plus missed fire deadlines).
    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use observe::ObsValue;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn output(at_ms: u64, name: &'static str, value: ObsValue) -> Observation {
        Observation::new(
            ms(at_ms),
            "tv",
            ObservationKind::Output {
                name: name.into(),
                value,
            },
        )
    }

    fn heartbeat(at_ms: u64) -> Observation {
        Observation::new(
            ms(at_ms),
            SLEEP_HEARTBEAT_SOURCE,
            ObservationKind::Value {
                name: "sleep.heartbeat".into(),
                value: 15.0,
            },
        )
    }

    #[test]
    fn deadline_monitor_arms_and_stays_quiet_with_heartbeats() {
        let mut m = DeadlineMonitor::new(SimDuration::from_millis(300), SimDuration::from_secs(1));
        assert!(m.tick(ms(10_000)).is_empty(), "quiet before arming");
        m.observe(&output(100, "sleep.minutes", ObsValue::Num(15.0)));
        assert!(m.is_armed());
        for t in 1..8u64 {
            m.observe(&heartbeat(100 + t * 100));
            assert!(m.tick(ms(100 + t * 100)).is_empty());
        }
    }

    #[test]
    fn heartbeat_silence_alarms() {
        let mut m = DeadlineMonitor::new(SimDuration::from_millis(300), SimDuration::from_secs(1));
        m.observe(&output(100, "sleep.minutes", ObsValue::Num(15.0)));
        m.observe(&heartbeat(200));
        assert!(m.tick(ms(450)).is_empty(), "inside the deadline");
        let errors = m.tick(ms(501));
        assert_eq!(errors.len(), 1);
        assert!(errors[0].detector.starts_with("watchdog:"));
        assert_eq!(errors[0].severity, ErrorSeverity::Critical);
        assert_eq!(m.alarms(), 1);
    }

    #[test]
    fn missed_fire_deadline_alarms_once() {
        let mut m = DeadlineMonitor::new(SimDuration::from_secs(3600), SimDuration::from_secs(1));
        m.observe(&output(0, "sleep.minutes", ObsValue::Num(15.0)));
        let deadline = m.fire_deadline().unwrap();
        assert_eq!(deadline, SimTime::from_secs(15 * 60 + 1));
        assert!(m.tick(deadline).is_empty(), "never alarms before deadline");
        let errors = m.tick(deadline + SimDuration::from_millis(1));
        assert_eq!(errors.len(), 1);
        assert!(errors[0].detector.starts_with("deadline:"));
        assert!(!m.is_armed(), "a missed deadline closes the obligation");
        assert!(m.tick(deadline + SimDuration::from_secs(9)).is_empty());
    }

    #[test]
    fn power_off_resolves_the_obligation() {
        let mut m = DeadlineMonitor::new(SimDuration::from_millis(300), SimDuration::from_secs(1));
        m.observe(&output(0, "sleep.minutes", ObsValue::Num(15.0)));
        m.observe(&output(500, "screen.mode", ObsValue::Text("off".into())));
        assert!(!m.is_armed());
        assert!(m.tick(ms(10_000_000)).is_empty());
    }

    #[test]
    fn cancel_resolves_and_rearm_restarts_the_watchdog() {
        let mut m = DeadlineMonitor::new(SimDuration::from_millis(300), SimDuration::from_secs(1));
        m.observe(&output(0, "sleep.minutes", ObsValue::Num(15.0)));
        m.observe(&output(100, "sleep.minutes", ObsValue::Num(0.0)));
        assert!(!m.is_armed());
        // Long silence while disarmed, then re-arm: no stale-silence alarm.
        m.observe(&output(900_000, "sleep.minutes", ObsValue::Num(30.0)));
        assert!(m.is_armed());
        assert!(m.tick(ms(900_100)).is_empty());
    }
}
