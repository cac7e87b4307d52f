//! The recovery manager: executes recovery actions.

use crate::unit::UnitHost;
use simkit::{SimDuration, SimTime};

/// How long one unit is down while it cold-restarts.
const UNIT_RESTART: SimDuration = SimDuration::from_millis(200);
/// How long every unit is down while the whole system restarts (20× a
/// unit restart: the cost asymmetry that motivates partial recovery).
/// The closed loop's full-restart rung takes the same outage.
pub const FULL_RESTART_OUTAGE: SimDuration = SimDuration::from_secs(4);

/// A recovery action (paper Sect. 4.5: "recovery actions such as killing
/// and restarting units").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Kill and cold-restart one unit.
    RestartUnit(String),
    /// Restart the whole system (the classical, expensive fallback).
    RestartAll,
}

/// Executes recovery actions against a [`UnitHost`].
///
/// Timing model: restarting one unit costs 200 ms and restarting the
/// whole system 4 s.
#[derive(Debug)]
pub struct RecoveryManager {
    total_outage: SimDuration,
}

impl RecoveryManager {
    /// A manager that has executed no action yet.
    pub fn with_defaults() -> Self {
        RecoveryManager {
            total_outage: SimDuration::ZERO,
        }
    }

    /// Cumulative user-visible outage across all actions.
    pub fn total_outage(&self) -> SimDuration {
        self.total_outage
    }

    /// Executes an action at `now`.
    ///
    /// Returns the outage the action incurs, or `None` if the target does
    /// not exist. An action that returns `None` changes no unit and adds
    /// no outage; choosing the next action is the caller's (see
    /// [`crate::EscalationPolicy`]).
    pub fn recover(
        &mut self,
        now: SimTime,
        host: &mut UnitHost,
        action: RecoveryAction,
    ) -> Option<SimDuration> {
        let (target, outage) = match &action {
            RecoveryAction::RestartUnit(name) => (Some(name.as_str()), UNIT_RESTART),
            RecoveryAction::RestartAll => (None, FULL_RESTART_OUTAGE),
        };
        if !host.restart(target, now + outage) {
            return None;
        }
        self.total_outage += outage;
        Some(outage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_manager::UnitMessage;
    use crate::unit::CounterUnit;

    fn msg(to: &str) -> UnitMessage {
        UnitMessage {
            to: to.into(),
            topic: "tick".into(),
            value: 0.0,
            reply_to: None,
        }
    }

    fn host_with(names: &[&str]) -> UnitHost {
        let mut host = UnitHost::new();
        for n in names {
            host.register(CounterUnit::new(*n));
        }
        host
    }

    #[test]
    fn restart_unit_resets_and_times_out() {
        let mut host = host_with(&["a", "b"]);
        host.deliver(&msg("a"));
        let mut rm = RecoveryManager::with_defaults();
        let outage = rm
            .recover(
                SimTime::ZERO,
                &mut host,
                RecoveryAction::RestartUnit("a".into()),
            )
            .unwrap();
        assert_eq!(outage, SimDuration::from_millis(200));
        assert!(!host.is_running("a"));
        assert!(
            host.is_running("b"),
            "partial recovery leaves peers running"
        );
        host.tick(SimTime::from_millis(200));
        assert!(host.is_running("a"));
    }

    #[test]
    fn restart_all_is_much_more_expensive() {
        let mut host = host_with(&["a", "b", "c"]);
        let mut rm = RecoveryManager::with_defaults();
        let partial = rm
            .recover(
                SimTime::ZERO,
                &mut host,
                RecoveryAction::RestartUnit("a".into()),
            )
            .unwrap();
        let full = rm
            .recover(SimTime::ZERO, &mut host, RecoveryAction::RestartAll)
            .unwrap();
        assert!(full.as_nanos() >= partial.as_nanos() * 10);
        for n in ["a", "b", "c"] {
            assert!(!host.is_running(n));
        }
        assert_eq!(rm.total_outage(), partial + full);
    }

    #[test]
    fn unknown_unit_returns_none() {
        let mut host = host_with(&[]);
        let mut rm = RecoveryManager::with_defaults();
        assert!(rm
            .recover(
                SimTime::ZERO,
                &mut host,
                RecoveryAction::RestartUnit("ghost".into())
            )
            .is_none());
    }
}
