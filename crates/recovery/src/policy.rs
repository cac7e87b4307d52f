//! Escalation policy: when partial recovery stops being enough.

use crate::recovery_manager::RecoveryAction;
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Escalation ladder for repeated failures of the same unit.
///
/// Within a sliding `window`, a unit gets `max_restarts` unit-level
/// restarts; the next failure escalates to a whole-system restart
/// (and clears the history). This encodes the engineering judgment that a
/// unit failing repeatedly is probably corrupting shared state.
///
/// ```
/// use recovery::{EscalationPolicy, RecoveryAction};
/// use simkit::{SimDuration, SimTime};
///
/// let mut policy = EscalationPolicy::new(2, SimDuration::from_secs(10));
/// let at = SimTime::ZERO;
/// assert_eq!(policy.decide(at, "audio"), RecoveryAction::RestartUnit("audio".into()));
/// assert_eq!(policy.decide(at, "audio"), RecoveryAction::RestartUnit("audio".into()));
/// assert_eq!(policy.decide(at, "audio"), RecoveryAction::RestartAll);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EscalationPolicy {
    max_restarts: u32,
    window: SimDuration,
    history: BTreeMap<String, Vec<SimTime>>,
}

impl EscalationPolicy {
    /// Creates a policy allowing `max_restarts` per unit per `window`.
    ///
    /// # Panics
    ///
    /// Panics if `max_restarts` is zero or the window is zero.
    pub fn new(max_restarts: u32, window: SimDuration) -> Self {
        assert!(max_restarts > 0, "must allow at least one restart");
        assert!(!window.is_zero(), "window must be positive");
        EscalationPolicy {
            max_restarts,
            window,
            history: BTreeMap::new(),
        }
    }

    /// Decides the recovery action for a failure of `unit` at `now`.
    pub fn decide(&mut self, now: SimTime, unit: &str) -> RecoveryAction {
        let cutoff = now - self.window;
        let entry = self.history.entry(unit.to_owned()).or_default();
        entry.retain(|t| *t >= cutoff);
        if entry.len() < self.max_restarts as usize {
            entry.push(now);
            RecoveryAction::RestartUnit(unit.to_owned())
        } else {
            self.history.clear();
            RecoveryAction::RestartAll
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_after_budget_exhausted() {
        let mut p = EscalationPolicy::new(2, SimDuration::from_secs(10));
        let t = SimTime::from_secs(100);
        assert!(matches!(p.decide(t, "v"), RecoveryAction::RestartUnit(_)));
        assert!(matches!(p.decide(t, "v"), RecoveryAction::RestartUnit(_)));
        assert_eq!(p.decide(t, "v"), RecoveryAction::RestartAll);
        // History cleared: budget is fresh.
        assert!(matches!(p.decide(t, "v"), RecoveryAction::RestartUnit(_)));
    }

    #[test]
    fn window_expiry_refreshes_budget() {
        let mut p = EscalationPolicy::new(1, SimDuration::from_secs(10));
        assert!(matches!(
            p.decide(SimTime::from_secs(0), "v"),
            RecoveryAction::RestartUnit(_)
        ));
        // 11s later: the old restart fell out of the window.
        assert!(matches!(
            p.decide(SimTime::from_secs(11), "v"),
            RecoveryAction::RestartUnit(_)
        ));
    }

    #[test]
    fn units_tracked_independently() {
        let mut p = EscalationPolicy::new(1, SimDuration::from_secs(10));
        let t = SimTime::from_secs(5);
        assert!(matches!(p.decide(t, "a"), RecoveryAction::RestartUnit(_)));
        assert!(matches!(p.decide(t, "b"), RecoveryAction::RestartUnit(_)));
        assert_eq!(p.decide(t, "a"), RecoveryAction::RestartAll);
    }
}
