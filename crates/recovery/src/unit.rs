//! Recoverable units and their host.

use crate::comm_manager::UnitMessage;
use simkit::SimTime;
use std::collections::BTreeMap;

/// A unit's lifecycle status as seen by the managers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitStatus {
    /// Processing messages normally.
    Running,
    /// Killed and restarting; becomes `Running` at the given instant.
    Restarting {
        /// Restart completion time.
        until: SimTime,
    },
}

/// Hosts the system's recoverable units (paper Sect. 4.5: "the
/// so-called recoverable units") with their statuses.
#[derive(Debug, Default)]
pub struct UnitHost {
    units: BTreeMap<String, (CounterUnit, UnitStatus)>,
}

impl UnitHost {
    /// Creates an empty host.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a unit (initially running).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate unit name.
    pub fn register(&mut self, unit: CounterUnit) {
        let name = unit.name.clone();
        assert!(!self.units.contains_key(&name), "duplicate unit `{name}`");
        self.units.insert(name, (unit, UnitStatus::Running));
    }

    /// A unit's status.
    pub fn status(&self, name: &str) -> Option<UnitStatus> {
        self.units.get(name).map(|(_, status)| *status)
    }

    /// True if the unit exists and is running.
    pub fn is_running(&self, name: &str) -> bool {
        matches!(self.status(name), Some(UnitStatus::Running))
    }

    /// Read access to a unit.
    pub fn unit(&self, name: &str) -> Option<&CounterUnit> {
        self.units.get(name).map(|(unit, _)| unit)
    }

    /// Cold-restarts the named unit, or every unit for `None`, and marks
    /// it restarting until `until` (manager use). Returns false, and
    /// changes nothing, when the named unit does not exist.
    pub(crate) fn restart(&mut self, name: Option<&str>, until: SimTime) -> bool {
        let restart = |(unit, status): &mut (CounterUnit, UnitStatus)| {
            unit.reset();
            *status = UnitStatus::Restarting { until };
        };
        match name {
            Some(name) => self.units.get_mut(name).map(restart).is_some(),
            None => {
                self.units.values_mut().for_each(restart);
                true
            }
        }
    }

    /// Delivers a message to a *running* unit, returning its responses;
    /// `None` if the unit is absent or not running.
    pub fn deliver(&mut self, message: &UnitMessage) -> Option<Vec<UnitMessage>> {
        match self.units.get_mut(&message.to) {
            Some((unit, UnitStatus::Running)) => Some(unit.handle(message)),
            _ => None,
        }
    }

    /// Completes restarts due at `now`; returns the units that came back.
    pub fn tick(&mut self, now: SimTime) -> Vec<String> {
        let mut back = Vec::new();
        for (name, (_, status)) in self.units.iter_mut() {
            if let UnitStatus::Restarting { until } = *status {
                if now >= until {
                    *status = UnitStatus::Running;
                    back.push(name.clone());
                }
            }
        }
        back
    }
}

/// A simple counter-based unit: the state a cold restart loses.
#[derive(Debug, Clone)]
pub struct CounterUnit {
    name: String,
    /// Monotonic message counter — the unit's "state".
    pub count: f64,
}

impl CounterUnit {
    /// Creates a unit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CounterUnit {
            name: name.into(),
            count: 0.0,
        }
    }

    /// Cold-restarts the unit to its initial state.
    fn reset(&mut self) {
        self.count = 0.0;
    }

    /// Handles an application message, possibly responding.
    fn handle(&mut self, message: &UnitMessage) -> Vec<UnitMessage> {
        self.count += 1.0;
        if message.topic == "ping" {
            vec![UnitMessage {
                to: message.reply_to.clone().unwrap_or_default(),
                topic: "pong".into(),
                value: self.count,
                reply_to: None,
            }]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(to: &str, topic: &str) -> UnitMessage {
        UnitMessage {
            to: to.into(),
            topic: topic.into(),
            value: 0.0,
            reply_to: Some("tester".into()),
        }
    }

    #[test]
    fn register_and_deliver() {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("audio"));
        assert!(host.is_running("audio"));
        let responses = host.deliver(&msg("audio", "ping")).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].topic, "pong");
        assert_eq!(responses[0].to, "tester");
    }

    #[test]
    fn restarting_unit_rejects_messages_until_tick() {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("audio"));
        assert!(host.restart(Some("audio"), SimTime::from_millis(100)));
        assert!(host.deliver(&msg("audio", "ping")).is_none());
        assert!(host.tick(SimTime::from_millis(50)).is_empty());
        let back = host.tick(SimTime::from_millis(100));
        assert_eq!(back, vec!["audio".to_owned()]);
        assert!(host.is_running("audio"));
    }

    #[test]
    fn unknown_unit_returns_none() {
        let mut host = UnitHost::new();
        assert!(host.deliver(&msg("ghost", "ping")).is_none());
        assert!(host.status("ghost").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate unit")]
    fn duplicate_name_panics() {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("a"));
        host.register(CounterUnit::new("a"));
    }
}
