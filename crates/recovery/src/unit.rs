//! Recoverable units and their host.

use crate::comm_manager::UnitMessage;
use crate::microreboot::Snapshot;
use simkit::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// A part of the system that can be recovered independently
/// (paper Sect. 4.5: "the so-called recoverable units").
pub trait RecoverableUnit {
    /// The unit's unique name.
    fn name(&self) -> &str;

    /// Captures the unit's state.
    fn checkpoint(&self) -> Snapshot;

    /// Restores a previously captured state.
    fn restore(&mut self, snapshot: &Snapshot);

    /// Cold-restarts the unit to its initial state.
    fn reset(&mut self);

    /// Handles an application message, possibly responding.
    fn handle(&mut self, now: SimTime, message: &UnitMessage) -> Vec<UnitMessage>;
}

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

impl fmt::Display for UnitStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitStatus::Running => f.write_str("running"),
            UnitStatus::Restarting { until } => write!(f, "restarting(until {until})"),
        }
    }
}

/// Hosts the system's recoverable units with their statuses.
pub struct UnitHost {
    units: BTreeMap<String, Box<dyn RecoverableUnit>>,
    status: BTreeMap<String, UnitStatus>,
}

impl fmt::Debug for UnitHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnitHost")
            .field("units", &self.units.keys().collect::<Vec<_>>())
            .field("status", &self.status)
            .finish()
    }
}

impl Default for UnitHost {
    fn default() -> Self {
        Self::new()
    }
}

impl UnitHost {
    /// Creates an empty host.
    pub fn new() -> Self {
        UnitHost {
            units: BTreeMap::new(),
            status: BTreeMap::new(),
        }
    }

    /// Registers a unit (initially running).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate unit name.
    pub fn register(&mut self, unit: impl RecoverableUnit + 'static) {
        let name = unit.name().to_owned();
        assert!(!self.units.contains_key(&name), "duplicate unit `{name}`");
        self.units.insert(name.clone(), Box::new(unit));
        self.status.insert(name, UnitStatus::Running);
    }

    /// Unit names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.units.keys().map(String::as_str).collect()
    }

    /// A unit's status.
    pub fn status(&self, name: &str) -> Option<UnitStatus> {
        self.status.get(name).copied()
    }

    /// Sets a unit's status (manager use).
    pub(crate) fn set_status(&mut self, name: &str, status: UnitStatus) {
        if let Some(s) = self.status.get_mut(name) {
            *s = status;
        }
    }

    /// True if the unit exists and is running.
    pub fn is_running(&self, name: &str) -> bool {
        matches!(self.status.get(name), Some(UnitStatus::Running))
    }

    /// Mutable access to a unit (manager use: checkpoint/restore/reset).
    pub fn unit_mut(&mut self, name: &str) -> Option<&mut (dyn RecoverableUnit + '_)> {
        self.units.get_mut(name).map(|b| b.as_mut() as _)
    }

    /// Read access to a unit.
    pub fn unit(&self, name: &str) -> Option<&(dyn RecoverableUnit + '_)> {
        self.units.get(name).map(|b| b.as_ref() as _)
    }

    /// Delivers a message to a *running* unit, returning its responses;
    /// `None` if the unit is absent or not running.
    pub fn deliver(&mut self, now: SimTime, message: &UnitMessage) -> Option<Vec<UnitMessage>> {
        if !self.is_running(&message.to) {
            return None;
        }
        self.units
            .get_mut(&message.to)
            .map(|u| u.handle(now, message))
    }

    /// Completes restarts due at `now`; returns the units that came back.
    pub fn tick(&mut self, now: SimTime) -> Vec<String> {
        let mut back = Vec::new();
        for (name, status) in self.status.iter_mut() {
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

/// A simple counter-based unit usable in tests and examples.
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
}

impl RecoverableUnit for CounterUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn checkpoint(&self) -> Snapshot {
        let mut s = Snapshot::new();
        s.insert("count".into(), self.count);
        s
    }

    fn restore(&mut self, snapshot: &Snapshot) {
        self.count = snapshot.get("count").copied().unwrap_or(0.0);
    }

    fn reset(&mut self) {
        self.count = 0.0;
    }

    fn handle(&mut self, _now: SimTime, message: &UnitMessage) -> Vec<UnitMessage> {
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
        let responses = host.deliver(SimTime::ZERO, &msg("audio", "ping")).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].topic, "pong");
        assert_eq!(responses[0].to, "tester");
    }

    #[test]
    fn restarting_unit_rejects_messages_until_tick() {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("audio"));
        host.set_status(
            "audio",
            UnitStatus::Restarting {
                until: SimTime::from_millis(100),
            },
        );
        assert!(host.deliver(SimTime::ZERO, &msg("audio", "ping")).is_none());
        assert!(host.tick(SimTime::from_millis(50)).is_empty());
        let back = host.tick(SimTime::from_millis(100));
        assert_eq!(back, vec!["audio".to_owned()]);
        assert!(host.is_running("audio"));
    }

    #[test]
    fn unknown_unit_returns_none() {
        let mut host = UnitHost::new();
        assert!(host.deliver(SimTime::ZERO, &msg("ghost", "ping")).is_none());
        assert!(host.status("ghost").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate unit")]
    fn duplicate_name_panics() {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("a"));
        host.register(CounterUnit::new("a"));
    }

    #[test]
    fn counter_unit_checkpoint_roundtrip() {
        let mut u = CounterUnit::new("u");
        u.handle(SimTime::ZERO, &msg("u", "tick"));
        u.handle(SimTime::ZERO, &msg("u", "tick"));
        let snap = u.checkpoint();
        u.reset();
        assert_eq!(u.count, 0.0);
        u.restore(&snap);
        assert_eq!(u.count, 2.0);
    }
}
