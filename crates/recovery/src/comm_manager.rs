//! The communication manager: controls messages between recoverable units.
//!
//! While a unit restarts, its peers keep sending; the communication
//! manager queues those messages and redelivers them when the unit is
//! back, which is what makes *independent* recovery possible without
//! stopping the whole system (paper Sect. 4.5).

use crate::unit::UnitHost;
use std::collections::{BTreeMap, VecDeque};

/// A message between recoverable units.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitMessage {
    /// Destination unit.
    pub to: String,
    /// Application topic.
    pub topic: String,
    /// Scalar payload.
    pub value: f64,
    /// Where replies go, if anywhere.
    pub reply_to: Option<String>,
}

/// Communication statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages delivered directly.
    pub delivered: u64,
    /// Messages dropped (addressed to no registered unit).
    pub dropped: u64,
}

/// Routes messages between units, queueing those for a restarting unit.
#[derive(Debug, Default)]
pub struct CommManager {
    pending: BTreeMap<String, VecDeque<UnitMessage>>,
    stats: CommStats,
}

impl CommManager {
    /// Creates a manager with nothing queued.
    pub fn new() -> Self {
        Self::default()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Messages queued for `unit`.
    pub fn queued_for(&self, unit: &str) -> usize {
        self.pending.get(unit).map_or(0, |q| q.len())
    }

    /// Sends a message, cascading responses breadth-first.
    ///
    /// Returns the number of messages delivered (including cascades).
    pub fn send(&mut self, host: &mut UnitHost, message: UnitMessage) -> u64 {
        let mut frontier = VecDeque::from([message]);
        let mut delivered = 0;
        // Bounded cascade to keep misbehaving units from looping forever.
        let mut budget = 10_000u32;
        while let Some(msg) = frontier.pop_front() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            if msg.to.is_empty() {
                continue;
            }
            match host.deliver(&msg) {
                Some(responses) => {
                    delivered += 1;
                    self.stats.delivered += 1;
                    frontier.extend(responses);
                }
                None if host.status(&msg.to).is_some() => {
                    self.pending
                        .entry(msg.to.clone())
                        .or_default()
                        .push_back(msg);
                }
                None => self.stats.dropped += 1,
            }
        }
        delivered
    }

    /// Redelivers queued messages to units that came back.
    ///
    /// Call after [`UnitHost::tick`]; `returned` is its result.
    pub fn flush_returned(&mut self, host: &mut UnitHost, returned: &[String]) -> u64 {
        let mut total = 0;
        for unit in returned {
            let Some(queue) = self.pending.remove(unit) else {
                continue;
            };
            for msg in queue {
                total += self.send(host, msg);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::CounterUnit;
    use simkit::SimTime;

    fn msg(to: &str) -> UnitMessage {
        UnitMessage {
            to: to.into(),
            topic: "tick".into(),
            value: 1.0,
            reply_to: None,
        }
    }

    #[test]
    fn direct_delivery() {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("a"));
        let mut comm = CommManager::new();
        assert_eq!(comm.send(&mut host, msg("a")), 1);
        assert_eq!(comm.stats().delivered, 1);
    }

    #[test]
    fn queue_policy_redelivers_after_restart() {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("a"));
        assert!(host.restart(Some("a"), SimTime::from_millis(10)));
        let mut comm = CommManager::new();
        comm.send(&mut host, msg("a"));
        comm.send(&mut host, msg("a"));
        assert_eq!(comm.queued_for("a"), 2);
        let returned = host.tick(SimTime::from_millis(10));
        let redelivered = comm.flush_returned(&mut host, &returned);
        assert_eq!(redelivered, 2);
        assert_eq!(comm.queued_for("a"), 0);
    }

    #[test]
    fn unknown_destination_dropped_even_with_queue_policy() {
        let mut host = UnitHost::new();
        let mut comm = CommManager::new();
        comm.send(&mut host, msg("ghost"));
        assert_eq!(comm.stats().dropped, 1);
    }

    #[test]
    fn responses_cascade() {
        let mut host = UnitHost::new();
        host.register(CounterUnit::new("a"));
        host.register(CounterUnit::new("b"));
        let mut comm = CommManager::new();
        // "ping" to a replies to b, which counts it.
        let delivered = comm.send(
            &mut host,
            UnitMessage {
                to: "a".into(),
                topic: "ping".into(),
                value: 0.0,
                reply_to: Some("b".into()),
            },
        );
        assert_eq!(delivered, 2);
    }
}
