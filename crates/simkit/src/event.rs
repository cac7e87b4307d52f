//! Scheduled-event bookkeeping and deterministic ordering.

use crate::time::SimTime;
use std::cmp::Ordering;

/// Monotonically increasing insertion sequence number; the final tie-breaker
/// that makes the kernel deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SequenceNo(pub u64);

/// An event scheduled for a particular instant.
///
/// Ordering is `(time, sequence)`: earlier times first, then earlier
/// insertion.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Insertion order; the final deterministic tie-breaker.
    pub seq: SequenceNo,
    /// The user event payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    /// The deterministic sort key.
    pub fn key(&self) -> (SimTime, SequenceNo) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, s: u64) -> ScheduledEvent<&'static str> {
        ScheduledEvent {
            time: SimTime::from_nanos(t),
            seq: SequenceNo(s),
            event: "x",
        }
    }

    #[test]
    fn orders_by_time_first() {
        assert!(ev(1, 9) < ev(2, 0));
    }

    #[test]
    fn orders_by_sequence_last() {
        assert!(ev(5, 1) < ev(5, 2));
        assert_eq!(ev(5, 1), ev(5, 1));
    }
}
