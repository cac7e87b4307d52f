//! The pending-event queue.

use crate::event::{ScheduledEvent, SequenceNo};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic future-event queue.
///
/// Events pop in `(time, insertion sequence)` order, which makes
/// simulation runs exactly reproducible.
///
/// ```
/// use simkit::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "b");
/// q.push(SimTime::from_millis(1), "a");
/// assert_eq!(q.pop().unwrap().event, "a");
/// assert_eq!(q.pop().unwrap().event, "b");
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<ScheduledEvent<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`, after every event already scheduled
    /// for the same instant.
    ///
    /// Returns the sequence number assigned to the event.
    pub fn push(&mut self, time: SimTime, event: E) -> SequenceNo {
        let seq = SequenceNo(self.next_seq);
        self.next_seq += 1;
        self.heap.push(Reverse(ScheduledEvent { time, seq, event }));
        seq
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(ev)| ev.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Removes all pending events for which `keep` returns `false`.
    ///
    /// Used by cancellation (e.g. a recovery action descheduling the work of
    /// a killed recoverable unit). Relative order of the kept events is
    /// preserved because ordering lives in the sort key, not the container.
    pub fn retain(&mut self, mut keep: impl FnMut(&ScheduledEvent<E>) -> bool) {
        let kept: Vec<Reverse<ScheduledEvent<E>>> =
            self.heap.drain().filter(|Reverse(ev)| keep(ev)).collect();
        self.heap = kept.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 3, 2, 4] {
            q.push(SimTime::from_nanos(t), t);
        }
        let out: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fifo_among_equal_keys() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10 {
            q.push(t, i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_and_len() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(7), ());
        q.push(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn retain_preserves_order_of_kept() {
        let mut q = EventQueue::new();
        for i in 0u64..10 {
            q.push(SimTime::from_nanos(i), i);
        }
        q.retain(|ev| ev.event % 2 == 0);
        let out: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }
}
