//! The flight recorder: a fixed-capacity, overwrite-oldest event ring.
//!
//! Modeled on the bounded in-memory recorders used for replay debugging
//! of embedded control loops (Sundmark et al.): recording must be O(1)
//! with no allocation after warm-up, and when something goes wrong the
//! *tail* — the newest events — is the forensic evidence. The ring
//! therefore overwrites the oldest record when full and counts how many
//! were lost, so a dump is honest about its own horizon.

use crate::event::{Event, EventKind};
use simkit::SimTime;

/// Fixed-capacity, overwrite-oldest ring of [`Event`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// Storage; grows up to `capacity` then stays fixed.
    buf: Vec<Event>,
    /// Next slot to write once `buf` is full (oldest record).
    head: usize,
    capacity: usize,
    /// Events overwritten since creation (or the last [`Self::clear`]).
    overwritten: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder capacity must be > 0");
        FlightRecorder {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            overwritten: 0,
        }
    }

    /// Appends an event, overwriting the oldest if the ring is full.
    pub fn record(&mut self, at: SimTime, name: &'static str, kind: EventKind) {
        let event = Event { at, name, kind };
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events lost to overwriting since creation or the last clear.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Iterates events oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// The newest `n` events, oldest-first.
    pub fn tail(&self, n: usize) -> Vec<&Event> {
        let skip = self.buf.len().saturating_sub(n);
        self.iter().skip(skip).collect()
    }

    /// Renders the whole ring as JSONL, one event per line, oldest
    /// first, with a trailing newline (empty string when empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.iter() {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Renders the newest `n` events as JSONL (oldest-first).
    pub fn tail_jsonl(&self, n: usize) -> String {
        let mut out = String::new();
        for event in self.tail(n) {
            out.push_str(&event.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Drops all events and resets the overwrite counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.overwritten = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_at(ns: u64, delta: i64) -> (SimTime, EventKind) {
        (SimTime::from_nanos(ns), EventKind::Counter { delta })
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut ring = FlightRecorder::new(3);
        for i in 0..5u64 {
            let (at, kind) = counter_at(i, i as i64);
            ring.record(at, "t.ring.tick", kind);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 2);
        let kept: Vec<u64> = ring.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn tail_returns_newest_oldest_first() {
        let mut ring = FlightRecorder::new(4);
        for i in 0..7u64 {
            let (at, kind) = counter_at(i, 0);
            ring.record(at, "t.ring.tick", kind);
        }
        let tail: Vec<u64> = ring.tail(2).iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(tail, vec![5, 6]);
        // Asking for more than is held returns everything.
        assert_eq!(ring.tail(100).len(), 4);
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut ring = FlightRecorder::new(8);
        let (at, kind) = counter_at(1, 1);
        ring.record(at, "t.ring.tick", kind);
        ring.record(SimTime::from_nanos(2), "t.ring.span", EventKind::SpanEnter);
        let dump = ring.to_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.ends_with('\n'));
        assert!(dump.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn clear_resets_everything() {
        let mut ring = FlightRecorder::new(2);
        for i in 0..5u64 {
            let (at, kind) = counter_at(i, 0);
            ring.record(at, "t.ring.tick", kind);
        }
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.overwritten(), 0);
        assert_eq!(ring.to_jsonl(), "");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }
}
