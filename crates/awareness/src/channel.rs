//! The simulated process boundary.
//!
//! In the original framework the SUO and the awareness monitor are separate
//! Linux processes connected by Unix domain sockets. The dependability-
//! relevant property of that boundary is that messages arrive **late,
//! jittered, and occasionally not at all** — which is exactly what made the
//! early comparator report false errors (paper Sect. 4.3). [`DelayChannel`]
//! reproduces those dynamics deterministically from a seed.

use simkit::{EventQueue, SimDuration, SimRng, SimTime};

/// A unidirectional, delaying, lossy, deterministic message channel.
///
/// ```
/// use awareness::DelayChannel;
/// use simkit::{SimDuration, SimTime};
///
/// let mut ch: DelayChannel<&str> = DelayChannel::new(SimDuration::from_millis(2));
/// ch.send(SimTime::ZERO, "hello");
/// assert!(ch.deliver_due(SimTime::from_millis(1)).is_empty());
/// let due = ch.deliver_due(SimTime::from_millis(2));
/// assert_eq!(due, vec![(SimTime::from_millis(2), "hello")]);
/// ```
#[derive(Debug, Clone)]
pub struct DelayChannel<T> {
    base_delay: SimDuration,
    jitter: SimDuration,
    loss_probability: f64,
    rng: SimRng,
    queue: EventQueue<T>,
    sent: u64,
    lost: u64,
    delivered: u64,
}

impl<T> DelayChannel<T> {
    /// Creates a lossless channel with a fixed delay.
    pub fn new(base_delay: SimDuration) -> Self {
        DelayChannel {
            base_delay,
            jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            rng: SimRng::seed(0),
            queue: EventQueue::new(),
            sent: 0,
            lost: 0,
            delivered: 0,
        }
    }

    /// Adds uniform jitter in `[0, jitter]` on top of the base delay.
    pub fn with_jitter(mut self, jitter: SimDuration, seed: u64) -> Self {
        self.jitter = jitter;
        self.rng = SimRng::seed(seed);
        self
    }

    /// Drops each message independently with probability `p`.
    ///
    /// `p = 1.0` is accepted and models a fully severed link (every
    /// message is lost) — useful for blackout fault campaigns.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.loss_probability = p;
        self
    }

    /// The configured base delay.
    pub fn base_delay(&self) -> SimDuration {
        self.base_delay
    }

    /// The configured jitter bound.
    pub fn jitter(&self) -> SimDuration {
        self.jitter
    }

    /// Messages accepted for sending.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages dropped by loss injection or abandoned by [`clear`](Self::clear).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Sends a message at `now`; returns its delivery time, or `None` if
    /// the channel lost it.
    pub fn send(&mut self, now: SimTime, message: T) -> Option<SimTime> {
        self.sent += 1;
        if self.loss_probability > 0.0 && self.rng.chance(self.loss_probability) {
            self.lost += 1;
            return None;
        }
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.rng.uniform_u64(0, self.jitter.as_nanos()))
        };
        let at = now + self.base_delay + jitter;
        self.queue.push(at, message);
        Some(at)
    }

    /// Delivery time of the earliest in-flight message.
    pub fn next_delivery(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Removes and returns all messages due at or before `now`, in
    /// delivery order (jitter may reorder relative to send order — exactly
    /// the transient the comparator must tolerate).
    pub fn deliver_due(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let mut out = Vec::new();
        self.deliver_due_into(now, &mut out);
        out
    }

    /// [`deliver_due`](Self::deliver_due) into a caller-owned buffer:
    /// appends the due messages to `out`, so a pump that reuses one
    /// buffer allocates nothing per delivery.
    pub fn deliver_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        while let Some(t) = self.queue.peek_time() {
            if t > now {
                break;
            }
            let ev = self.queue.pop().expect("peeked event pops");
            self.delivered += 1;
            out.push((ev.time, ev.event));
        }
    }

    /// Drops everything in flight (monitor reset). The dropped messages
    /// count as lost: nothing will deliver them now.
    pub fn clear(&mut self) {
        self.lost += self.queue.len() as u64;
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_delay_delivery() {
        let mut ch: DelayChannel<u32> = DelayChannel::new(SimDuration::from_millis(5));
        ch.send(SimTime::ZERO, 1);
        ch.send(SimTime::from_millis(1), 2);
        assert_eq!(ch.in_flight(), 2);
        assert_eq!(ch.next_delivery(), Some(SimTime::from_millis(5)));
        let due = ch.deliver_due(SimTime::from_millis(5));
        assert_eq!(due, vec![(SimTime::from_millis(5), 1)]);
        let due = ch.deliver_due(SimTime::from_millis(10));
        assert_eq!(due, vec![(SimTime::from_millis(6), 2)]);
        assert_eq!(ch.delivered(), 2);
    }

    #[test]
    fn zero_delay_is_immediate() {
        let mut ch: DelayChannel<u32> = DelayChannel::new(SimDuration::ZERO);
        ch.send(SimTime::from_millis(3), 7);
        assert_eq!(
            ch.deliver_due(SimTime::from_millis(3)),
            vec![(SimTime::from_millis(3), 7)]
        );
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mk = || {
            let mut ch: DelayChannel<u32> = DelayChannel::new(SimDuration::from_millis(1))
                .with_jitter(SimDuration::from_millis(4), 42);
            let times: Vec<SimTime> = (0..20).filter_map(|i| ch.send(SimTime::ZERO, i)).collect();
            times
        };
        assert_eq!(mk(), mk());
        // Jitter stays within bounds.
        for t in mk() {
            assert!(t >= SimTime::from_millis(1) && t <= SimTime::from_millis(5));
        }
    }

    #[test]
    fn loss_drops_messages() {
        let mut ch: DelayChannel<u32> = DelayChannel::new(SimDuration::ZERO).with_loss(0.5);
        let mut delivered = 0;
        for i in 0..1000 {
            if ch.send(SimTime::ZERO, i).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(ch.sent(), 1000);
        assert_eq!(ch.lost() + delivered, 1000);
        assert!(ch.lost() > 350 && ch.lost() < 650, "lost={}", ch.lost());
    }

    #[test]
    fn total_loss_severs_the_link() {
        let mut ch: DelayChannel<u32> = DelayChannel::new(SimDuration::ZERO).with_loss(1.0);
        for i in 0..100 {
            assert!(ch.send(SimTime::ZERO, i).is_none());
        }
        assert_eq!(ch.lost(), 100);
        assert!(ch.deliver_due(SimTime::from_millis(1)).is_empty());
    }

    #[test]
    fn clear_empties_flight() {
        let mut ch: DelayChannel<u32> = DelayChannel::new(SimDuration::from_millis(1));
        ch.send(SimTime::ZERO, 1);
        ch.clear();
        assert!(ch.deliver_due(SimTime::from_millis(10)).is_empty());
    }

    #[test]
    fn clear_counts_dropped_messages_as_lost() {
        let mut ch: DelayChannel<u32> = DelayChannel::new(SimDuration::from_millis(5));
        for i in 0..3 {
            ch.send(SimTime::from_millis(i), i as u32);
        }
        assert_eq!(ch.deliver_due(SimTime::from_millis(5)).len(), 1);
        ch.clear();
        assert_eq!(
            (ch.sent(), ch.delivered(), ch.lost(), ch.in_flight()),
            (3, 1, 2, 0)
        );
    }
}
