//! Reliable delivery over the lossy process boundary.
//!
//! The bare [`DelayChannel`] reproduces the boundary's raw dynamics:
//! messages arrive late, jittered, and occasionally not at all. The
//! original framework ran over Unix domain sockets — a *reliable*
//! transport — so its comparator only ever had to tolerate lateness,
//! never loss. [`ReliableChannel`] restores that guarantee on top of the
//! lossy wire with a classic ack/retransmit protocol:
//!
//! * a frame carries only a **sequence number**; its payload never
//!   leaves the sender's window until the receiver releases it, once;
//! * the receiver acknowledges **cumulatively** (an ack for `n` covers
//!   everything below `n`) over a reverse wire that is itself delayed,
//!   jittered, and lossy;
//! * unacknowledged frames are **retransmitted** with exponential
//!   backoff plus deterministic jitter (to avoid lock-step bursts);
//! * the receiver **deduplicates** retransmissions and reorders frames
//!   back into sequence through a **bounded reorder buffer** — overflow
//!   drops the newest out-of-order frame, which a later retransmission
//!   recovers, so nothing is ever abandoned.
//!
//! The payoff for dependability analysis: the channel's accounting
//! separates *late* from *lost*. At the application layer
//! `sent() == delivered() + in_flight()` and `lost() == 0` always hold;
//! wire-level noise (retransmissions, drops, duplicates) is reported
//! separately in [`ReliableStats`], so a comparator false error can be
//! attributed to lateness rather than silently-missing messages.

use crate::channel::DelayChannel;
use simkit::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;
use telemetry::Telemetry;

/// Telemetry names for one protocol instance, so the monitor's input and
/// output channels stay distinguishable in a flight-recorder dump (names
/// must be `&'static str` — recording never allocates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeNames {
    /// Counter event per retransmission (signal-level: each one is a
    /// symptom of wire trouble worth a timeline entry).
    pub retransmits: &'static str,
    /// Metric-only counter of frames dropped by forward-wire loss.
    pub wire_lost: &'static str,
    /// Metric-only counter of deduplicated frames.
    pub duplicates: &'static str,
    /// Counter event per reorder-buffer overflow drop.
    pub reorder_dropped: &'static str,
    /// Metric-only counter of wire transmissions (first + retries).
    pub transmissions: &'static str,
}

impl ProbeNames {
    /// Names for a channel whose role is unknown.
    pub const DEFAULT: ProbeNames = ProbeNames {
        retransmits: "awareness.reliable.retransmits",
        wire_lost: "awareness.reliable.wire_lost",
        duplicates: "awareness.reliable.duplicates",
        reorder_dropped: "awareness.reliable.reorder_dropped",
        transmissions: "awareness.reliable.transmissions",
    };
    /// Names for the SUO → monitor input-event channel.
    pub const INPUT: ProbeNames = ProbeNames {
        retransmits: "awareness.reliable.input.retransmits",
        wire_lost: "awareness.reliable.input.wire_lost",
        duplicates: "awareness.reliable.input.duplicates",
        reorder_dropped: "awareness.reliable.input.reorder_dropped",
        transmissions: "awareness.reliable.input.transmissions",
    };
    /// Names for the SUO → monitor output-event channel.
    pub const OUTPUT: ProbeNames = ProbeNames {
        retransmits: "awareness.reliable.output.retransmits",
        wire_lost: "awareness.reliable.output.wire_lost",
        duplicates: "awareness.reliable.output.duplicates",
        reorder_dropped: "awareness.reliable.output.reorder_dropped",
        transmissions: "awareness.reliable.output.transmissions",
    };
}

/// A frame on the forward wire: the sequence number of a payload that
/// waits in the sender's window until the receiver releases it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    seq: u64,
}

/// Retransmission and reordering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliableConfig {
    /// First retransmission timeout after a transmission.
    pub initial_rto: SimDuration,
    /// Ceiling for the exponentially backed-off timeout.
    pub max_rto: SimDuration,
    /// Extra uniform jitter added per retransmission, as a fraction of
    /// the current timeout (`0.0` = none, `0.5` = up to +50%).
    pub backoff_jitter: f64,
    /// Maximal number of out-of-order frames buffered at the receiver.
    pub reorder_capacity: usize,
}

impl ReliableConfig {
    /// `rto` plus the backoff jitter drawn from `rng` (no draw when the
    /// jitter fraction is zero).
    fn jittered(&self, rto: SimDuration, rng: &mut SimRng) -> SimDuration {
        if self.backoff_jitter == 0.0 {
            return rto;
        }
        let extra = rto.as_nanos() as f64 * self.backoff_jitter * rng.unit_f64();
        rto + SimDuration::from_nanos(extra as u64)
    }
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            initial_rto: SimDuration::from_millis(10),
            max_rto: SimDuration::from_millis(500),
            backoff_jitter: 0.25,
            reorder_capacity: 32,
        }
    }
}

/// Wire- and application-level delivery accounting.
///
/// Application layer: `accepted == delivered + tracked`, `abandoned == 0`
/// (structurally — the protocol never gives up on a frame). Wire layer:
/// `transmissions == accepted + retransmits`, and every transmission
/// either reached the receiver or shows up in `wire_lost`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Payloads accepted from the application.
    pub accepted: u64,
    /// Payloads handed to the application, in sequence order.
    pub delivered: u64,
    /// Frames put on the forward wire (first attempts + retransmits).
    pub transmissions: u64,
    /// Retransmissions only.
    pub retransmits: u64,
    /// Forward-wire frames dropped by loss injection.
    pub wire_lost: u64,
    /// Frames received more than once (dedup hits).
    pub duplicates: u64,
    /// Out-of-order frames dropped on reorder-buffer overflow (each is
    /// recovered by a later retransmission).
    pub reorder_dropped: u64,
    /// Cumulative acks put on the reverse wire.
    pub acks_sent: u64,
    /// Acks dropped by the reverse wire's loss injection.
    pub acks_lost: u64,
}

/// One window slot: `payload` is `None` once the receiver has taken it.
#[derive(Debug, Clone)]
struct Pending<T> {
    payload: Option<T>,
    rto: SimDuration,
    due: SimTime,
}

/// Ack/retransmit protocol over a pair of [`DelayChannel`] wires.
///
/// ```
/// use awareness::{DelayChannel, ReliableChannel};
/// use simkit::{SimDuration, SimTime};
///
/// let wire = DelayChannel::new(SimDuration::from_millis(2)).with_loss(0.5);
/// let acks = DelayChannel::new(SimDuration::from_millis(2));
/// let mut ch: ReliableChannel<&str> = ReliableChannel::over(wire, acks, 7);
/// for i in 0..20 {
///     ch.send(SimTime::from_millis(i), "payload");
/// }
/// // Pump the protocol to quiescence: everything arrives despite 50% loss.
/// let mut now = SimTime::from_millis(20);
/// let mut delivered = 0;
/// while let Some(t) = ch.next_activity() {
///     now = now.max(t);
///     delivered += ch.deliver_due(now).len();
/// }
/// assert_eq!(delivered, 20);
/// assert_eq!(ch.lost(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ReliableChannel<T> {
    wire: DelayChannel<Frame>,
    acks: DelayChannel<u64>,
    rng: SimRng,
    config: ReliableConfig,
    // Sender: the window holds sequences `oldest_unacked()..next_seq`.
    next_seq: u64,
    unacked: VecDeque<Pending<T>>,
    // Receiver: `reorder` holds out-of-order sequences, sorted.
    next_expected: u64,
    reorder: Vec<u64>,
    // Reused buffers the pump drains both wires through.
    ack_scratch: Vec<(SimTime, u64)>,
    frame_scratch: Vec<(SimTime, Frame)>,
    stats: ReliableStats,
    telemetry: Telemetry,
    probe: ProbeNames,
}

impl<T> ReliableChannel<T> {
    /// Builds the protocol over a forward `wire` and a reverse `acks`
    /// wire, deriving the initial retransmission timeout from the wires'
    /// configured round-trip (delay + jitter, doubled, floor 1 ms).
    pub fn over(wire: DelayChannel<Frame>, acks: DelayChannel<u64>, seed: u64) -> Self {
        let rtt = wire.base_delay() + wire.jitter() + acks.base_delay() + acks.jitter();
        let initial_rto = (rtt + rtt).max(SimDuration::from_millis(1));
        let config = ReliableConfig {
            initial_rto,
            max_rto: (initial_rto * 32).max(SimDuration::from_millis(100)),
            ..ReliableConfig::default()
        };
        Self::with_config(wire, acks, seed, config)
    }

    /// Builds the protocol with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `initial_rto` is zero, `max_rto < initial_rto`,
    /// `backoff_jitter` is outside `[0, 1]`, or `reorder_capacity` is 0.
    pub fn with_config(
        wire: DelayChannel<Frame>,
        acks: DelayChannel<u64>,
        seed: u64,
        config: ReliableConfig,
    ) -> Self {
        assert!(
            !config.initial_rto.is_zero(),
            "initial_rto must be positive"
        );
        assert!(
            config.max_rto >= config.initial_rto,
            "max_rto < initial_rto"
        );
        assert!(
            (0.0..=1.0).contains(&config.backoff_jitter),
            "backoff_jitter must be in [0,1]"
        );
        assert!(
            config.reorder_capacity > 0,
            "reorder_capacity must be positive"
        );
        ReliableChannel {
            wire,
            acks,
            rng: SimRng::seed(seed),
            config,
            next_seq: 0,
            unacked: VecDeque::new(),
            next_expected: 0,
            reorder: Vec::new(),
            ack_scratch: Vec::new(),
            frame_scratch: Vec::new(),
            stats: ReliableStats::default(),
            telemetry: Telemetry::off(),
            probe: ProbeNames::DEFAULT,
        }
    }

    /// Attaches a telemetry handle; `probe` picks the channel-role names
    /// that will appear in metrics and flight-recorder dumps.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, probe: ProbeNames) {
        self.telemetry = telemetry;
        self.probe = probe;
    }

    /// Convenience constructor: both wires share `base_delay`, `jitter`,
    /// and `loss`, with independent per-direction RNG streams.
    pub fn symmetric(base_delay: SimDuration, jitter: SimDuration, loss: f64, seed: u64) -> Self {
        let mut wire = DelayChannel::new(base_delay);
        let mut acks = DelayChannel::new(base_delay);
        if !jitter.is_zero() {
            wire = wire.with_jitter(jitter, seed.wrapping_add(0x51));
            acks = acks.with_jitter(jitter, seed.wrapping_add(0x52));
        }
        if loss > 0.0 {
            wire = wire.with_loss(loss);
            acks = acks.with_loss(loss);
        }
        Self::over(wire, acks, seed.wrapping_add(0x53))
    }

    /// Accepts a payload at `now`; it will be delivered, in order,
    /// eventually (as long as the wire's loss probability is below 1 and
    /// the protocol keeps being pumped). Returns the scheduled arrival of
    /// the *first* transmission attempt, or `None` if the wire dropped it
    /// (a retransmission will recover it).
    pub fn send(&mut self, now: SimTime, payload: T) -> Option<SimTime> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.accepted += 1;
        self.stats.transmissions += 1;
        self.telemetry.metric_incr(self.probe.transmissions, 1);
        let first = self.wire.send(now, Frame { seq });
        if first.is_none() {
            self.stats.wire_lost += 1;
            self.telemetry.metric_incr(self.probe.wire_lost, 1);
        }
        let rto = self.config.initial_rto;
        let due = now + self.config.jittered(rto, &mut self.rng);
        self.unacked.push_back(Pending {
            payload: Some(payload),
            rto,
            due,
        });
        first
    }

    /// The earliest time at which the protocol has work to do: a wire
    /// arrival, an ack arrival, or a retransmission timer. `None` means
    /// fully quiescent (everything delivered and acknowledged).
    pub fn next_activity(&self) -> Option<SimTime> {
        let timer = self.unacked.iter().map(|p| p.due).min();
        [self.wire.next_delivery(), self.acks.next_delivery(), timer]
            .into_iter()
            .flatten()
            .min()
    }

    /// Pumps the protocol up to `now` and returns the payloads released
    /// to the application, stamped with the time each became deliverable
    /// (in-sequence), oldest first.
    pub fn deliver_due(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let mut out = Vec::new();
        self.deliver_due_into(now, &mut out);
        out
    }

    /// [`deliver_due`](Self::deliver_due) into a caller-owned buffer:
    /// appends the released payloads to `out`. Both wires drain through
    /// buffers the channel keeps, so pumping allocates nothing once they
    /// have grown to the traffic's burst size.
    pub fn deliver_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        let mut acks = std::mem::take(&mut self.ack_scratch);
        let mut frames = std::mem::take(&mut self.frame_scratch);
        while let Some(t) = self.next_activity() {
            if t > now {
                break;
            }
            // Acks first at equal times: freeing the sender cannot
            // invalidate a data arrival, while the reverse order could
            // retransmit a frame the due ack already covers.
            self.acks.deliver_due_into(t, &mut acks);
            for (_, ack) in acks.drain(..) {
                // Cumulative: retire every frame below `ack`.
                let retired = ack.saturating_sub(self.oldest_unacked());
                self.unacked.drain(..retired as usize);
            }
            self.wire.deliver_due_into(t, &mut frames);
            for (at, frame) in frames.drain(..) {
                self.receive(at, frame, out);
            }
            self.retransmit_due(t);
        }
        self.ack_scratch = acks;
        self.frame_scratch = frames;
    }

    /// Sequence of the window's oldest slot: sequences are contiguous
    /// and acks retire a prefix (`next_seq` when the window is empty).
    fn oldest_unacked(&self) -> u64 {
        self.next_seq - self.unacked.len() as u64
    }

    fn receive(&mut self, at: SimTime, frame: Frame, out: &mut Vec<(SimTime, T)>) {
        let slot = self.reorder.binary_search(&frame.seq);
        if frame.seq < self.next_expected || slot.is_ok() {
            self.stats.duplicates += 1;
            self.telemetry.metric_incr(self.probe.duplicates, 1);
        } else if frame.seq == self.next_expected {
            self.release(at, out);
            while self.reorder.first() == Some(&self.next_expected) {
                self.reorder.remove(0);
                self.release(at, out);
            }
        } else if let Err(slot) = slot {
            self.reorder.insert(slot, frame.seq);
            if self.reorder.len() > self.config.reorder_capacity {
                // Shed the frame farthest from the sequence gap; its
                // retransmission timer is still running on our side.
                self.reorder.pop();
                self.stats.reorder_dropped += 1;
                self.telemetry.count(at, self.probe.reorder_dropped, 1);
            }
        }
        // Cumulative ack: everything below `next_expected` has been
        // released in order.
        self.stats.acks_sent += 1;
        if self.acks.send(at, self.next_expected).is_none() {
            self.stats.acks_lost += 1;
        }
    }

    /// Releases frame `next_expected`, moving its payload out of the
    /// sender's window. The slot is still there: a cumulative ack never
    /// passes `next_expected`, so it cannot have retired it.
    fn release(&mut self, at: SimTime, out: &mut Vec<(SimTime, T)>) {
        let slot = (self.next_expected - self.oldest_unacked()) as usize;
        self.stats.delivered += 1;
        self.next_expected += 1;
        out.push((
            at,
            self.unacked[slot].payload.take().expect("released once"),
        ));
    }

    /// Retransmits every frame whose timer is due by `t`, in sequence
    /// order; per frame, the wire send draws before the backoff jitter.
    fn retransmit_due(&mut self, t: SimTime) {
        let seqs = self.oldest_unacked()..;
        for (seq, pending) in seqs.zip(&mut self.unacked).filter(|(_, p)| p.due <= t) {
            pending.rto = (pending.rto * 2).min(self.config.max_rto);
            self.stats.retransmits += 1;
            self.stats.transmissions += 1;
            self.telemetry.count(t, self.probe.retransmits, 1);
            self.telemetry.metric_incr(self.probe.transmissions, 1);
            if self.wire.send(t, Frame { seq }).is_none() {
                self.stats.wire_lost += 1;
                self.telemetry.metric_incr(self.probe.wire_lost, 1);
            }
            pending.due = t + self.config.jittered(pending.rto, &mut self.rng);
        }
    }

    /// Payloads accepted from the application.
    pub fn sent(&self) -> u64 {
        self.stats.accepted
    }

    /// Payloads abandoned by the protocol — structurally zero; the
    /// counter exists so callers can treat reliable and bare channels
    /// uniformly in conservation checks.
    pub fn lost(&self) -> u64 {
        0
    }

    /// Payloads released to the application.
    pub fn delivered(&self) -> u64 {
        self.stats.delivered
    }

    /// Payloads accepted but not yet released: on the wire, waiting in
    /// the reorder buffer, or awaiting retransmission.
    pub fn in_flight(&self) -> usize {
        (self.stats.accepted - self.stats.delivered) as usize
    }

    /// Frames transmitted but not yet acknowledged.
    pub fn unacknowledged(&self) -> usize {
        self.unacked.len()
    }

    /// Wire- and application-level counters.
    pub fn stats(&self) -> &ReliableStats {
        &self.stats
    }

    /// Drops all protocol state and everything on both wires (monitor
    /// reset). Accounting treats cleared payloads as delivered-by-fiat so
    /// conservation holds across resets.
    pub fn clear(&mut self) {
        self.wire.clear();
        self.acks.clear();
        self.stats.delivered += self.in_flight() as u64;
        self.unacked.clear();
        self.reorder.clear();
        self.next_expected = self.next_seq;
    }
}

/// The process boundary as the monitor sees it: either the bare lossy
/// wire or the reliable protocol over it, behind one API.
#[derive(Debug, Clone)]
pub enum BoundaryChannel<T> {
    /// Raw delaying/jittering/lossy wire.
    Delay(DelayChannel<T>),
    /// Ack/retransmit protocol over such wires (boxed: the protocol
    /// state dwarfs the bare wire's).
    Reliable(Box<ReliableChannel<T>>),
}

impl<T> BoundaryChannel<T> {
    /// Sends a payload at `now`; returns the first scheduled arrival, if
    /// the wire kept it.
    pub fn send(&mut self, now: SimTime, payload: T) -> Option<SimTime> {
        match self {
            BoundaryChannel::Delay(ch) => ch.send(now, payload),
            BoundaryChannel::Reliable(ch) => ch.send(now, payload),
        }
    }

    /// Earliest pending activity (delivery or protocol timer).
    pub fn next_delivery(&self) -> Option<SimTime> {
        match self {
            BoundaryChannel::Delay(ch) => ch.next_delivery(),
            BoundaryChannel::Reliable(ch) => ch.next_activity(),
        }
    }

    /// Delivers everything due at or before `now`.
    pub fn deliver_due(&mut self, now: SimTime) -> Vec<(SimTime, T)> {
        let mut out = Vec::new();
        self.deliver_due_into(now, &mut out);
        out
    }

    /// Appends everything due at or before `now` to `out`.
    pub fn deliver_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        match self {
            BoundaryChannel::Delay(ch) => ch.deliver_due_into(now, out),
            BoundaryChannel::Reliable(ch) => ch.deliver_due_into(now, out),
        }
    }

    /// Payloads accepted for sending.
    pub fn sent(&self) -> u64 {
        match self {
            BoundaryChannel::Delay(ch) => ch.sent(),
            BoundaryChannel::Reliable(ch) => ch.sent(),
        }
    }

    /// Payloads lost forever (always 0 for the reliable protocol).
    pub fn lost(&self) -> u64 {
        match self {
            BoundaryChannel::Delay(ch) => ch.lost(),
            BoundaryChannel::Reliable(ch) => ch.lost(),
        }
    }

    /// Payloads delivered so far.
    pub fn delivered(&self) -> u64 {
        match self {
            BoundaryChannel::Delay(ch) => ch.delivered(),
            BoundaryChannel::Reliable(ch) => ch.delivered(),
        }
    }

    /// Payloads accepted but not yet delivered (nor lost).
    pub fn in_flight(&self) -> usize {
        match self {
            BoundaryChannel::Delay(ch) => ch.in_flight(),
            BoundaryChannel::Reliable(ch) => ch.in_flight(),
        }
    }

    /// Attaches telemetry to the reliable protocol (no-op on the bare
    /// wire, which has no protocol events to report).
    pub fn set_telemetry(&mut self, telemetry: Telemetry, probe: ProbeNames) {
        if let BoundaryChannel::Reliable(ch) = self {
            ch.set_telemetry(telemetry, probe);
        }
    }

    /// Protocol counters, when the reliable protocol is active.
    pub fn reliable_stats(&self) -> Option<&ReliableStats> {
        match self {
            BoundaryChannel::Delay(_) => None,
            BoundaryChannel::Reliable(ch) => Some(ch.stats()),
        }
    }

    /// Drops everything in flight (monitor reset).
    pub fn clear(&mut self) {
        match self {
            BoundaryChannel::Delay(ch) => ch.clear(),
            BoundaryChannel::Reliable(ch) => ch.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pump_to_quiescence(ch: &mut ReliableChannel<u64>, from: SimTime) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        let mut now = from;
        let mut guard = 0;
        while let Some(t) = ch.next_activity() {
            now = now.max(t);
            out.extend(ch.deliver_due(now));
            guard += 1;
            assert!(guard < 1_000_000, "protocol failed to quiesce");
        }
        out
    }

    fn conservation(ch: &ReliableChannel<u64>) {
        assert_eq!(
            ch.sent(),
            ch.delivered() + ch.lost() + ch.in_flight() as u64,
            "conservation violated: {:?}",
            ch.stats()
        );
    }

    #[test]
    fn lossless_wire_delivers_in_order() {
        let mut ch: ReliableChannel<u64> =
            ReliableChannel::symmetric(SimDuration::from_millis(2), SimDuration::ZERO, 0.0, 1);
        for i in 0..10 {
            ch.send(SimTime::from_millis(i), i);
            conservation(&ch);
        }
        let got = pump_to_quiescence(&mut ch, SimTime::from_millis(10));
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(ch.stats().retransmits, 0);
        conservation(&ch);
    }

    #[test]
    fn heavy_loss_is_recovered_by_retransmission() {
        let mut ch: ReliableChannel<u64> = ReliableChannel::symmetric(
            SimDuration::from_millis(3),
            SimDuration::from_millis(2),
            0.4,
            42,
        );
        for i in 0..50 {
            ch.send(SimTime::from_millis(i * 2), i);
        }
        let got = pump_to_quiescence(&mut ch, SimTime::from_millis(100));
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            (0..50).collect::<Vec<_>>()
        );
        let stats = ch.stats();
        assert!(stats.retransmits > 0, "40% loss must force retransmissions");
        assert!(stats.wire_lost > 0);
        assert_eq!(ch.lost(), 0);
        assert_eq!(ch.in_flight(), 0);
        assert_eq!(ch.unacknowledged(), 0);
        conservation(&ch);
    }

    #[test]
    fn jitter_reordering_is_resequenced() {
        // Heavy jitter relative to base delay scrambles wire arrival
        // order; the application must still see sequence order.
        let mut ch: ReliableChannel<u64> = ReliableChannel::symmetric(
            SimDuration::from_millis(1),
            SimDuration::from_millis(20),
            0.0,
            7,
        );
        for i in 0..40 {
            ch.send(SimTime::from_millis(i), i);
        }
        let got = pump_to_quiescence(&mut ch, SimTime::from_millis(40));
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            (0..40).collect::<Vec<_>>()
        );
        // Release times are monotone: in-order release never time-travels.
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        conservation(&ch);
    }

    #[test]
    fn duplicates_are_absorbed() {
        // Lossy acks make the sender retransmit frames the receiver
        // already has; they must be counted and dropped, not re-delivered.
        let wire = DelayChannel::new(SimDuration::from_millis(2));
        let acks = DelayChannel::new(SimDuration::from_millis(2)).with_loss(0.8);
        let mut ch: ReliableChannel<u64> = ReliableChannel::over(wire, acks, 11);
        for i in 0..20 {
            ch.send(SimTime::from_millis(i), i);
        }
        let got = pump_to_quiescence(&mut ch, SimTime::from_millis(20));
        assert_eq!(got.len(), 20);
        assert!(ch.stats().duplicates > 0, "{:?}", ch.stats());
        conservation(&ch);
    }

    #[test]
    fn reorder_overflow_drops_newest_and_recovers() {
        let wire = DelayChannel::new(SimDuration::from_millis(1))
            .with_jitter(SimDuration::from_millis(40), 5)
            .with_loss(0.3);
        let acks = DelayChannel::new(SimDuration::from_millis(1));
        let config = ReliableConfig {
            initial_rto: SimDuration::from_millis(20),
            max_rto: SimDuration::from_millis(200),
            backoff_jitter: 0.25,
            reorder_capacity: 2,
        };
        let mut ch: ReliableChannel<u64> = ReliableChannel::with_config(wire, acks, 9, config);
        for i in 0..60 {
            ch.send(SimTime::from_millis(i), i);
        }
        let got = pump_to_quiescence(&mut ch, SimTime::from_millis(60));
        assert_eq!(
            got.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            (0..60).collect::<Vec<_>>()
        );
        assert!(ch.reorder.len() <= 2);
        conservation(&ch);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        // Total forward loss: the frame is never acked, so timers fire
        // repeatedly with doubling (then capped) gaps.
        let wire = DelayChannel::new(SimDuration::from_millis(1)).with_loss(1.0);
        let acks = DelayChannel::new(SimDuration::from_millis(1));
        let config = ReliableConfig {
            initial_rto: SimDuration::from_millis(4),
            max_rto: SimDuration::from_millis(32),
            backoff_jitter: 0.0,
            reorder_capacity: 8,
        };
        let mut ch: ReliableChannel<u64> = ReliableChannel::with_config(wire, acks, 3, config);
        ch.send(SimTime::ZERO, 77);
        let mut fire_times = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..8 {
            let t = ch.next_activity().expect("timer pending");
            now = now.max(t);
            ch.deliver_due(now);
            fire_times.push(t);
        }
        let gaps: Vec<u64> = fire_times
            .windows(2)
            .map(|w| w[1].since(w[0]).as_millis_f64() as u64)
            .collect();
        assert_eq!(gaps, vec![8, 16, 32, 32, 32, 32, 32], "{fire_times:?}");
        assert_eq!(ch.delivered(), 0);
        assert_eq!(ch.in_flight(), 1);
        conservation(&ch);
    }

    #[test]
    fn replay_is_bit_identical() {
        let run = || {
            let mut ch: ReliableChannel<u64> = ReliableChannel::symmetric(
                SimDuration::from_millis(2),
                SimDuration::from_millis(5),
                0.35,
                1234,
            );
            for i in 0..30 {
                ch.send(SimTime::from_millis(i * 3), i);
            }
            let got = pump_to_quiescence(&mut ch, SimTime::from_millis(90));
            (got, *ch.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clear_preserves_conservation() {
        let mut ch: ReliableChannel<u64> =
            ReliableChannel::symmetric(SimDuration::from_millis(5), SimDuration::ZERO, 0.5, 8);
        for i in 0..10 {
            ch.send(SimTime::from_millis(i), i);
        }
        ch.clear();
        conservation(&ch);
        assert_eq!(ch.in_flight(), 0);
        // The channel remains usable after a reset.
        ch.send(SimTime::from_millis(20), 99);
        let got = pump_to_quiescence(&mut ch, SimTime::from_millis(20));
        assert_eq!(got.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec![99]);
        conservation(&ch);
    }

    #[test]
    fn boundary_channel_is_uniform_over_both_variants() {
        let mut bare: BoundaryChannel<u64> =
            BoundaryChannel::Delay(DelayChannel::new(SimDuration::from_millis(1)).with_loss(0.5));
        let mut reliable: BoundaryChannel<u64> = BoundaryChannel::Reliable(Box::new(
            ReliableChannel::symmetric(SimDuration::from_millis(1), SimDuration::ZERO, 0.5, 21),
        ));
        for i in 0..40 {
            bare.send(SimTime::from_millis(i), i);
            reliable.send(SimTime::from_millis(i), i);
        }
        let mut now = SimTime::from_millis(40);
        while let Some(t) = reliable.next_delivery() {
            now = now.max(t);
            reliable.deliver_due(now);
        }
        bare.deliver_due(now);
        // Both satisfy conservation; only the bare wire loses.
        for ch in [&bare, &reliable] {
            assert_eq!(
                ch.sent(),
                ch.delivered() + ch.lost() + ch.in_flight() as u64
            );
        }
        assert!(bare.lost() > 0);
        assert_eq!(reliable.lost(), 0);
        assert_eq!(reliable.delivered(), 40);
        assert!(reliable.reliable_stats().is_some());
        assert!(bare.reliable_stats().is_none());
    }
}
