//! Golden delivery streams for the boundary channels.
//!
//! Each case drives one channel through a fixed send/pump schedule and
//! pins the FNV-1a of every delivered `(time, payload)` pair, in
//! delivery order, plus the channel's final counters (the full
//! [`ReliableStats`] for the reliable protocol). Every random draw the
//! channels make — wire loss and jitter, ack loss and jitter, backoff
//! jitter — lands in one of those numbers, so any change to the order
//! in which the pump sends, acknowledges or retransmits frames shows up
//! here even when the application-level stream stays in order.

use awareness::{BoundaryChannel, DelayChannel, ReliableChannel, ReliableConfig, ReliableStats};
use simkit::{SimDuration, SimTime};

const SEEDS: [u64; 3] = [0, 7, 123];
const BASE_DELAY: SimDuration = SimDuration::from_millis(2);
const JITTER: SimDuration = SimDuration::from_micros(1_500);
const LOSS: f64 = 0.1;
/// Payloads the schedule sends: 240 sends, 15 of them bursts of four.
const PAYLOADS: u64 = 285;

/// FNV-1a over the little-endian bytes of `(time_ns, payload)` pairs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, at: SimTime, payload: u64) {
        for b in at
            .as_nanos()
            .to_le_bytes()
            .into_iter()
            .chain(payload.to_le_bytes())
        {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The fixed schedule: 240 payloads, one every 700 µs (faster than a
/// round trip, so many frames are in flight at once), every 16th send
/// a burst of four at the same instant, a pump after every third send,
/// then pumping activity by activity until nothing is pending.
/// Returns the delivery fingerprint and the number of deliveries.
fn drive(channel: &mut BoundaryChannel<u64>) -> (u64, u64) {
    let mut fnv = Fnv::new();
    let mut count = 0u64;
    let mut pump = |channel: &mut BoundaryChannel<u64>, now: SimTime| {
        for (at, payload) in channel.deliver_due(now) {
            fnv.add(at, payload);
            count += 1;
        }
    };
    let mut payload = 0u64;
    for i in 0..240u64 {
        let now = SimTime::ZERO + SimDuration::from_micros(700 * i);
        let burst = if i % 16 == 0 { 4 } else { 1 };
        for _ in 0..burst {
            channel.send(now, payload);
            payload += 1;
        }
        if i % 3 == 2 {
            pump(channel, now);
        }
    }
    assert_eq!(payload, PAYLOADS);
    let mut guard = 0;
    while let Some(t) = channel.next_delivery() {
        pump(channel, t);
        guard += 1;
        assert!(guard < 100_000, "channel failed to quiesce");
    }
    assert_eq!(channel.in_flight(), 0);
    (fnv.0, count)
}

fn bare(seed: u64) -> BoundaryChannel<u64> {
    BoundaryChannel::Delay(
        DelayChannel::new(BASE_DELAY)
            .with_jitter(JITTER, seed)
            .with_loss(LOSS),
    )
}

fn reliable(seed: u64) -> BoundaryChannel<u64> {
    BoundaryChannel::Reliable(Box::new(ReliableChannel::symmetric(
        BASE_DELAY, JITTER, LOSS, seed,
    )))
}

/// The reliable protocol without backoff jitter: frames sent in one
/// burst keep equal retransmission deadlines, so a single pump step
/// retransmits several of them and the wire's draws follow the order
/// in which the pump visits them.
fn reliable_lockstep(seed: u64) -> BoundaryChannel<u64> {
    let wire = DelayChannel::new(BASE_DELAY)
        .with_jitter(JITTER, seed.wrapping_add(0x51))
        .with_loss(LOSS);
    let acks = DelayChannel::new(BASE_DELAY)
        .with_jitter(JITTER, seed.wrapping_add(0x52))
        .with_loss(LOSS);
    let config = ReliableConfig {
        initial_rto: SimDuration::from_millis(10),
        max_rto: SimDuration::from_millis(160),
        backoff_jitter: 0.0,
        reorder_capacity: 32,
    };
    BoundaryChannel::Reliable(Box::new(ReliableChannel::with_config(
        wire,
        acks,
        seed.wrapping_add(0x53),
        config,
    )))
}

/// Final counters of a run: `(sent, delivered, lost)` and, for the
/// reliable protocol, its wire-level stats.
type Counters = ((u64, u64, u64), Option<ReliableStats>);

fn run(mut channel: BoundaryChannel<u64>) -> (u64, u64, Counters) {
    let (fnv, count) = drive(&mut channel);
    assert_eq!(count, channel.delivered());
    let counters = (
        (channel.sent(), channel.delivered(), channel.lost()),
        channel.reliable_stats().copied(),
    );
    (fnv, count, counters)
}

/// The full protocol stats of a quiesced run, from the wire-level
/// counters `[transmissions, retransmits, wire_lost, duplicates,
/// reorder_dropped, acks_sent, acks_lost]`.
fn stats(
    [transmissions, retransmits, wire_lost, duplicates, reorder_dropped, acks_sent, acks_lost]: [u64; 7],
) -> ReliableStats {
    ReliableStats {
        accepted: PAYLOADS,
        delivered: PAYLOADS,
        transmissions,
        retransmits,
        wire_lost,
        duplicates,
        reorder_dropped,
        acks_sent,
        acks_lost,
    }
}

/// Checks a reliable case against its golden `(fingerprint, counters)`
/// per seed: every payload delivered, none lost.
fn check_reliable(build: fn(u64) -> BoundaryChannel<u64>, golden: [(u64, [u64; 7]); 3]) {
    for (seed, (fnv, counters)) in SEEDS.into_iter().zip(golden) {
        let expected = (
            fnv,
            PAYLOADS,
            ((PAYLOADS, PAYLOADS, 0), Some(stats(counters))),
        );
        assert_eq!(run(build(seed)), expected, "seed {seed}");
    }
}

#[test]
fn bare_channel_stream_is_pinned() {
    let golden = [
        (0x9318_ac59_6c5d_bb70, 270, 15),
        (0x02e9_230c_bb76_c6fd, 250, 35),
        (0x424c_dc82_5e35_4421, 264, 21),
    ];
    for (seed, (fnv, delivered, lost)) in SEEDS.into_iter().zip(golden) {
        let expected = (fnv, delivered, ((PAYLOADS, delivered, lost), None));
        assert_eq!(run(bare(seed)), expected, "seed {seed}");
    }
}

#[test]
fn reliable_channel_stream_is_pinned() {
    check_reliable(
        reliable,
        [
            (
                0x919a_70ec_e6a7_8717,
                [1412, 1127, 146, 179, 802, 1266, 133],
            ),
            (0xa1b1_4f97_fab5_d981, [575, 290, 59, 191, 40, 516, 48]),
            (
                0x8108_1eca_777f_f5df,
                [1289, 1004, 126, 171, 707, 1163, 119],
            ),
        ],
    );
}

#[test]
fn lockstep_retransmissions_are_pinned() {
    check_reliable(
        reliable_lockstep,
        [
            (0x5fb6_1815_b71c_e85c, [492, 207, 52, 155, 0, 440, 44]),
            (0xccd5_e87f_aa23_7517, [544, 259, 54, 166, 39, 490, 48]),
            (0x0434_633d_9dc1_6719, [1225, 940, 122, 183, 635, 1103, 112]),
        ],
    );
}
