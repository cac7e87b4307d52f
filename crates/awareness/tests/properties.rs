//! Property-based tests of the boundary channels' accounting
//! invariants: whatever the disturbance (delay, jitter, loss) and
//! whatever the traffic pattern, `sent == delivered + lost + in_flight`
//! holds at every instant, and the reliable protocol converts loss into
//! latency — exactly-once, in-order delivery with nothing abandoned.

use awareness::reliable::ReliableChannel;
use awareness::DelayChannel;
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};

proptest! {
    /// The bare channel conserves messages at every step, for any mix
    /// of delay, jitter, loss, traffic, drain instants, and resets.
    #[test]
    fn bare_channel_conserves_at_every_step(
        seed in 0u64..1000,
        delay_us in 100u64..5000,
        jitter_us in 0u64..3000,
        loss in 0.0f64..0.9,
        ops in prop::collection::vec((0u8..3, 1u64..50), 1..80)
    ) {
        let mut channel = DelayChannel::new(SimDuration::from_micros(delay_us))
            .with_jitter(SimDuration::from_micros(jitter_us), seed)
            .with_loss(loss);
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        let mut received = 0u64;
        for (op, gap_ms) in ops {
            now += SimDuration::from_millis(gap_ms);
            match op {
                0 => {
                    channel.send(now, sent);
                    sent += 1;
                }
                1 => received += channel.deliver_due(now).len() as u64,
                _ => channel.clear(),
            }
            prop_assert_eq!(
                channel.sent(),
                channel.delivered() + channel.lost() + channel.in_flight() as u64,
                "conservation broken mid-run"
            );
        }
        prop_assert_eq!(channel.sent(), sent);
        prop_assert_eq!(channel.delivered(), received);
        // Drain far past every possible delivery: nothing stays in
        // flight; what was not lost arrived.
        received += channel.deliver_due(now + SimDuration::from_secs(3600)).len() as u64;
        prop_assert_eq!(channel.in_flight(), 0);
        prop_assert_eq!(channel.delivered() + channel.lost(), sent);
        prop_assert_eq!(received, channel.delivered());
    }

    /// The reliable protocol never abandons a message: `lost` is
    /// structurally zero, conservation holds at every step, and once
    /// the line quiesces every accepted payload has been delivered
    /// exactly once, in order — even under heavy loss and jitter.
    #[test]
    fn reliable_channel_delivers_exactly_once_in_order(
        seed in 0u64..1000,
        delay_us in 100u64..3000,
        jitter_us in 0u64..2000,
        loss in 0.0f64..0.6,
        ops in prop::collection::vec((0u8..2, 1u64..20), 1..60)
    ) {
        let mut channel: ReliableChannel<u64> = ReliableChannel::symmetric(
            SimDuration::from_micros(delay_us),
            SimDuration::from_micros(jitter_us),
            loss,
            seed,
        );
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        let mut received: Vec<u64> = Vec::new();
        for (op, gap_ms) in ops {
            now += SimDuration::from_millis(gap_ms);
            if op == 0 {
                channel.send(now, sent);
                sent += 1;
            } else {
                received.extend(channel.deliver_due(now).into_iter().map(|(_, p)| p));
            }
            prop_assert_eq!(channel.lost(), 0u64, "reliable channel abandoned a message");
            prop_assert_eq!(
                channel.sent(),
                channel.delivered() + channel.in_flight() as u64,
                "conservation broken mid-run"
            );
        }
        // Pump until quiescent: with loss < 1 retransmission always
        // converges because every pending frame keeps a live timer.
        while let Some(at) = channel.next_activity() {
            now = now.max(at) + SimDuration::from_millis(1);
            received.extend(channel.deliver_due(now).into_iter().map(|(_, p)| p));
        }
        prop_assert_eq!(channel.in_flight(), 0, "protocol failed to converge");
        prop_assert_eq!(channel.delivered(), sent);
        let expected: Vec<u64> = (0..sent).collect();
        prop_assert_eq!(received, expected, "delivery not exactly-once in-order");
    }

    /// Retransmission makes delivery monotone in loss only through
    /// latency, never through the ledger: for the same traffic, a lossy
    /// reliable channel delivers the same payload set as a perfect one.
    #[test]
    fn loss_changes_latency_not_the_ledger(
        seed in 0u64..500,
        loss in 0.05f64..0.5,
        n in 1u64..40
    ) {
        let run = |p: f64| {
            let mut channel: ReliableChannel<u64> = ReliableChannel::symmetric(
                SimDuration::from_micros(500),
                SimDuration::from_micros(200),
                p,
                seed,
            );
            let mut now = SimTime::ZERO;
            for i in 0..n {
                now += SimDuration::from_millis(2);
                channel.send(now, i);
            }
            let mut got = Vec::new();
            while let Some(at) = channel.next_activity() {
                now = now.max(at) + SimDuration::from_millis(1);
                got.extend(channel.deliver_due(now).into_iter().map(|(_, p)| p));
            }
            (got, channel.stats().retransmits)
        };
        let (perfect, perfect_retx) = run(0.0);
        let (lossy, _) = run(loss);
        prop_assert_eq!(perfect_retx, 0u64, "lossless line must not retransmit");
        prop_assert_eq!(lossy, perfect, "loss changed the delivered set");
    }
}
