//! The chaos-campaign battery: 24 seeded multi-fault campaigns, each
//! driving the full closed loop (and its open-loop twin) through a
//! seed-derived fault plan, boundary disturbance, and stress leg, then
//! auditing the invariants. Every test prints its seed and outcome
//! fingerprint: reproducing a failure is `chaos::run_campaign(seed)`.

use chaos::{assert_invariants, run_campaign, CampaignSpec};
use simkit::SimDuration;
use trader::awareness::SupervisorConfig;
use trader::{TimedScenario, TvDependabilityLoop};

fn run_and_audit(seed: u64) {
    let outcome = run_campaign(seed);
    println!(
        "campaign seed {seed}: fingerprint {:#018x}, {} faults, loss {:.2}, \
         closed {}/{} failures vs open {}/{}",
        outcome.fingerprint(),
        outcome.spec.faults.len(),
        outcome.spec.loss,
        outcome.closed.failure_steps,
        outcome.closed.steps,
        outcome.open.failure_steps,
        outcome.open.steps,
    );
    assert_invariants(&outcome);
}

macro_rules! campaign {
    ($($name:ident => $seed:expr),+ $(,)?) => {
        $(#[test]
        fn $name() {
            run_and_audit($seed);
        })+
    };
}

campaign! {
    campaign_seed_00 => 0,
    campaign_seed_01 => 1,
    campaign_seed_02 => 2,
    campaign_seed_03 => 3,
    campaign_seed_04 => 4,
    campaign_seed_05 => 5,
    campaign_seed_06 => 6,
    campaign_seed_07 => 7,
    campaign_seed_08 => 8,
    campaign_seed_09 => 9,
    campaign_seed_10 => 10,
    campaign_seed_11 => 11,
    campaign_seed_12 => 12,
    campaign_seed_13 => 13,
    campaign_seed_14 => 14,
    campaign_seed_15 => 15,
    campaign_seed_16 => 16,
    campaign_seed_17 => 17,
    campaign_seed_18 => 18,
    campaign_seed_19 => 19,
    campaign_seed_20 => 20,
    campaign_seed_21 => 21,
    campaign_seed_22 => 22,
    campaign_seed_23 => 23,
}

/// The replay contract: the printed seed is a complete reproduction —
/// same seed, same campaign, bit-identical outcome.
#[test]
fn replay_is_bit_identical() {
    for seed in [0u64, 5, 12, 17, 23] {
        let first = run_campaign(seed);
        let second = run_campaign(seed);
        assert_eq!(
            first.fingerprint(),
            second.fingerprint(),
            "seed {seed} did not replay bit-identically"
        );
        assert_eq!(first.closed, second.closed, "seed {seed}");
        assert_eq!(first.open, second.open, "seed {seed}");
        assert_eq!(first.stress, second.stress, "seed {seed}");
    }
}

/// Seeds genuinely vary the campaign: the battery is 24 *distinct*
/// experiments, not one experiment 24 times.
#[test]
fn distinct_seeds_produce_distinct_campaigns() {
    let fingerprints: std::collections::BTreeSet<u64> = (0..24)
        .map(|seed| run_campaign(seed).fingerprint())
        .collect();
    assert_eq!(fingerprints.len(), 24, "fingerprint collision across seeds");
    let multi_fault = (0..24)
        .map(CampaignSpec::from_seed)
        .filter(|spec| spec.faults.len() >= 2)
        .count();
    assert_eq!(multi_fault, 24, "every campaign must be multi-fault");
}

/// Dormant faults aside, detection is prompt: across the battery, at
/// least half of the detecting campaigns catch the first error within
/// one second of first activation.
#[test]
fn detection_is_prompt_in_aggregate() {
    let latencies: Vec<SimDuration> = (0..24)
        .filter_map(|seed| run_campaign(seed).closed.detection_latency)
        .collect();
    assert!(
        latencies.len() >= 12,
        "too few campaigns detected anything: {}",
        latencies.len()
    );
    let prompt = latencies
        .iter()
        .filter(|l| **l <= SimDuration::from_millis(1000))
        .count();
    assert!(
        prompt * 2 >= latencies.len(),
        "detection mostly slow: {prompt}/{} within 1 s",
        latencies.len()
    );
}

/// The acceptance test for the reliable protocol: on a lossy boundary
/// with **no injected faults**, every comparator error is a false alarm
/// caused by the boundary itself. The reliable channel must strictly
/// beat the bare channel, and both counts are asserted so a regression
/// in either direction (protocol broken, or loss no longer biting) is
/// caught.
#[test]
fn reliable_channel_beats_bare_channel_on_false_errors() {
    let scenario = TimedScenario::teletext_session(40);
    let run = |reliable: bool| {
        let mut looped = TvDependabilityLoop::closed(11);
        looped.set_channel_loss(0.25);
        looped.set_jitter(SimDuration::from_millis(2));
        looped.use_reliable(reliable);
        looped.run(&scenario)
    };
    let bare = run(false);
    let reliable = run(true);
    println!(
        "false errors under 25% loss: bare={} reliable={}",
        bare.detected_errors, reliable.detected_errors
    );
    assert!(
        bare.detected_errors >= 3,
        "bare channel no longer suffers under loss: {bare:?}"
    );
    assert!(
        reliable.detected_errors < bare.detected_errors,
        "reliable ({}) not strictly better than bare ({})",
        reliable.detected_errors,
        bare.detected_errors
    );
    // The protocol converts loss into latency, never abandonment.
    let audit = reliable.channels.expect("closed loop audits channels");
    assert_eq!(audit.lost, 0, "{audit:?}");
    assert!(audit.conserved(), "{audit:?}");
    let bare_audit = bare.channels.expect("closed loop audits channels");
    assert!(bare_audit.lost > 0, "loss never bit: {bare_audit:?}");
    assert!(bare_audit.conserved(), "{bare_audit:?}");
}

/// A starved supervised monitor inside the full loop climbs the
/// escalation ladder and lands in safe mode instead of wedging: the
/// watchdog sees heartbeat gaps longer than `stall_after` (the 100 ms
/// press spacing) at every assessment.
#[test]
fn starved_supervision_escalates_to_safe_mode_in_the_loop() {
    let mut looped = TvDependabilityLoop::closed(7);
    looped.supervised(SupervisorConfig {
        stall_after: SimDuration::from_millis(50),
        ..SupervisorConfig::default()
    });
    let outcome = looped.run(&TimedScenario::teletext_session(30));
    assert!(
        outcome.safe_mode_entries >= 1,
        "ladder never reached safe mode: {outcome:?}"
    );
    // Safe mode is a degraded-but-alive state: the loop still ran to
    // completion and the channels still account for every message.
    assert_eq!(outcome.steps, 30);
    let audit = outcome.channels.expect("closed loop audits channels");
    assert!(audit.conserved(), "{audit:?}");
}

/// The standing fleet regression: 256 seed-derived campaigns (seeds
/// 1000..1256, disjoint from the 24 hand-audited seeds above) run
/// through the parallel fleet executor at every regression worker
/// count. The fleet fingerprint must be byte-identical across worker
/// counts — the population-scale form of the bit-identical-replay
/// contract — and every campaign must pass the full invariant audit.
#[test]
fn fleet_of_256_campaigns_is_worker_count_invariant_and_clean() {
    let specs = chaos::regression_fleet();
    assert_eq!(specs.len(), 256);
    let sequential = chaos::run_fleet(&specs, 1);
    sequential.assert_clean();
    let fingerprint = sequential.fingerprint();
    println!(
        "fleet fingerprint {:016x} over {} campaigns",
        fingerprint,
        specs.len()
    );
    assert_eq!(
        fingerprint, 0x519d_c41c_8707_8e72,
        "committed fleet fingerprint"
    );
    for workers in [2usize, 4, 8] {
        let fleet = chaos::run_fleet(&specs, workers);
        assert_eq!(
            fleet.fingerprint(),
            fingerprint,
            "fleet diverged at {workers} workers"
        );
        fleet.assert_clean();
    }
    // The merged metrics view is part of the contract too.
    assert_eq!(
        sequential.merged_metrics().to_json().render(),
        chaos::run_fleet(&specs, 4)
            .merged_metrics()
            .to_json()
            .render()
    );
}
