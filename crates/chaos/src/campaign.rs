//! Seed-derived campaign construction and execution.

use awareness::SupervisorConfig;
use faults::Schedule;
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng, SimTime};
use telemetry::Telemetry;
use trader::{LoopOutcome, TimedScenario, TvDependabilityLoop};
use tvsim::TvFault;

use crate::stress::{StressOutcome, StressPlan};
use crate::Fnv;

/// The faults a campaign may draw from. All are realistic integration
/// defects of the TV case studies; the pool deliberately mixes faults
/// the correction strategy can repair (sync loss, mute inversion) with
/// faults it can only detect (channel skip, stuck volume).
const FAULT_POOL: [TvFault; 5] = [
    TvFault::TeletextSyncLoss,
    TvFault::MuteInversion,
    TvFault::StuckVolume,
    TvFault::ChannelSkip,
    TvFault::TeletextRenderFault,
];

/// One scheduled fault in a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The injected fault.
    pub fault: TvFault,
    /// When it is active.
    pub schedule: Schedule,
}

/// A complete campaign, derived from a single seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// The generating seed (also seeds the loop's channels).
    pub seed: u64,
    /// Presses in the teletext scenario (one every 100 ms).
    pub scenario_len: usize,
    /// The multi-fault injection plan (always at least two faults).
    pub faults: Vec<FaultPlan>,
    /// SUO→monitor output channel base delay.
    pub output_delay: SimDuration,
    /// Uniform jitter on both boundary channels.
    pub jitter: SimDuration,
    /// Per-message loss probability on the boundary channels.
    pub loss: f64,
    /// Whether the monitor runs the ack/retransmit reliable protocol.
    /// Always true when `loss > 0`: a lossy boundary without recovery
    /// is the degraded configuration the protocol exists to replace.
    pub reliable: bool,
    /// Whether monitor self-supervision is enabled.
    pub supervised: bool,
    /// The resource stress leg.
    pub stress: StressPlan,
}

impl CampaignSpec {
    /// Derives a campaign from `seed`. Identical seeds yield identical
    /// campaigns; distinct seeds vary every dimension.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SimRng::seed(seed ^ 0xC0A5_C0DE_D00D_F00D);
        let scenario_len = (24 + rng.uniform_u64(0, 16)) as usize;
        let horizon = SimTime::from_millis(100 * (scenario_len as u64 + 1));

        let n_faults = 2 + rng.uniform_u64(0, 2);
        let mut faults = Vec::with_capacity(n_faults as usize);
        for _ in 0..n_faults {
            let fault = *rng.pick(&FAULT_POOL).expect("pool is non-empty");
            let schedule = match rng.uniform_u64(0, 2) {
                0 => {
                    let len = SimDuration::from_millis(200 + rng.uniform_u64(0, 400));
                    Schedule::random_window(horizon, len, &mut rng)
                }
                1 => {
                    let period = SimDuration::from_millis(300 + rng.uniform_u64(0, 500));
                    let duty = period.mul_f64(rng.uniform_f64(0.25, 0.55));
                    Schedule::Periodic { period, duty }
                }
                _ => {
                    let quarter = horizon.as_nanos() / 4;
                    let at = rng.uniform_u64(quarter, 3 * quarter);
                    Schedule::From {
                        at: SimTime::from_nanos(at),
                    }
                }
            };
            faults.push(FaultPlan { fault, schedule });
        }

        let loss = if rng.chance(0.6) {
            rng.uniform_f64(0.05, 0.25)
        } else {
            0.0
        };
        let jitter = SimDuration::from_micros(rng.uniform_u64(0, 3000));
        let output_delay = SimDuration::from_micros(500 + rng.uniform_u64(0, 1500));
        let reliable = loss > 0.0 || rng.chance(0.5);
        let supervised = rng.chance(0.5);
        let stress = StressPlan::from_rng(&mut rng);

        CampaignSpec {
            seed,
            scenario_len,
            faults,
            output_delay,
            jitter,
            loss,
            reliable,
            supervised,
            stress,
        }
    }

    /// The user scenario both arms replay.
    pub fn scenario(&self) -> TimedScenario {
        TimedScenario::teletext_session(self.scenario_len)
    }

    /// The campaign's time horizon: one press gap past the last press.
    /// Fault schedules are drawn inside this window, and detection must
    /// land inside it too.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_millis(100 * (self.scenario_len as u64 + 1))
    }

    /// Applies the campaign's fault plan and boundary disturbance to a
    /// loop (open or closed — the open arm ignores the channel knobs).
    pub fn configure(&self, looped: &mut TvDependabilityLoop) {
        for plan in &self.faults {
            looped.schedule_fault(plan.schedule.clone(), plan.fault);
        }
        looped.set_output_delay(self.output_delay);
        looped.set_jitter(self.jitter);
        looped.set_channel_loss(self.loss);
        looped.use_reliable(self.reliable);
        if self.supervised {
            // Supervised campaigns climb the full ladder: the
            // micro-reboot rung sits between the channel-restart and
            // monitor-restart rungs.
            looped.supervised(SupervisorConfig::default());
        }
    }

    /// Runs the closed loop, its open-loop twin, and the stress leg.
    pub fn run(&self) -> CampaignOutcome {
        self.run_with(&Telemetry::off())
    }

    /// [`run`](Self::run) with a telemetry handle attached to the
    /// closed arm (the open twin stays dark — it is the baseline the
    /// paper's open-loop products represent, and instrumenting it would
    /// skew the comparison). With a recording handle the campaign's
    /// fault edges, detections, repairs, channel incidents, and
    /// supervisor transitions all land in the flight recorder, ready
    /// for a forensic dump if an invariant trips
    /// ([`crate::forensics`]).
    pub fn run_with(&self, telemetry: &Telemetry) -> CampaignOutcome {
        let scenario = self.scenario();

        let mut closed = TvDependabilityLoop::closed(self.seed);
        self.configure(&mut closed);
        closed.set_telemetry(telemetry.clone());
        let closed = closed.run(&scenario);

        let mut open = TvDependabilityLoop::open(self.seed);
        self.configure(&mut open);
        let open = open.run(&scenario);

        CampaignOutcome {
            spec: self.clone(),
            closed,
            open,
            stress: self.stress.run(),
        }
    }
}

/// Everything one campaign run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// The campaign that ran.
    pub spec: CampaignSpec,
    /// The closed-loop arm.
    pub closed: LoopOutcome,
    /// The open-loop twin (same faults, same scenario, no monitor).
    pub open: LoopOutcome,
    /// The resource stress leg.
    pub stress: StressOutcome,
}

impl CampaignOutcome {
    /// A 64-bit digest of the outcome (FNV-1a over every numeric
    /// field). Two runs of the same seed must produce equal
    /// fingerprints — the bit-identical-replay contract.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.mix(self.spec.seed);
        h.mix(self.spec.scenario_len as u64);
        h.mix(self.spec.faults.len() as u64);
        h.mix(self.spec.output_delay.as_nanos());
        h.mix(self.spec.jitter.as_nanos());
        h.mix(self.spec.loss.to_bits());
        h.mix(u64::from(self.spec.reliable));
        h.mix(u64::from(self.spec.supervised));
        for outcome in [&self.closed, &self.open] {
            h.mix(outcome.steps as u64);
            h.mix(outcome.failure_steps as u64);
            h.mix(outcome.detected_errors as u64);
            h.mix(outcome.recoveries as u64);
            h.mix(outcome.detection_latency.map_or(u64::MAX, |l| l.as_nanos()));
            h.mix(outcome.fault_activations as u64);
            h.mix(outcome.safe_mode_entries);
            h.mix(outcome.lost_presses);
            h.mix(outcome.lost_presses_unaffected);
            h.mix(outcome.micro_reboots);
            h.mix(outcome.full_restarts);
            h.mix(outcome.reboot_mttr.map_or(u64::MAX, |m| m.as_nanos()));
            h.mix(u64::from(outcome.ladder_rung));
            h.mix(outcome.checkpoint_generations.len() as u64);
            for (_, generation) in &outcome.checkpoint_generations {
                h.mix(*generation);
            }
            if let Some(audit) = outcome.channels {
                h.mix(audit.sent);
                h.mix(audit.delivered);
                h.mix(audit.lost);
                h.mix(audit.in_flight);
            }
        }
        h.mix(self.stress.cpu_jobs_released as u64);
        h.mix(self.stress.cpu_completed);
        h.mix(self.stress.cpu_deadline_misses);
        h.mix(self.stress.cpu_utilization.to_bits());
        h.mix(self.stress.bus_nominal.as_nanos());
        h.mix(self.stress.bus_stressed.as_nanos());
        h.mix(self.stress.hog_victim_latency.as_nanos());
        h.mix(self.stress.deadlock_cycle_len as u64);
        h.finish()
    }
}
