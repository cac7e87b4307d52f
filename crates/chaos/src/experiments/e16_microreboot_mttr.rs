//! E16 — micro-reboot MTTR vs whole-system restart (paper Sect. 4.5).
//!
//! The paper's partial-recovery claim, measured as a repair-time
//! distribution: when the awareness loop pins an error on one pipeline
//! unit, restoring that unit from a crash-consistent checkpoint and
//! replaying its journal must converge *much* faster than the classic
//! remedy of bouncing the whole TV — and it must not punish the user at
//! the remote control for faults in components they are not using.
//!
//! Each seed-derived [`CampaignSpec`] runs the closed loop twice over
//! the same scenario, fault plan and boundary disturbance — the spec's
//! supervision and stress legs are left out, so only SUO unit recovery
//! is measured (supervision's own micro-reboot rung is measured by the
//! awareness tests):
//!
//! * **full-restart arm** — every detection-triggered recovery rolls
//!   all units back to their latest checkpoints and takes the whole TV
//!   down for the restart outage;
//! * **micro-reboot arm** — only the indicted unit is restored, its
//!   post-checkpoint presses are replayed from the journal, and the
//!   rest of the TV keeps serving key presses.
//!
//! MTTR is virtual time from detection to recovery convergence,
//! averaged over episodes. The headline claim: on campaigns whose fault
//! plan hits a **single** unit, the micro-reboot MTTR is at least
//! [`MTTR_IMPROVEMENT_FLOOR`]× better, with **zero** presses lost on
//! unaffected units across every micro-reboot arm.

use simkit::SimDuration;
use std::collections::BTreeSet;
use std::fmt;
use trader::report::{f2, render_table};
use trader::{LoopOutcome, TvDependabilityLoop, UnitRecoveryStyle};
use tvsim::Unit;

use crate::campaign::CampaignSpec;

/// The required MTTR ratio (full-restart mean over micro-reboot mean)
/// on single-unit campaigns.
pub const MTTR_IMPROVEMENT_FLOOR: f64 = 2.0;

/// Whether every fault in the campaign's plan lands on the same
/// pipeline unit.
fn single_unit(spec: &CampaignSpec) -> bool {
    let units: BTreeSet<Unit> = spec.faults.iter().map(|plan| plan.fault.unit()).collect();
    units.len() == 1
}

/// One recovery arm's relevant numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E16Arm {
    /// Mean detection→convergence time over reboot episodes.
    pub mttr: Option<SimDuration>,
    /// Micro-reboot episodes.
    pub micro_reboots: u64,
    /// Full-restart episodes.
    pub full_restarts: u64,
    /// Presses lost to reboot outages.
    pub lost_presses: u64,
    /// Presses lost on units other than the faulty one.
    pub lost_presses_unaffected: u64,
    /// User-visible failure steps.
    pub failure_steps: usize,
}

impl E16Arm {
    fn from_outcome(outcome: &LoopOutcome) -> Self {
        E16Arm {
            mttr: outcome.reboot_mttr,
            micro_reboots: outcome.micro_reboots,
            full_restarts: outcome.full_restarts,
            lost_presses: outcome.lost_presses,
            lost_presses_unaffected: outcome.lost_presses_unaffected,
            failure_steps: outcome.failure_steps,
        }
    }

    /// Total reboot episodes in this arm.
    pub fn episodes(&self) -> u64 {
        self.micro_reboots + self.full_restarts
    }
}

/// Both arms of one campaign.
#[derive(Debug, Clone)]
pub struct E16Result {
    /// The campaign seed.
    pub seed: u64,
    /// Whether the fault plan hits a single unit.
    pub single_unit: bool,
    /// The full-restart arm.
    pub full: E16Arm,
    /// The micro-reboot arm.
    pub micro: E16Arm,
}

impl E16Result {
    /// Full-restart MTTR over micro-reboot MTTR, when both arms had
    /// episodes.
    pub fn mttr_ratio(&self) -> Option<f64> {
        match (self.full.mttr, self.micro.mttr) {
            (Some(full), Some(micro)) if micro > SimDuration::ZERO => {
                Some(full.as_nanos() as f64 / micro.as_nanos() as f64)
            }
            _ => None,
        }
    }
}

/// The E16 report over a campaign set.
#[derive(Debug, Clone)]
pub struct E16Report {
    /// Per-campaign results, in input order.
    pub results: Vec<E16Result>,
    /// Campaigns whose fault plan hits a single unit.
    pub single_unit_campaigns: usize,
    /// Single-unit campaigns where both arms ran at least one episode
    /// (the population the MTTR claim is judged on).
    pub compared_campaigns: usize,
    /// Worst (smallest) MTTR ratio over the compared campaigns.
    pub min_mttr_ratio: Option<f64>,
    /// Mean full-restart MTTR over the compared campaigns.
    pub mean_mttr_full: Option<SimDuration>,
    /// Mean micro-reboot MTTR over the compared campaigns.
    pub mean_mttr_micro: Option<SimDuration>,
    /// Presses lost on unaffected units, summed over every
    /// micro-reboot arm (all campaigns, not just single-unit).
    pub micro_lost_unaffected_total: u64,
    /// The headline verdict: at least one compared campaign, every
    /// compared ratio ≥ [`MTTR_IMPROVEMENT_FLOOR`], and zero unaffected
    /// losses under micro-reboot.
    pub mttr_improvement_ok: bool,
}

impl fmt::Display for E16Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E16 micro-reboot MTTR: {} campaign(s), {} single-unit, {} compared:",
            self.results.len(),
            self.single_unit_campaigns,
            self.compared_campaigns
        )?;
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            .map(|r| {
                let fmt_mttr =
                    |mttr: Option<SimDuration>| mttr.map_or("-".to_owned(), |m| m.to_string());
                vec![
                    r.seed.to_string(),
                    if r.single_unit { "yes" } else { "no" }.to_owned(),
                    fmt_mttr(r.full.mttr),
                    fmt_mttr(r.micro.mttr),
                    r.mttr_ratio().map_or("-".to_owned(), |x| f2(x) + "x"),
                    r.micro.lost_presses_unaffected.to_string(),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                &[
                    "seed",
                    "single-unit",
                    "full mttr",
                    "micro mttr",
                    "ratio",
                    "micro lost-unaffected",
                ],
                &rows
            )
        )?;
        write!(
            f,
            "min ratio {} (floor {MTTR_IMPROVEMENT_FLOOR}x) | micro unaffected losses {} | verdict: {}",
            self.min_mttr_ratio.map_or("-".to_owned(), f2),
            self.micro_lost_unaffected_total,
            if self.mttr_improvement_ok {
                "improvement holds"
            } else {
                "IMPROVEMENT NOT SHOWN"
            }
        )
    }
}

/// Runs one campaign arm with the given recovery style: the spec's
/// fault plan and boundary disturbance, without supervision or the
/// stress leg.
fn run_arm(spec: &CampaignSpec, recovery: UnitRecoveryStyle) -> LoopOutcome {
    let mut looped = TvDependabilityLoop::closed(spec.seed);
    CampaignSpec {
        supervised: false,
        ..spec.clone()
    }
    .configure(&mut looped);
    looped.unit_recovery(recovery);
    looped.run(&spec.scenario())
}

/// Runs E16 over `campaigns` — the regression list
/// (`CampaignSpec::from_seed` over seeds 0..24) or any generated fleet
/// population (`chaos::fleet::fleet_specs`).
pub fn run(campaigns: &[CampaignSpec]) -> E16Report {
    let results: Vec<E16Result> = campaigns
        .iter()
        .map(|spec| E16Result {
            seed: spec.seed,
            single_unit: single_unit(spec),
            full: E16Arm::from_outcome(&run_arm(spec, UnitRecoveryStyle::FullRestart)),
            micro: E16Arm::from_outcome(&run_arm(spec, UnitRecoveryStyle::MicroReboot)),
        })
        .collect();

    let single_unit_campaigns = results.iter().filter(|r| r.single_unit).count();
    let compared: Vec<&E16Result> = results
        .iter()
        .filter(|r| r.single_unit && r.full.episodes() > 0 && r.micro.episodes() > 0)
        .collect();
    let min_mttr_ratio = compared
        .iter()
        .filter_map(|r| r.mttr_ratio())
        .min_by(|a, b| a.total_cmp(b));
    let mean_over = |pick: fn(&E16Result) -> Option<SimDuration>| {
        let samples: Vec<u64> = compared
            .iter()
            .filter_map(|r| pick(r).map(SimDuration::as_nanos))
            .collect();
        (!samples.is_empty())
            .then(|| SimDuration::from_nanos(samples.iter().sum::<u64>() / samples.len() as u64))
    };
    let micro_lost_unaffected_total = results
        .iter()
        .map(|r| r.micro.lost_presses_unaffected)
        .sum();
    let mttr_improvement_ok = !compared.is_empty()
        && min_mttr_ratio.is_some_and(|ratio| ratio >= MTTR_IMPROVEMENT_FLOOR)
        && micro_lost_unaffected_total == 0;

    E16Report {
        compared_campaigns: compared.len(),
        single_unit_campaigns,
        min_mttr_ratio,
        mean_mttr_full: mean_over(|r| r.full.mttr),
        mean_mttr_micro: mean_over(|r| r.micro.mttr),
        micro_lost_unaffected_total,
        mttr_improvement_ok,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::FaultPlan;
    use faults::Schedule;
    use simkit::SimTime;
    use tvsim::TvFault;

    fn audio_campaign(seed: u64) -> CampaignSpec {
        CampaignSpec {
            seed,
            scenario_len: 30,
            faults: vec![FaultPlan {
                fault: TvFault::MuteInversion,
                schedule: Schedule::Between {
                    from: SimTime::from_millis(1650),
                    to: SimTime::from_millis(1750),
                },
            }],
            output_delay: SimDuration::from_micros(500),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            reliable: false,
            ..CampaignSpec::from_seed(seed)
        }
    }

    fn mixed_campaign(seed: u64) -> CampaignSpec {
        let mut campaign = audio_campaign(seed);
        campaign.faults.push(FaultPlan {
            fault: TvFault::TeletextSyncLoss,
            schedule: Schedule::Between {
                from: SimTime::from_millis(250),
                to: SimTime::from_millis(350),
            },
        });
        campaign
    }

    #[test]
    fn single_unit_detection_follows_fault_units() {
        assert!(single_unit(&audio_campaign(1)));
        assert!(!single_unit(&mixed_campaign(1)));
    }

    #[test]
    fn micro_reboot_beats_full_restart_on_a_single_unit_fault() {
        let report = run(&[audio_campaign(5)]);
        assert_eq!(report.single_unit_campaigns, 1);
        assert_eq!(report.compared_campaigns, 1, "{report}");
        assert!(report.mttr_improvement_ok, "{report}");
        let ratio = report.min_mttr_ratio.expect("compared campaign");
        assert!(ratio >= MTTR_IMPROVEMENT_FLOOR, "{report}");
        assert_eq!(report.micro_lost_unaffected_total, 0, "{report}");
    }

    #[test]
    fn display_renders_the_verdict_table() {
        let report = run(&[audio_campaign(5), mixed_campaign(6)]);
        let text = report.to_string();
        assert!(text.contains("single-unit"), "{text}");
        assert!(text.contains("micro mttr"), "{text}");
        assert!(text.contains("verdict"), "{text}");
    }
}
