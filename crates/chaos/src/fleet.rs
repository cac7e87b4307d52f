//! Deterministic parallel execution of campaign populations.
//!
//! The 24-campaign regression runs each seed strictly in sequence; the
//! paper's industry-as-laboratory argument wants *populations* — run as
//! many fault scenarios as the hardware allows without surrendering the
//! bit-identical-replay contract. This module is the executor for that:
//! [`run_fleet`] spreads an arbitrary slice of [`CampaignSpec`]s over N
//! self-scheduling workers (scoped `std::thread`, no runtime
//! dependency — the same pattern as `spectra::score_top_k`), with every
//! campaign fully isolated:
//!
//! * its RNG streams derive from its own seed (nothing is shared),
//! * it runs with its **own** recording [`Telemetry`] handle, created
//!   inside the worker thread (the handle is deliberately not `Send`),
//! * its invariants are audited on the worker, while that telemetry is
//!   still in scope, so a violation yields a full [`ForensicReport`].
//!
//! The scheduling machinery itself lives in [`crate::exec`]: workers
//! pull the next unstarted campaign index from a shared atomic counter
//! — cheap work stealing that keeps all cores busy however uneven the
//! campaign lengths are — and results are scattered back into their
//! canonical slots by index. Everything the caller sees (outcome order,
//! merged metrics, the fleet fingerprint) is therefore **byte-identical
//! for every worker count**, including `workers == 1`, which is the
//! sequential oracle the property tests compare against.

use telemetry::{MetricsRegistry, Telemetry};

use crate::campaign::{CampaignOutcome, CampaignSpec};
use crate::exec::{effective_workers, scatter_map};
use crate::forensics::ForensicReport;
use crate::invariants::check_invariants;
use crate::Fnv;

/// Flight-recorder capacity for each campaign's private telemetry. Large
/// enough that a forensic dump shows the lead-up to a violation; small
/// enough that a 256-campaign fleet stays cheap.
const FLEET_RECORDER_CAPACITY: usize = 256;

/// The regression fleet's seed range starts here: far from the 24
/// hand-audited regression seeds (0..24) so the fleet is new evidence,
/// not a re-run.
pub const FLEET_SEED_BASE: u64 = 1_000;

/// The regression fleet population.
pub const FLEET_SIZE: usize = 256;

/// The seeds of an `n`-campaign fleet starting at `base`.
pub fn fleet_seeds(base: u64, n: usize) -> impl Iterator<Item = u64> {
    (0..n as u64).map(move |i| base + i)
}

/// Derives the specs of an `n`-campaign fleet starting at seed `base`.
pub fn fleet_specs(base: u64, n: usize) -> Vec<CampaignSpec> {
    fleet_seeds(base, n).map(CampaignSpec::from_seed).collect()
}

/// One campaign's result inside a fleet: the outcome, the metrics its
/// private telemetry accumulated, and the invariant audit.
#[derive(Debug, Clone)]
pub struct FleetCampaignResult {
    /// The campaign outcome (spec, both arms, stress leg).
    pub outcome: CampaignOutcome,
    /// Snapshot of the campaign's private metrics registry.
    pub metrics: MetricsRegistry,
    /// Forensic report, present iff the invariant audit found
    /// violations (`report.violations` lists them).
    pub forensics: Option<Box<ForensicReport>>,
}

/// Everything a fleet run produced, in canonical (input) order.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-campaign results, index-aligned with the input specs.
    pub results: Vec<FleetCampaignResult>,
    /// The worker count that executed the fleet (after clamping to the
    /// population size).
    pub workers: usize,
}

impl FleetOutcome {
    /// A 64-bit digest of the whole fleet: FNV-1a over the population
    /// size and every campaign fingerprint, in canonical order. Equal
    /// across worker counts by construction; equal across runs by the
    /// campaign replay contract.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.mix(self.results.len() as u64);
        for result in &self.results {
            h.mix(result.outcome.fingerprint());
        }
        h.finish()
    }

    /// All campaign metrics registries merged in canonical order.
    /// Worker-count-invariant: each campaign's registry is derived from
    /// its seed alone, and the merge always folds index 0, 1, 2, ….
    pub fn merged_metrics(&self) -> MetricsRegistry {
        MetricsRegistry::merge_all(self.results.iter().map(|r| &r.metrics))
    }

    /// The campaigns whose invariant audit failed.
    pub fn failures(&self) -> impl Iterator<Item = &FleetCampaignResult> {
        self.results.iter().filter(|r| r.forensics.is_some())
    }

    /// Panics with every failing campaign's forensic rendering if any
    /// invariant tripped anywhere in the fleet.
    pub fn assert_clean(&self) {
        let rendered: Vec<String> = self
            .failures()
            .map(|r| {
                r.forensics
                    .as_ref()
                    .expect("failures() yields only forensic results")
                    .render()
            })
            .collect();
        assert!(
            rendered.is_empty(),
            "fleet: {} campaign(s) violated invariants\n{}",
            rendered.len(),
            rendered.join("\n")
        );
    }
}

/// Runs one campaign in isolation: private telemetry, full invariant
/// audit, forensic capture on violation.
fn run_one(spec: &CampaignSpec) -> FleetCampaignResult {
    let telemetry = Telemetry::recording(FLEET_RECORDER_CAPACITY);
    let outcome = spec.run_with(&telemetry);
    let violations = check_invariants(&outcome);
    let forensics = (!violations.is_empty())
        .then(|| Box::new(ForensicReport::capture(&outcome, &telemetry, violations)));
    FleetCampaignResult {
        metrics: telemetry.snapshot_metrics(),
        outcome,
        forensics,
    }
}

/// Runs every campaign in `specs` across `workers` threads and returns
/// the results in canonical input order.
///
/// `workers` is clamped to the population size (an empty fleet spawns
/// no threads); `workers <= 1` runs inline on the caller's thread. The
/// returned [`FleetOutcome`] — outcomes, fingerprint, merged metrics —
/// is byte-identical for every worker count.
///
/// # Panics
///
/// Panics if a worker thread panics (a campaign run itself never
/// should — "no panic" is campaign invariant 1).
pub fn run_fleet(specs: &[CampaignSpec], workers: usize) -> FleetOutcome {
    FleetOutcome {
        results: scatter_map(specs, workers, run_one),
        workers: effective_workers(specs.len(), workers),
    }
}

/// The standing regression fleet: [`FLEET_SIZE`] seed-derived campaigns
/// starting at [`FLEET_SEED_BASE`].
pub fn regression_fleet() -> Vec<CampaignSpec> {
    fleet_specs(FLEET_SEED_BASE, FLEET_SIZE)
}

/// Runs the E17 throughput sweep over a seed-derived fleet starting at
/// [`FLEET_SEED_BASE`] — the chaos wiring for the chaos-agnostic
/// `trader` harness, which only needs a fingerprint per pass.
pub fn e17_report(
    config: &trader::experiments::e17_fleet_throughput::E17Config,
) -> trader::experiments::e17_fleet_throughput::E17Report {
    let specs = fleet_specs(FLEET_SEED_BASE, config.population);
    trader::experiments::e17_fleet_throughput::run(config, |workers| {
        run_fleet(&specs, workers).fingerprint()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_fleet_is_a_fixed_point() {
        let outcome = run_fleet(&[], 8);
        assert_eq!(outcome.results.len(), 0);
        assert_eq!(outcome.workers, 1);
        assert_eq!(outcome.fingerprint(), run_fleet(&[], 1).fingerprint());
        outcome.assert_clean();
    }

    #[test]
    fn single_campaign_fleet_matches_direct_run() {
        let specs = fleet_specs(7, 1);
        let outcome = run_fleet(&specs, 4);
        assert_eq!(outcome.workers, 1, "clamped to the population");
        assert_eq!(
            outcome.results[0].outcome.fingerprint(),
            specs[0].run().fingerprint()
        );
    }

    #[test]
    fn workers_do_not_change_the_fingerprint_or_metrics() {
        let specs = fleet_specs(40, 6);
        let sequential = run_fleet(&specs, 1);
        let parallel = run_fleet(&specs, 3);
        assert_eq!(sequential.fingerprint(), parallel.fingerprint());
        assert_eq!(
            sequential.merged_metrics().to_json().render(),
            parallel.merged_metrics().to_json().render()
        );
        sequential.assert_clean();
        parallel.assert_clean();
    }

    #[test]
    fn fleet_campaigns_audit_clean_and_carry_metrics() {
        let specs = fleet_specs(100, 3);
        let outcome = run_fleet(&specs, 2);
        outcome.assert_clean();
        for result in &outcome.results {
            assert!(
                !result.metrics.is_empty(),
                "seed {} recorded no metrics",
                result.outcome.spec.seed
            );
        }
    }
}
