//! `campaign-fleet`: the 256-campaign regression fleet, run repeatedly
//! on the work-stealing executor.

use std::time::Instant;

use chaos::fleet::{fleet_specs, run_fleet, FleetOutcome, FLEET_SEED_BASE, FLEET_SIZE};
use chaos::{check_invariants, CampaignOutcome, CampaignSpec};
use trader::telemetry::Telemetry;
use trader::TvDependabilityLoop;

use crate::phase::{self, Calibration, Sample};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;

/// The committed fingerprint of the regression fleet (seed base
/// `FLEET_SEED_BASE`).
const REGRESSION_FINGERPRINT: u64 = 0x519d_c41c_8707_8e72;

/// Flight-recorder capacity `chaos::fleet` gives each campaign.
const RECORDER_CAPACITY: usize = 256;

/// The fleet's first campaign seed: the regression fleet at seed 0,
/// otherwise a disjoint block of 256 seeds per benchmark seed.
pub fn fleet_base(seed: u64) -> u64 {
    if seed == 0 {
        FLEET_SEED_BASE
    } else {
        10_000u64.wrapping_add(256u64.wrapping_mul(seed))
    }
}

fn presses(fleet: &FleetOutcome) -> u64 {
    fleet
        .results
        .iter()
        .map(|r| (r.outcome.closed.steps + r.outcome.open.steps) as u64)
        .sum()
}

fn check_fleet(report: &mut Report, fleet: Option<&FleetOutcome>, want: u64) {
    let Some(fleet) = fleet else {
        report.check(false, || "fleet panicked".into());
        return;
    };
    let fingerprint = fleet.fingerprint();
    let failures = fleet.failures().count();
    report.check(fingerprint == want && failures == 0, || {
        format!("fleet fingerprint {fingerprint:016x} (want {want:016x}), {failures} invariant failures")
    });
}

pub fn campaign_fleet(args: &Args, report: &mut Report) {
    let workers = args.workers;
    let base = fleet_base(args.seed);
    if !args.trace {
        phase::setup(report, args.calibration(), || {
            run_fleet(&fleet_specs(base, FLEET_SIZE), workers);
        });
    }
    let specs = fleet_specs(base, FLEET_SIZE);
    let warm = run_fleet(&specs, workers);
    // Every fleet must match the committed fingerprint; a seed without
    // one is held to the warm-up fleet here and to the sequential
    // (1-worker) oracle at the end.
    let want = if args.seed == 0 {
        REGRESSION_FINGERPRINT
    } else {
        warm.fingerprint()
    };
    check_fleet(report, Some(&warm), want);
    let fleet_presses = presses(&warm);

    if args.trace {
        traced(args, report, &specs, &warm, want);
    } else {
        measured(args, report, &specs, fleet_presses, want);
    }
    if args.seed != 0 {
        let oracle = run_fleet(&specs, 1).fingerprint();
        report.check(oracle == want, || {
            format!("fleet fingerprint {want:016x} != 1-worker oracle {oracle:016x}")
        });
    }
}

fn measured(
    args: &Args,
    report: &mut Report,
    specs: &[CampaignSpec],
    fleet_presses: u64,
    want: u64,
) {
    let workers = args.workers;
    let samples = phase::measured(args.seconds, args.calibration(), |_| {
        let (fleet, wall, allocs) = phase::measure(|| run_fleet(specs, workers));
        check_fleet(report, fleet.as_ref(), want);
        Sample::new(wall, fleet_presses, allocs)
    });
    phase::record_costs(report, &samples);
    let rate: Vec<f64> = samples
        .iter()
        .map(|s| specs.len() as f64 / s.seconds())
        .collect();
    report.set("campaigns_per_s", "1/s", median(&rate), rate.len());
}

/// One campaign as `chaos::fleet` runs it, with a span around each arm
/// and the stress leg.
fn traced_campaign(spec: &CampaignSpec, tracer: &mut Tracer) -> CampaignOutcome {
    tracer.next_trace();
    tracer.enter("chaos.campaign");
    let scenario = spec.scenario();
    let telemetry = Telemetry::recording(RECORDER_CAPACITY);
    let closed = tracer.span("chaos.campaign.closed", || {
        let mut looped = TvDependabilityLoop::closed(spec.seed);
        spec.configure(&mut looped);
        looped.set_telemetry(telemetry.clone());
        looped.run(&scenario)
    });
    let open = tracer.span("chaos.campaign.open", || {
        let mut looped = TvDependabilityLoop::open(spec.seed);
        spec.configure(&mut looped);
        looped.run(&scenario)
    });
    let stress = tracer.span("simkit.stress", || spec.stress.run());
    let outcome = CampaignOutcome {
        spec: spec.clone(),
        closed,
        open,
        stress,
    };
    let _ = check_invariants(&outcome);
    let _ = telemetry.snapshot_metrics();
    tracer.exit();
    outcome
}

/// Traced fleets: two untraced parallel fleets for the executor's wall
/// time, then two sequential fleets timed campaign by campaign, each
/// campaign checked against the parallel fleet's. Campaign times are
/// scaled to the reference host; the efficiency ratio compares runs
/// made moments apart and stays unscaled.
fn traced(
    args: &Args,
    report: &mut Report,
    specs: &[CampaignSpec],
    warm: &FleetOutcome,
    want: u64,
) {
    let parallel: Vec<f64> = (0..2)
        .map(|_| {
            let start = Instant::now();
            let fleet = run_fleet(specs, args.workers);
            let wall = start.elapsed().as_secs_f64();
            check_fleet(report, Some(&fleet), want);
            wall
        })
        .collect();
    let mut tracer = Tracer::with_capacity(8 * specs.len());
    let scale = Calibration::Fixed(1).median_scale();
    for _ in 0..2 {
        let mut same = true;
        for (spec, result) in specs.iter().zip(&warm.results) {
            let outcome = traced_campaign(spec, &mut tracer);
            same &= outcome.fingerprint() == result.outcome.fingerprint();
        }
        report.check(same, || {
            "traced campaigns differ from the fleet's outcomes".into()
        });
    }
    let campaigns = 2 * specs.len();
    let layers = crate::trace::layers(tracer.spans());
    let mean_ms = |name: &str| {
        layers.get(name).map_or(0, |l| l.self_ns) as f64 / 1e6 / campaigns as f64 * scale
    };
    report.set(
        "chaos.campaign.closed_ms",
        "ms",
        mean_ms("chaos.campaign.closed"),
        campaigns,
    );
    report.set(
        "chaos.campaign.open_ms",
        "ms",
        mean_ms("chaos.campaign.open"),
        campaigns,
    );
    report.set(
        "simkit.stress_ms",
        "ms",
        mean_ms("simkit.stress"),
        campaigns,
    );
    let sequential_s = crate::trace::root_ns(tracer.spans()) as f64 / 2e9;
    report.set(
        "chaos.exec.efficiency",
        "ratio",
        sequential_s / (median(&parallel) * args.workers as f64),
        parallel.len(),
    );
    crate::record_trace_totals(report, tracer.spans());
    crate::write_trace(report, tracer.spans());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_base_is_deterministic_and_disjoint_per_seed() {
        assert_eq!(fleet_base(0), FLEET_SEED_BASE);
        assert_eq!(fleet_base(1), 10_256);
        assert_eq!(fleet_base(2) - fleet_base(1), FLEET_SIZE as u64);
        let a: Vec<u64> = fleet_specs(fleet_base(3), 4)
            .iter()
            .map(|s| s.seed)
            .collect();
        let b: Vec<u64> = fleet_specs(fleet_base(3), 4)
            .iter()
            .map(|s| s.seed)
            .collect();
        assert_eq!(a, b);
    }
}
