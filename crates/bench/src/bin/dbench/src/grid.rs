//! `scorecard-grid`: the full probed 120-cell scorecard, run
//! repeatedly on the work-stealing executor.

use std::collections::BTreeMap;
use std::time::Instant;

use chaos::scatter_map;
use chaos::scorecard::{CellOutcome, CellSpec, DependabilityScorecard, ScorecardConfig};
use trader::simkit::SimRng;

use crate::phase::{self, Calibration, Sample};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::Args;

/// The committed E19 matrix fingerprint of the probed full grid.
const E19_FINGERPRINT: u64 = 0xfda8_8d12_9270_4757;

/// The grid in submission order, and each position's canonical index.
///
/// The seed permutes the order cells are handed to the executor (seed
/// 0 keeps the canonical order). It never changes the cells themselves:
/// a seed-dependent scenario length would change how much work a grid
/// is and make seeds incomparable, while the order changes only how
/// the work-stealing workers share it. Every seed therefore has to
/// reproduce the committed matrix fingerprint.
pub fn grid_inputs(seed: u64) -> (Vec<CellSpec>, Vec<usize>) {
    let canonical = full_grid(true);
    let mut order: Vec<usize> = (0..canonical.len()).collect();
    if seed != 0 {
        SimRng::seed(seed ^ 0x4752_4944).shuffle(&mut order);
    }
    let cells = order.iter().map(|&i| canonical[i].clone()).collect();
    (cells, order)
}

fn full_grid(probes: bool) -> Vec<CellSpec> {
    ScorecardConfig {
        probes,
        ..ScorecardConfig::full()
    }
    .grid()
}

/// Puts outcomes produced in submission order back in canonical order.
fn canonical(
    outcomes: Vec<CellOutcome>,
    order: &[usize],
    workers: usize,
) -> DependabilityScorecard {
    let mut slots: Vec<Option<CellOutcome>> = vec![None; outcomes.len()];
    for (outcome, &index) in outcomes.into_iter().zip(order) {
        slots[index] = Some(outcome);
    }
    DependabilityScorecard {
        cells: slots
            .into_iter()
            .map(|c| c.expect("the order is a permutation"))
            .collect(),
        workers,
    }
}

/// Presses the loop runs for one grid (faulty reps and twins).
fn presses(scorecard: &DependabilityScorecard) -> u64 {
    scorecard
        .cells
        .iter()
        .map(|c| ((c.reps.len() + 1) * c.spec.scenario_len) as u64)
        .sum()
}

fn check_grid(report: &mut Report, scorecard: Option<&DependabilityScorecard>) {
    let Some(scorecard) = scorecard else {
        report.check(false, || "grid panicked".into());
        return;
    };
    let fingerprint = scorecard.fingerprint();
    let alarms = scorecard.twin_false_alarms();
    report.check(fingerprint == E19_FINGERPRINT && alarms == 0, || {
        format!("grid fingerprint {fingerprint:016x} (want {E19_FINGERPRINT:016x}), {alarms} twin false alarms")
    });
}

pub fn scorecard_grid(args: &Args, report: &mut Report) {
    let workers = args.workers;
    let run = |cells: &[CellSpec]| scatter_map(cells, workers, CellSpec::run);
    if !args.trace {
        phase::setup(report, args.calibration(), || {
            let (cells, _) = grid_inputs(args.seed);
            run(&cells);
        });
    }
    let (cells, order) = grid_inputs(args.seed);
    let warm = canonical(run(&cells), &order, workers);
    check_grid(report, Some(&warm));
    report.set(
        "detection_coverage",
        "ratio",
        warm.covered_cells() as f64 / warm.cells.len() as f64,
        warm.cells.len(),
    );
    let grid_presses = presses(&warm);

    if args.trace {
        traced(args, report, &cells, &order);
        return;
    }
    let samples = phase::measured(args.seconds, args.calibration(), |_| {
        let (outcomes, wall, allocs) = phase::measure(|| run(&cells));
        let scorecard = outcomes.map(|o| canonical(o, &order, workers));
        check_grid(report, scorecard.as_ref());
        Sample::new(wall, grid_presses, allocs)
    });
    phase::record_costs(report, &samples);
    let grid_s: Vec<f64> = samples.iter().map(Sample::seconds).collect();
    report.set("grid_s_p50", "s", median(&grid_s), grid_s.len());
}

/// Traced grids: two untraced parallel grids for the executor's wall
/// time, two sequential probed grids timed cell by cell, and one
/// sequential unprobed grid for the probes' share. Cell times are
/// scaled to the reference host; the two ratios compare runs made
/// moments apart and stay unscaled.
fn traced(args: &Args, report: &mut Report, cells: &[CellSpec], order: &[usize]) {
    let workers = args.workers;
    let parallel: Vec<f64> = (0..2)
        .map(|_| {
            let start = Instant::now();
            let outcomes = scatter_map(cells, workers, CellSpec::run);
            let wall = start.elapsed().as_secs_f64();
            check_grid(report, Some(&canonical(outcomes, order, workers)));
            wall
        })
        .collect();

    let mut tracer = Tracer::with_capacity(4 * cells.len());
    let mut by_coordinate: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    let scale = Calibration::Fixed(1).median_scale();
    for _ in 0..2 {
        let mut outcomes = Vec::with_capacity(cells.len());
        for cell in cells {
            tracer.next_trace();
            outcomes.push(tracer.span("chaos.cell", || cell.run()));
            let span = tracer.spans().last().expect("span just recorded");
            let ms = (span.end_ns - span.start_ns) as f64 / 1e6 * scale;
            for coordinate in [cell.recovery.name(), cell.scenario.name()] {
                let entry = by_coordinate.entry(coordinate).or_default();
                entry.0 += ms;
                entry.1 += 1;
            }
        }
        check_grid(report, Some(&canonical(outcomes, order, 1)));
    }
    for (coordinate, (ms, n)) in &by_coordinate {
        report.set(
            &format!("chaos.cell_ms.{coordinate}"),
            "ms",
            ms / *n as f64,
            *n,
        );
    }
    let probed_s = trace::root_ns(tracer.spans()) as f64 / 2e9;
    let start = Instant::now();
    for cell in full_grid(false) {
        cell.run();
    }
    let unprobed_s = start.elapsed().as_secs_f64();
    report.set(
        "awareness.probes.grid_frac",
        "ratio",
        (probed_s - unprobed_s) / probed_s,
        1,
    );
    report.set(
        "chaos.exec.efficiency",
        "ratio",
        probed_s / (median(&parallel) * workers as f64),
        parallel.len(),
    );
    crate::record_trace_totals(report, tracer.spans());
    crate::write_trace(report, tracer.spans());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_order_is_a_seeded_permutation() {
        let (cells0, order0) = grid_inputs(0);
        assert_eq!(order0, (0..120).collect::<Vec<_>>());
        assert_eq!(cells0, full_grid(true));
        for seed in [1, 2, 77] {
            let (a, order_a) = grid_inputs(seed);
            let (b, order_b) = grid_inputs(seed);
            assert_eq!((a, &order_a), (b, &order_b), "deterministic per seed");
            let mut sorted = order_a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, order0, "a permutation");
            assert_ne!(order_a, order0);
        }
    }
}
