//! E17 — campaign-fleet throughput and determinism (ROADMAP north
//! star: "handle as many scenarios as you can imagine").
//!
//! The chaos regression validates the awareness loop against seed-
//! derived fault campaigns; how many such campaigns can we execute per
//! second, and does parallel execution preserve the bit-identical-
//! replay contract? This harness measures a *fleet executor* — any
//! function that runs a fixed campaign population across a given worker
//! count and returns the population's 64-bit fingerprint — at each
//! configured worker count:
//!
//! * **throughput** — campaigns per wall-clock second (min-of-reps
//!   timing, like E14), with the 1-worker pass as the sequential
//!   baseline for the speedup column;
//! * **determinism** — every pass's fingerprint must equal the
//!   sequential oracle's, for every worker count and every rep.
//!
//! The harness is deliberately chaos-agnostic (this crate cannot
//! depend on the chaos engine that depends on it): `chaos::fleet`
//! supplies the executor closure over real seed-derived campaigns, and
//! the unit tests here drive synthetic ones.
//!
//! Like E14, the report records [`E17Report::hardware_threads`]: on a
//! single-core host every speedup is expectedly ~1.0×, and the ≥2×
//! scaling claim is only judged on hardware that can express it —
//! never faked.

use crate::report::{f2, render_table};
use std::fmt;
use std::time::Instant;

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E17Config {
    /// Campaigns in the fleet.
    pub population: usize,
    /// Worker counts to sweep.
    pub worker_counts: Vec<usize>,
    /// Timed passes per worker count (the minimum is reported).
    pub reps: usize,
}

impl E17Config {
    /// The full sweep: the 256-campaign regression fleet at 1–8
    /// workers.
    pub fn full() -> Self {
        E17Config {
            population: 256,
            worker_counts: vec![1, 2, 4, 8],
            reps: 3,
        }
    }

    /// A CI-sized sweep.
    pub fn quick() -> Self {
        E17Config {
            population: 64,
            worker_counts: vec![1, 4],
            reps: 2,
        }
    }
}

/// One measured worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct E17Cell {
    /// Fleet workers.
    pub workers: usize,
    /// Wall-clock ms for one full fleet pass (min over reps).
    pub fleet_ms: f64,
    /// Population divided by the best pass time.
    pub campaigns_per_sec: f64,
    /// Sequential best time over this cell's best time.
    pub speedup_vs_sequential: f64,
    /// Whether every pass at this worker count fingerprinted equal to
    /// the sequential oracle.
    pub fingerprint_matches_sequential: bool,
}

/// The E17 report: measured cells plus the environment facts needed to
/// read the speedup column honestly.
#[derive(Debug, Clone, PartialEq)]
pub struct E17Report {
    /// Campaigns per fleet pass.
    pub population: usize,
    /// Timed passes per worker count.
    pub reps: usize,
    /// Measured cells, in sweep order.
    pub cells: Vec<E17Cell>,
    /// Hardware threads available to the sweep (speedup beyond 1.0×
    /// requires more than one).
    pub hardware_threads: usize,
    /// The sequential oracle's fleet fingerprint.
    pub fleet_fingerprint: u64,
    /// True iff every pass at every worker count reproduced the
    /// sequential fingerprint — the fleet analogue of the campaign
    /// bit-identical-replay invariant.
    pub fleet_deterministic: bool,
}

impl fmt::Display for E17Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E17 fleet throughput: {} campaigns, {} rep(s), {} hardware thread(s), \
             fingerprint {:016x}, {}:",
            self.population,
            self.reps,
            self.hardware_threads,
            self.fleet_fingerprint,
            if self.fleet_deterministic {
                "deterministic"
            } else {
                "NONDETERMINISTIC"
            }
        )?;
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.workers.to_string(),
                    f2(c.fleet_ms),
                    f2(c.campaigns_per_sec),
                    f2(c.speedup_vs_sequential) + "x",
                    if c.fingerprint_matches_sequential {
                        "match"
                    } else {
                        "MISMATCH"
                    }
                    .to_owned(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "workers",
                    "fleet (ms)",
                    "campaigns/s",
                    "speedup",
                    "fingerprint"
                ],
                &rows
            )
        )
    }
}

/// Runs the sweep over `fleet`, a function executing the whole campaign
/// population across the given worker count and returning the
/// population fingerprint (`chaos::fleet` wires this to
/// `run_fleet(&specs, workers).fingerprint()`).
///
/// The sequential pass (1 worker) always runs first as the oracle, even
/// when `worker_counts` does not list it; listed worker counts then
/// each get `reps` timed passes.
pub fn run<F>(config: &E17Config, mut fleet: F) -> E17Report
where
    F: FnMut(usize) -> u64,
{
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let reps = config.reps.max(1);

    let mut measure = |workers: usize, oracle: Option<u64>| -> (f64, u64, bool) {
        let mut best_ms = f64::INFINITY;
        let mut fingerprint = 0u64;
        let mut all_match = true;
        for rep in 0..reps {
            let t = Instant::now();
            let pass = fleet(workers);
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1_000.0);
            if rep == 0 {
                fingerprint = pass;
            }
            all_match &= pass == oracle.unwrap_or(fingerprint);
        }
        (best_ms, fingerprint, all_match)
    };

    let (sequential_ms, fleet_fingerprint, sequential_stable) = measure(1, None);
    let mut fleet_deterministic = sequential_stable;
    let cells: Vec<E17Cell> = config
        .worker_counts
        .iter()
        .map(|&workers| {
            let (fleet_ms, _, matches) = if workers == 1 {
                (sequential_ms, fleet_fingerprint, sequential_stable)
            } else {
                measure(workers, Some(fleet_fingerprint))
            };
            fleet_deterministic &= matches;
            E17Cell {
                workers,
                fleet_ms,
                campaigns_per_sec: config.population as f64 / (fleet_ms / 1_000.0),
                speedup_vs_sequential: sequential_ms / fleet_ms,
                fingerprint_matches_sequential: matches,
            }
        })
        .collect();

    E17Report {
        population: config.population,
        reps,
        cells,
        hardware_threads,
        fleet_fingerprint,
        fleet_deterministic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> E17Config {
        E17Config {
            population: 10,
            worker_counts: vec![1, 2],
            reps: 2,
        }
    }

    /// A deterministic synthetic fleet: a little spin so timings are
    /// non-zero, fingerprint independent of the worker count.
    fn synthetic_fleet(workers: usize) -> u64 {
        let _ = workers; // must NOT leak into the fingerprint
        let mut acc = 0u64;
        for i in 0..20_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        // Fold the spin result so the computation isn't optimized away.
        0xFEED_0000 | (acc & 1)
    }

    #[test]
    fn deterministic_fleet_reports_matching_fingerprints() {
        let report = run(&tiny(), synthetic_fleet);
        assert!(report.fleet_deterministic, "{report}");
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert!(cell.fingerprint_matches_sequential);
            assert!(cell.fleet_ms >= 0.0);
            assert!(cell.campaigns_per_sec > 0.0);
        }
        assert_eq!(report.fleet_fingerprint, synthetic_fleet(1));
    }

    #[test]
    fn worker_dependent_fingerprint_is_flagged() {
        let report = run(&tiny(), |workers| workers as u64);
        assert!(!report.fleet_deterministic, "{report}");
        let two = report.cells.iter().find(|c| c.workers == 2).unwrap();
        assert!(!two.fingerprint_matches_sequential);
        // The sequential cell still matches itself.
        let one = report.cells.iter().find(|c| c.workers == 1).unwrap();
        assert!(one.fingerprint_matches_sequential);
    }

    #[test]
    fn sequential_cell_is_its_own_baseline() {
        let report = run(&tiny(), synthetic_fleet);
        let one = report.cells.iter().find(|c| c.workers == 1).unwrap();
        assert!((one.speedup_vs_sequential - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_renders_the_sweep() {
        let report = run(&tiny(), synthetic_fleet);
        let text = report.to_string();
        assert!(text.contains("workers"), "{text}");
        assert!(text.contains("campaigns/s"), "{text}");
        assert!(text.contains("deterministic"), "{text}");
    }
}
