//! E14 — spectrum diagnosis at scale (paper Sect. 4.4, pushed past the
//! paper's figures).
//!
//! The paper's diagnosis experiment instruments 60 000 basic blocks and
//! localizes a teletext fault from a 27-key-press scenario. Real firmware
//! keeps growing; this experiment asks whether the streaming columnar
//! engine ([`CountsMatrix`] + sharded [`score_top_k`]) holds up when the
//! block count scales past the paper by two orders of magnitude. For each
//! grid cell (block count × shard count) it folds a 27-step synthetic
//! scenario — region-shaped coverage, a planted fault region hit exactly
//! on failing steps — and measures accumulation and top-k scoring time.
//!
//! At the smallest size the sharded result is cross-checked against the
//! dense [`SpectrumMatrix`] oracle: the top-k
//! window must match the full sort byte for byte.
//!
//! Speedup columns compare against the 1-shard cell of the same size; on
//! a single-core host every cell is expectedly ~1.0× and the report
//! records [`E14Report::hardware_threads`] so readers (and CI) can judge
//! the scaling claim against the hardware that produced it.

use crate::report::{f2, render_table};
use serde::{Deserialize, Serialize};
use spectra::{score_top_k, Coefficient, CountsMatrix, SpectrumMatrix};
use std::fmt;
use std::ops::Range;
use std::time::Instant;

/// Grid configuration for the scaling sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct E14Config {
    /// Block counts to sweep (the paper's 60 000 is the floor).
    pub sizes: Vec<u32>,
    /// Shard counts to sweep per size.
    pub shard_counts: Vec<usize>,
    /// Scenario steps (the paper's 27 key presses).
    pub steps: usize,
    /// Retained suspect-window size.
    pub top_k: usize,
    /// Scoring repetitions per cell (the minimum is reported).
    pub reps: usize,
}

impl E14Config {
    /// The full sweep: 60 k → 4 M blocks, 1 → 8 shards.
    pub fn full() -> Self {
        E14Config {
            sizes: vec![60_000, 250_000, 1_000_000, 4_000_000],
            shard_counts: vec![1, 2, 4, 8],
            steps: 27,
            top_k: 100,
            reps: 3,
        }
    }

    /// A CI-sized sweep: the paper size and one large size, 1 and 4
    /// shards.
    pub fn quick() -> Self {
        E14Config {
            sizes: vec![60_000, 1_000_000],
            shard_counts: vec![1, 4],
            steps: 27,
            top_k: 100,
            reps: 2,
        }
    }
}

/// One measured grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E14Cell {
    /// Instrumented blocks.
    pub n_blocks: u32,
    /// Scoring shards.
    pub shards: usize,
    /// Wall-clock ms to fold all steps into the columnar counters
    /// (shard-independent; measured once per size).
    pub accumulate_ms: f64,
    /// Wall-clock ms for one sharded top-k scoring pass (min over reps).
    pub score_ms: f64,
    /// `score_ms` of the 1-shard cell of the same size divided by this
    /// cell's `score_ms`.
    pub speedup_vs_one_shard: f64,
    /// 1-based rank of the planted fault block in the suspect window.
    pub fault_rank: Option<usize>,
}

/// E14 report: the measured grid plus environment facts needed to read
/// the speedup column honestly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E14Report {
    /// Measured cells, in sweep order.
    pub cells: Vec<E14Cell>,
    /// Scenario steps per cell.
    pub steps: usize,
    /// Suspect-window size.
    pub top_k: usize,
    /// Hardware threads available to the sweep (speedup beyond 1.0×
    /// requires more than one).
    pub hardware_threads: usize,
    /// Whether the sharded window matched the dense oracle's full sort
    /// at the smallest size.
    pub oracle_agrees: bool,
}

impl fmt::Display for E14Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E14 diagnosis at scale: {} steps, top-{}, {} hardware thread(s), oracle {}:",
            self.steps,
            self.top_k,
            self.hardware_threads,
            if self.oracle_agrees {
                "agrees"
            } else {
                "DISAGREES"
            }
        )?;
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.n_blocks.to_string(),
                    c.shards.to_string(),
                    f2(c.accumulate_ms),
                    f2(c.score_ms),
                    f2(c.speedup_vs_one_shard) + "x",
                    c.fault_rank.map_or_else(|| "-".into(), |r| r.to_string()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "blocks",
                    "shards",
                    "accumulate (ms)",
                    "score (ms)",
                    "speedup",
                    "fault rank"
                ],
                &rows
            )
        )
    }
}

/// Background coverage slots per scenario: the block range is carved into
/// this many equal regions; each step lights up a deterministic subset.
const SLOTS: u32 = 320;
/// Background regions hit per step (~10% coverage density).
const REGIONS_PER_STEP: u32 = 64;

/// The planted fault block for an `n`-block sweep. It lives in the last
/// slot, which the background pattern never touches, so it correlates
/// perfectly with the failing steps — the scaled analogue of the paper's
/// rank-1 teletext fault.
pub fn fault_block(n_blocks: u32) -> u32 {
    (SLOTS - 1) * (n_blocks / SLOTS) + 37
}

/// True when step `s` fails (every third step, like a data-dependent
/// fault striking a recurring page).
fn step_fails(s: usize) -> bool {
    s % 3 == 2
}

/// The sparse ranges step `s` hits. Background regions occupy distinct
/// slots in `0..SLOTS-1`; the fault region rides only failing steps.
fn step_ranges(n_blocks: u32, s: usize) -> Vec<Range<u32>> {
    let width = n_blocks / SLOTS;
    let len = width / 2;
    let mut ranges: Vec<Range<u32>> = (0..REGIONS_PER_STEP)
        .map(|i| {
            // 89 is coprime with SLOTS-1 = 319, so the 64 slots of one
            // step are distinct and the ranges never overlap.
            let slot = ((s as u32).wrapping_mul(31) + i * 89) % (SLOTS - 1);
            let start = slot * width;
            start..start + len
        })
        .collect();
    if step_fails(s) {
        let fault = fault_block(n_blocks);
        ranges.push(fault..fault + 4);
    }
    ranges
}

/// Folds the synthetic scenario into a columnar matrix.
fn accumulate(n_blocks: u32, steps: usize) -> CountsMatrix {
    let mut m = CountsMatrix::new(n_blocks);
    for s in 0..steps {
        m.add_step_ranges(&step_ranges(n_blocks, s), step_fails(s));
    }
    m
}

/// Cross-checks the sharded window against the dense oracle's full sort.
fn oracle_check(n_blocks: u32, steps: usize, top_k: usize, shards: usize) -> bool {
    let mut dense = SpectrumMatrix::new(n_blocks);
    for s in 0..steps {
        let ids = step_ranges(n_blocks, s).into_iter().flatten();
        dense.add_step(ids, step_fails(s));
    }
    let columnar = accumulate(n_blocks, steps);
    let sharded = score_top_k(&columnar, Coefficient::Ochiai, top_k, shards);
    sharded.entries() == dense.rank(Coefficient::Ochiai).top(top_k)
}

/// Runs the sweep.
pub fn run(config: &E14Config) -> E14Report {
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut cells = Vec::new();
    for &n_blocks in &config.sizes {
        let t0 = Instant::now();
        let matrix = accumulate(n_blocks, config.steps);
        let accumulate_ms = t0.elapsed().as_secs_f64() * 1_000.0;

        let mut one_shard_ms = None;
        for &shards in &config.shard_counts {
            let mut best_ms = f64::INFINITY;
            let mut window = None;
            for _ in 0..config.reps.max(1) {
                let t = Instant::now();
                let top = score_top_k(&matrix, Coefficient::Ochiai, config.top_k, shards);
                best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1_000.0);
                window = Some(top);
            }
            if shards == 1 {
                one_shard_ms = Some(best_ms);
            }
            let baseline = one_shard_ms.unwrap_or(best_ms);
            cells.push(E14Cell {
                n_blocks,
                shards,
                accumulate_ms,
                score_ms: best_ms,
                speedup_vs_one_shard: baseline / best_ms,
                fault_rank: window.and_then(|w| w.position_of(fault_block(n_blocks))),
            });
        }
    }
    let smallest = config.sizes.iter().copied().min().unwrap_or(60_000);
    let max_shards = config.shard_counts.iter().copied().max().unwrap_or(1);
    E14Report {
        cells,
        steps: config.steps,
        top_k: config.top_k,
        hardware_threads,
        oracle_agrees: oracle_check(smallest, config.steps, config.top_k, max_shards),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> E14Config {
        E14Config {
            sizes: vec![60_000],
            shard_counts: vec![1, 2],
            steps: 27,
            top_k: 50,
            reps: 1,
        }
    }

    #[test]
    fn fault_ranks_first_in_every_cell() {
        let report = run(&tiny());
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            assert_eq!(cell.fault_rank, Some(1), "{report}");
            assert!(cell.score_ms >= 0.0);
        }
        assert!(report.oracle_agrees, "{report}");
    }

    #[test]
    fn one_shard_cell_is_its_own_baseline() {
        let report = run(&tiny());
        let one = report.cells.iter().find(|c| c.shards == 1).unwrap();
        assert!((one.speedup_vs_one_shard - 1.0).abs() < 1e-12);
    }

    #[test]
    fn background_never_touches_fault_slot() {
        let n = 60_000;
        let fault = fault_block(n);
        for s in 0..27 {
            let hit = step_ranges(n, s).iter().any(|r| r.contains(&fault));
            assert_eq!(hit, step_fails(s), "step {s}");
        }
    }

    #[test]
    fn step_ranges_are_disjoint() {
        let n = 60_000;
        for s in 0..27 {
            let mut ranges = step_ranges(n, s);
            ranges.sort_by_key(|r| r.start);
            for pair in ranges.windows(2) {
                assert!(pair[0].end <= pair[1].start, "step {s}: {pair:?}");
            }
        }
    }

    #[test]
    fn display_renders_grid() {
        let report = run(&tiny());
        let text = report.to_string();
        assert!(text.contains("blocks"));
        assert!(text.contains("60000"));
        assert!(text.contains("fault rank"));
    }
}
