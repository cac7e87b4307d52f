//! Block-id allocation and the synthetic firmware bank.
//!
//! The paper's diagnosis experiment instruments the real TV's C code into
//! **60 000 basic blocks**; a 27-key-press teletext scenario executed
//! 13 796 of them. The hand-written feature logic of this crate amounts to
//! a few hundred blocks, so — as documented in DESIGN.md — the remaining
//! firmware (drivers, codecs, middleware) is represented by a
//! [`SyntheticCodeBank`]: a deterministic pseudo call-graph in which every
//! feature operation executes a characteristic set of block ids. Coverage
//! therefore correlates with functionality exactly as in real firmware,
//! which is the property spectrum-based diagnosis depends on. The
//! [`CoverageRecorder`] is the TV's instrumentation target: it logs bank
//! executions and fills their blocks in only when a snapshot reads them.

use observe::{BlockCoverage, BlockSnapshot, CoverageRuns};
use std::ops::Range;

/// Default total number of instrumented blocks (the paper's figure).
pub const N_BLOCKS: u32 = 60_000;

/// Block-id ranges for the hand-written feature logic.
///
/// Each feature module hits ids inside its range; the synthetic bank owns
/// everything from [`BlockMap::SYNTHETIC_BASE`] up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMap;

impl BlockMap {
    /// Volume feature blocks.
    pub const VOLUME: u32 = 40;
    /// Channel tuner blocks.
    pub const CHANNEL: u32 = 80;
    /// Teletext feature blocks.
    pub const TELETEXT: u32 = 140;
    /// Screen/OSD manager blocks.
    pub const SCREEN: u32 = 220;
    /// Sleep-timer blocks.
    pub const SLEEP: u32 = 330;
    /// Swivel blocks.
    pub const SWIVEL: u32 = 360;
    /// EPG blocks.
    pub const EPG: u32 = 390;
    /// First id owned by the synthetic bank.
    pub const SYNTHETIC_BASE: u32 = 1_000;
}

/// Operations whose firmware footprint the synthetic bank models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirmwareOp {
    /// Cold boot / power toggle path.
    Boot,
    /// Tuner retune.
    Tune,
    /// Audio path update (volume/mute).
    Audio,
    /// Teletext acquisition and decode.
    TeletextAcquire,
    /// Teletext page render.
    TeletextRender,
    /// Video scaling / dual-screen composition.
    Compose,
    /// Menu / OSD drawing.
    Osd,
    /// EPG database access.
    EpgQuery,
    /// Motor control (swivel).
    Motor,
    /// Per-key housekeeping executed on every input.
    Housekeeping,
}

impl FirmwareOp {
    /// All operations.
    pub const ALL: [FirmwareOp; 10] = [
        FirmwareOp::Boot,
        FirmwareOp::Tune,
        FirmwareOp::Audio,
        FirmwareOp::TeletextAcquire,
        FirmwareOp::TeletextRender,
        FirmwareOp::Compose,
        FirmwareOp::Osd,
        FirmwareOp::EpgQuery,
        FirmwareOp::Motor,
        FirmwareOp::Housekeeping,
    ];

    /// Blocks this operation executes per invocation.
    fn footprint(self) -> u32 {
        match self {
            FirmwareOp::Boot => 4_800,
            FirmwareOp::Tune => 2_700,
            FirmwareOp::Audio => 800,
            FirmwareOp::TeletextAcquire => 2_100,
            FirmwareOp::TeletextRender => 1_700,
            FirmwareOp::Compose => 2_500,
            FirmwareOp::Osd => 1_500,
            FirmwareOp::EpgQuery => 1_300,
            FirmwareOp::Motor => 300,
            FirmwareOp::Housekeeping => 650,
        }
    }

    /// Deterministic per-op region seed.
    const fn region(self) -> u32 {
        match self {
            FirmwareOp::Boot => 0,
            FirmwareOp::Tune => 1,
            FirmwareOp::Audio => 2,
            FirmwareOp::TeletextAcquire => 3,
            FirmwareOp::TeletextRender => 4,
            FirmwareOp::Compose => 5,
            FirmwareOp::Osd => 6,
            FirmwareOp::EpgQuery => 7,
            FirmwareOp::Motor => 8,
            FirmwareOp::Housekeeping => 9,
        }
    }
}

/// Deterministic synthetic firmware: maps operations to block-id sets.
///
/// Each operation owns a contiguous *core* region (blocks always executed)
/// plus a scattered *shared* tail (utility code shared between operations),
/// mimicking the overlap structure of real firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticCodeBank {
    n_blocks: u32,
}

impl SyntheticCodeBank {
    /// Creates a bank over `n_blocks` total instrumented blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is not greater than
    /// [`BlockMap::SYNTHETIC_BASE`] plus the largest footprint region.
    pub fn new(n_blocks: u32) -> Self {
        assert!(
            n_blocks >= BlockMap::SYNTHETIC_BASE + 52_000,
            "bank needs room for synthetic regions (got {n_blocks})"
        );
        SyntheticCodeBank { n_blocks }
    }

    /// Total instrumented blocks.
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// The core region of an operation: `[start, start+len)`.
    pub fn core_region(&self, op: FirmwareOp) -> (u32, u32) {
        // Carve disjoint 5000-block regions per op above SYNTHETIC_BASE.
        let start = BlockMap::SYNTHETIC_BASE + op.region() * 5_000;
        (start, op.footprint())
    }

    /// Number of data-conditional sub-regions per operation (one per
    /// low-order bit of the variant — branch-dependent basic blocks).
    pub const VARIANT_BITS: u32 = 10;

    /// First id of the shared utility tail, above every core region.
    const SHARED_BASE: u32 = BlockMap::SYNTHETIC_BASE + 50_000;

    /// The blocks one execution of `op` on `variant` covers, as the runs
    /// they come in: the core region's always-executed part and one
    /// slice per set variant bit (disjoint ranges, ascending), then the
    /// shared tail's draws (single blocks that may repeat). This is the
    /// one description of an op's footprint: [`Self::execute`] expands
    /// through it, and [`CoverageRecorder::take_runs`] takes its ranges
    /// and reads the same draws from [`SHARED_TAILS`].
    fn runs(
        &self,
        op: FirmwareOp,
        variant: u32,
    ) -> (impl Iterator<Item = Range<u32>>, impl Iterator<Item = u32>) {
        let (start, len) = self.core_region(op);
        // Core: always-executed part (~70%).
        let always = len * 7 / 10;
        // Conditional part: one slice per variant bit.
        let var_len = len - always;
        let slice = (var_len / Self::VARIANT_BITS).max(1);
        let variants = (0..Self::VARIANT_BITS)
            .filter(move |bit| variant & (1 << bit) != 0)
            .map(move |bit| {
                let lo = start + always + bit * slice;
                let hi = (lo + slice).min(start + len);
                lo..hi
            });
        // Shared utility tail: scattered high blocks common across ops.
        let shared_space = u64::from(self.n_blocks - Self::SHARED_BASE);
        let tail = (0..Self::TAIL_DRAWS).scan(Self::tail_seed(op), move |x, _| {
            *x = Self::tail_step(*x);
            Some(Self::tail_block(*x, shared_space))
        });
        (std::iter::once(start..start + always).chain(variants), tail)
    }

    /// Shared-tail draws per operation.
    const TAIL_DRAWS: usize = 120;

    /// The state the tail draws of `op` start from.
    const fn tail_seed(op: FirmwareOp) -> u64 {
        (op.region() as u64 + 1).wrapping_mul(0x9E37_79B9)
    }

    /// One step of the tail's generator (an LCG).
    const fn tail_step(x: u64) -> u64 {
        x.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    }

    /// The tail block a generator state draws among `shared_space`
    /// blocks from [`Self::SHARED_BASE`].
    const fn tail_block(x: u64, shared_space: u64) -> u32 {
        Self::SHARED_BASE + ((x >> 16) % shared_space) as u32
    }

    /// Executes `op` against the coverage recorder: hits its core region,
    /// the variant-bit-conditioned sub-regions (data-dependent branches),
    /// and a deterministic scatter of shared utility blocks.
    ///
    /// `variant` is the data the operation processes (e.g. the teletext
    /// page number): each set bit of `variant` below
    /// [`Self::VARIANT_BITS`] executes one conditional sub-region,
    /// mirroring how real basic blocks depend on input data. Higher bits
    /// select nothing. So any set of executions of one op covers exactly
    /// the blocks of one execution with the OR of their variants — the
    /// fold rule [`CoverageRecorder`] defers coverage by.
    pub fn execute(&self, cov: &mut BlockCoverage, op: FirmwareOp, variant: u32) {
        let (ranges, tail) = self.runs(op, variant);
        for range in ranges {
            for b in range {
                cov.hit(b);
            }
        }
        for b in tail {
            cov.hit(b);
        }
    }

    /// The variant bit whose conditional sub-region hosts the injected
    /// teletext render fault.
    pub const FAULT_BIT: u32 = 3;

    /// The designated faulty block inside the teletext render path — the
    /// block the E1 experiment injects its fault into. It sits in the
    /// conditional sub-region for variant bit [`Self::FAULT_BIT`], so it
    /// executes exactly when the rendered page number has that bit set.
    pub fn teletext_fault_block(&self) -> u32 {
        // The core range, then the fault bit's slice: its middle block.
        let (mut ranges, _) = self.runs(FirmwareOp::TeletextRender, 1 << Self::FAULT_BIT);
        let slice = ranges.nth(1).expect("a set variant bit has a slice");
        slice.start + slice.len() as u32 / 2
    }
}

impl Default for SyntheticCodeBank {
    fn default() -> Self {
        SyntheticCodeBank::new(N_BLOCKS)
    }
}

/// Each op's shared-tail draws in a bank of [`N_BLOCKS`] blocks, at
/// `op.region()`: the ids [`SyntheticCodeBank::runs`] draws, in draw
/// order. Evaluated at compile time, so no TV build or take draws them.
static SHARED_TAILS: [[u32; SyntheticCodeBank::TAIL_DRAWS]; FirmwareOp::ALL.len()] = shared_tails();

const fn shared_tails() -> [[u32; SyntheticCodeBank::TAIL_DRAWS]; FirmwareOp::ALL.len()] {
    let shared_space = (N_BLOCKS - SyntheticCodeBank::SHARED_BASE) as u64;
    let mut tails = [[0; SyntheticCodeBank::TAIL_DRAWS]; FirmwareOp::ALL.len()];
    let mut o = 0;
    while o < FirmwareOp::ALL.len() {
        let op = FirmwareOp::ALL[o];
        let mut x = SyntheticCodeBank::tail_seed(op);
        let mut draw = 0;
        while draw < SyntheticCodeBank::TAIL_DRAWS {
            x = SyntheticCodeBank::tail_step(x);
            tails[op.region() as usize][draw] = SyntheticCodeBank::tail_block(x, shared_space);
            draw += 1;
        }
        o += 1;
    }
    tails
}

/// The TV's block instrumentation target: the hand-written feature
/// blocks go straight into a [`BlockCoverage`], while each bank
/// execution is logged as one variant mask per [`FirmwareOp`] and
/// replayed into the bitset only when a snapshot is taken.
///
/// A bank execution touches hundreds to thousands of blocks, and many
/// intervals' coverage is never read (probe presses and repair bursts
/// are reset away, the open loop snapshots once at the end). By the
/// fold rule of [`SyntheticCodeBank::execute`], replaying each executed
/// op once with the OR of its variants yields exactly the bitset eager
/// execution would, so snapshots do not change; an execution costs two
/// OR operations and discarded coverage is never filled. The log has a
/// fixed size: recording never allocates.
///
/// ```
/// use tvsim::blocks::{CoverageRecorder, FirmwareOp, SyntheticCodeBank};
///
/// let mut rec = CoverageRecorder::default();
/// rec.exec(FirmwareOp::TeletextRender, 0);
/// rec.exec(FirmwareOp::TeletextRender, 1 << SyntheticCodeBank::FAULT_BIT);
/// let fault_block = rec.bank().teletext_fault_block();
/// assert!(rec.take().is_hit(fault_block));
/// assert_eq!(rec.take().count(), 0);
/// ```
#[derive(Debug)]
pub struct CoverageRecorder {
    bank: SyntheticCodeBank,
    cov: BlockCoverage,
    /// The shared-tail blocks [`Self::take_runs`] has listed, offset by
    /// the tail's first id; empty between takes. Built by the first
    /// take of runs, so a recorder that only snapshots never allocates
    /// it.
    tail_seen: Option<BlockCoverage>,
    /// Bit `op.region()` is set once `op` executed since the last take
    /// or reset.
    executed: u16,
    /// The OR of every variant `op` executed with, at `op.region()`.
    variants: [u32; FirmwareOp::ALL.len()],
}

impl Default for CoverageRecorder {
    /// A recorder over the default bank's [`N_BLOCKS`] blocks, the one
    /// size its shared-tail table is built for.
    fn default() -> Self {
        CoverageRecorder {
            bank: SyntheticCodeBank::default(),
            cov: BlockCoverage::new(N_BLOCKS),
            tail_seen: None,
            executed: 0,
            variants: [0; FirmwareOp::ALL.len()],
        }
    }
}

impl CoverageRecorder {
    /// The synthetic firmware bank.
    pub fn bank(&self) -> &SyntheticCodeBank {
        &self.bank
    }

    /// Records execution of a hand-written block.
    #[inline]
    pub fn hit(&mut self, block: u32) {
        self.cov.hit(block);
    }

    /// Records one execution of `op` on `variant`, to be replayed at the
    /// next [`Self::take`].
    #[inline]
    pub fn exec(&mut self, op: FirmwareOp, variant: u32) {
        let r = op.region();
        self.executed |= 1 << r;
        self.variants[r as usize] |= variant;
    }

    /// Replays every op executed since the last take or reset once, with
    /// the OR of its variants, then snapshots and clears — one scenario
    /// step's spectrum row.
    pub fn take(&mut self) -> BlockSnapshot {
        for op in FirmwareOp::ALL {
            let r = op.region();
            if self.executed & (1 << r) != 0 {
                self.bank
                    .execute(&mut self.cov, op, self.variants[r as usize]);
            }
        }
        self.clear_log();
        self.cov.snapshot_and_reset()
    }

    /// The same step as [`Self::take`], handed over as runs instead of a
    /// snapshot: `runs` is overwritten with each executed op's core range
    /// and variant slices, and with the hand-written hits and shared-tail
    /// blocks as single ids, then the recorder clears exactly as a take
    /// does. No block of a range is set one by one, each op's shared tail
    /// is read from a table built at compile time instead of being drawn
    /// again, and after the first call nothing allocates once `runs` has
    /// grown to a step's size.
    pub fn take_runs(&mut self, runs: &mut CoverageRuns) {
        runs.ranges.clear();
        runs.blocks.clear();
        let tail_seen = self
            .tail_seen
            .get_or_insert_with(|| BlockCoverage::new(N_BLOCKS - SyntheticCodeBank::SHARED_BASE));
        for op in FirmwareOp::ALL {
            let r = op.region();
            if self.executed & (1 << r) != 0 {
                let (ranges, _) = self.bank.runs(op, self.variants[r as usize]);
                runs.ranges.extend(ranges);
                // A bitset dedups tail draws within and across ops.
                for &b in &SHARED_TAILS[r as usize] {
                    let seen = b - SyntheticCodeBank::SHARED_BASE;
                    if !tail_seen.is_hit(seen) {
                        tail_seen.hit(seen);
                        runs.blocks.push(b);
                    }
                }
            }
        }
        tail_seen.reset();
        self.clear_log();
        // Hand-written hits lie below the bank, so no id repeats a
        // range's block.
        self.cov
            .drain_hits_below(BlockMap::SYNTHETIC_BASE, &mut runs.blocks);
        debug_assert!(
            !self.cov.any_hit(),
            "a hand-written hit at or above BlockMap::SYNTHETIC_BASE"
        );
    }

    /// Drops the coverage recorded since the last take or reset without
    /// ever filling the bank's blocks in.
    pub fn reset(&mut self) {
        self.clear_log();
        self.cov.reset();
    }

    fn clear_log(&mut self) {
        self.executed = 0;
        self.variants = [0; FirmwareOp::ALL.len()];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint() {
        let bank = SyntheticCodeBank::default();
        let mut regions: Vec<(u32, u32)> = FirmwareOp::ALL
            .iter()
            .map(|op| bank.core_region(*op))
            .collect();
        regions.sort();
        for pair in regions.windows(2) {
            let (s0, l0) = pair[0];
            let (s1, _) = pair[1];
            assert!(s0 + l0 <= s1, "overlap between regions");
        }
    }

    #[test]
    fn execute_is_deterministic() {
        let bank = SyntheticCodeBank::default();
        let run = || {
            let mut cov = BlockCoverage::new(N_BLOCKS);
            bank.execute(&mut cov, FirmwareOp::Tune, 2);
            cov.snapshot_and_reset()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn variants_differ_but_share_core() {
        let bank = SyntheticCodeBank::default();
        let mut c0 = BlockCoverage::new(N_BLOCKS);
        bank.execute(&mut c0, FirmwareOp::TeletextRender, 0);
        let s0 = c0.snapshot_and_reset();
        let mut c1 = BlockCoverage::new(N_BLOCKS);
        bank.execute(&mut c1, FirmwareOp::TeletextRender, 1);
        let s1 = c1.snapshot_and_reset();
        assert_ne!(s0, s1);
        // The always-executed core is shared.
        let (start, len) = bank.core_region(FirmwareOp::TeletextRender);
        for b in start..start + len * 7 / 10 {
            assert!(s0.is_hit(b) && s1.is_hit(b));
        }
    }

    #[test]
    fn fault_block_conditional_on_fault_bit() {
        let bank = SyntheticCodeBank::default();
        let fb = bank.teletext_fault_block();
        // Executes when the variant has the fault bit set…
        let mut cov = BlockCoverage::new(N_BLOCKS);
        bank.execute(
            &mut cov,
            FirmwareOp::TeletextRender,
            1 << SyntheticCodeBank::FAULT_BIT,
        );
        assert!(cov.is_hit(fb), "fault block must execute with bit set");
        // …not when clear, and not on unrelated ops.
        let mut cov2 = BlockCoverage::new(N_BLOCKS);
        bank.execute(&mut cov2, FirmwareOp::TeletextRender, 0);
        assert!(!cov2.is_hit(fb));
        let mut cov3 = BlockCoverage::new(N_BLOCKS);
        bank.execute(&mut cov3, FirmwareOp::Audio, u32::MAX);
        assert!(!cov3.is_hit(fb));
    }

    #[test]
    fn footprint_scale_matches_paper_order() {
        // One op executes hundreds-to-thousands of blocks; a realistic
        // scenario of ~27 keys should reach the paper's ~14k executed.
        let bank = SyntheticCodeBank::default();
        let mut cov = BlockCoverage::new(N_BLOCKS);
        for op in FirmwareOp::ALL {
            bank.execute(&mut cov, op, 0);
        }
        let hit = cov.count();
        assert!(hit > 12_000 && hit < 22_000, "hit={hit}");
    }

    #[test]
    fn shared_tail_table_is_the_draws() {
        let bank = SyntheticCodeBank::default();
        for op in FirmwareOp::ALL {
            let draws: Vec<u32> = bank.runs(op, 0).1.collect();
            let tail = &SHARED_TAILS[op.region() as usize];
            assert_eq!(tail[..], draws, "{op:?}");
            let ids = SyntheticCodeBank::SHARED_BASE..N_BLOCKS;
            assert!(tail.iter().all(|b| ids.contains(b)), "{op:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bank needs room")]
    fn too_small_bank_rejected() {
        let _ = SyntheticCodeBank::new(40_000);
    }
}
