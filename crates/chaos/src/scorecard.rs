//! The dependability scorecard: an exhaustive coverage matrix over
//! fault classes × workloads × recovery styles.
//!
//! Campaigns (and fleets of them) sample the fault space from seeds;
//! the scorecard *enumerates* it. Every [`TvFault`] class is crossed
//! with every workload scenario ([`ScenarioKind`]) and every recovery
//! style ([`RecoveryStyle`]), and each cell of that grid runs as its
//! own small seed-derived campaign: `reps` closed-loop runs with the
//! fault's activation window sliding across the scenario, plus one
//! fault-free **twin** run that must stay silent — the false-alarm
//! control arm. The grid executes on the same work-stealing executor as
//! campaign fleets ([`crate::exec::scatter_map`]), and because each
//! cell is a pure function of its coordinates (fault name, scenario
//! name, recovery name, rep index — never a grid index), the folded
//! [`DependabilityScorecard`] is byte-identical for every worker count
//! *and* every grid subset: the CI quick grid's cells match the
//! committed full-grid baseline cell for cell.
//!
//! What a cell reports is the paper's dependability vocabulary made
//! measurable: detection rate (did the awareness loop notice the fault
//! under this workload?), MTTD and MTTR distributions (folded into
//! [`telemetry::MetricsRegistry`] histograms, p50/p95 in virtual
//! nanoseconds), collateral presses lost (the cost of recovering), and
//! twin false alarms (the cost of monitoring). Cells the loop cannot
//! detect are *findings*, not failures — the scorecard exists to
//! reveal exactly which fault × workload combinations the current
//! detector set is blind to.

use faults::Schedule;
use simkit::{SimDuration, SimRng, SimTime};
use telemetry::MetricsRegistry;
use trader::{TimedScenario, TvDependabilityLoop, UnitRecoveryStyle};
use tvsim::TvFault;

use awareness::SupervisorConfig;

use crate::exec::scatter_map;
use crate::stress::{StressOutcome, StressPlan};
use crate::Fnv;

/// The workload scenarios of the scorecard grid — from near-idle to a
/// stress-leg composition. Each exercises a different slice of the
/// observable surface, so the same fault can be trivially detectable in
/// one column and invisible in another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Power on, tune, then nothing — the low-exercise workload.
    Idle,
    /// Rapid channel surfing, the reactive-navigation stressor.
    ZappingBurst,
    /// The paper-shaped teletext session.
    Teletext,
    /// The full-mix workload composed with the TASS-style resource
    /// stress leg (CPU/bus eaters + deadlock cycle).
    StressMix,
    /// The full-mix workload with a second, overlapping fault injected
    /// alongside the cell's primary fault.
    MultiFaultOverlap,
}

impl ScenarioKind {
    /// Every scenario column, in canonical grid order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::Idle,
        ScenarioKind::ZappingBurst,
        ScenarioKind::Teletext,
        ScenarioKind::StressMix,
        ScenarioKind::MultiFaultOverlap,
    ];

    /// Stable kebab-case name (seeds and JSON reports key on it).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Idle => "idle",
            ScenarioKind::ZappingBurst => "zapping-burst",
            ScenarioKind::Teletext => "teletext",
            ScenarioKind::StressMix => "stress-mix",
            ScenarioKind::MultiFaultOverlap => "multi-fault-overlap",
        }
    }

    /// The timed press scenario this workload replays.
    pub fn scenario(self, len: usize) -> TimedScenario {
        match self {
            ScenarioKind::Idle => TimedScenario::idle_session(len),
            ScenarioKind::ZappingBurst => TimedScenario::zapping_session(len),
            ScenarioKind::Teletext => TimedScenario::teletext_session(len),
            // Both composite workloads exercise every observed function;
            // what differs is what runs alongside (stress leg, second
            // fault).
            ScenarioKind::StressMix | ScenarioKind::MultiFaultOverlap => {
                TimedScenario::full_mix_session(len)
            }
        }
    }
}

/// The recovery styles of the scorecard grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStyle {
    /// Whole-system rollback: every unit restarts, the TV goes dark.
    FullRestart,
    /// Crash-consistent micro-reboot of the faulty unit only.
    MicroReboot,
    /// Monitor self-supervision climbing the full escalation ladder
    /// (retry → channel restart → micro-reboot → monitor restart →
    /// safe mode).
    SupervisedLadder,
}

impl RecoveryStyle {
    /// Every recovery style, in canonical grid order.
    pub const ALL: [RecoveryStyle; 3] = [
        RecoveryStyle::FullRestart,
        RecoveryStyle::MicroReboot,
        RecoveryStyle::SupervisedLadder,
    ];

    /// Stable kebab-case name (seeds and JSON reports key on it).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryStyle::FullRestart => "full-restart",
            RecoveryStyle::MicroReboot => "micro-reboot",
            RecoveryStyle::SupervisedLadder => "supervised-ladder",
        }
    }

    /// Installs this style on a loop.
    fn configure(self, looped: &mut TvDependabilityLoop) {
        match self {
            RecoveryStyle::FullRestart => looped.unit_recovery(UnitRecoveryStyle::FullRestart),
            RecoveryStyle::MicroReboot => looped.unit_recovery(UnitRecoveryStyle::MicroReboot),
            RecoveryStyle::SupervisedLadder => {
                looped.supervised(SupervisorConfig::default());
            }
        }
    }
}

/// One cell of the coverage matrix: a fault class under a workload and
/// a recovery style, plus the per-cell campaign shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The injected fault class (the matrix row).
    pub fault: TvFault,
    /// The workload (the matrix column).
    pub scenario: ScenarioKind,
    /// The recovery style (the matrix layer).
    pub recovery: RecoveryStyle,
    /// Base faulty runs per cell; each slides the fault window forward.
    /// A cell detecting in exactly one of two or more base reps runs two
    /// extra window placements — the window-position sensitivity sweep
    /// (reps 3 → 5 at grid shape).
    pub reps: usize,
    /// Presses per run (one every 100 ms).
    pub scenario_len: usize,
    /// True runs reps *and* the twin with the active health
    /// observatory enabled (idle-window probes, deadline monitor, mode
    /// witnesses).
    pub probes: bool,
}

impl CellSpec {
    /// The seed of rep `rep`: FNV-1a over the cell's *names* and the rep
    /// index. Deriving from names rather than grid indices is what makes
    /// a cell's result independent of which grid (full, quick, a single
    /// standalone cell) it runs in.
    pub fn seed(&self, rep: usize) -> u64 {
        let mut h = Fnv::new();
        h.bytes(b"scorecard-cell");
        h.bytes(self.fault.name().as_bytes());
        h.bytes(self.scenario.name().as_bytes());
        h.bytes(self.recovery.name().as_bytes());
        h.bytes(&(rep as u64).to_le_bytes());
        h.finish()
    }

    /// The run horizon: one press gap past the last press (the same
    /// convention as [`crate::campaign::CampaignSpec::horizon`]).
    pub fn horizon(&self) -> SimTime {
        SimTime::from_millis(100 * (self.scenario_len as u64 + 1))
    }

    /// The start of rep `rep`'s fault window as a horizon fraction:
    /// sliding from 20% towards 50% across the *base* reps. Adaptive
    /// extension reps keep the base divisor, so they place windows
    /// beyond the base sweep (50%, 60% at grid shape) instead of
    /// resampling it.
    pub fn window_from(&self, rep: usize) -> f64 {
        let reps = self.reps.max(1) as f64;
        0.2 + 0.3 * (rep as f64 / reps)
    }

    /// The primary fault's activation window for rep `rep`: a window
    /// 30% of the horizon wide whose start slides across the workload
    /// — the reps probe different phases, not different RNG streams.
    fn fault_window(&self, rep: usize) -> Schedule {
        let from = self.window_from(rep);
        Schedule::window_fraction(self.horizon(), from, from + 0.3)
    }

    /// The overlapping second fault of a [`ScenarioKind::MultiFaultOverlap`]
    /// cell: a different fault class (three positions away in
    /// [`TvFault::ALL`], so every pairing is exercised somewhere in the
    /// grid) whose window trails the primary's by 10% of the horizon.
    pub fn companion_fault(&self) -> TvFault {
        let idx = TvFault::ALL
            .iter()
            .position(|f| *f == self.fault)
            .expect("every fault class is in TvFault::ALL");
        TvFault::ALL[(idx + 3) % TvFault::ALL.len()]
    }

    fn companion_window(&self, rep: usize) -> Schedule {
        let reps = self.reps.max(1) as f64;
        let from = 0.3 + 0.3 * (rep as f64 / reps);
        Schedule::window_fraction(self.horizon(), from, from + 0.3)
    }

    /// Builds the closed loop for rep `rep`, or the fault-free twin when
    /// `rep` is `None`.
    fn build_loop(&self, rep: Option<usize>) -> TvDependabilityLoop {
        // The twin reuses the rep-0 seed: identical channels and
        // workload, the *only* difference is the absence of the fault —
        // so any twin detection is a false alarm by construction.
        let seed = self.seed(rep.unwrap_or(0));
        let mut looped = TvDependabilityLoop::closed(seed);
        if let Some(rep) = rep {
            looped.schedule_fault(self.fault_window(rep), self.fault);
            if self.scenario == ScenarioKind::MultiFaultOverlap {
                looped.schedule_fault(self.companion_window(rep), self.companion_fault());
            }
        }
        self.recovery.configure(&mut looped);
        if self.probes {
            looped.active_probes();
        }
        looped
    }

    /// Runs one faulty rep and folds its metrics.
    fn run_rep(
        &self,
        rep: usize,
        scenario: &TimedScenario,
        metrics: &mut MetricsRegistry,
    ) -> RepResult {
        let outcome = self.build_loop(Some(rep)).run(scenario);
        let result = RepResult {
            seed: self.seed(rep),
            window_from: self.window_from(rep),
            detected: outcome.detected_errors > 0,
            mttd: outcome.detection_latency,
            mttr: outcome.reboot_mttr,
            collateral_lost_presses: outcome.lost_presses_unaffected,
            micro_reboots: outcome.micro_reboots,
            full_restarts: outcome.full_restarts,
            failure_steps: outcome.failure_steps,
            ladder_rung: outcome.ladder_rung,
        };
        metrics.incr("scorecard.reps", 1);
        if result.detected {
            metrics.incr("scorecard.detections", 1);
        }
        if let Some(mttd) = result.mttd {
            metrics.observe("scorecard.mttd_ns", mttd.as_nanos());
        }
        if let Some(mttr) = result.mttr {
            metrics.observe("scorecard.mttr_ns", mttr.as_nanos());
        }
        metrics.incr(
            "scorecard.collateral_lost_presses",
            result.collateral_lost_presses as i64,
        );
        result
    }

    /// Runs the cell: `reps` faulty runs (plus the sweep's two), one
    /// fault-free twin, and (for [`ScenarioKind::StressMix`]) the
    /// seed-derived stress leg.
    pub fn run(&self) -> CellOutcome {
        let scenario = self.scenario.scenario(self.scenario_len);
        let mut metrics = MetricsRegistry::new();
        let mut reps = Vec::with_capacity(self.reps + 2);
        for rep in 0..self.reps {
            reps.push(self.run_rep(rep, &scenario, &mut metrics));
        }
        // Window-position sensitivity: a cell detecting in exactly one
        // base window is the most phase-sensitive kind of partial — two
        // extra placements past the base sweep quantify how narrow the
        // detectable phase really is.
        let detected_base = reps.iter().filter(|r| r.detected).count();
        if self.reps >= 2 && detected_base == 1 {
            for rep in self.reps..self.reps + 2 {
                reps.push(self.run_rep(rep, &scenario, &mut metrics));
            }
        }

        let twin = self.build_loop(None).run(&scenario);
        metrics.incr("scorecard.twin_runs", 1);
        metrics.incr("scorecard.twin_detections", twin.detected_errors as i64);

        let stress = (self.scenario == ScenarioKind::StressMix).then(|| {
            let mut rng = SimRng::seed(self.seed(0) ^ 0x5753_5452_4553_5343);
            StressPlan::from_rng(&mut rng).run()
        });

        CellOutcome {
            spec: self.clone(),
            reps,
            twin_detections: twin.detected_errors as u64,
            stress,
            metrics,
        }
    }
}

/// One faulty run's summary inside a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RepResult {
    /// The run's loop seed.
    pub seed: u64,
    /// The fault window's start as a horizon fraction.
    pub window_from: f64,
    /// Whether the awareness loop detected the fault.
    pub detected: bool,
    /// First fault activation → first detection (virtual time).
    pub mttd: Option<SimDuration>,
    /// Mean detection → recovery convergence over reboot episodes.
    pub mttr: Option<SimDuration>,
    /// Presses lost by reboots of units *other* than the faulty one.
    pub collateral_lost_presses: u64,
    /// Micro-reboot episodes.
    pub micro_reboots: u64,
    /// Full-restart episodes.
    pub full_restarts: u64,
    /// Presses with user-visible failures.
    pub failure_steps: usize,
    /// Highest supervisor escalation rung reached.
    pub ladder_rung: u8,
}

/// Everything one cell produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell that ran.
    pub spec: CellSpec,
    /// Per-rep faulty-run summaries, in rep order.
    pub reps: Vec<RepResult>,
    /// Errors detected by the fault-free twin — every one is a false
    /// alarm.
    pub twin_detections: u64,
    /// The stress leg's outcome ([`ScenarioKind::StressMix`] only).
    pub stress: Option<StressOutcome>,
    /// The cell's private metrics (`scorecard.mttd_ns` /
    /// `scorecard.mttr_ns` histograms, detection and collateral
    /// counters) — merged across the grid by
    /// [`DependabilityScorecard::merged_metrics`].
    pub metrics: MetricsRegistry,
}

impl CellOutcome {
    /// Reps whose fault was detected.
    pub fn detected(&self) -> usize {
        self.reps.iter().filter(|r| r.detected).count()
    }

    /// Whether every rep detected the fault (false for an empty cell).
    pub(crate) fn covered(&self) -> bool {
        !self.reps.is_empty() && self.detected() == self.reps.len()
    }

    /// Detected reps over total reps (0.0 for an empty cell).
    pub fn detection_rate(&self) -> f64 {
        if self.reps.is_empty() {
            0.0
        } else {
            self.detected() as f64 / self.reps.len() as f64
        }
    }

    /// Collateral presses lost, summed over reps.
    pub fn collateral_lost_presses(&self) -> u64 {
        self.reps.iter().map(|r| r.collateral_lost_presses).sum()
    }

    /// A percentile of the cell's MTTD histogram in virtual nanoseconds
    /// (0 when no rep detected).
    pub fn mttd_percentile_ns(&self, q: f64) -> u64 {
        self.metrics
            .histogram("scorecard.mttd_ns")
            .map_or(0, |h| h.percentile(q))
    }

    /// A percentile of the cell's MTTR histogram in virtual nanoseconds
    /// (0 when no rep rebooted).
    pub fn mttr_percentile_ns(&self, q: f64) -> u64 {
        self.metrics
            .histogram("scorecard.mttr_ns")
            .map_or(0, |h| h.percentile(q))
    }

    /// A 64-bit FNV-1a digest of the cell: its coordinates and every
    /// numeric result. Independent of worker count and of which grid the
    /// cell ran in.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.spec.fault.name().as_bytes());
        h.bytes(self.spec.scenario.name().as_bytes());
        h.bytes(self.spec.recovery.name().as_bytes());
        h.mix(self.spec.reps as u64);
        h.mix(self.spec.scenario_len as u64);
        h.mix(u64::from(self.spec.probes));
        // The retired `adaptive` switch was always on; its constant keeps
        // the committed digests.
        h.mix(1);
        for rep in &self.reps {
            h.mix(rep.seed);
            h.mix(rep.window_from.to_bits());
            h.mix(u64::from(rep.detected));
            h.mix(rep.mttd.map_or(u64::MAX, |d| d.as_nanos()));
            h.mix(rep.mttr.map_or(u64::MAX, |d| d.as_nanos()));
            h.mix(rep.collateral_lost_presses);
            h.mix(rep.micro_reboots);
            h.mix(rep.full_restarts);
            h.mix(rep.failure_steps as u64);
            h.mix(u64::from(rep.ladder_rung));
        }
        h.mix(self.twin_detections);
        if let Some(stress) = &self.stress {
            stress.mix_into(&mut h);
        }
        h.finish()
    }
}

/// The scorecard grid shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ScorecardConfig {
    /// Base faulty runs per cell.
    pub reps: usize,
    /// Presses per run.
    pub scenario_len: usize,
    /// Recovery styles to cross in (the quick grid keeps one layer).
    pub recoveries: Vec<RecoveryStyle>,
    /// Run every cell with the active health observatory enabled.
    pub probes: bool,
}

impl ScorecardConfig {
    /// The full grid: 8 fault classes × 5 scenarios × 3 recovery styles
    /// = 120 cells.
    pub fn full() -> Self {
        ScorecardConfig {
            reps: 3,
            scenario_len: 32,
            recoveries: RecoveryStyle::ALL.to_vec(),
            probes: false,
        }
    }

    /// The CI grid: the micro-reboot layer only (8 × 5 × 1 = 40 cells),
    /// with the **same** per-cell shape as [`full`](Self::full) — quick
    /// cells are byte-identical to the corresponding full-grid cells,
    /// so CI compares directly against the committed full baseline.
    pub fn quick() -> Self {
        ScorecardConfig {
            recoveries: vec![RecoveryStyle::MicroReboot],
            ..Self::full()
        }
    }

    /// The grid's cell specs in canonical order: fault-major, then
    /// scenario, then recovery.
    pub fn grid(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(
            TvFault::ALL.len() * ScenarioKind::ALL.len() * self.recoveries.len(),
        );
        for fault in TvFault::ALL {
            for scenario in ScenarioKind::ALL {
                for &recovery in &self.recoveries {
                    cells.push(CellSpec {
                        fault,
                        scenario,
                        recovery,
                        reps: self.reps,
                        scenario_len: self.scenario_len,
                        probes: self.probes,
                    });
                }
            }
        }
        cells
    }
}

/// The folded coverage matrix.
#[derive(Debug, Clone)]
pub struct DependabilityScorecard {
    /// Cell outcomes in canonical grid order.
    pub cells: Vec<CellOutcome>,
    /// The worker count that executed the grid (after clamping).
    pub workers: usize,
}

impl DependabilityScorecard {
    /// A 64-bit digest of the whole matrix: FNV-1a over the cell count
    /// and every cell fingerprint in canonical order. Worker-count-
    /// invariant by construction.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.mix(self.cells.len() as u64);
        for cell in &self.cells {
            h.mix(cell.fingerprint());
        }
        h.finish()
    }

    /// All cell metrics merged in canonical order — grid-wide MTTD/MTTR
    /// histograms and detection counters.
    pub fn merged_metrics(&self) -> MetricsRegistry {
        MetricsRegistry::merge_all(self.cells.iter().map(|c| &c.metrics))
    }

    /// Cells where every rep detected the fault.
    pub fn covered_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.covered()).count()
    }

    /// Cells where some but not all reps detected the fault.
    pub fn partial_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| {
                let d = c.detected();
                d > 0 && d < c.reps.len()
            })
            .count()
    }

    /// Cells where no rep detected the fault — the coverage gaps the
    /// scorecard exists to reveal.
    pub fn missed_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.detected() == 0).count()
    }

    /// Total twin detections across the grid — the false-alarm count,
    /// which the CI gate requires to be zero.
    pub fn twin_false_alarms(&self) -> u64 {
        self.cells.iter().map(|c| c.twin_detections).sum()
    }
}

/// Runs the whole grid across `workers` self-scheduling threads on the
/// shared [`scatter_map`] executor and folds the outcomes in canonical
/// order.
pub fn run_scorecard(config: &ScorecardConfig, workers: usize) -> DependabilityScorecard {
    let grid = config.grid();
    DependabilityScorecard {
        cells: scatter_map(&grid, workers, CellSpec::run),
        workers: crate::exec::effective_workers(grid.len(), workers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cell(scenario: ScenarioKind, recovery: RecoveryStyle) -> CellSpec {
        CellSpec {
            fault: TvFault::TeletextSyncLoss,
            scenario,
            recovery,
            reps: 2,
            scenario_len: 16,
            probes: false,
        }
    }

    #[test]
    fn cell_seeds_depend_on_names_not_grid_position() {
        let a = tiny_cell(ScenarioKind::Teletext, RecoveryStyle::MicroReboot);
        let mut b = a.clone();
        assert_eq!(a.seed(0), b.seed(0));
        b.recovery = RecoveryStyle::FullRestart;
        assert_ne!(a.seed(0), b.seed(0));
        assert_ne!(a.seed(0), a.seed(1));
    }

    #[test]
    fn channel_skip_under_zapping_is_detected() {
        // The home cell of the zapping column: every press exercises the
        // tuner, so the skip is caught in every rep at grid shape.
        let outcome = CellSpec {
            fault: TvFault::ChannelSkip,
            scenario: ScenarioKind::ZappingBurst,
            recovery: RecoveryStyle::MicroReboot,
            reps: 3,
            scenario_len: 32,
            probes: false,
        }
        .run();
        assert_eq!(outcome.detected(), 3, "detection gap in the home cell");
        assert!((outcome.detection_rate() - 1.0).abs() < 1e-12);
        assert!(outcome.mttd_percentile_ns(0.95) > 0);
    }

    #[test]
    fn twin_runs_never_detect() {
        for recovery in RecoveryStyle::ALL {
            for scenario in ScenarioKind::ALL {
                let outcome = tiny_cell(scenario, recovery).run();
                assert_eq!(
                    outcome.twin_detections,
                    0,
                    "false alarm in twin of {}/{}",
                    scenario.name(),
                    recovery.name()
                );
            }
        }
    }

    #[test]
    fn cell_run_is_reproducible() {
        let spec = tiny_cell(
            ScenarioKind::MultiFaultOverlap,
            RecoveryStyle::SupervisedLadder,
        );
        assert_eq!(spec.run().fingerprint(), spec.run().fingerprint());
    }

    #[test]
    fn stress_mix_cells_carry_the_stress_leg() {
        let with = tiny_cell(ScenarioKind::StressMix, RecoveryStyle::MicroReboot).run();
        assert!(with.stress.is_some());
        let without = tiny_cell(ScenarioKind::Teletext, RecoveryStyle::MicroReboot).run();
        assert!(without.stress.is_none());
    }

    #[test]
    fn companion_fault_is_a_different_class() {
        for fault in TvFault::ALL {
            let spec = CellSpec {
                fault,
                scenario: ScenarioKind::MultiFaultOverlap,
                recovery: RecoveryStyle::MicroReboot,
                reps: 1,
                scenario_len: 8,
                probes: false,
            };
            assert_ne!(spec.companion_fault(), fault);
        }
    }

    #[test]
    fn grid_shapes_match_the_spec() {
        assert_eq!(ScorecardConfig::full().grid().len(), 120);
        assert_eq!(ScorecardConfig::quick().grid().len(), 40);
    }

    #[test]
    fn quick_grid_cells_are_a_subset_of_the_full_grid() {
        let full: Vec<CellSpec> = ScorecardConfig::full().grid();
        for cell in ScorecardConfig::quick().grid() {
            assert!(full.contains(&cell), "{cell:?} missing from full grid");
        }
    }

    #[test]
    fn scorecard_is_worker_count_invariant() {
        let config = ScorecardConfig {
            reps: 1,
            scenario_len: 10,
            recoveries: vec![RecoveryStyle::MicroReboot],
            probes: true,
        };
        let sequential = run_scorecard(&config, 1);
        let parallel = run_scorecard(&config, 4);
        assert_eq!(sequential.fingerprint(), parallel.fingerprint());
        assert_eq!(
            sequential.merged_metrics().to_json().render(),
            parallel.merged_metrics().to_json().render()
        );
        assert_eq!(sequential.cells.len(), 40);
    }

    #[test]
    fn probed_idle_cell_detects_the_lost_sleep_timer() {
        // The scorecard's flagship blind cell: idle never touches the
        // sleep timer, so passive monitoring cannot see the lost
        // interrupt. The observatory's probe arms the timer itself.
        let blind = CellSpec {
            fault: TvFault::SleepTimerLost,
            scenario: ScenarioKind::Idle,
            recovery: RecoveryStyle::MicroReboot,
            reps: 3,
            scenario_len: 32,
            probes: false,
        };
        let mut probed = blind.clone();
        probed.probes = true;
        let blind_out = blind.run();
        assert_eq!(blind_out.detected(), 0, "idle is no longer blind?");
        let probed_out = probed.run();
        assert_eq!(
            probed_out.detected(),
            probed_out.reps.len(),
            "observatory missed the lost timer"
        );
        assert_eq!(probed_out.twin_detections, 0, "probe false alarm");
        assert_ne!(blind_out.fingerprint(), probed_out.fingerprint());
    }

    #[test]
    fn probed_twins_never_detect() {
        for scenario in ScenarioKind::ALL {
            let mut spec = tiny_cell(scenario, RecoveryStyle::MicroReboot);
            spec.probes = true;
            let outcome = spec.run();
            assert_eq!(
                outcome.twin_detections,
                0,
                "probe false alarm in twin of {}",
                scenario.name()
            );
        }
    }

    #[test]
    fn adaptive_cells_extend_the_window_sweep() {
        // teletext-sync-loss under the teletext workload detects in
        // exactly one base window (the baseline's canonical 1/3 cell):
        // the sweep must add two placements past the base range.
        let swept = CellSpec {
            fault: TvFault::TeletextSyncLoss,
            scenario: ScenarioKind::Teletext,
            recovery: RecoveryStyle::MicroReboot,
            reps: 3,
            scenario_len: 32,
            probes: false,
        }
        .run();
        let base_detected = swept.reps[..3].iter().filter(|r| r.detected).count();
        assert_eq!(
            base_detected, 1,
            "cell shape changed; pick another 1/3 cell"
        );
        assert_eq!(swept.reps.len(), 5, "1-of-3 cell must extend to 5 reps");
        assert!((swept.reps[3].window_from - 0.5).abs() < 1e-12);
        assert!((swept.reps[4].window_from - 0.6).abs() < 1e-12);
    }

    #[test]
    fn coverage_accounting_partitions_the_grid() {
        let config = ScorecardConfig {
            reps: 1,
            scenario_len: 10,
            recoveries: vec![RecoveryStyle::MicroReboot],
            probes: false,
        };
        let scorecard = run_scorecard(&config, 2);
        assert_eq!(
            scorecard.covered_cells() + scorecard.partial_cells() + scorecard.missed_cells(),
            scorecard.cells.len()
        );
        assert!(scorecard.covered_cells() > 0, "nothing detected anywhere");
    }
}
