//! The closed dependability loop over the television SUO (paper Fig. 1).
//!
//! *Open loop* is how the paper characterizes traditional products: "for
//! a certain input, the required actions are executed, but it is never
//! checked whether these actions have the desired effect". The *closed
//! loop* adds the awareness monitor, complementary detectors, and a
//! correction strategy.

use awareness::{
    AwarenessMonitor, CompareSpec, Configuration, DeadlineMonitor, DiagnosisConfig, MonitorBuilder,
    SupervisorConfig,
};
use detect::{ConsistencyRule, Detector, ModeConsistencyDetector};
use faults::injector::Transition;
use faults::{Injector, Schedule};
use observe::{BlockSnapshot, CoverageRuns, ObsValue, Observation, ObservationKind};
use recovery::{CheckpointVault, RestoreOutcome, FULL_RESTART_OUTAGE};
use simkit::{SimDuration, SimTime};
use statemachine::{Executor, Machine, OutputRecord, Value};
use std::collections::{BTreeMap, BTreeSet};
use telemetry::Telemetry;
use tvsim::{tv_spec, Key, TvFault, TvSystem, Unit, UnitState};

use crate::scenario::TimedScenario;

/// End-of-run accounting for the monitor's boundary channels, summed
/// over the input and output directions.
///
/// With supervision enabled, channel restarts replace the channel pair;
/// the audit covers the channels live at the end of the run (each epoch
/// conserves independently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelAudit {
    /// Messages accepted for transmission.
    pub sent: u64,
    /// Messages delivered to the monitor.
    pub delivered: u64,
    /// Messages dropped on the wire and abandoned (bare channels only;
    /// the reliable protocol never abandons).
    pub lost: u64,
    /// Messages still queued or awaiting acknowledgement.
    pub in_flight: u64,
}

impl ChannelAudit {
    /// The conservation invariant: every accepted message is delivered,
    /// lost, or still in flight.
    pub fn conserved(&self) -> bool {
        self.sent == self.delivered + self.lost + self.in_flight
    }
}

/// How the loop recovers the SUO when the awareness monitor pins an
/// error on a pipeline unit. Installed via
/// [`TvDependabilityLoop::unit_recovery`], it replaces the targeted
/// repair strategy in the closed loop; the open loop ignores it (there
/// is nothing to detect with). Both styles share one checkpoint
/// discipline, and the timings are fixed: a 500 ms checkpoint cadence,
/// 4 generations per unit, a 4 s full-restart outage, a 50 ms
/// micro-reboot outage plus 1 ms per replayed press, and a 200 ms
/// cooldown between episodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitRecoveryStyle {
    /// The classic remedy: bounce the whole TV. Every unit is rolled
    /// back to its latest validated checkpoint and the entire set is
    /// unavailable for the full restart outage.
    FullRestart,
    /// Crash-consistent micro-reboot: only the faulty unit is restored
    /// from its latest validated checkpoint, its post-checkpoint key
    /// presses are replayed from the journal, and the rest of the TV
    /// keeps serving presses throughout.
    MicroReboot,
}

/// Healthy-window checkpoint cadence. A unit is only checkpointed when
/// no error has been attributed to it since its last checkpoint — a
/// crash-consistent snapshot, never a wedged one.
const CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(500);

/// Checkpoint generations kept per unit.
const VAULT_CAPACITY: usize = 4;

/// Base virtual-time outage of a micro-reboot (one unit down).
const MICRO_OUTAGE: SimDuration = SimDuration::from_millis(50);

/// Added micro-reboot outage per journal entry replayed.
const REPLAY_COST: SimDuration = SimDuration::from_millis(1);

/// Cooldown between recovery episodes — errors inside it are counted
/// but do not trigger another reboot.
const MIN_BETWEEN: SimDuration = SimDuration::from_millis(200);

/// Settle window after a press, or after a probe burst's last key:
/// channel deliveries and comparisons happen before the loop reads the
/// verdicts.
const SETTLE: SimDuration = SimDuration::from_millis(20);

/// Settle window after a repair burst.
const REPAIR_SETTLE: SimDuration = SimDuration::from_millis(5);

/// A closed-loop step's extent (settle plus repair settle): the step
/// span closes there and the next idle window opens.
const STEP: SimDuration = SimDuration::from_millis(25);

/// The observatory's heartbeat deadline: maximum silence from the armed
/// sleep-timer service (three idle windows) before the deadline monitor
/// alarms.
const HEARTBEAT_DEADLINE: SimDuration = SimDuration::from_millis(300);

/// Slack past the announced sleep-timer fire time before a missed
/// expiry alarms.
const FIRE_GRACE: SimDuration = SimDuration::from_secs(1);

/// Delay from the start of an idle window to a probe's first key.
const FIRE_OFFSET: SimDuration = SimDuration::from_millis(15);

/// Spacing between consecutive keys of one probe burst.
const KEY_SPACING: SimDuration = SimDuration::from_millis(2);

/// One self-check, completely: a key sequence that nudges a dormant
/// function and restores (or symmetrically perturbs) its state, so the
/// model executor tracks the SUO exactly and only a fault produces a
/// verdict.
struct ProbePlan {
    keys: &'static [Key],
    /// Fired counter (flight-recorder names must be `'static`).
    fired: &'static str,
    /// Verdict transition stream.
    verdict: &'static str,
    /// True when firing now would disturb a foreground mode the user
    /// has active (teletext page state, an open menu). An idle-time
    /// prober must leave foreground state alone: the deferred slot is
    /// consumed from the rotation (keeping the schedule deterministic)
    /// but its keys are never pressed.
    disturbs: fn(&TvSystem) -> bool,
    /// The probe's postcondition, checked at the burst's settle time.
    witness: Option<Witness>,
}

/// A probe's postcondition: mode samples asserted against the live
/// mode map, then one mode that retires the assertion so unrelated
/// later mode traffic cannot re-trigger it.
struct Witness {
    sample: fn(&mut TvSystem, SimTime) -> Vec<Observation>,
    /// `(component, mode)` fed after the samples.
    retire: (&'static str, &'static str),
}

/// A [`ProbePlan`] whose telemetry names derive from its kind name.
macro_rules! probe_plan {
    ($kind:literal => [$($key:expr),+], $disturbs:expr, $witness:expr) => {
        ProbePlan {
            keys: &[$($key),+],
            fired: concat!("core.probes.fired.", $kind),
            verdict: concat!("core.probes.verdict.", $kind),
            disturbs: $disturbs,
            witness: $witness,
        }
    };
}

fn never(_: &TvSystem) -> bool {
    false
}

fn teletext_on(tv: &TvSystem) -> bool {
    tv.teletext().is_on()
}

/// The self-checks, in rotation order.
static PROBE_PLANS: [ProbePlan; 6] = [
    probe_plan!("sleep-timer" => [Key::Sleep], never, None),
    probe_plan!("volume-nudge" => [Key::VolUp, Key::VolDown, Key::Mute, Key::Mute], never, None),
    probe_plan!("teletext-roundtrip" =>
        [Key::Teletext, Key::Digit(1), Key::Digit(2), Key::Digit(3), Key::Teletext],
        teletext_on, None),
    // The open/close round-trip must leave no OSD on screen.
    probe_plan!("menu-toggle" => [Key::Menu, Key::Back], TvSystem::osd_has_focus, Some(Witness {
        sample: |_, at| vec![witness_obs(at, "osd.intent", "closed")],
        retire: ("osd.intent", "idle"),
    })),
    probe_plan!("swivel-jog" => [Key::SwivelRight, Key::SwivelLeft], never, Some(Witness {
        sample: TvSystem::witness_swivel,
        retire: ("swivel.motor", "busy"),
    })),
    probe_plan!("channel-flip" => [Key::ChannelUp, Key::ChannelDown], teletext_on, None),
];

/// The outcome of running a scenario through the loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopOutcome {
    /// Presses processed.
    pub steps: usize,
    /// Presses after which a user-visible output deviated from the
    /// desired behaviour.
    pub failure_steps: usize,
    /// Errors detected (comparator + detectors). Zero in open loop.
    pub detected_errors: usize,
    /// Corrective actions applied. Zero in open loop.
    pub recoveries: usize,
    /// Delay from the first fault activation to the first detection.
    pub detection_latency: Option<SimDuration>,
    /// Fault activation edges seen.
    pub fault_activations: usize,
    /// Channel accounting at end of run (`None` in open loop).
    pub channels: Option<ChannelAudit>,
    /// Safe-mode entries recorded by the supervisor (zero without
    /// supervision).
    pub safe_mode_entries: u64,
    /// Error-triggered in-loop diagnoses (zero unless
    /// [`TvDependabilityLoop::diagnose_online`] is enabled).
    pub diagnoses_triggered: u64,
    /// The diagnoser's suspect window at end of run, most suspicious
    /// first (empty with diagnosis off or no steps recorded).
    pub top_suspects: Vec<u32>,
    /// Key presses swallowed by reboot outages (zero without
    /// [`TvDependabilityLoop::unit_recovery`]).
    pub lost_presses: u64,
    /// The subset of [`lost_presses`](Self::lost_presses) aimed at units
    /// *other* than the one that failed — collateral damage of
    /// whole-system restarts; zero under micro-reboot.
    pub lost_presses_unaffected: u64,
    /// Micro-reboot episodes (faulty unit restored from checkpoint and
    /// reconciled by journal replay).
    pub micro_reboots: u64,
    /// Full-restart episodes (every unit rolled back, whole TV down).
    pub full_restarts: u64,
    /// Mean virtual time from error detection to recovery convergence
    /// over all reboot episodes (`None` when none happened).
    pub reboot_mttr: Option<SimDuration>,
    /// Latest sealed checkpoint generation per unit at end of run.
    pub checkpoint_generations: Vec<(String, u64)>,
    /// Highest supervisor escalation rung reached: 0 none, 1 retry,
    /// 2 channel restart, 3 micro-reboot, 4 monitor restart, 5 safe
    /// mode.
    pub ladder_rung: u8,
}

impl LoopOutcome {
    /// Fraction of presses with user-visible failures.
    pub fn failure_ratio(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.failure_steps as f64 / self.steps as f64
        }
    }

    /// A one-line human-readable consolidation of the outcome — the line
    /// examples print instead of formatting fields ad hoc.
    ///
    /// Always present: `steps`, `failures` (with the percentage from
    /// [`failure_ratio`](Self::failure_ratio)), `detected`, `recoveries`,
    /// and `faults` (activation edges). Appended only when the
    /// corresponding machinery ran: `latency` (first fault → first
    /// detection), `channels` (sent/delivered/lost/in-flight, closed loop
    /// only), `safe_mode` entries (supervision), and `diagnoses` with the
    /// current `prime` suspect (online diagnosis).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut line = format!(
            "steps={} failures={} ({:.1}%) detected={} recoveries={} faults={}",
            self.steps,
            self.failure_steps,
            self.failure_ratio() * 100.0,
            self.detected_errors,
            self.recoveries,
            self.fault_activations,
        );
        if let Some(latency) = self.detection_latency {
            let _ = write!(line, " latency={latency}");
        }
        if let Some(ch) = &self.channels {
            let _ = write!(
                line,
                " channels={}sent/{}delivered/{}lost/{}inflight",
                ch.sent, ch.delivered, ch.lost, ch.in_flight
            );
        }
        if self.safe_mode_entries > 0 {
            let _ = write!(line, " safe_mode={}", self.safe_mode_entries);
        }
        if self.micro_reboots > 0 || self.full_restarts > 0 {
            let _ = write!(
                line,
                " reboots={}micro/{}full",
                self.micro_reboots, self.full_restarts
            );
            if let Some(mttr) = self.reboot_mttr {
                let _ = write!(line, " mttr={mttr}");
            }
        }
        if self.lost_presses > 0 {
            let _ = write!(
                line,
                " lost={} ({} unaffected)",
                self.lost_presses, self.lost_presses_unaffected
            );
        }
        if self.ladder_rung > 0 {
            let _ = write!(line, " rung={}", self.ladder_rung);
        }
        if self.diagnoses_triggered > 0 {
            let _ = write!(line, " diagnoses={}", self.diagnoses_triggered);
            if let Some(prime) = self.top_suspects.first() {
                let _ = write!(line, " prime={prime}");
            }
        }
        line
    }
}

/// Updates one mirrored state entry in place. The hot path refreshes the
/// same observables press after press, so the common case reuses both the
/// existing `String` key and the existing value storage
/// ([`ObsValue::assign_from`]); only a genuinely new observable pays for
/// an insertion.
fn mirror_output(state: &mut BTreeMap<String, ObsValue>, name: &str, value: &ObsValue) {
    match state.get_mut(name) {
        Some(slot) => slot.assign_from(value),
        None => {
            state.insert(name.to_owned(), value.clone());
        }
    }
}

/// Whether the SUO's `actual` output deviates from the oracle's
/// `expected` one: `ObsValue::distance(expected, actual) > 1e-9` with
/// the model value converted the way the monitor converts it
/// ([`awareness::to_obs_value`]: text stays text, anything else becomes
/// a number), without materializing the conversion. Text mismatch or a cross-kind comparison deviates, a
/// numeric difference beyond the epsilon deviates, and a NaN on either
/// side never does.
pub(crate) fn deviates(expected: &Value, actual: &ObsValue) -> bool {
    match expected {
        Value::Str(s) => actual.as_text() != Some(s.as_str()),
        other => {
            let expected = other.as_f64().unwrap_or(f64::NAN);
            actual.as_num().is_none_or(|a| (expected - a).abs() > 1e-9)
        }
    }
}

/// A targeted repair: the correction strategy when no structural unit
/// recovery is installed.
#[derive(Clone, Copy)]
enum Repair {
    /// Force the audio unit to the oracle's mute state.
    ForceAudio,
    /// Re-synchronize the teletext decoder (at most once per settle).
    ResyncTeletext,
}

/// Error attribution, keyed by the comparator observable or the
/// detector that raised the error: the pipeline unit it indicts (the
/// structural recovery target) and the targeted repair, if any. Mode
/// witnesses name their subsystem, the legacy teletext sync rule the
/// decoder, and the sleep-timer watchdog and deadline alarms the timer
/// service.
#[rustfmt::skip]
const INDICTMENTS: [(&str, Unit, Option<Repair>); 13] = [
    ("volume", Unit::Audio, Some(Repair::ForceAudio)),
    ("audio.muted", Unit::Audio, Some(Repair::ForceAudio)),
    ("channel", Unit::Tuner, None),
    ("screen.mode", Unit::Screen, Some(Repair::ResyncTeletext)),
    ("source", Unit::Screen, None),
    ("swivel.angle", Unit::Swivel, None),
    ("sleep.minutes", Unit::Sleep, None),
    ("teletext.page", Unit::Teletext, Some(Repair::ResyncTeletext)),
    ("mode-consistency:txt-sync", Unit::Teletext, Some(Repair::ResyncTeletext)),
    ("mode-consistency:menu-witness", Unit::Screen, None),
    ("mode-consistency:swivel-witness", Unit::Swivel, None),
    ("watchdog:sleep.timer", Unit::Sleep, None),
    ("deadline:sleep.timer", Unit::Sleep, None),
];

/// One detected error, resolved where it is raised: the unit and the
/// targeted repair of its [`INDICTMENTS`] row, or neither when the table
/// has no row for it.
#[derive(Clone, Copy, Default)]
struct Verdict {
    unit: Option<Unit>,
    repair: Option<Repair>,
}

impl Verdict {
    /// The verdict on an error raised by the comparator observable or
    /// the detector `name`.
    fn of(name: &str) -> Self {
        INDICTMENTS
            .iter()
            .find(|(key, ..)| *key == name)
            .map_or_else(Verdict::default, |&(_, unit, repair)| Verdict {
                unit: Some(unit),
                repair,
            })
    }
}

/// The attribution rule for structural recovery: a settle's verdicts
/// reboot the first indicted unit in [`Unit`] order.
fn reboot_target(verdicts: &[Verdict]) -> Option<Unit> {
    verdicts.iter().filter_map(|v| v.unit).min()
}

/// Per-run state of the active health observatory: the probe rotation
/// over [`PROBE_PLANS`], the sleep-timer deadline monitor, and the last
/// verdict per probe (for the verdict-transition streams).
struct ProbeRuntime {
    /// Probes fired or deferred so far; the next probe is
    /// `PROBE_PLANS[cursor % len]`.
    cursor: usize,
    deadline: DeadlineMonitor,
    verdicts: [&'static str; PROBE_PLANS.len()],
}

impl ProbeRuntime {
    fn new() -> Self {
        ProbeRuntime {
            cursor: 0,
            deadline: DeadlineMonitor::new(HEARTBEAT_DEADLINE, FIRE_GRACE),
            verdicts: ["pass"; PROBE_PLANS.len()],
        }
    }

    /// The next probe's row index and first-key time in the idle window
    /// from `start` to `end`, if its last key plus a step still fits.
    /// A probe that does not fit leaves the rotation where it is, so a
    /// later, wider window fires it.
    fn next(&mut self, start: SimTime, end: SimTime) -> Option<(usize, SimTime)> {
        let index = self.cursor % PROBE_PLANS.len();
        let first = start + FIRE_OFFSET;
        let last = first + KEY_SPACING * (PROBE_PLANS[index].keys.len() as u64 - 1);
        if last + STEP > end {
            return None;
        }
        self.cursor += 1;
        Some((index, first))
    }
}

/// Builds a mode-witness observation (fed to the consistency detector
/// only — witnesses are in-situ samples, not boundary traffic).
fn witness_obs(at: SimTime, component: &'static str, mode: &'static str) -> Observation {
    Observation::new(
        at,
        component,
        ObservationKind::Mode {
            component: component.into(),
            mode: mode.into(),
        },
    )
}

/// The latest recovery episode's outage. One is enough: an episode
/// starts only after the cooldown that follows the previous outage,
/// so an older outage has always expired.
#[derive(Debug, Clone, Copy)]
struct Outage {
    /// The unit the episode recovered.
    unit: Unit,
    /// End of the outage.
    until: SimTime,
    /// True when the whole TV is down (full restart), not just `unit`.
    whole_tv: bool,
}

/// Per-run bookkeeping for structural unit recovery: the checkpoint
/// vault, the per-unit press journals, the outage, and the MTTR ledger.
#[derive(Debug)]
struct RecoveryState {
    style: UnitRecoveryStyle,
    vault: CheckpointVault,
    journal: BTreeMap<Unit, Vec<Key>>,
    dirty: BTreeSet<Unit>,
    outage: Option<Outage>,
    next_allowed: SimTime,
    last_checkpoint: Option<SimTime>,
    mttr_total_ns: u64,
    episodes: u64,
    full_restarts: u64,
}

impl RecoveryState {
    fn new(style: UnitRecoveryStyle, seed: u64) -> Self {
        RecoveryState {
            style,
            // The vault seed is derived from, not equal to, the loop
            // seed: a fingerprint must not collide with other
            // seed-keyed digests in the same run.
            vault: CheckpointVault::new(seed ^ 0xC0DE_5EA1_ED00_0000, VAULT_CAPACITY),
            journal: BTreeMap::new(),
            dirty: BTreeSet::new(),
            outage: None,
            next_allowed: SimTime::ZERO,
            last_checkpoint: None,
            mttr_total_ns: 0,
            episodes: 0,
            full_restarts: 0,
        }
    }

    /// Whether a press served by `unit` at `at` falls inside a reboot
    /// outage (whole-TV or that unit's own).
    fn is_down(&self, at: SimTime, unit: Unit) -> bool {
        self.outage
            .is_some_and(|o| at < o.until && (o.whole_tv || o.unit == unit))
    }

    /// Saves one sealed checkpoint per clean, up unit when the cadence
    /// is due. Units with errors attributed since their last checkpoint
    /// are skipped — crash consistency over freshness.
    fn maybe_checkpoint(&mut self, tv: &TvSystem, at: SimTime, telemetry: &Telemetry) {
        if self.outage.is_some_and(|o| o.whole_tv && at < o.until) {
            return;
        }
        let due = match self.last_checkpoint {
            None => true,
            Some(last) => at.since(last) >= CHECKPOINT_EVERY,
        };
        if !due {
            return;
        }
        self.last_checkpoint = Some(at);
        for unit in Unit::ALL {
            if self.dirty.contains(&unit) || self.is_down(at, unit) {
                continue;
            }
            self.vault.save(unit.name(), at, tv.unit_state(unit));
            // The journal restarts at the new baseline.
            self.journal.remove(&unit);
            telemetry.count(at, "core.reboot.checkpoint", 1);
        }
    }

    /// Runs one recovery episode for `unit` at `settle`, appending the
    /// recovered units' announcements (fed back as observations) to
    /// `announcements`.
    ///
    /// Micro-reboot restores the unit's latest validated checkpoint and
    /// replays its journal; if the whole checkpoint history fails
    /// validation it escalates to a full restart, the style used
    /// unconditionally by [`UnitRecoveryStyle::FullRestart`].
    fn recover(
        &mut self,
        tv: &mut TvSystem,
        settle: SimTime,
        unit: Unit,
        telemetry: &Telemetry,
        announcements: &mut Vec<Observation>,
    ) {
        if self.style == UnitRecoveryStyle::MicroReboot {
            if let RestoreOutcome::Restored { state, .. } = self.vault.restore_latest(unit.name()) {
                tv.restore_unit(unit, &state);
                // State reconciliation: every press served since the
                // checkpoint is replayed onto the restored state.
                let entries = self.journal.get(&unit).map_or(&[][..], Vec::as_slice);
                for &key in entries {
                    tv.replay_unit_key(settle, unit, key);
                }
                let outage = MICRO_OUTAGE + REPLAY_COST * entries.len() as u64;
                self.finish_episode(settle, outage, unit, false);
                self.dirty.remove(&unit);
                telemetry.count(settle, "core.reboot.micro", 1);
                announcements.extend(tv.announce_unit(settle, unit));
                return;
            }
            // No validated generation left: climb to the full-restart
            // rung for this episode.
            telemetry.count(settle, "core.reboot.micro_escalations", 1);
        }
        for u in Unit::ALL {
            match self.vault.restore_latest(u.name()) {
                RestoreOutcome::Restored { state, .. } => tv.restore_unit(u, &state),
                // No usable checkpoint: power-on defaults.
                _ => tv.restore_unit(u, &UnitState::new()),
            }
            self.dirty.remove(&u);
            // A full restart has no replay: post-checkpoint context is
            // lost, which is exactly its cost.
            self.journal.remove(&u);
            announcements.extend(tv.announce_unit(settle, u));
        }
        self.finish_episode(settle, FULL_RESTART_OUTAGE, unit, true);
        telemetry.count(settle, "core.reboot.full", 1);
    }

    fn finish_episode(&mut self, settle: SimTime, outage: SimDuration, unit: Unit, whole_tv: bool) {
        self.outage = Some(Outage {
            unit,
            until: settle + outage,
            whole_tv,
        });
        self.mttr_total_ns += outage.as_nanos();
        self.episodes += 1;
        self.full_restarts += u64::from(whole_tv);
        self.next_allowed = settle + outage + MIN_BETWEEN;
    }

    fn mean_mttr(&self) -> Option<SimDuration> {
        (self.episodes > 0).then(|| SimDuration::from_nanos(self.mttr_total_ns / self.episodes))
    }
}

/// Where a press comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// The scenario's user.
    User,
    /// The health observatory's synthetic self-checks.
    Probe,
}

/// What a settle hands the in-loop spectrum.
enum StepCoverage {
    /// A diagnosed user press: its coverage, taken as runs into
    /// `Session::runs`, becomes one spectrum step.
    Runs,
    /// An undiagnosed user press: the snapshot the monitor is offered
    /// (and drops).
    Snapshot(BlockSnapshot),
    /// A probe burst: coverage is dropped and errors absorbed.
    ProbeBurst,
}

/// Steps the ground-truth oracle — the desired behaviour, evaluated
/// with zero delay and full observability (only the harness has this).
/// The loop reads only the oracle's latest value per output
/// ([`Executor::last_output`]), so the output records are drained into
/// `scratch` and dropped, keeping both buffers' capacity.
pub(crate) fn step_oracle(
    oracle: &mut Executor<'_>,
    scratch: &mut Vec<OutputRecord>,
    at: SimTime,
    key: Key,
) {
    oracle.step_at(at, &key.event());
    oracle.drain_outputs_into(scratch);
    scratch.clear();
}

/// Everything the closed loop adds to the open one: the awareness
/// monitor, the mode-consistency detector, and, when installed, the
/// health observatory and structural unit recovery.
struct ClosedLoop<'m> {
    monitor: AwarenessMonitor<'m>,
    mode_detector: ModeConsistencyDetector,
    probes: Option<ProbeRuntime>,
    recovery: Option<RecoveryState>,
}

impl ClosedLoop<'_> {
    /// Feeds one observation to the mode detector, whose errors become
    /// `verdicts`, and to the deadline monitor.
    fn detect(&mut self, obs: &Observation, verdicts: &mut Vec<Verdict>) {
        let errors = self.mode_detector.observe(obs);
        verdicts.extend(errors.iter().map(|err| Verdict::of(&err.detector)));
        if let Some(pr) = self.probes.as_mut() {
            pr.deadline.observe(obs);
        }
    }

    /// Fig. 1's compare stage at `settle`: the deadline monitor's ticks and
    /// the comparator's drain, each error resolved into a verdict.
    fn compare(&mut self, tv: &mut TvSystem, settle: SimTime, verdicts: &mut Vec<Verdict>) {
        // Timer-service liveness rides every settle, so obligations are
        // checked even between probe windows — unless the timer unit is
        // itself inside an outage.
        let sleep_down = matches!(&self.recovery, Some(rs) if rs.is_down(settle, Unit::Sleep));
        if let (Some(pr), false) = (self.probes.as_mut(), sleep_down) {
            if let Some(hb) = tv.timer_heartbeat(settle) {
                pr.deadline.observe(&hb);
            }
            let errors = pr.deadline.tick(settle);
            verdicts.extend(errors.iter().map(|err| Verdict::of(&err.detector)));
        }
        self.monitor.advance_to(settle);
        let errors = self.monitor.drain_errors();
        verdicts.extend(errors.iter().map(|err| Verdict::of(&err.observable)));
    }
}

/// The one path SUO observations take into the loop: outputs are mirrored
/// into `sys_state` and, in closed loop, every observation is offered to
/// the monitor and fed to the detectors, whose errors become `verdicts`.
fn ingest(
    observations: &[Observation],
    sys_state: &mut BTreeMap<String, ObsValue>,
    mut closed: Option<&mut ClosedLoop<'_>>,
    verdicts: &mut Vec<Verdict>,
) {
    for obs in observations {
        if let Some((name, value)) = obs.as_output() {
            mirror_output(sys_state, name, value);
        }
        if let Some(cl) = closed.as_deref_mut() {
            cl.monitor.offer(obs);
            cl.detect(obs, verdicts);
        }
    }
}

/// One run of the loop over a scenario. User presses and probe bursts
/// drive it through the same two steps: [`press`](Self::press) each
/// key, then [`settle`](Self::settle) once.
///
/// Scratch buffers are cleared, never dropped, so steady-state presses
/// run without allocating them anew (the fleet executor multiplies
/// every per-step allocation by the campaign population — see
/// `chaos::fleet`).
struct Session<'m> {
    telemetry: &'m Telemetry,
    tv: TvSystem,
    oracle: Executor<'m>,
    /// The SUO's latest value of each output.
    sys_state: BTreeMap<String, ObsValue>,
    /// `None` in open loop.
    closed: Option<ClosedLoop<'m>>,
    outcome: LoopOutcome,
    first_fault_at: Option<SimTime>,
    first_detect_at: Option<SimTime>,
    /// Verdicts raised by presses and witnesses, awaiting a settle.
    verdicts: Vec<Verdict>,
    /// A settle's repair burst (repairs or reboot announcements).
    burst: Vec<Observation>,
    /// Drained oracle output records.
    oracle_outputs: Vec<OutputRecord>,
    /// A diagnosed press's coverage runs.
    runs: CoverageRuns,
}

impl<'m> Session<'m> {
    fn new(
        machine: &'m Machine,
        telemetry: &'m Telemetry,
        tv: TvSystem,
        closed: Option<ClosedLoop<'m>>,
    ) -> Self {
        let mut oracle = Executor::new(machine);
        oracle.start();
        Session {
            telemetry,
            tv,
            oracle,
            sys_state: BTreeMap::new(),
            closed,
            outcome: LoopOutcome::default(),
            first_fault_at: None,
            first_detect_at: None,
            verdicts: Vec::new(),
            burst: Vec::new(),
            oracle_outputs: Vec::new(),
            runs: CoverageRuns::default(),
        }
    }

    /// Applies one fault-schedule edge to the SUO.
    fn fault_edge(&mut self, at: SimTime, edge: Transition<TvFault>) {
        match edge {
            Transition::Activated(f) => {
                self.tv.inject_fault(f);
                self.outcome.fault_activations += 1;
                self.first_fault_at.get_or_insert(at);
                self.telemetry
                    .transition(at, "core.loop.fault", "dormant", f.name());
            }
            Transition::Deactivated(f) => {
                self.tv.clear_fault(f);
                self.telemetry
                    .transition(at, "core.loop.fault", f.name(), "dormant");
            }
        }
    }

    /// Presses `key` on the SUO and the oracle and feeds the SUO's
    /// observations to the closed loop. Returns false when a reboot
    /// outage swallowed the press: a lost user press still advances the
    /// desired behaviour, so the loss is user-visible; a probe key is
    /// skipped on both sides, so the comparator sees no synthetic
    /// divergence from the outage itself.
    fn press(&mut self, at: SimTime, key: Key, origin: Origin) -> bool {
        if let Some(rs) = self.closed.as_mut().and_then(|cl| cl.recovery.as_mut()) {
            let unit = self.tv.serving_unit(key);
            if rs.is_down(at, unit) {
                match origin {
                    Origin::User => {
                        self.outcome.lost_presses += 1;
                        if rs.outage.map(|o| o.unit) != Some(unit) {
                            self.outcome.lost_presses_unaffected += 1;
                        }
                        self.telemetry.count(at, "core.reboot.lost_press", 1);
                        step_oracle(&mut self.oracle, &mut self.oracle_outputs, at, key);
                    }
                    Origin::Probe => self.telemetry.count(at, "core.probes.skipped_keys", 1),
                }
                return false;
            }
            // Journaled, probe keys included: a later micro-reboot
            // replays every press served since the checkpoint.
            rs.journal.entry(unit).or_default().push(key);
        }
        let obs = self.tv.press(at, key);
        step_oracle(&mut self.oracle, &mut self.oracle_outputs, at, key);
        let closed = self.closed.as_mut();
        ingest(&obs, &mut self.sys_state, closed, &mut self.verdicts);
        true
    }

    /// Lets the monitor settle after a press, or after a probe burst's
    /// last key at `at`, then runs Fig. 1's stages over the verdicts:
    /// compare, correct, absorb. A user press becomes one spectrum step;
    /// a probe burst's coverage is dropped and its errors absorbed, so
    /// diagnosis ranking stays probe-free. Returns the number of errors
    /// detected.
    fn settle(&mut self, at: SimTime, origin: Origin) -> usize {
        let Some(cl) = self.closed.as_mut() else {
            return 0;
        };
        let settle = at + SETTLE;
        let mut verdicts = std::mem::take(&mut self.verdicts);
        cl.compare(&mut self.tv, settle, &mut verdicts);
        // One spectrum step per user press: take the coverage now so
        // the step reflects the SUO's response to the press alone —
        // repair bursts below are monitor-commanded and would otherwise
        // correlate perfectly with failing verdicts and crowd out the
        // true fault block. Diagnosis folds it as runs.
        let coverage = match origin {
            Origin::Probe => StepCoverage::ProbeBurst,
            Origin::User if cl.monitor.diagnosis().is_some() => {
                self.tv.take_coverage_runs(&mut self.runs);
                StepCoverage::Runs
            }
            Origin::User => StepCoverage::Snapshot(self.tv.take_coverage()),
        };
        let n_errors = verdicts.len();
        let name = match origin {
            Origin::User => "core.loop.detections",
            Origin::Probe => "core.probes.detections",
        };
        self.detected(settle, n_errors, name);
        let recoveries_before = self.outcome.recoveries;
        let mut burst = std::mem::take(&mut self.burst);
        if n_errors > 0 {
            self.correct(settle, &verdicts, &mut burst);
        }
        // The repair burst is observed like any other traffic; what it
        // raises is transient and goes with the settled verdicts.
        let closed = self.closed.as_mut();
        ingest(&burst, &mut self.sys_state, closed, &mut verdicts);
        verdicts.clear();
        let repairs = (self.outcome.recoveries - recoveries_before) as i64;
        if origin == Origin::User && repairs > 0 {
            self.telemetry.count(settle, "core.loop.repairs", repairs);
        }
        self.absorb(settle, coverage, !burst.is_empty());
        burst.clear();
        (self.verdicts, self.burst) = (verdicts, burst);
        n_errors
    }

    /// Counts `n` errors detected at `at` on the telemetry counter `name`.
    fn detected(&mut self, at: SimTime, n: usize, name: &'static str) {
        if n > 0 {
            self.outcome.detected_errors += n;
            self.first_detect_at.get_or_insert(at);
            self.telemetry.count(at, name, n as i64);
        }
    }

    /// Fig. 1's correct stage: reboots the [`reboot_target`] after
    /// marking every indicted unit dirty (structural recovery), or
    /// applies each verdict's targeted repair, the teletext resync at
    /// most once. Appends the repair burst's observations to `burst`.
    fn correct(&mut self, settle: SimTime, verdicts: &[Verdict], burst: &mut Vec<Observation>) {
        if let Some(rs) = self.closed.as_mut().and_then(|cl| cl.recovery.as_mut()) {
            // Indicted units are no longer checkpoint-clean; the target
            // reboots (micro) or bounces the whole TV (full restart).
            rs.dirty.extend(verdicts.iter().filter_map(|v| v.unit));
            if let Some(unit) = reboot_target(verdicts).filter(|_| settle >= rs.next_allowed) {
                rs.recover(&mut self.tv, settle, unit, self.telemetry, burst);
                self.outcome.recoveries += 1;
            }
        } else {
            let mut resynced = false;
            for verdict in verdicts {
                let obs = match verdict.repair {
                    Some(Repair::ForceAudio) => {
                        let want_muted = self
                            .oracle
                            .last_output("audio.muted")
                            .and_then(Value::as_bool)
                            .unwrap_or(false);
                        self.tv.force_audio(settle, want_muted)
                    }
                    Some(Repair::ResyncTeletext) if !resynced => {
                        resynced = true;
                        self.tv.resync_teletext(settle)
                    }
                    _ => continue,
                };
                // A run's first repair lends its vector to the burst
                // buffer, which then costs no allocation of its own.
                if burst.capacity() == 0 {
                    *burst = obs;
                } else {
                    burst.extend(obs);
                }
                self.outcome.recoveries += 1;
            }
        }
    }

    /// Fig. 1's absorb stage: a repair burst settles and its residual
    /// errors are dropped, then a user press's coverage becomes one
    /// spectrum step, or a probe burst's coverage and errors are
    /// absorbed.
    fn absorb(&mut self, settle: SimTime, coverage: StepCoverage, repaired: bool) {
        let Some(cl) = self.closed.as_mut() else {
            return;
        };
        if repaired {
            cl.monitor.advance_to(settle + REPAIR_SETTLE);
            // Post-repair comparisons should now match; drop any
            // residual transient error raised by the repair burst.
            let _ = cl.monitor.drain_errors();
        }
        // Repair-path block coverage is dropped, and so is a probe
        // burst's: probe presses are synthetic traffic.
        if repaired || matches!(coverage, StepCoverage::ProbeBurst) {
            self.tv.reset_coverage();
        }
        match coverage {
            // Comparator errors since the last step mark the step
            // failing in the in-loop spectrum. Recording after the
            // residual drain keeps repair transients from spilling a
            // failing verdict onto the next step.
            StepCoverage::Runs => cl.monitor.record_runs(&self.runs),
            StepCoverage::Snapshot(snapshot) => cl.monitor.record_coverage(&snapshot),
            // A probe burst's error count is absorbed, so the next user
            // press's spectrum step reflects only its own behaviour.
            StepCoverage::ProbeBurst => cl.monitor.absorb_synthetic_errors(),
        }
    }

    /// Ends the user step at `at`: the user-visible failure check
    /// against the oracle, then the checkpoint cadence (after the step's
    /// detections, so a unit flagged dirty just now is never sealed).
    fn end_step(&mut self, at: SimTime) {
        self.outcome.steps += 1;
        let failed = self.sys_state.iter().any(|(name, actual)| {
            self.oracle
                .last_output(name)
                .is_some_and(|expected| deviates(expected, actual))
        });
        if failed {
            self.outcome.failure_steps += 1;
            self.telemetry
                .metric_incr("core.loop.user_visible_failures", 1);
        }
        if let Some(rs) = self.closed.as_mut().and_then(|cl| cl.recovery.as_mut()) {
            rs.maybe_checkpoint(&self.tv, at, self.telemetry);
        }
    }

    /// Fires the observatory's next self-check into the idle window
    /// from `start` to `end`: its keys are pressed like user keys and
    /// the burst settles once, after its last key, with the probe's
    /// witness.
    fn probe_window(&mut self, start: SimTime, end: SimTime) {
        let telemetry = self.telemetry;
        let Some(pr) = self.closed.as_mut().and_then(|cl| cl.probes.as_mut()) else {
            return;
        };
        let Some((index, fired_at)) = pr.next(start, end) else {
            return;
        };
        let plan = &PROBE_PLANS[index];
        if (plan.disturbs)(&self.tv) {
            telemetry.count(fired_at, "core.probes.deferred", 1);
            return;
        }
        telemetry.span_enter(fired_at, "core.probes.burst");
        let mut last_at = fired_at;
        for (i, &key) in plan.keys.iter().enumerate() {
            last_at = fired_at + KEY_SPACING * i as u64;
            self.press(last_at, key, Origin::Probe);
        }
        let settle = last_at + SETTLE;
        // The witness samples go to the detectors (their verdicts settle
        // with the burst), then the retiring mode to the mode detector.
        if let (Some(witness), Some(cl)) = (&plan.witness, self.closed.as_mut()) {
            for obs in (witness.sample)(&mut self.tv, settle) {
                cl.detect(&obs, &mut self.verdicts);
            }
            let retire = witness_obs(settle, witness.retire.0, witness.retire.1);
            let _ = cl.mode_detector.observe(&retire);
        }
        let n_errors = self.settle(last_at, Origin::Probe);
        telemetry.count(settle, plan.fired, 1);
        telemetry.observe_ns("core.probes.latency_ns", settle.since(fired_at).as_nanos());
        let verdict = if n_errors > 0 { "divergent" } else { "pass" };
        if let Some(pr) = self.closed.as_mut().and_then(|cl| cl.probes.as_mut()) {
            let last = &mut pr.verdicts[index];
            if *last != verdict {
                telemetry.transition(settle, plan.verdict, last, verdict);
                *last = verdict;
            }
        }
        telemetry.span_exit(settle, "core.probes.burst");
    }

    /// Ends the run: the obligation epilogue, then the end-of-run
    /// accounting.
    fn finish(mut self) -> LoopOutcome {
        // An armed sleep timer must still fire past the last press. The
        // expiry is driven on the TV alone and fed only to the deadline
        // monitor — the spec machine does not model autonomous
        // power-down, so routing it through the comparator would raise
        // a phantom divergence on healthy twins.
        if let Some(pr) = self.closed.as_mut().and_then(|cl| cl.probes.as_mut()) {
            if let Some(due) = pr.deadline.fire_deadline() {
                for obs in self.tv.tick(due) {
                    pr.deadline.observe(&obs);
                }
                let late = due + SimDuration::from_millis(1);
                let missed = pr.deadline.tick(late).len();
                self.detected(late, missed, "core.probes.detections");
            }
        }

        let mut outcome = self.outcome;
        outcome.detection_latency = match (self.first_fault_at, self.first_detect_at) {
            (Some(f), Some(d)) if d >= f => Some(d.since(f)),
            _ => None,
        };
        if let Some(cl) = &self.closed {
            let (input, output) = (cl.monitor.input_channel(), cl.monitor.output_channel());
            outcome.channels = Some(ChannelAudit {
                sent: input.sent() + output.sent(),
                delivered: input.delivered() + output.delivered(),
                lost: input.lost() + output.lost(),
                in_flight: (input.in_flight() + output.in_flight()) as u64,
            });
            if let Some(report) = cl.monitor.supervisor_report() {
                outcome.safe_mode_entries = report.safe_mode_entries;
                outcome.ladder_rung = report.rung();
            }
            if let Some(diag) = cl.monitor.diagnosis() {
                outcome.diagnoses_triggered = diag.triggered_diagnoses();
                outcome.top_suspects = diag.top_k().entries().iter().map(|e| e.block).collect();
            }
            if let Some(rs) = &cl.recovery {
                outcome.micro_reboots = rs.episodes - rs.full_restarts;
                outcome.full_restarts = rs.full_restarts;
                outcome.checkpoint_generations = rs.vault.latest_generations();
                outcome.reboot_mttr = rs.mean_mttr();
            }
        }
        outcome
    }
}

/// Runs a [`TvSystem`] open- or closed-loop against a scenario.
#[derive(Debug)]
pub struct TvDependabilityLoop {
    closed: bool,
    seed: u64,
    machine: &'static Machine,
    injector: Injector<TvFault>,
    output_delay: SimDuration,
    jitter: SimDuration,
    loss: f64,
    reliable: bool,
    supervision: Option<SupervisorConfig>,
    online_diagnosis_k: Option<usize>,
    unit_recovery: Option<UnitRecoveryStyle>,
    probes: bool,
    telemetry: Telemetry,
}

impl TvDependabilityLoop {
    /// An open-loop run: no monitoring, no correction.
    pub fn open(seed: u64) -> Self {
        Self::build(false, seed)
    }

    /// A closed-loop run: awareness monitor + detectors + correction.
    pub fn closed(seed: u64) -> Self {
        Self::build(true, seed)
    }

    fn build(closed: bool, seed: u64) -> Self {
        TvDependabilityLoop {
            closed,
            seed,
            machine: tv_spec(),
            injector: Injector::new(),
            output_delay: SimDuration::from_micros(500),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            reliable: false,
            supervision: None,
            online_diagnosis_k: None,
            unit_recovery: None,
            probes: false,
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle, propagated into the monitor, its
    /// channels, supervisor, and diagnoser. Loop-level step spans, fault
    /// edges, and repair counts are stamped with the scenario's virtual
    /// time, so a recording run drains to a deterministic timeline.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Schedules a fault.
    pub fn schedule_fault(&mut self, schedule: Schedule, fault: TvFault) {
        self.injector.add(schedule, fault);
    }

    /// Overrides the SUO→monitor output channel delay.
    pub fn set_output_delay(&mut self, delay: SimDuration) {
        self.output_delay = delay;
    }

    /// Adds uniform jitter to the monitor's boundary channels.
    pub fn set_jitter(&mut self, jitter: SimDuration) {
        self.jitter = jitter;
    }

    /// Sets the per-message loss probability on the boundary channels
    /// (a disturbed process boundary).
    pub fn set_channel_loss(&mut self, loss: f64) {
        self.loss = loss;
    }

    /// Runs the monitor over the ack/retransmit reliable protocol
    /// instead of bare delay channels.
    pub fn use_reliable(&mut self, reliable: bool) {
        self.reliable = reliable;
    }

    /// Enables monitor self-supervision (watchdog + degradation +
    /// escalation ladder).
    pub fn supervised(&mut self, config: SupervisorConfig) {
        self.supervision = Some(config);
    }

    /// Installs structural unit recovery: crash-consistent per-unit
    /// checkpoints, journal replay, and a reboot ladder that replaces the
    /// targeted repair strategy. Closed loop only; the open loop has no
    /// detections to react to, so the style is ignored there.
    pub fn unit_recovery(&mut self, style: UnitRecoveryStyle) {
        self.unit_recovery = Some(style);
    }

    /// Installs the active health observatory: a deterministic
    /// self-check probe in every idle window between presses, the
    /// sleep-timer deadline monitor (300 ms heartbeat deadline, 1 s fire
    /// grace), and mode witnesses for the menu and swivel subsystems.
    /// Probe divergence raises normal comparator/detector verdicts and
    /// feeds the same correction strategy as user-visible errors; probe
    /// block coverage and probe-raised errors are kept out of the
    /// spectra diagnosis. Closed loop only.
    pub fn active_probes(&mut self) {
        self.probes = true;
    }

    /// Enables in-loop spectrum diagnosis with a `top_k`-sized suspect
    /// window: each press's block coverage becomes one spectrum step and
    /// comparator errors mark the step failing. Steps only fold counters;
    /// the window is scored when read — once at the end of the run, into
    /// [`LoopOutcome::top_suspects`], plus after each failing step while
    /// telemetry is recording (the prime-suspect gauge).
    pub fn diagnose_online(&mut self, top_k: usize) {
        self.online_diagnosis_k = Some(top_k);
    }

    /// The closed-loop machinery for one run over `machine`.
    fn closed_loop<'m>(&self, machine: &'m Machine, n_blocks: u32) -> ClosedLoop<'m> {
        let cfg =
            Configuration::new().with_default_spec(CompareSpec::exact().with_max_consecutive(0));
        let mut builder = MonitorBuilder::new(machine)
            .configuration(cfg)
            .output_delay(self.output_delay)
            .jitter(self.jitter)
            .loss(self.loss)
            .reliable(self.reliable)
            .seed(self.seed)
            .telemetry(self.telemetry.clone());
        if let Some(config) = self.supervision {
            builder = builder.supervised(config);
        }
        if let Some(top_k) = self.online_diagnosis_k {
            builder = builder.diagnosis(DiagnosisConfig::new(n_blocks).with_top_k(top_k));
        }
        let mut mode_detector = ModeConsistencyDetector::new();
        mode_detector.add_rule(ConsistencyRule::new(
            "txt-sync",
            "ui",
            "teletext",
            "decoder",
            ["teletext"],
        ));
        if self.probes {
            // Witness rules are only consulted when the observatory
            // emits its witness observations, so they ride the same
            // detector without changing probe-free behaviour.
            mode_detector.add_rule(ConsistencyRule::new(
                "menu-witness",
                "osd.intent",
                "closed",
                "scaler",
                [
                    "video",
                    "teletext",
                    "dual",
                    "dual+teletext",
                    "pip",
                    "epg",
                    "off",
                ],
            ));
            mode_detector.add_rule(ConsistencyRule::new(
                "swivel-witness",
                "swivel.motor",
                "idle",
                "swivel.cmd",
                ["converged"],
            ));
        }
        ClosedLoop {
            monitor: builder.build(),
            mode_detector,
            probes: self.probes.then(ProbeRuntime::new),
            recovery: self
                .unit_recovery
                .map(|style| RecoveryState::new(style, self.seed)),
        }
    }

    /// Runs the scenario to completion.
    pub fn run(&mut self, scenario: &TimedScenario) -> LoopOutcome {
        let machine = self.machine;
        let tv = TvSystem::new();
        let closed = self
            .closed
            .then(|| self.closed_loop(machine, tv.n_blocks()));
        let mut session = Session::new(machine, &self.telemetry, tv, closed);
        let mut prev_press_at = None;
        for (i, &(at, key)) in scenario.presses().iter().enumerate() {
            // Idle-window probing: the observatory fires its next
            // self-check into the settled gap left by the previous
            // press, before this press's fault edges and traffic.
            if let Some(prev) = prev_press_at {
                session.probe_window(prev + STEP, at);
            }
            prev_press_at = Some(at);
            self.telemetry.span_enter(at, "core.loop.step");
            for edge in self.injector.poll(at, i as u64) {
                session.fault_edge(at, edge);
            }
            // A press swallowed by a reboot outage skips the whole
            // closed-loop step: the monitor never sees it.
            if session.press(at, key, Origin::User) {
                session.settle(at, Origin::User);
            }
            session.end_step(at);
            // Close the step span after everything the step stamped.
            let step_end = if self.closed { at + STEP } else { at };
            self.telemetry.span_exit(step_end, "core.loop.step");
        }
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awareness::to_obs_value;
    use proptest::prelude::*;

    fn teletext_scenario() -> TimedScenario {
        TimedScenario::teletext_session(30)
    }

    #[test]
    fn healthy_run_has_no_failures_or_errors() {
        let mut looped = TvDependabilityLoop::closed(1);
        let outcome = looped.run(&teletext_scenario());
        assert_eq!(outcome.failure_steps, 0, "{outcome:?}");
        assert_eq!(outcome.detected_errors, 0, "{outcome:?}");
        assert_eq!(outcome.recoveries, 0);
        assert_eq!(outcome.steps, 30);
    }

    #[test]
    fn open_loop_failures_persist() {
        let mut looped = TvDependabilityLoop::open(1);
        // Transient sync-loss fault active during the first teletext
        // toggle; the missed notification leaves a persistent error.
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_millis(250),
                to: SimTime::from_millis(350),
            },
            TvFault::TeletextSyncLoss,
        );
        let outcome = looped.run(&teletext_scenario());
        // Open loop: nothing detected, nothing repaired.
        assert_eq!(outcome.detected_errors, 0);
        assert_eq!(outcome.recoveries, 0);
        assert!(outcome.fault_activations >= 1);
    }

    #[test]
    fn closed_loop_detects_and_repairs_sync_loss() {
        let mut looped = TvDependabilityLoop::closed(1);
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_millis(250),
                to: SimTime::from_millis(350),
            },
            TvFault::TeletextSyncLoss,
        );
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.detected_errors > 0, "{outcome:?}");
        assert!(outcome.recoveries > 0, "{outcome:?}");
        assert!(outcome.detection_latency.is_some());
    }

    #[test]
    fn closed_loop_beats_open_loop_on_mute_inversion() {
        let schedule = || Schedule::Between {
            from: SimTime::from_millis(1650),
            to: SimTime::from_millis(1750),
        };
        // The scenario mutes at 1600 ms and unmutes at 1700 ms (teletext
        // session pattern): the unmute is lost.
        let mut open = TvDependabilityLoop::open(5);
        open.schedule_fault(schedule(), TvFault::MuteInversion);
        let open_out = open.run(&teletext_scenario());

        let mut closed = TvDependabilityLoop::closed(5);
        closed.schedule_fault(schedule(), TvFault::MuteInversion);
        let closed_out = closed.run(&teletext_scenario());

        assert!(
            closed_out.failure_steps <= open_out.failure_steps,
            "closed {closed_out:?} vs open {open_out:?}"
        );
        if open_out.failure_steps > 0 {
            assert!(closed_out.failure_steps < open_out.failure_steps);
            assert!(closed_out.recoveries > 0);
        }
    }

    #[test]
    fn online_diagnosis_localizes_render_fault_mid_run() {
        let mut looped = TvDependabilityLoop::closed(1);
        looped.schedule_fault(Schedule::Always, TvFault::TeletextRenderFault);
        // The fault block shares its ambiguity group with every other
        // block conditioned on the same page bit (acquire + render bit-3
        // sub-regions); the window must span that group to contain it.
        looped.diagnose_online(128);
        let outcome = looped.run(&teletext_scenario());

        // The corrupted renders raise comparator errors, each of which
        // marks the current spectrum step failing.
        assert!(outcome.diagnoses_triggered >= 1, "{outcome:?}");
        let fault_block = tvsim::TvSystem::new().bank().teletext_fault_block();
        assert!(
            outcome.top_suspects.contains(&fault_block),
            "fault block {fault_block} not in suspects {:?}",
            outcome.top_suspects
        );
    }

    #[test]
    fn diagnosis_off_by_default() {
        let mut looped = TvDependabilityLoop::closed(1);
        looped.schedule_fault(Schedule::Always, TvFault::TeletextRenderFault);
        let outcome = looped.run(&teletext_scenario());
        assert_eq!(outcome.diagnoses_triggered, 0);
        assert!(outcome.top_suspects.is_empty());
    }

    #[test]
    fn reboot_target_is_the_first_indicted_unit() {
        let verdicts = [
            Verdict::of("mode-consistency:txt-sync"),
            Verdict::of("no-such-observable"),
            Verdict::of("audio.muted"),
        ];
        assert_eq!(reboot_target(&verdicts), Some(Unit::Audio));
        assert_eq!(reboot_target(&verdicts[..2]), Some(Unit::Teletext));
        assert_eq!(reboot_target(&verdicts[1..2]), None);
        assert_eq!(reboot_target(&[]), None);
    }

    #[test]
    fn indictments_match_the_unit_announcements() {
        // The observable rows of `INDICTMENTS` and `announce_unit` write
        // one relation twice: every output a unit announces, with
        // teletext off and on, indicts that unit, and every observable
        // row is announced by some unit.
        let mut announced = BTreeSet::new();
        for teletext in [false, true] {
            let mut tv = TvSystem::new();
            tv.press(SimTime::ZERO, Key::Power);
            if teletext {
                tv.press(SimTime::ZERO, Key::Teletext);
            }
            for unit in Unit::ALL {
                for o in tv.announce_unit(SimTime::ZERO, unit) {
                    if let Some((name, _)) = o.as_output() {
                        assert_eq!(Verdict::of(name).unit, Some(unit), "{name}");
                        announced.insert(name.to_owned());
                    }
                }
            }
        }
        let observables = INDICTMENTS.iter().filter(|(name, ..)| !name.contains(':'));
        assert_eq!(observables.clone().count(), 8);
        for (name, ..) in observables {
            assert!(announced.contains(*name), "no unit announces {name}");
        }
    }

    #[test]
    fn failure_ratio_math() {
        let o = LoopOutcome {
            steps: 10,
            failure_steps: 3,
            ..LoopOutcome::default()
        };
        assert!((o.failure_ratio() - 0.3).abs() < 1e-12);
        let line = o.summary();
        assert_eq!(
            line,
            "steps=10 failures=3 (30.0%) detected=0 recoveries=0 faults=0"
        );
    }

    #[test]
    fn summary_includes_optional_sections_when_present() {
        let o = LoopOutcome {
            steps: 30,
            failure_steps: 1,
            detected_errors: 4,
            recoveries: 2,
            detection_latency: Some(SimDuration::from_millis(20)),
            fault_activations: 1,
            channels: Some(ChannelAudit {
                sent: 60,
                delivered: 58,
                lost: 0,
                in_flight: 2,
            }),
            safe_mode_entries: 1,
            diagnoses_triggered: 3,
            top_suspects: vec![7, 40],
            lost_presses: 12,
            lost_presses_unaffected: 9,
            micro_reboots: 2,
            full_restarts: 1,
            reboot_mttr: Some(SimDuration::from_millis(55)),
            checkpoint_generations: vec![("audio".to_string(), 6)],
            ladder_rung: 3,
        };
        let line = o.summary();
        assert!(line.contains("latency=20.000ms"), "{line}");
        assert!(
            line.contains("channels=60sent/58delivered/0lost/2inflight"),
            "{line}"
        );
        assert!(line.contains("safe_mode=1"), "{line}");
        assert!(
            line.contains("reboots=2micro/1full mttr=55.000ms"),
            "{line}"
        );
        assert!(line.contains("lost=12 (9 unaffected)"), "{line}");
        assert!(line.contains("rung=3"), "{line}");
        assert!(line.contains("diagnoses=3 prime=7"), "{line}");
    }

    fn mute_fault_schedule() -> Schedule {
        Schedule::Between {
            from: SimTime::from_millis(1650),
            to: SimTime::from_millis(1750),
        }
    }

    #[test]
    fn micro_reboot_recovers_the_faulty_unit_without_collateral_losses() {
        let mut looped = TvDependabilityLoop::closed(5);
        looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
        looped.unit_recovery(UnitRecoveryStyle::MicroReboot);
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.micro_reboots >= 1, "{outcome:?}");
        assert_eq!(outcome.full_restarts, 0, "{outcome:?}");
        // Only the audio unit ever went down, and its outage is shorter
        // than the press spacing: nothing aimed elsewhere was lost.
        assert_eq!(outcome.lost_presses_unaffected, 0, "{outcome:?}");
        let mttr = outcome.reboot_mttr.expect("episodes happened");
        assert!(mttr < SimDuration::from_millis(200), "{mttr}");
        // Healthy units kept their checkpoint cadence going.
        assert!(!outcome.checkpoint_generations.is_empty());
    }

    #[test]
    fn full_restart_loses_presses_on_unaffected_units() {
        let mut looped = TvDependabilityLoop::closed(5);
        looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
        looped.unit_recovery(UnitRecoveryStyle::FullRestart);
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.full_restarts >= 1, "{outcome:?}");
        assert_eq!(outcome.micro_reboots, 0, "{outcome:?}");
        // The whole TV is down for seconds: presses meant for perfectly
        // healthy units vanish with it.
        assert!(outcome.lost_presses_unaffected >= 1, "{outcome:?}");
        let mttr = outcome.reboot_mttr.expect("episodes happened");
        assert!(mttr >= SimDuration::from_secs(4), "{mttr}");
    }

    #[test]
    fn corrupted_checkpoint_history_escalates_to_full_restart() {
        // Every generation of the audio unit's history is corrupted as
        // it is sealed: the fingerprint must reject generation after
        // generation and the episode must climb to the full-restart rung.
        let telemetry = Telemetry::recording(2048);
        let mut tv = TvSystem::new();
        tv.press(SimTime::ZERO, Key::Power);
        let mut rs = RecoveryState::new(UnitRecoveryStyle::MicroReboot, 5);
        let mut at = SimTime::ZERO;
        for _ in 0..VAULT_CAPACITY + 1 {
            rs.maybe_checkpoint(&tv, at, &telemetry);
            assert!(rs.vault.corrupt_latest(Unit::Audio.name(), 7));
            at += CHECKPOINT_EVERY;
        }
        let mut announcements = Vec::new();
        rs.recover(&mut tv, at, Unit::Audio, &telemetry, &mut announcements);
        assert_eq!(rs.episodes - rs.full_restarts, 0, "no micro-reboot");
        assert_eq!(rs.full_restarts, 1);
        assert!(telemetry.counter("core.reboot.micro_escalations") >= 1);
        assert!(telemetry.counter("core.reboot.checkpoint") >= 1);
    }

    #[test]
    fn unit_recovery_runs_are_deterministic_per_seed() {
        let run = || {
            let mut looped = TvDependabilityLoop::closed(9);
            looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
            looped.unit_recovery(UnitRecoveryStyle::MicroReboot);
            looped.run(&teletext_scenario())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recording_run_captures_fault_and_detection_timeline() {
        let telemetry = Telemetry::recording(4096);
        let mut looped = TvDependabilityLoop::closed(1);
        looped.set_telemetry(telemetry.clone());
        looped.schedule_fault(
            Schedule::Between {
                from: SimTime::from_millis(250),
                to: SimTime::from_millis(350),
            },
            TvFault::TeletextSyncLoss,
        );
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.detected_errors > 0);

        let timeline = telemetry.events_jsonl();
        assert!(
            timeline.contains("\"core.loop.fault\""),
            "fault edge missing"
        );
        assert!(
            timeline.contains("teletext-sync-loss"),
            "fault name missing"
        );
        assert!(
            timeline.contains("core.loop.detections"),
            "detections missing"
        );
        assert!(timeline.contains("core.loop.repairs"), "repairs missing");
        // Every line is stamped with virtual time.
        for line in timeline.lines() {
            assert!(line.contains("\"clock\":\"virtual\""), "{line}");
        }
        let metrics = telemetry.snapshot_metrics();
        assert!(metrics.counter("awareness.comparator.comparisons") > 0);
        assert_eq!(
            metrics.counter("core.loop.detections"),
            outcome.detected_errors as i64
        );
    }

    #[test]
    fn same_seed_runs_drain_identical_timelines() {
        let run = || {
            let telemetry = Telemetry::recording(8192);
            let mut looped = TvDependabilityLoop::closed(7);
            looped.set_telemetry(telemetry.clone());
            looped.schedule_fault(Schedule::Always, TvFault::MuteInversion);
            looped.set_channel_loss(0.05);
            looped.use_reliable(true);
            let _ = looped.run(&teletext_scenario());
            (telemetry.events_jsonl(), telemetry.metrics_json())
        };
        let (events_a, metrics_a) = run();
        let (events_b, metrics_b) = run();
        assert_eq!(events_a, events_b, "event timelines diverged");
        assert_eq!(metrics_a, metrics_b, "metrics readouts diverged");
        assert!(!events_a.is_empty());
    }

    #[test]
    fn probes_on_fault_free_run_stay_silent() {
        let telemetry = Telemetry::recording(16_384);
        let mut looped = TvDependabilityLoop::closed(1);
        looped.set_telemetry(telemetry.clone());
        looped.active_probes();
        let outcome = looped.run(&TimedScenario::idle_session(30));
        // The observatory exercised the set but a healthy TV and its
        // model agree on every synthetic press: zero verdict changes.
        assert_eq!(outcome.failure_steps, 0, "{outcome:?}");
        assert_eq!(outcome.detected_errors, 0, "{outcome:?}");
        assert_eq!(outcome.recoveries, 0);
        let fired: i64 = PROBE_PLANS
            .iter()
            .map(|plan| telemetry.counter(plan.fired))
            .sum();
        assert!(fired >= 24, "expected a probe per idle window, got {fired}");
        for plan in &PROBE_PLANS {
            assert!(telemetry.counter(plan.fired) >= 1, "{} is 0", plan.fired);
        }
        assert_eq!(telemetry.counter("core.probes.detections"), 0);
    }

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn probe_rotation_is_deterministic() {
        let mut a = ProbeRuntime::new();
        let mut b = ProbeRuntime::new();
        for i in 0..12u64 {
            let start = ms(100 * i + 25);
            let end = ms(100 * (i + 1));
            let fa = a.next(start, end);
            assert_eq!(fa, b.next(start, end), "schedules must be deterministic");
            let (index, first) = fa.expect("window is wide enough");
            assert_eq!(index, i as usize % PROBE_PLANS.len());
            assert_eq!(first, start + SimDuration::from_millis(15));
        }
        assert_eq!(a.cursor, 12);
    }

    #[test]
    fn short_window_skips_without_losing_rotation() {
        let mut rt = ProbeRuntime::new();
        // Too short: 15 ms offset + 25 ms step > 30 ms.
        assert_eq!(rt.next(ms(0), ms(30)), None);
        // The skipped probe fires in the next adequate window.
        assert_eq!(rt.next(ms(100), ms(200)), Some((0, ms(115))));
        // The five-key teletext round-trip needs 15 + 4 * 2 + 25 ms.
        rt.cursor = 2;
        assert_eq!(rt.next(ms(0), ms(47)), None);
        assert_eq!(rt.next(ms(0), ms(48)), Some((2, ms(15))));
    }

    /// Idle-window sequences: cumulative gaps of 30..160 ms.
    fn windows() -> impl Strategy<Value = Vec<(u64, u64)>> {
        prop::collection::vec(30u64..160, 1..40).prop_map(|gaps| {
            let mut at = 0u64;
            gaps.iter()
                .map(|gap| {
                    let w = (at, at + gap);
                    at += gap;
                    w
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The rotation is a pure function of the window sequence: two
        /// runtimes fed the same windows pick the same probes, the
        /// cursor only moves when a probe fires, and every fired burst
        /// (plus a step) fits its window.
        #[test]
        fn probe_schedule_is_a_pure_function_of_the_windows(windows in windows()) {
            let mut a = ProbeRuntime::new();
            let mut b = ProbeRuntime::new();
            let mut fired = 0usize;
            for &(start, end) in &windows {
                let fa = a.next(ms(start), ms(end));
                prop_assert_eq!(fa, b.next(ms(start), ms(end)), "schedules diverged");
                if let Some((index, first)) = fa {
                    prop_assert_eq!(index, fired % PROBE_PLANS.len());
                    fired += 1;
                    let keys = PROBE_PLANS[index].keys.len() as u64;
                    let last = first + SimDuration::from_millis(2) * (keys - 1);
                    prop_assert!(last + SimDuration::from_millis(25) <= ms(end));
                }
            }
            prop_assert_eq!(a.cursor, fired);
        }
    }

    #[test]
    fn probes_detect_sleep_timer_lost_in_idle() {
        // Without probes the idle workload never touches the sleep
        // timer, so the lost-interrupt fault is undetectable: the blind
        // cell the observatory exists to close.
        let schedule = || Schedule::Between {
            from: SimTime::from_millis(500),
            to: SimTime::from_millis(2000),
        };
        let mut blind = TvDependabilityLoop::closed(3);
        blind.schedule_fault(schedule(), TvFault::SleepTimerLost);
        let blind_out = blind.run(&TimedScenario::idle_session(30));
        assert_eq!(blind_out.detected_errors, 0, "{blind_out:?}");

        let mut probed = TvDependabilityLoop::closed(3);
        probed.schedule_fault(schedule(), TvFault::SleepTimerLost);
        probed.active_probes();
        let probed_out = probed.run(&TimedScenario::idle_session(30));
        assert!(probed_out.detected_errors > 0, "{probed_out:?}");
        assert!(probed_out.detection_latency.is_some());
    }

    #[test]
    fn probes_detect_stuck_swivel_in_idle() {
        let mut blind = TvDependabilityLoop::closed(4);
        blind.schedule_fault(Schedule::Always, TvFault::SwivelStuck);
        let blind_out = blind.run(&TimedScenario::idle_session(30));
        assert_eq!(blind_out.detected_errors, 0, "{blind_out:?}");

        let mut probed = TvDependabilityLoop::closed(4);
        probed.schedule_fault(Schedule::Always, TvFault::SwivelStuck);
        probed.active_probes();
        let probed_out = probed.run(&TimedScenario::idle_session(30));
        assert!(probed_out.detected_errors > 0, "{probed_out:?}");
    }

    #[test]
    fn probes_detect_menu_freeze_in_idle() {
        let mut probed = TvDependabilityLoop::closed(5);
        probed.schedule_fault(Schedule::Always, TvFault::MenuFreeze);
        probed.active_probes();
        let probed_out = probed.run(&TimedScenario::idle_session(30));
        assert!(probed_out.detected_errors > 0, "{probed_out:?}");
    }

    #[test]
    fn probe_runs_are_deterministic_per_seed() {
        let run = || {
            let telemetry = Telemetry::recording(16_384);
            let mut looped = TvDependabilityLoop::closed(9);
            looped.set_telemetry(telemetry.clone());
            looped.schedule_fault(
                Schedule::Between {
                    from: SimTime::from_millis(400),
                    to: SimTime::from_millis(1400),
                },
                TvFault::SleepTimerLost,
            );
            looped.active_probes();
            let outcome = looped.run(&TimedScenario::idle_session(30));
            (outcome, telemetry.events_jsonl())
        };
        let (out_a, events_a) = run();
        let (out_b, events_b) = run();
        assert_eq!(out_a.detected_errors, out_b.detected_errors);
        assert_eq!(out_a.failure_steps, out_b.failure_steps);
        assert_eq!(events_a, events_b, "probe timelines diverged");
    }

    #[test]
    fn probe_traffic_does_not_crowd_out_planted_fault_spectra() {
        // Satellite regression: synthetic probe presses are excluded
        // from coverage recording, so heavy probing must not dilute the
        // spectra that localize a *real* fault exercised by the
        // scenario itself.
        let mut looped = TvDependabilityLoop::closed(1);
        looped.schedule_fault(Schedule::Always, TvFault::TeletextRenderFault);
        looped.diagnose_online(128);
        looped.active_probes();
        let outcome = looped.run(&teletext_scenario());
        assert!(outcome.diagnoses_triggered >= 1, "{outcome:?}");
        let fault_block = tvsim::TvSystem::new().bank().teletext_fault_block();
        assert!(
            outcome.top_suspects.contains(&fault_block),
            "fault block {fault_block} crowded out of suspects {:?}",
            outcome.top_suspects
        );
    }

    fn float() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1e3..1e3f64,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(0.0),
            Just(1e-10),
        ]
    }

    fn text() -> impl Strategy<Value = String> {
        (0usize..4).prop_map(|i| ["", "a", "b", "ab"][i].to_owned())
    }

    fn expected_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-3i64..3).prop_map(Value::Int),
            any::<bool>().prop_map(Value::Bool),
            float().prop_map(Value::Float),
            text().prop_map(Value::Str),
        ]
    }

    fn actual_value() -> impl Strategy<Value = ObsValue> {
        prop_oneof![
            (-3i64..3).prop_map(|n| ObsValue::Num(n as f64)),
            float().prop_map(ObsValue::Num),
            text().prop_map(ObsValue::from),
        ]
    }

    proptest! {
        /// The allocation-free deviation check and the monitor's own
        /// conversion plus the comparator's distance are two
        /// implementations of one rule: pinned equal.
        #[test]
        fn deviation_check_matches_distance(
            expected in expected_value(),
            actual in actual_value(),
        ) {
            let by_distance = to_obs_value(expected.clone()).distance(&actual) > 1e-9;
            prop_assert_eq!(deviates(&expected, &actual), by_distance);
        }
    }
}
