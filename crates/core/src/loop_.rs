//! The closed dependability loop over the television SUO (paper Fig. 1).
//!
//! *Open loop* is how the paper characterizes traditional products: "for
//! a certain input, the required actions are executed, but it is never
//! checked whether these actions have the desired effect". The *closed
//! loop* adds the awareness monitor, complementary detectors, and a
//! correction strategy.

use awareness::{
    AwarenessMonitor, CompareSpec, Configuration, DeadlineMonitor, DiagnosisConfig, MonitorBuilder,
    ProbeConfig, ProbeScheduler, SupervisorConfig,
};
use detect::{ConsistencyRule, Detector, ErrorEvent, ModeConsistencyDetector};
use faults::injector::Transition;
use faults::{Injector, Schedule};
use observe::{ObsValue, Observation, ObservationKind};
use recovery::{CheckpointVault, RestoreOutcome};
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng, SimTime};
use statemachine::{Executor, Machine, OutputRecord, Value};
use std::collections::{BTreeMap, BTreeSet};
use telemetry::Telemetry;
use tvsim::{tv_spec_machine, Key, TvFault, TvSystem};

use crate::scenario::TimedScenario;

/// End-of-run accounting for the monitor's boundary channels, summed
/// over the input and output directions.
///
/// With supervision enabled, channel restarts replace the channel pair;
/// the audit covers the channels live at the end of the run (each epoch
/// conserves independently).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
/// error on a pipeline unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

/// Configuration for structural unit recovery (checkpoints + reboot
/// ladder). When installed via [`TvDependabilityLoop::unit_recovery`],
/// it replaces the targeted repair strategy in the closed loop; the open
/// loop ignores it (there is nothing to detect with). The timings are
/// fixed: a 500 ms checkpoint cadence, 4 generations per unit, a 4 s
/// full-restart outage, a 50 ms micro-reboot outage plus 1 ms per
/// replayed press, and a 200 ms cooldown between episodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitRecoveryConfig {
    /// Which rung the loop reaches for first.
    pub style: UnitRecoveryStyle,
    /// Chance that chaos flips one bit in a just-saved checkpoint
    /// (exercises the fingerprint fallback). Seed-derived.
    pub corrupt_chance: f64,
    /// Chance that chaos tears a field out of a just-saved checkpoint.
    pub tear_chance: f64,
}

impl UnitRecoveryConfig {
    /// Micro-reboot recovery with no checkpoint chaos.
    pub fn micro_reboot() -> Self {
        UnitRecoveryConfig {
            style: UnitRecoveryStyle::MicroReboot,
            corrupt_chance: 0.0,
            tear_chance: 0.0,
        }
    }

    /// Full-restart recovery: same checkpoint discipline, but every
    /// recovery bounces the whole TV for the 4 s outage.
    pub fn full_restart() -> Self {
        UnitRecoveryConfig {
            style: UnitRecoveryStyle::FullRestart,
            ..Self::micro_reboot()
        }
    }
}

/// Healthy-window checkpoint cadence. A unit is only checkpointed when
/// no error has been attributed to it since its last checkpoint — a
/// crash-consistent snapshot, never a wedged one.
const CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(500);

/// Checkpoint generations kept per unit.
const VAULT_CAPACITY: usize = 4;

/// Virtual-time outage of a full restart (all units down).
const FULL_RESTART_OUTAGE: SimDuration = SimDuration::from_secs(4);

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

/// One registered self-check: a key sequence that nudges a dormant
/// function and restores (or symmetrically perturbs) its state, so the
/// model executor tracks the SUO exactly and only a fault produces a
/// verdict.
struct ProbePlan {
    kind: &'static str,
    keys: &'static [Key],
    /// Fired counter (flight-recorder names must be `'static`).
    fired: &'static str,
    /// Verdict transition stream.
    verdict: &'static str,
}

/// A [`ProbePlan`] whose telemetry names derive from its kind.
macro_rules! probe_plan {
    ($kind:literal => $($key:expr),+) => {
        ProbePlan {
            kind: $kind,
            keys: &[$($key),+],
            fired: concat!("core.probes.fired.", $kind),
            verdict: concat!("core.probes.verdict.", $kind),
        }
    };
}

/// The registered self-checks, in rotation order.
static PROBE_PLANS: [ProbePlan; 6] = [
    probe_plan!("sleep-timer" => Key::Sleep),
    probe_plan!("volume-nudge" => Key::VolUp, Key::VolDown, Key::Mute, Key::Mute),
    probe_plan!("teletext-roundtrip" =>
        Key::Teletext, Key::Digit(1), Key::Digit(2), Key::Digit(3), Key::Teletext),
    probe_plan!("menu-toggle" => Key::Menu, Key::Back),
    probe_plan!("swivel-jog" => Key::SwivelRight, Key::SwivelLeft),
    probe_plan!("channel-flip" => Key::ChannelUp, Key::ChannelDown),
];

/// The outcome of running a scenario through the loop.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
/// the model value converted the way the monitor converts it (text stays
/// text, anything else becomes a number), without materializing the
/// conversion. Text mismatch or a cross-kind comparison deviates, a
/// numeric difference beyond the epsilon deviates, and a NaN on either
/// side never does.
fn deviates(expected: &Value, actual: &ObsValue) -> bool {
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
const INDICTMENTS: [(&str, &str, Option<Repair>); 13] = [
    ("volume", "audio", Some(Repair::ForceAudio)),
    ("audio.muted", "audio", Some(Repair::ForceAudio)),
    ("channel", "tuner", None),
    ("screen.mode", "screen", Some(Repair::ResyncTeletext)),
    ("source", "screen", None),
    ("swivel.angle", "swivel", None),
    ("sleep.minutes", "sleep", None),
    ("teletext.page", "teletext", Some(Repair::ResyncTeletext)),
    (
        "mode-consistency:txt-sync",
        "teletext",
        Some(Repair::ResyncTeletext),
    ),
    ("mode-consistency:menu-witness", "screen", None),
    ("mode-consistency:swivel-witness", "swivel", None),
    ("watchdog:sleep.timer", "sleep", None),
    ("deadline:sleep.timer", "sleep", None),
];

/// The unit and targeted repair an error named `name` indicts.
fn indictment(name: &str) -> Option<(&'static str, Option<Repair>)> {
    INDICTMENTS
        .iter()
        .find(|(key, ..)| *key == name)
        .map(|&(_, unit, repair)| (unit, repair))
}

/// Per-run state of the active health observatory: the probe rotation
/// (a probe in every idle window), the sleep-timer deadline monitor, and
/// the last verdict per probe kind (for the verdict-transition streams).
struct ProbeRuntime {
    scheduler: ProbeScheduler<Key>,
    deadline: DeadlineMonitor,
    verdicts: [&'static str; 6],
}

impl ProbeRuntime {
    fn new() -> Self {
        let mut scheduler = ProbeScheduler::new(ProbeConfig::default());
        for plan in &PROBE_PLANS {
            scheduler.register(plan.kind, plan.keys.to_vec());
        }
        ProbeRuntime {
            scheduler,
            deadline: DeadlineMonitor::new(HEARTBEAT_DEADLINE, FIRE_GRACE),
            verdicts: ["pass"; 6],
        }
    }
}

/// True when firing `kind` right now would disturb a foreground mode
/// the user currently has active (teletext page state, an open menu).
/// An idle-time prober must leave foreground state alone: a deferred
/// slot is consumed from the rotation (keeping the schedule
/// deterministic) but its keys are never pressed.
fn probe_disturbs(tv: &TvSystem, kind: &str) -> bool {
    match kind {
        "teletext-roundtrip" | "channel-flip" => tv.teletext().is_on(),
        "menu-toggle" => tv.osd_has_focus(),
        _ => false,
    }
}

/// Builds a mode-witness observation (fed to the consistency detector
/// only — witnesses are in-situ samples, not boundary traffic).
fn witness_obs(at: SimTime, component: &str, mode: &str) -> Observation {
    Observation::new(
        at,
        component,
        ObservationKind::Mode {
            component: component.to_owned(),
            mode: mode.to_owned(),
        },
    )
}

/// The latest recovery episode's outage. One is enough: an episode
/// starts only after the cooldown that follows the previous outage,
/// so an older outage has always expired.
#[derive(Debug, Clone, Copy)]
struct Outage {
    /// The unit the episode recovered.
    unit: &'static str,
    /// End of the outage.
    until: SimTime,
    /// True when the whole TV is down (full restart), not just `unit`.
    whole_tv: bool,
}

/// Per-run bookkeeping for structural unit recovery: the checkpoint
/// vault, the per-unit press journals, the outage, and the MTTR ledger.
#[derive(Debug)]
struct RecoveryState {
    cfg: UnitRecoveryConfig,
    vault: CheckpointVault,
    chaos: SimRng,
    journal: BTreeMap<&'static str, Vec<Key>>,
    dirty: BTreeSet<&'static str>,
    outage: Option<Outage>,
    next_allowed: SimTime,
    last_checkpoint: Option<SimTime>,
    mttr_total_ns: u64,
    episodes: u64,
}

impl RecoveryState {
    fn new(cfg: UnitRecoveryConfig, seed: u64) -> Self {
        RecoveryState {
            cfg,
            // The vault seed is derived from, not equal to, the loop
            // seed: a fingerprint must not collide with other
            // seed-keyed digests in the same run.
            vault: CheckpointVault::new(seed ^ 0xC0DE_5EA1_ED00_0000, VAULT_CAPACITY),
            chaos: SimRng::seed(seed).derive(0xC8A0_55EE),
            journal: BTreeMap::new(),
            dirty: BTreeSet::new(),
            outage: None,
            next_allowed: SimTime::ZERO,
            last_checkpoint: None,
            mttr_total_ns: 0,
            episodes: 0,
        }
    }

    /// Whether a press served by `unit` at `at` falls inside a reboot
    /// outage (whole-TV or that unit's own).
    fn is_down(&self, at: SimTime, unit: &str) -> bool {
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
        for unit in TvSystem::UNITS {
            if self.dirty.contains(unit) || self.is_down(at, unit) {
                continue;
            }
            let Some(state) = tv.unit_state(unit) else {
                continue;
            };
            self.vault.save(unit, at, state);
            // The journal restarts at the new baseline.
            self.journal.remove(unit);
            telemetry.count(at, "core.reboot.checkpoint", 1);
            // Chaos rider: flip a bit or tear a field in what was just
            // sealed, so restores exercise the fingerprint fallback.
            if self.cfg.corrupt_chance > 0.0 && self.chaos.chance(self.cfg.corrupt_chance) {
                let bit = self.chaos.uniform_u64(0, 63) as u32;
                let _ = self.vault.corrupt_latest(unit, bit);
            } else if self.cfg.tear_chance > 0.0 && self.chaos.chance(self.cfg.tear_chance) {
                let _ = self.vault.tear_latest(unit);
            }
        }
    }

    /// Runs one recovery episode for `unit` at `settle`, appending the
    /// recovered units' announcements (fed back as observations) into
    /// the caller's scratch buffer instead of allocating a fresh vector
    /// per episode.
    ///
    /// Micro-reboot restores the unit's latest validated checkpoint and
    /// replays its journal; if the whole checkpoint history fails
    /// validation it escalates to a full restart, the style used
    /// unconditionally by [`UnitRecoveryStyle::FullRestart`].
    fn recover(
        &mut self,
        tv: &mut TvSystem,
        settle: SimTime,
        unit: &'static str,
        outcome: &mut LoopOutcome,
        telemetry: &Telemetry,
        announcements: &mut Vec<Observation>,
    ) {
        if self.cfg.style == UnitRecoveryStyle::MicroReboot {
            if let RestoreOutcome::Restored { state, .. } = self.vault.restore_latest(unit) {
                tv.restore_unit(unit, &state);
                // State reconciliation: every press served since the
                // checkpoint is replayed onto the restored state.
                let entries = self.journal.get(unit).cloned().unwrap_or_default();
                for key in &entries {
                    let _ = tv.replay_unit_key(settle, unit, *key);
                }
                let outage = MICRO_OUTAGE + REPLAY_COST * entries.len() as u64;
                self.finish_episode(settle, outage, unit, false);
                self.dirty.remove(unit);
                outcome.micro_reboots += 1;
                outcome.recoveries += 1;
                telemetry.count(settle, "core.reboot.micro", 1);
                announcements.extend(tv.announce_unit(settle, unit));
                return;
            }
            // No validated generation left: climb to the full-restart
            // rung for this episode.
            telemetry.count(settle, "core.reboot.micro_escalations", 1);
        }
        for u in TvSystem::UNITS {
            match self.vault.restore_latest(u) {
                RestoreOutcome::Restored { state, .. } => {
                    tv.restore_unit(u, &state);
                }
                // No usable checkpoint: power-on defaults.
                _ => {
                    tv.reset_unit(u);
                }
            }
            self.dirty.remove(u);
            // A full restart has no replay: post-checkpoint context is
            // lost, which is exactly its cost.
            self.journal.remove(u);
            announcements.extend(tv.announce_unit(settle, u));
        }
        self.finish_episode(settle, FULL_RESTART_OUTAGE, unit, true);
        outcome.full_restarts += 1;
        outcome.recoveries += 1;
        telemetry.count(settle, "core.reboot.full", 1);
    }

    fn finish_episode(
        &mut self,
        settle: SimTime,
        outage: SimDuration,
        unit: &'static str,
        whole_tv: bool,
    ) {
        self.outage = Some(Outage {
            unit,
            until: settle + outage,
            whole_tv,
        });
        self.mttr_total_ns += outage.as_nanos();
        self.episodes += 1;
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

/// Steps the ground-truth oracle — the desired behaviour, evaluated
/// with zero delay and full observability (only the harness has this).
/// The loop reads only the oracle's latest value per output
/// ([`Executor::last_output`]), so the output records are drained into
/// `scratch` and dropped, keeping both buffers' capacity.
fn step_oracle(oracle: &mut Executor<'_>, scratch: &mut Vec<OutputRecord>, at: SimTime, key: Key) {
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
    /// Feeds one SUO observation to the monitor, the mode detector and
    /// the deadline monitor, returning the detector's errors.
    fn observe(&mut self, obs: &Observation) -> Vec<ErrorEvent> {
        self.monitor.offer(obs);
        let errors = self.mode_detector.observe(obs);
        if let Some(pr) = self.probes.as_mut() {
            pr.deadline.observe(obs);
        }
        errors
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
    /// Detector-raised errors awaiting the next settle.
    detector_errors: Vec<ErrorEvent>,
    /// Repair observations (targeted repairs or reboot announcements).
    repair_obs: Vec<Observation>,
    /// Drained oracle output records.
    oracle_outputs: Vec<OutputRecord>,
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
            detector_errors: Vec::new(),
            repair_obs: Vec::new(),
            oracle_outputs: Vec::new(),
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
        let observations = self.tv.press(at, key);
        for obs in &observations {
            if let Some((name, value)) = obs.as_output() {
                mirror_output(&mut self.sys_state, name, value);
            }
        }
        step_oracle(&mut self.oracle, &mut self.oracle_outputs, at, key);
        if let Some(cl) = self.closed.as_mut() {
            for obs in &observations {
                self.detector_errors.extend(cl.observe(obs));
            }
        }
        true
    }

    /// Lets the monitor settle after a press, or after a probe burst's
    /// last key at `at`, then counts and corrects everything the
    /// comparator and the detectors flagged. A user press becomes one
    /// spectrum step; a probe burst's coverage is dropped and its errors
    /// absorbed, so diagnosis ranking stays probe-free. Returns the
    /// number of errors detected.
    fn settle(&mut self, at: SimTime, origin: Origin) -> usize {
        let Some(cl) = self.closed.as_mut() else {
            return 0;
        };
        let settle = at + SETTLE;
        // Timer-service liveness rides every settle, so obligations are
        // checked even between probe windows — unless the timer unit is
        // itself inside an outage.
        let sleep_down = cl
            .recovery
            .as_ref()
            .is_some_and(|rs| rs.is_down(settle, "sleep"));
        if let (Some(pr), false) = (cl.probes.as_mut(), sleep_down) {
            for hb in self.tv.timer_heartbeat(settle) {
                pr.deadline.observe(&hb);
            }
            self.detector_errors.extend(pr.deadline.tick(settle));
        }
        cl.monitor.advance_to(settle);
        let comparator_errors = cl.monitor.drain_errors();
        // One spectrum step per user press: snapshot the coverage now so
        // the step reflects the SUO's response to the press alone —
        // repair bursts below are monitor-commanded and would otherwise
        // correlate perfectly with failing verdicts and crowd out the
        // true fault block.
        let coverage = (origin == Origin::User).then(|| self.tv.take_coverage());
        let n_errors = comparator_errors.len() + self.detector_errors.len();
        if n_errors > 0 {
            self.outcome.detected_errors += n_errors;
            self.first_detect_at.get_or_insert(settle);
            let name = match origin {
                Origin::User => "core.loop.detections",
                Origin::Probe => "core.probes.detections",
            };
            self.telemetry.count(settle, name, n_errors as i64);
        }

        // Correction: attribute every error to the unit it indicts, then
        // reboot structurally or apply the targeted repairs.
        let recoveries_before = self.outcome.recoveries;
        let indicted = self
            .detector_errors
            .iter()
            .map(|err| err.detector.as_str())
            .chain(comparator_errors.iter().map(|err| err.observable.as_str()))
            .filter_map(indictment);
        if let Some(rs) = cl.recovery.as_mut() {
            // Indicted units are no longer checkpoint-clean; the first
            // reboots (micro) or bounces the whole TV (full restart).
            let first = indicted
                .map(|(unit, _)| unit)
                .inspect(|unit| {
                    rs.dirty.insert(*unit);
                })
                .min();
            if let Some(unit) = first.filter(|_| settle >= rs.next_allowed) {
                rs.recover(
                    &mut self.tv,
                    settle,
                    unit,
                    &mut self.outcome,
                    self.telemetry,
                    &mut self.repair_obs,
                );
            }
        } else {
            let mut resynced = false;
            for (_, repair) in indicted {
                let obs = match repair {
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
                self.repair_obs.extend(obs);
                self.outcome.recoveries += 1;
            }
        }
        for obs in &self.repair_obs {
            if let Some((name, value)) = obs.as_output() {
                mirror_output(&mut self.sys_state, name, value);
            }
            let _ = cl.observe(obs);
        }
        let repairs = (self.outcome.recoveries - recoveries_before) as i64;
        if origin == Origin::User && repairs > 0 {
            self.telemetry.count(settle, "core.loop.repairs", repairs);
        }
        if !self.repair_obs.is_empty() {
            cl.monitor.advance_to(settle + REPAIR_SETTLE);
            // Post-repair comparisons should now match; drop any
            // residual transient error raised by the repair burst, and
            // the repair-path block coverage with it.
            let _ = cl.monitor.drain_errors();
            if coverage.is_some() {
                let _ = self.tv.take_coverage();
            }
        }
        match coverage {
            // Comparator errors since the last snapshot mark the step
            // failing in the in-loop spectrum. Recording after the
            // residual drain keeps repair transients from spilling a
            // failing verdict onto the next step.
            Some(coverage) => cl.monitor.record_coverage(&coverage),
            // Probe presses are synthetic traffic: drop their block
            // coverage and absorb their error count, so the next user
            // press's spectrum step reflects only its own behaviour.
            None => {
                let _ = self.tv.take_coverage();
                cl.monitor.absorb_synthetic_errors();
            }
        }
        self.detector_errors.clear();
        self.repair_obs.clear();
        n_errors
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
    /// the burst settles once, after its last key, with the mode
    /// witnesses.
    fn probe_window(&mut self, start: SimTime, end: SimTime) {
        let telemetry = self.telemetry;
        let Some(pr) = self.closed.as_mut().and_then(|cl| cl.probes.as_mut()) else {
            return;
        };
        let Some(firing) = pr.scheduler.plan_window(start, end) else {
            return;
        };
        let plan = &PROBE_PLANS[firing.plan];
        let fired_at = firing.keys[0].0;
        if probe_disturbs(&self.tv, plan.kind) {
            telemetry.count(fired_at, "core.probes.deferred", 1);
            return;
        }
        telemetry.span_enter(fired_at, "core.probes.burst");
        for &(at, key) in &firing.keys {
            self.press(at, key, Origin::Probe);
        }
        let last_at = firing.keys.last().map_or(SimTime::ZERO, |&(at, _)| at);
        let settle = last_at + SETTLE;
        self.witness(plan.kind, settle);
        let n_errors = self.settle(last_at, Origin::Probe);
        telemetry.count(settle, plan.fired, 1);
        telemetry.observe_ns("core.probes.latency_ns", settle.since(fired_at).as_nanos());
        let verdict = if n_errors > 0 { "divergent" } else { "pass" };
        if let Some(pr) = self.closed.as_mut().and_then(|cl| cl.probes.as_mut()) {
            let last = &mut pr.verdicts[firing.plan];
            if *last != verdict {
                telemetry.transition(settle, plan.verdict, last, verdict);
                *last = verdict;
            }
        }
        telemetry.span_exit(settle, "core.probes.burst");
    }

    /// Mode witnesses at a probe burst's settle time: assert the
    /// probe's postcondition against the live mode map, then retire the
    /// assertion so unrelated later mode traffic cannot re-trigger it.
    fn witness(&mut self, kind: &str, settle: SimTime) {
        let Some(cl) = self.closed.as_mut() else {
            return;
        };
        let detector = &mut cl.mode_detector;
        match kind {
            "menu-toggle" => {
                // The open/close round-trip must leave no OSD on screen.
                let closed = witness_obs(settle, "osd.intent", "closed");
                self.detector_errors.extend(detector.observe(&closed));
                let _ = detector.observe(&witness_obs(settle, "osd.intent", "idle"));
            }
            "swivel-jog" => {
                for obs in self.tv.witness_swivel(settle) {
                    self.detector_errors.extend(detector.observe(&obs));
                    if let Some(pr) = cl.probes.as_mut() {
                        pr.deadline.observe(&obs);
                    }
                }
                let _ = detector.observe(&witness_obs(settle, "swivel.motor", "busy"));
            }
            _ => {}
        }
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
                if missed > 0 {
                    self.outcome.detected_errors += missed;
                    self.first_detect_at.get_or_insert(late);
                    self.telemetry
                        .count(late, "core.probes.detections", missed as i64);
                }
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
    machine: Machine,
    injector: Injector<TvFault>,
    output_delay: SimDuration,
    jitter: SimDuration,
    loss: f64,
    reliable: bool,
    supervision: Option<SupervisorConfig>,
    online_diagnosis_k: Option<usize>,
    unit_recovery: Option<UnitRecoveryConfig>,
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
            machine: tv_spec_machine(),
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
    /// detections to react to, so the config is ignored there.
    pub fn unit_recovery(&mut self, config: UnitRecoveryConfig) {
        self.unit_recovery = Some(config);
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
                .map(|cfg| RecoveryState::new(cfg, self.seed)),
        }
    }

    /// Runs the scenario to completion.
    pub fn run(&mut self, scenario: &TimedScenario) -> LoopOutcome {
        let machine = &self.machine;
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
        looped.unit_recovery(UnitRecoveryConfig::micro_reboot());
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
        looped.unit_recovery(UnitRecoveryConfig::full_restart());
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
        let telemetry = Telemetry::recording(2048);
        let mut looped = TvDependabilityLoop::closed(5);
        looped.set_telemetry(telemetry.clone());
        looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
        looped.unit_recovery(UnitRecoveryConfig {
            // Chaos corrupts every checkpoint as it is sealed: the
            // fingerprint must reject generation after generation and
            // the episode must climb to the full-restart rung.
            corrupt_chance: 1.0,
            ..UnitRecoveryConfig::micro_reboot()
        });
        let outcome = looped.run(&teletext_scenario());
        assert_eq!(outcome.micro_reboots, 0, "{outcome:?}");
        assert!(outcome.full_restarts >= 1, "{outcome:?}");
        assert!(telemetry.counter("core.reboot.micro_escalations") >= 1);
        assert!(telemetry.counter("core.reboot.checkpoint") >= 1);
    }

    #[test]
    fn unit_recovery_runs_are_deterministic_per_seed() {
        let run = || {
            let mut looped = TvDependabilityLoop::closed(9);
            looped.schedule_fault(mute_fault_schedule(), TvFault::MuteInversion);
            looped.unit_recovery(UnitRecoveryConfig {
                corrupt_chance: 0.25,
                tear_chance: 0.25,
                ..UnitRecoveryConfig::micro_reboot()
            });
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
            assert!(
                telemetry.counter(plan.fired) >= 1,
                "{} never fired",
                plan.kind
            );
        }
        assert_eq!(telemetry.counter("core.probes.detections"), 0);
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

    /// The model value as the monitor converts it (text stays text,
    /// anything else becomes a number).
    fn as_obs(value: &Value) -> ObsValue {
        match value {
            Value::Str(s) => ObsValue::Text(s.clone()),
            other => ObsValue::Num(other.as_f64().unwrap_or(f64::NAN)),
        }
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
            text().prop_map(ObsValue::Text),
        ]
    }

    proptest! {
        /// The allocation-free deviation check and the comparator's
        /// distance are two implementations of one rule: pinned equal.
        #[test]
        fn deviation_check_matches_distance(
            expected in expected_value(),
            actual in actual_value(),
        ) {
            let by_distance = as_obs(&expected).distance(&actual) > 1e-9;
            prop_assert_eq!(deviates(&expected, &actual), by_distance);
        }
    }
}
