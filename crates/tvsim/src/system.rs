//! The composed television system.

use crate::blocks::{CoverageRecorder, FirmwareOp, SyntheticCodeBank};
use crate::faults::{FaultSet, TvFault};
use crate::features::channel::ChannelTuner;
use crate::features::extras::{SleepTimer, Swivel};
use crate::features::screen::ScreenManager;
use crate::features::teletext::Teletext;
use crate::features::volume::Volume;
use crate::features::FeatureCtx;
use crate::remote::Key;
use observe::{BlockSnapshot, CoverageRuns, Observation, ObservationKind};
use simkit::SimTime;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// An independently restartable pipeline unit: the micro-reboot
/// granularity. The variants are declared in name order, so the derived
/// `Ord` orders units by [`Unit::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Volume and mute.
    Audio,
    /// Screen modes, on-screen displays and source selection.
    Screen,
    /// The sleep timer.
    Sleep,
    /// The swivel motor.
    Swivel,
    /// The teletext decoder and page state.
    Teletext,
    /// The channel tuner.
    Tuner,
}

impl Unit {
    /// Every unit, in checkpoint order.
    pub const ALL: [Unit; 6] = [
        Unit::Audio,
        Unit::Screen,
        Unit::Sleep,
        Unit::Swivel,
        Unit::Teletext,
        Unit::Tuner,
    ];

    /// The unit's name (checkpoint vault key).
    pub fn name(self) -> &'static str {
        match self {
            Unit::Audio => "audio",
            Unit::Screen => "screen",
            Unit::Sleep => "sleep",
            Unit::Swivel => "swivel",
            Unit::Teletext => "teletext",
            Unit::Tuner => "tuner",
        }
    }
}

/// A unit's checkpointable state as key/value pairs — the same map
/// type as `recovery::Snapshot`, without a dependency edge on the
/// recovery crate. Fixed state names are borrowed literals.
pub type UnitState = BTreeMap<Cow<'static, str>, f64>;

/// The executable TV control software: the paper's System Under
/// Observation for all TV-domain experiments.
///
/// ```
/// use tvsim::{TvSystem, Key};
/// use simkit::SimTime;
///
/// let mut tv = TvSystem::new();
/// let obs = tv.press(SimTime::ZERO, Key::Power);
/// assert!(tv.is_on());
/// assert!(obs.iter().any(|o| o.as_output().map(|(n, _)| n == "screen.mode").unwrap_or(false)));
/// tv.press(SimTime::ZERO, Key::VolUp);
/// assert_eq!(tv.volume_level(), 25);
/// ```
#[derive(Debug)]
pub struct TvSystem {
    on: bool,
    units: Units,
    faults: FaultSet,
    cov: CoverageRecorder,
}

/// The most observations one press emits (a power-on: the key press
/// and five outputs and modes), so a press allocates its vector once.
const MAX_PRESS_OBSERVATIONS: usize = 6;

/// The features of the six [`Unit`]s, borrowed as one beside the
/// coverage recorder and the fault set.
#[derive(Debug, Default)]
struct Units {
    volume: Volume,
    tuner: ChannelTuner,
    teletext: Teletext,
    screen: ScreenManager,
    sleep: SleepTimer,
    swivel: Swivel,
}

impl Default for TvSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl TvSystem {
    /// Creates a TV in standby with the paper-scale block map
    /// (60 000 instrumented blocks).
    pub fn new() -> Self {
        TvSystem {
            on: false,
            units: Units::default(),
            faults: FaultSet::none(),
            cov: CoverageRecorder::default(),
        }
    }

    /// The units and a feature context over the coverage recorder and
    /// the active faults, emitting into `obs`: how every handler is
    /// entered.
    fn parts<'a>(
        &'a mut self,
        now: SimTime,
        obs: &'a mut Vec<Observation>,
    ) -> (&'a mut Units, FeatureCtx<'a>) {
        let ctx = FeatureCtx {
            now,
            cov: &mut self.cov,
            faults: &self.faults,
            obs,
        };
        (&mut self.units, ctx)
    }

    // ---- state accessors -------------------------------------------------

    /// True while powered on.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Current volume level (0–100).
    pub fn volume_level(&self) -> i64 {
        self.units.volume.level()
    }

    /// True while muted.
    pub fn is_muted(&self) -> bool {
        self.units.volume.is_muted()
    }

    /// The tuned channel.
    pub fn channel(&self) -> i64 {
        self.units.tuner.current()
    }

    /// Teletext feature state.
    pub fn teletext(&self) -> &Teletext {
        &self.units.teletext
    }

    /// Sleep timer state.
    pub fn sleep_timer(&self) -> &SleepTimer {
        &self.units.sleep
    }

    /// Swivel state.
    pub fn swivel(&self) -> &Swivel {
        &self.units.swivel
    }

    /// The user-visible screen mode.
    pub fn screen_mode(&self) -> &'static str {
        if !self.on {
            "off"
        } else {
            self.units.screen.mode(self.units.teletext.is_on())
        }
    }

    // ---- faults and coverage --------------------------------------------

    /// Activates a fault.
    pub fn inject_fault(&mut self, fault: TvFault) {
        self.faults.inject(fault);
    }

    /// Deactivates a fault.
    pub fn clear_fault(&mut self, fault: TvFault) {
        self.faults.clear(fault);
    }

    /// The synthetic firmware bank (for fault-block queries).
    pub fn bank(&self) -> &SyntheticCodeBank {
        self.cov.bank()
    }

    /// Number of instrumented blocks.
    pub fn n_blocks(&self) -> u32 {
        self.cov.bank().n_blocks()
    }

    /// Snapshots and clears block coverage — call between scenario steps
    /// to obtain one spectrum row. The firmware operations executed since
    /// the last take or reset are filled into the bitset here, each once
    /// (see [`CoverageRecorder`]).
    pub fn take_coverage(&mut self) -> BlockSnapshot {
        self.cov.take()
    }

    /// Takes and clears block coverage as [`CoverageRuns`] — the same
    /// hits [`take_coverage`](Self::take_coverage) would snapshot, as
    /// block ranges and single blocks written into `runs`, for a reader
    /// that folds counters (see [`CoverageRecorder::take_runs`]).
    pub fn take_coverage_runs(&mut self, runs: &mut CoverageRuns) {
        self.cov.take_runs(runs);
    }

    /// Clears block coverage without snapshotting it — for intervals
    /// whose coverage is discarded (repair bursts, probe presses). The
    /// firmware blocks of such an interval are never filled in.
    pub fn reset_coverage(&mut self) {
        self.cov.reset();
    }

    // ---- behaviour --------------------------------------------------------

    /// Handles one remote-control key press, returning the observations
    /// the instrumented system emits (key press, outputs, modes). The
    /// [`serving_unit`](Self::serving_unit) handles the key as a
    /// journal replay would; the press adds only what the rest of the
    /// set does around it: power cycles, the screen passing `Back` on to
    /// teletext, and teletext re-acquiring after a retune.
    pub fn press(&mut self, now: SimTime, key: Key) -> Vec<Observation> {
        let mut obs = Vec::with_capacity(MAX_PRESS_OBSERVATIONS);
        obs.push(Observation::new(
            now,
            "remote",
            ObservationKind::KeyPress {
                key: key.event_name().into(),
                code: key.payload(),
            },
        ));
        let (on, unit) = (self.on, self.serving_unit(key));
        let (units, mut ctx) = self.parts(now, &mut obs);
        // Every key goes through input housekeeping.
        ctx.exec(FirmwareOp::Housekeeping, key.event_name().len() as u32);
        match key {
            Key::Power if on => units.power_off(&mut ctx),
            Key::Power => units.power_on(&mut ctx),
            // Standby ignores every other key.
            _ if !on => {}
            _ => {
                if unit == Unit::Teletext && key == Key::Back {
                    // The screen sees `Back` first; with no OSD open it
                    // passes the key on.
                    units.screen.back(&mut ctx, true);
                }
                units.serve(&mut ctx, unit, key);
                if matches!(key, Key::ChannelUp | Key::ChannelDown) {
                    units.teletext.on_channel_change(&mut ctx);
                }
            }
        }
        if key == Key::Power {
            self.on = !on;
        }
        obs
    }

    /// Advances housekeeping time: sleep-timer expiry powers the set down.
    pub fn tick(&mut self, now: SimTime) -> Vec<Observation> {
        let mut obs = Vec::new();
        if self.on && self.units.sleep.tick(now, &self.faults) {
            let (units, mut ctx) = self.parts(now, &mut obs);
            units.power_off(&mut ctx);
            self.on = false;
        }
        obs
    }

    /// Run-time recovery: re-synchronizes the teletext decoder with the
    /// UI (repairs the persistent error left by a missed mode
    /// notification). Returns the observations the repair emits.
    pub fn resync_teletext(&mut self, now: SimTime) -> Vec<Observation> {
        let mut obs = Vec::new();
        let (units, mut ctx) = self.parts(now, &mut obs);
        units.teletext.resync(&mut ctx);
        obs
    }

    /// Run-time recovery: forces the audio path to the given mute state
    /// (repairs a stuck mute after the inversion fault clears).
    pub fn force_audio(&mut self, now: SimTime, muted: bool) -> Vec<Observation> {
        let mut obs = Vec::new();
        let (units, mut ctx) = self.parts(now, &mut obs);
        units.volume.force_mute_state(&mut ctx, muted);
        obs
    }

    // ---- active-observability entry points -------------------------------

    /// Samples the sleep-timer service's liveness heartbeat (active
    /// probing, paper §4.1): while the set is on and a timer is armed,
    /// the timer wheel reports its configured minutes from the
    /// `sleep.timer` source. Under [`TvFault::SleepTimerLost`] the
    /// mis-programmed wheel is silent — exactly the silence a heartbeat
    /// deadline monitor alarms on.
    /// `None` when the set is off or no timer is armed.
    pub fn timer_heartbeat(&mut self, now: SimTime) -> Option<Observation> {
        let sleep = &self.units.sleep;
        if !self.on || !sleep.is_armed() || self.faults.is_active(TvFault::SleepTimerLost) {
            return None;
        }
        Some(Observation::new(
            now,
            "sleep.timer",
            ObservationKind::Value {
                name: "sleep.heartbeat".into(),
                value: sleep.minutes() as f64,
            },
        ))
    }

    /// Samples the swivel mode witness: command-vs-actuation
    /// consistency as two mode observations — `swivel.cmd` is
    /// `converged` when the motor reached its last commanded angle
    /// (`pending` otherwise, the [`TvFault::SwivelStuck`] signature),
    /// then `swivel.motor` reports `idle`, which is what a
    /// mode-consistency rule keys its check off. Empty in standby.
    pub fn witness_swivel(&mut self, now: SimTime) -> Vec<Observation> {
        if !self.on {
            return Vec::new();
        }
        let cmd = if self.units.swivel.converged() {
            "converged"
        } else {
            "pending"
        };
        let mut obs = Vec::new();
        let (_, mut ctx) = self.parts(now, &mut obs);
        ctx.mode("swivel.cmd", cmd);
        ctx.mode("swivel.motor", "idle");
        obs
    }

    /// True while an on-screen display (menu or EPG) holds input focus
    /// — the menu witness's ground truth after a probe's open/close
    /// round-trip.
    pub fn osd_has_focus(&self) -> bool {
        self.units.screen.osd_has_focus()
    }

    // ---- micro-reboot units ----------------------------------------------

    /// The unit that serves `key` in the current focus state: the one
    /// routing rule a live press, the micro-reboot journal and the
    /// outage model share.
    pub fn serving_unit(&self, key: Key) -> Unit {
        let osd = self.units.screen.osd_has_focus();
        let txt = self.units.teletext.is_on();
        match key {
            Key::Digit(_) if !osd && txt => Unit::Teletext,
            Key::Digit(_) if !osd => Unit::Tuner,
            Key::Teletext if !osd => Unit::Teletext,
            Key::Back if !osd && txt => Unit::Teletext,
            Key::VolUp | Key::VolDown | Key::Mute => Unit::Audio,
            Key::ChannelUp | Key::ChannelDown => Unit::Tuner,
            Key::SwivelLeft | Key::SwivelRight => Unit::Swivel,
            Key::Sleep => Unit::Sleep,
            _ => Unit::Screen,
        }
    }

    /// The unit's complete state as a checkpointable map.
    pub fn unit_state(&self, unit: Unit) -> UnitState {
        let u = &self.units;
        match unit {
            Unit::Audio => u.volume.snapshot(),
            Unit::Tuner => u.tuner.snapshot(),
            Unit::Teletext => u.teletext.snapshot(),
            Unit::Screen => u.screen.snapshot(),
            Unit::Sleep => u.sleep.snapshot(),
            Unit::Swivel => u.swivel.snapshot(),
        }
    }

    /// Micro-reboot: overwrites the unit's state from a validated
    /// checkpoint, leaving every other unit untouched. A key the
    /// checkpoint lacks takes its power-on default, so an empty state
    /// reboots the unit to factory defaults.
    pub fn restore_unit(&mut self, unit: Unit, state: &UnitState) {
        let u = &mut self.units;
        match unit {
            Unit::Audio => u.volume.restore(state),
            Unit::Tuner => u.tuner.restore(state),
            Unit::Teletext => u.teletext.restore(state),
            Unit::Screen => u.screen.restore(state),
            Unit::Sleep => u.sleep.restore(state),
            Unit::Swivel => u.swivel.restore(state),
        }
    }

    /// Announces the unit's current state on its outputs — called after
    /// a restore so the observation boundary (and the comparator behind
    /// it) sees the post-reboot state. Returns the emitted observations.
    pub fn announce_unit(&mut self, now: SimTime, unit: Unit) -> Vec<Observation> {
        let mut obs = Vec::new();
        let (u, mut ctx) = self.parts(now, &mut obs);
        match unit {
            Unit::Audio => {
                ctx.output("volume", u.volume.audible());
                ctx.output("audio.muted", u.volume.is_muted() as i64);
            }
            Unit::Tuner => ctx.output("channel", u.tuner.current()),
            Unit::Teletext => u.teletext.announce(&mut ctx),
            Unit::Screen => {
                u.screen.emit_mode(&mut ctx, u.teletext.is_on());
                ctx.output("source", u.screen.source());
            }
            Unit::Sleep => ctx.output("sleep.minutes", u.sleep.minutes() as i64),
            Unit::Swivel => ctx.output("swivel.angle", u.swivel.angle()),
        }
        obs
    }

    /// Replays a journalled key press into the unit's handler, the one
    /// a live press runs, without the press's routing and follow-ups:
    /// state reconciliation after a micro-reboot. The rest of the system
    /// already processed this press, so cross-unit side effects are
    /// deliberately not re-run, and the replay's observations are not
    /// emitted.
    pub fn replay_unit_key(&mut self, now: SimTime, unit: Unit, key: Key) {
        let mut obs = Vec::new();
        let (units, mut ctx) = self.parts(now, &mut obs);
        units.serve(&mut ctx, unit, key);
    }
}

impl Units {
    /// Runs `key` on `unit`'s handler: the dispatch a live press and a
    /// journal replay share.
    fn serve(&mut self, ctx: &mut FeatureCtx<'_>, unit: Unit, key: Key) {
        let txt = self.teletext.is_on();
        match (unit, key) {
            (Unit::Audio, Key::VolUp) => self.volume.vol_up(ctx),
            (Unit::Audio, Key::VolDown) => self.volume.vol_down(ctx),
            (Unit::Audio, Key::Mute) => self.volume.mute(ctx),
            (Unit::Tuner, Key::Digit(d)) => self.tuner.digit(ctx, d),
            (Unit::Tuner, Key::ChannelUp) => self.tuner.channel_up(ctx),
            (Unit::Tuner, Key::ChannelDown) => self.tuner.channel_down(ctx),
            (Unit::Teletext, Key::Digit(d)) if txt => self.teletext.digit(ctx, d),
            (Unit::Teletext, Key::Teletext) => {
                self.teletext.toggle(ctx);
                self.screen.emit_mode(ctx, self.teletext.is_on());
            }
            (Unit::Teletext, Key::Back) => {
                self.teletext.force_off(ctx);
                self.screen.emit_mode(ctx, false);
            }
            // An open OSD consumes digits and the teletext key; `Ok`
            // only runs OSD firmware.
            (Unit::Screen, Key::Digit(d)) => ctx.exec(FirmwareOp::Osd, 30 + d as u32),
            (Unit::Screen, Key::Teletext) => ctx.exec(FirmwareOp::Osd, 40),
            (Unit::Screen, Key::Ok) => ctx.exec(FirmwareOp::Osd, 50),
            (Unit::Screen, Key::Back) => {
                self.screen.back(ctx, txt);
            }
            (Unit::Screen, Key::DualScreen) => self.screen.dual_toggle(ctx, txt),
            (Unit::Screen, Key::Menu) => self.screen.menu(ctx, txt),
            (Unit::Screen, Key::Epg) => self.screen.epg(ctx, txt),
            (Unit::Screen, Key::Pip) => self.screen.pip_toggle(ctx, txt),
            (Unit::Screen, Key::Source) => self.screen.source_cycle(ctx),
            (Unit::Swivel, Key::SwivelLeft) => self.swivel.key(ctx, true),
            (Unit::Swivel, Key::SwivelRight) => self.swivel.key(ctx, false),
            (Unit::Sleep, Key::Sleep) => self.sleep.key(ctx),
            // Power cycles are the live press's own, and a key journalled
            // under a unit that does not serve it changes nothing.
            _ => {}
        }
    }

    fn power_on(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.exec(FirmwareOp::Boot, 0);
        ctx.exec(FirmwareOp::Tune, self.tuner.current() as u32);
        self.screen.reset();
        // The set announces its restored state on the outputs.
        ctx.output("screen.mode", "video");
        ctx.mode("scaler", "video");
        ctx.output("volume", self.volume.audible());
        ctx.output("audio.muted", self.volume.is_muted() as i64);
        ctx.output("channel", self.tuner.current());
    }

    fn power_off(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.exec(FirmwareOp::Boot, 1);
        self.teletext.force_off(ctx);
        self.screen.reset();
        self.sleep.reset();
        ctx.output("screen.mode", "off");
        ctx.mode("scaler", "off");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use observe::ObsValue;
    use simkit::SimDuration;

    fn last_output(obs: &[Observation], name: &str) -> Option<ObsValue> {
        obs.iter()
            .filter_map(|o| o.as_output())
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
            .next_back()
    }

    fn on_tv() -> TvSystem {
        let mut tv = TvSystem::new();
        tv.press(SimTime::ZERO, Key::Power);
        tv.take_coverage();
        tv
    }

    #[test]
    fn no_press_outgrows_its_preallocated_vector() {
        for faulted in [false, true] {
            for first in Key::ALL {
                for second in Key::ALL {
                    let mut tv = TvSystem::new();
                    if faulted {
                        TvFault::ALL.into_iter().for_each(|f| tv.inject_fault(f));
                    }
                    let keys = [Key::Power, first, second, Key::Power, Key::Power];
                    for (i, key) in keys.into_iter().enumerate() {
                        let obs = tv.press(SimTime::from_millis(100 * i as u64), key);
                        assert!(
                            obs.len() <= MAX_PRESS_OBSERVATIONS,
                            "{key:?} after {first:?}, {second:?} emitted {}",
                            obs.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn timer_heartbeat_tracks_arming_and_fault() {
        let mut tv = on_tv();
        assert!(
            tv.timer_heartbeat(SimTime::ZERO).is_none(),
            "no heartbeat while disarmed"
        );
        tv.press(SimTime::ZERO, Key::Sleep);
        let hb = tv.timer_heartbeat(SimTime::from_millis(50));
        assert_eq!(hb.expect("armed timer beats").source, "sleep.timer");
        tv.inject_fault(TvFault::SleepTimerLost);
        assert!(
            tv.timer_heartbeat(SimTime::from_millis(100)).is_none(),
            "the lost interrupt silences the heartbeat"
        );
        tv.clear_fault(TvFault::SleepTimerLost);
        assert!(tv.timer_heartbeat(SimTime::from_millis(150)).is_some());
    }

    #[test]
    fn swivel_witness_reports_convergence() {
        let mut tv = on_tv();
        let obs = tv.witness_swivel(SimTime::ZERO);
        assert_eq!(obs.len(), 2);
        assert!(matches!(
            &obs[0].kind,
            ObservationKind::Mode { component, mode }
                if component == "swivel.cmd" && mode == "converged"
        ));
        tv.inject_fault(TvFault::SwivelStuck);
        tv.press(SimTime::ZERO, Key::SwivelRight);
        let obs = tv.witness_swivel(SimTime::ZERO);
        assert!(matches!(
            &obs[0].kind,
            ObservationKind::Mode { component, mode }
                if component == "swivel.cmd" && mode == "pending"
        ));
        assert!(matches!(
            &obs[1].kind,
            ObservationKind::Mode { component, mode }
                if component == "swivel.motor" && mode == "idle"
        ));
    }

    #[test]
    fn standby_ignores_everything_but_power() {
        let mut tv = TvSystem::new();
        assert!(!tv.is_on());
        let obs = tv.press(SimTime::ZERO, Key::VolUp);
        assert_eq!(tv.volume_level(), 20);
        assert!(last_output(&obs, "volume").is_none());
        tv.press(SimTime::ZERO, Key::Power);
        assert!(tv.is_on());
        assert_eq!(tv.screen_mode(), "video");
    }

    #[test]
    fn power_on_announces_state() {
        let mut tv = TvSystem::new();
        let obs = tv.press(SimTime::ZERO, Key::Power);
        assert_eq!(last_output(&obs, "volume"), Some(ObsValue::Num(20.0)));
        assert_eq!(last_output(&obs, "channel"), Some(ObsValue::Num(1.0)));
        assert_eq!(
            last_output(&obs, "screen.mode"),
            Some(ObsValue::Text("video".into()))
        );
    }

    #[test]
    fn power_off_resets_ui_state() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::Teletext);
        tv.press(SimTime::ZERO, Key::Menu);
        let obs = tv.press(SimTime::ZERO, Key::Power);
        assert!(!tv.is_on());
        assert_eq!(tv.screen_mode(), "off");
        assert_eq!(
            last_output(&obs, "screen.mode"),
            Some(ObsValue::Text("off".into()))
        );
        // Back on: teletext and menu are gone, volume persists.
        tv.press(SimTime::ZERO, Key::Power);
        assert_eq!(tv.screen_mode(), "video");
        assert!(!tv.teletext().is_on());
    }

    #[test]
    fn volume_flow_end_to_end() {
        let mut tv = on_tv();
        let obs = tv.press(SimTime::ZERO, Key::VolUp);
        assert_eq!(last_output(&obs, "volume"), Some(ObsValue::Num(25.0)));
        let obs = tv.press(SimTime::ZERO, Key::Mute);
        assert_eq!(last_output(&obs, "volume"), Some(ObsValue::Num(0.0)));
        assert_eq!(last_output(&obs, "audio.muted"), Some(ObsValue::Num(1.0)));
    }

    #[test]
    fn digit_routes_by_focus() {
        let mut tv = on_tv();
        // No teletext: digit tunes.
        tv.press(SimTime::ZERO, Key::Digit(5));
        assert_eq!(tv.channel(), 5);
        // Teletext on: digits navigate pages.
        tv.press(SimTime::ZERO, Key::Teletext);
        for d in [1, 2, 3] {
            tv.press(SimTime::ZERO, Key::Digit(d));
        }
        assert_eq!(tv.teletext().page(), 123);
        assert_eq!(tv.channel(), 5);
        // Menu open: digits are swallowed.
        tv.press(SimTime::ZERO, Key::Menu);
        tv.press(SimTime::ZERO, Key::Digit(9));
        assert_eq!(tv.teletext().page(), 123);
        assert_eq!(tv.channel(), 5);
    }

    #[test]
    fn teletext_suppressed_while_menu_open() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::Menu);
        tv.press(SimTime::ZERO, Key::Teletext);
        assert!(!tv.teletext().is_on());
        assert_eq!(tv.screen_mode(), "menu");
    }

    #[test]
    fn back_closes_in_order() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::Teletext);
        tv.press(SimTime::ZERO, Key::Menu);
        assert_eq!(tv.screen_mode(), "menu");
        tv.press(SimTime::ZERO, Key::Back); // closes menu, teletext remains
        assert_eq!(tv.screen_mode(), "teletext");
        tv.press(SimTime::ZERO, Key::Back); // closes teletext
        assert_eq!(tv.screen_mode(), "video");
    }

    #[test]
    fn channel_change_rerenders_teletext() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::Teletext);
        for d in [2, 2, 2] {
            tv.press(SimTime::ZERO, Key::Digit(d));
        }
        assert_eq!(tv.teletext().page(), 222);
        let obs = tv.press(SimTime::ZERO, Key::ChannelUp);
        assert_eq!(tv.teletext().page(), 100);
        assert_eq!(
            last_output(&obs, "teletext.page"),
            Some(ObsValue::Num(100.0))
        );
        assert_eq!(tv.channel(), 2);
    }

    #[test]
    fn sleep_timer_powers_down() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::Sleep);
        assert_eq!(tv.sleep_timer().minutes(), 15);
        let obs = tv.tick(SimTime::from_secs(15 * 60));
        assert!(!tv.is_on());
        assert_eq!(
            last_output(&obs, "screen.mode"),
            Some(ObsValue::Text("off".into()))
        );
    }

    #[test]
    fn sleep_timer_lost_fault_keeps_tv_on() {
        let mut tv = on_tv();
        tv.inject_fault(TvFault::SleepTimerLost);
        tv.press(SimTime::ZERO, Key::Sleep);
        tv.tick(SimTime::from_secs(20 * 60));
        assert!(tv.is_on());
    }

    #[test]
    fn coverage_accumulates_per_step() {
        let mut tv = TvSystem::new();
        tv.press(SimTime::ZERO, Key::Power);
        let snap = tv.take_coverage();
        // Boot + tune + housekeeping: thousands of blocks.
        assert!(snap.count() > 3_000, "count={}", snap.count());
        // After reset, a volume key touches far fewer.
        tv.press(SimTime::ZERO, Key::VolUp);
        let snap = tv.take_coverage();
        assert!(snap.count() < 2_000, "count={}", snap.count());
        assert!(snap.count() > 300);
    }

    #[test]
    fn render_fault_block_hit_exactly_on_faulty_branch() {
        let mut tv = on_tv();
        tv.inject_fault(TvFault::TeletextRenderFault);
        let fault_block = tv.bank().teletext_fault_block();
        // Volume key: no render.
        tv.press(SimTime::ZERO, Key::VolUp);
        assert!(!tv.take_coverage().is_hit(fault_block));
        // Teletext on at page 100: renders, but bit 3 clear — the faulty
        // branch is not taken, the page displays correctly.
        let obs = tv.press(SimTime::ZERO, Key::Teletext);
        assert!(!tv.take_coverage().is_hit(fault_block));
        assert_eq!(
            last_output(&obs, "teletext.page"),
            Some(ObsValue::Num(100.0))
        );
        // Page 123 (bit 3 set): faulty branch executes and corrupts.
        tv.press(SimTime::ZERO, Key::Digit(1));
        tv.press(SimTime::ZERO, Key::Digit(2));
        let obs = tv.press(SimTime::ZERO, Key::Digit(3));
        assert!(tv.take_coverage().is_hit(fault_block));
        assert_eq!(
            last_output(&obs, "teletext.page"),
            Some(ObsValue::Num(130.0))
        );
    }

    #[test]
    fn swivel_and_source() {
        let mut tv = on_tv();
        let obs = tv.press(SimTime::ZERO, Key::SwivelRight);
        assert_eq!(last_output(&obs, "swivel.angle"), Some(ObsValue::Num(15.0)));
        let obs = tv.press(SimTime::ZERO, Key::Source);
        assert_eq!(last_output(&obs, "source"), Some(ObsValue::Num(1.0)));
    }

    #[test]
    fn dual_and_teletext_compose() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::DualScreen);
        tv.press(SimTime::ZERO, Key::Teletext);
        assert_eq!(tv.screen_mode(), "dual+teletext");
    }

    #[test]
    fn unit_snapshots_round_trip() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::VolUp);
        tv.press(SimTime::ZERO, Key::Mute);
        tv.press(SimTime::ZERO, Key::Digit(7));
        tv.press(SimTime::ZERO, Key::Teletext);
        tv.press(SimTime::ZERO, Key::Digit(1));
        tv.press(SimTime::ZERO, Key::SwivelRight);
        let states = Unit::ALL.map(|u| (u, tv.unit_state(u)));
        // Mutate everything, then restore each unit from its snapshot.
        tv.press(SimTime::ZERO, Key::Digit(2));
        tv.press(SimTime::ZERO, Key::Digit(3)); // page 123 entered
        tv.press(SimTime::ZERO, Key::Mute);
        tv.press(SimTime::ZERO, Key::SwivelLeft);
        for (unit, state) in &states {
            tv.restore_unit(*unit, state);
        }
        for (unit, state) in &states {
            assert_eq!(&tv.unit_state(*unit), state, "unit {unit:?}");
        }
        assert_eq!(tv.volume_level(), 25);
        assert!(tv.is_muted());
        assert_eq!(tv.channel(), 7);
        assert!(tv.teletext().is_on());
        assert_eq!(tv.swivel().angle(), 15);
    }

    #[test]
    fn restore_touches_only_the_named_unit() {
        let mut tv = on_tv();
        let audio = tv.unit_state(Unit::Audio);
        tv.press(SimTime::ZERO, Key::VolUp); // 25
        tv.press(SimTime::ZERO, Key::Digit(9));
        tv.restore_unit(Unit::Audio, &audio);
        assert_eq!(tv.volume_level(), 20, "audio restored");
        assert_eq!(tv.channel(), 9, "tuner untouched");
    }

    #[test]
    fn unit_order_is_name_order() {
        // The loop's reboot target is the least indicted unit: declaring
        // a variant out of name order would silently change it.
        let mut by_name = Unit::ALL;
        by_name.sort_by_key(|u| u.name());
        assert_eq!(by_name, Unit::ALL);
        let mut by_ord = Unit::ALL;
        by_ord.sort();
        assert_eq!(by_ord, Unit::ALL);
    }

    #[test]
    fn serving_unit_follows_focus() {
        let mut tv = on_tv();
        assert_eq!(tv.serving_unit(Key::Digit(5)), Unit::Tuner);
        assert_eq!(tv.serving_unit(Key::VolUp), Unit::Audio);
        assert_eq!(tv.serving_unit(Key::Back), Unit::Screen);
        tv.press(SimTime::ZERO, Key::Teletext);
        assert_eq!(tv.serving_unit(Key::Digit(5)), Unit::Teletext);
        assert_eq!(tv.serving_unit(Key::Back), Unit::Teletext);
        tv.press(SimTime::ZERO, Key::Menu);
        assert_eq!(tv.serving_unit(Key::Digit(5)), Unit::Screen);
        assert_eq!(tv.serving_unit(Key::Teletext), Unit::Screen);
        assert_eq!(tv.serving_unit(Key::Sleep), Unit::Sleep);
        assert_eq!(tv.serving_unit(Key::SwivelLeft), Unit::Swivel);
    }

    #[test]
    fn announce_reemits_current_outputs() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::VolUp);
        let obs = tv.announce_unit(SimTime::ZERO, Unit::Audio);
        assert_eq!(last_output(&obs, "volume"), Some(ObsValue::Num(25.0)));
        assert_eq!(last_output(&obs, "audio.muted"), Some(ObsValue::Num(0.0)));
        let obs = tv.announce_unit(SimTime::ZERO, Unit::Teletext);
        assert_eq!(
            last_output(&obs, "teletext.page"),
            Some(ObsValue::Num(0.0)),
            "teletext off renders page 0"
        );
    }

    #[test]
    fn replay_reconciles_restored_unit() {
        let mut tv = on_tv();
        // Checkpoint, then two presses the journal must reapply.
        let audio = tv.unit_state(Unit::Audio);
        tv.press(SimTime::ZERO, Key::VolUp);
        tv.press(SimTime::ZERO, Key::VolUp);
        assert_eq!(tv.volume_level(), 30);
        // Micro-reboot: restore the checkpoint, replay the journal.
        tv.restore_unit(Unit::Audio, &audio);
        assert_eq!(tv.volume_level(), 20);
        tv.replay_unit_key(SimTime::ZERO, Unit::Audio, Key::VolUp);
        tv.replay_unit_key(SimTime::ZERO, Unit::Audio, Key::VolUp);
        assert_eq!(tv.volume_level(), 30, "journal replay converges");
        // Replay bypasses focus routing: a tuner digit retunes even
        // though teletext has focus for live presses.
        tv.press(SimTime::ZERO, Key::Teletext);
        tv.replay_unit_key(SimTime::ZERO, Unit::Tuner, Key::Digit(4));
        assert_eq!(tv.channel(), 4);
        assert_eq!(tv.teletext().page(), 100, "teletext unaffected");
    }

    #[test]
    fn tick_before_expiry_is_quiet() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::Sleep);
        assert!(tv
            .tick(SimTime::from_secs(60) - SimDuration::from_secs(1))
            .is_empty());
        assert!(tv.is_on());
    }
}
