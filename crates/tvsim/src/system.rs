//! The composed television system.

use crate::blocks::{FirmwareOp, SyntheticCodeBank, N_BLOCKS};
use crate::faults::{FaultSet, TvFault};
use crate::features::channel::ChannelTuner;
use crate::features::extras::{SleepTimer, Swivel};
use crate::features::screen::ScreenManager;
use crate::features::teletext::Teletext;
use crate::features::volume::Volume;
use crate::features::FeatureCtx;
use crate::remote::Key;
use observe::{BlockCoverage, BlockSnapshot, Observation, ObservationKind};
use simkit::SimTime;
use std::collections::BTreeMap;

/// A unit's checkpointable state as key/value pairs — structurally the
/// same map `recovery::Snapshot` uses, without a dependency edge on the
/// recovery crate.
pub type UnitState = BTreeMap<String, f64>;

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
    volume: Volume,
    tuner: ChannelTuner,
    teletext: Teletext,
    screen: ScreenManager,
    sleep: SleepTimer,
    swivel: Swivel,
    faults: FaultSet,
    cov: BlockCoverage,
    bank: SyntheticCodeBank,
    keys_handled: u64,
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
        Self::with_blocks(N_BLOCKS)
    }

    /// Creates a TV with a custom instrumented-block count (≥ 53 000).
    pub fn with_blocks(n_blocks: u32) -> Self {
        TvSystem {
            on: false,
            volume: Volume::new(),
            tuner: ChannelTuner::new(),
            teletext: Teletext::new(),
            screen: ScreenManager::new(),
            sleep: SleepTimer::new(),
            swivel: Swivel::new(),
            faults: FaultSet::none(),
            cov: BlockCoverage::new(n_blocks),
            bank: SyntheticCodeBank::new(n_blocks),
            keys_handled: 0,
        }
    }

    // ---- state accessors -------------------------------------------------

    /// True while powered on.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Current volume level (0–100).
    pub fn volume_level(&self) -> i64 {
        self.volume.level()
    }

    /// True while muted.
    pub fn is_muted(&self) -> bool {
        self.volume.is_muted()
    }

    /// The tuned channel.
    pub fn channel(&self) -> i64 {
        self.tuner.current()
    }

    /// Teletext feature state.
    pub fn teletext(&self) -> &Teletext {
        &self.teletext
    }

    /// Screen manager state.
    pub fn screen(&self) -> &ScreenManager {
        &self.screen
    }

    /// Sleep timer state.
    pub fn sleep_timer(&self) -> &SleepTimer {
        &self.sleep
    }

    /// Swivel state.
    pub fn swivel(&self) -> &Swivel {
        &self.swivel
    }

    /// Channel tuner (for child-lock configuration).
    pub fn tuner_mut(&mut self) -> &mut ChannelTuner {
        &mut self.tuner
    }

    /// The user-visible screen mode.
    pub fn screen_mode(&self) -> &'static str {
        if !self.on {
            "off"
        } else {
            self.screen.mode(self.teletext.is_on())
        }
    }

    /// Keys handled so far.
    pub fn keys_handled(&self) -> u64 {
        self.keys_handled
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

    /// The active fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The synthetic firmware bank (for fault-block queries).
    pub fn bank(&self) -> &SyntheticCodeBank {
        &self.bank
    }

    /// Number of instrumented blocks.
    pub fn n_blocks(&self) -> u32 {
        self.cov.n_blocks()
    }

    /// Snapshots and clears block coverage — call between scenario steps
    /// to obtain one spectrum row.
    pub fn take_coverage(&mut self) -> BlockSnapshot {
        self.cov.snapshot_and_reset()
    }

    // ---- behaviour --------------------------------------------------------

    /// Handles one remote-control key press, returning the observations
    /// the instrumented system emits (key press, outputs, modes).
    pub fn press(&mut self, now: SimTime, key: Key) -> Vec<Observation> {
        self.keys_handled += 1;
        let mut obs = vec![Observation::new(
            now,
            "remote",
            ObservationKind::KeyPress {
                key: key.event_name().to_owned(),
                code: key.payload(),
            },
        )];

        let mut ctx = FeatureCtx {
            now,
            cov: &mut self.cov,
            bank: &self.bank,
            faults: &self.faults,
            obs: &mut obs,
        };
        // Every key goes through input housekeeping.
        ctx.exec(FirmwareOp::Housekeeping, key.event_name().len() as u32);

        if !self.on {
            if key == Key::Power {
                Self::power_on(
                    &mut self.volume,
                    &mut self.tuner,
                    &mut self.screen,
                    &mut ctx,
                );
                self.on = true;
            }
            return obs;
        }

        match key {
            Key::Power => {
                Self::power_off(
                    &mut self.teletext,
                    &mut self.screen,
                    &mut self.sleep,
                    &mut ctx,
                );
                self.on = false;
            }
            Key::Digit(d) => {
                if self.screen.osd_has_focus() {
                    // Menu/EPG consume digits.
                    ctx.exec(FirmwareOp::Osd, 30 + d as u32);
                } else if self.teletext.is_on() {
                    self.teletext.digit(&mut ctx, d);
                } else {
                    self.tuner.digit(&mut ctx, d);
                }
            }
            Key::VolUp => self.volume.vol_up(&mut ctx),
            Key::VolDown => self.volume.vol_down(&mut ctx),
            Key::Mute => self.volume.mute(&mut ctx),
            Key::ChannelUp => {
                self.tuner.channel_up(&mut ctx);
                self.teletext.on_channel_change(&mut ctx);
            }
            Key::ChannelDown => {
                self.tuner.channel_down(&mut ctx);
                self.teletext.on_channel_change(&mut ctx);
            }
            Key::Teletext => {
                if self.screen.osd_has_focus() {
                    ctx.exec(FirmwareOp::Osd, 40);
                } else {
                    self.teletext.toggle(&mut ctx);
                    self.screen.emit_mode(&mut ctx, self.teletext.is_on());
                }
            }
            Key::DualScreen => self.screen.dual_toggle(&mut ctx, self.teletext.is_on()),
            Key::Menu => self.screen.menu(&mut ctx, self.teletext.is_on()),
            Key::Ok => {
                ctx.exec(FirmwareOp::Osd, 50);
            }
            Key::Back => {
                let consumed = self.screen.back(&mut ctx, self.teletext.is_on());
                if !consumed && self.teletext.is_on() {
                    self.teletext.force_off(&mut ctx);
                    self.screen.emit_mode(&mut ctx, false);
                }
            }
            Key::Epg => self.screen.epg(&mut ctx, self.teletext.is_on()),
            Key::Pip => self.screen.pip_toggle(&mut ctx, self.teletext.is_on()),
            Key::Source => self.screen.source_cycle(&mut ctx),
            Key::SwivelLeft => self.swivel.key(&mut ctx, true),
            Key::SwivelRight => self.swivel.key(&mut ctx, false),
            Key::Sleep => self.sleep.key(&mut ctx),
        }
        obs
    }

    /// Advances housekeeping time: sleep-timer expiry powers the set down.
    pub fn tick(&mut self, now: SimTime) -> Vec<Observation> {
        let mut obs = Vec::new();
        if self.on && self.sleep.tick(now, &self.faults) {
            let mut ctx = FeatureCtx {
                now,
                cov: &mut self.cov,
                bank: &self.bank,
                faults: &self.faults,
                obs: &mut obs,
            };
            Self::power_off(
                &mut self.teletext,
                &mut self.screen,
                &mut self.sleep,
                &mut ctx,
            );
            self.on = false;
        }
        obs
    }

    /// Run-time recovery: re-synchronizes the teletext decoder with the
    /// UI (repairs the persistent error left by a missed mode
    /// notification). Returns the observations the repair emits.
    pub fn resync_teletext(&mut self, now: SimTime) -> Vec<Observation> {
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now,
            cov: &mut self.cov,
            bank: &self.bank,
            faults: &self.faults,
            obs: &mut obs,
        };
        self.teletext.resync(&mut ctx);
        obs
    }

    /// Run-time recovery: forces the audio path to the given mute state
    /// (repairs a stuck mute after the inversion fault clears).
    pub fn force_audio(&mut self, now: SimTime, muted: bool) -> Vec<Observation> {
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now,
            cov: &mut self.cov,
            bank: &self.bank,
            faults: &self.faults,
            obs: &mut obs,
        };
        self.volume.force_mute_state(&mut ctx, muted);
        obs
    }

    // ---- active-observability entry points -------------------------------

    /// Samples the sleep-timer service's liveness heartbeat (active
    /// probing, paper §4.1): while the set is on and a timer is armed,
    /// the timer wheel reports its configured minutes from the
    /// `sleep.timer` source. Under [`TvFault::SleepTimerLost`] the
    /// mis-programmed wheel is silent — exactly the silence a heartbeat
    /// deadline monitor alarms on.
    /// Empty when the set is off or no timer is armed.
    pub fn timer_heartbeat(&mut self, now: SimTime) -> Vec<Observation> {
        if !self.on || !self.sleep.is_armed() || self.faults.is_active(TvFault::SleepTimerLost) {
            return Vec::new();
        }
        vec![Observation::new(
            now,
            "sleep.timer",
            ObservationKind::Value {
                name: "sleep.heartbeat".into(),
                value: self.sleep.minutes() as f64,
            },
        )]
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
        let cmd = if self.swivel.converged() {
            "converged"
        } else {
            "pending"
        };
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now,
            cov: &mut self.cov,
            bank: &self.bank,
            faults: &self.faults,
            obs: &mut obs,
        };
        ctx.mode("swivel.cmd", cmd);
        ctx.mode("swivel.motor", "idle");
        obs
    }

    /// True while an on-screen display (menu or EPG) holds input focus
    /// — the menu witness's ground truth after a probe's open/close
    /// round-trip.
    pub fn osd_has_focus(&self) -> bool {
        self.screen.osd_has_focus()
    }

    // ---- micro-reboot units ----------------------------------------------

    /// The independently restartable pipeline units, in checkpoint order.
    pub const UNITS: [&'static str; 6] =
        ["audio", "screen", "sleep", "swivel", "teletext", "tuner"];

    /// The unit that would serve `key` in the current focus state — the
    /// routing the micro-reboot journal and outage model key off.
    pub fn serving_unit(&self, key: Key) -> &'static str {
        match key {
            Key::Power => "screen",
            Key::Digit(_) => {
                if self.screen.osd_has_focus() {
                    "screen"
                } else if self.teletext.is_on() {
                    "teletext"
                } else {
                    "tuner"
                }
            }
            Key::VolUp | Key::VolDown | Key::Mute => "audio",
            Key::ChannelUp | Key::ChannelDown => "tuner",
            Key::Teletext => {
                if self.screen.osd_has_focus() {
                    "screen"
                } else {
                    "teletext"
                }
            }
            Key::Back => {
                if self.screen.osd_has_focus() {
                    "screen"
                } else if self.teletext.is_on() {
                    "teletext"
                } else {
                    "screen"
                }
            }
            Key::DualScreen | Key::Menu | Key::Ok | Key::Epg | Key::Pip | Key::Source => "screen",
            Key::SwivelLeft | Key::SwivelRight => "swivel",
            Key::Sleep => "sleep",
        }
    }

    /// The named unit's complete state as a checkpointable map; `None`
    /// for an unknown unit name.
    pub fn unit_state(&self, unit: &str) -> Option<UnitState> {
        match unit {
            "audio" => Some(self.volume.snapshot()),
            "tuner" => Some(self.tuner.snapshot()),
            "teletext" => Some(self.teletext.snapshot()),
            "screen" => Some(self.screen.snapshot()),
            "sleep" => Some(self.sleep.snapshot()),
            "swivel" => Some(self.swivel.snapshot()),
            _ => None,
        }
    }

    /// Micro-reboot: overwrites the named unit's state from a validated
    /// checkpoint, leaving every other unit untouched. Returns false for
    /// an unknown unit name.
    pub fn restore_unit(&mut self, unit: &str, state: &UnitState) -> bool {
        match unit {
            "audio" => self.volume.restore(state),
            "tuner" => self.tuner.restore(state),
            "teletext" => self.teletext.restore(state),
            "screen" => self.screen.restore(state),
            "sleep" => self.sleep.restore(state),
            "swivel" => self.swivel.restore(state),
            _ => return false,
        }
        true
    }

    /// Full-restart fallback: reboots the named unit to factory defaults
    /// (used when a unit's whole checkpoint history failed validation).
    /// Returns false for an unknown unit name.
    pub fn reset_unit(&mut self, unit: &str) -> bool {
        match unit {
            "audio" => self.volume = Volume::new(),
            "tuner" => self.tuner = ChannelTuner::new(),
            "teletext" => self.teletext = Teletext::new(),
            "screen" => self.screen = ScreenManager::new(),
            "sleep" => self.sleep = SleepTimer::new(),
            "swivel" => self.swivel = Swivel::new(),
            _ => return false,
        }
        true
    }

    /// Announces the named unit's current state on its outputs — called
    /// after a restore so the observation boundary (and the comparator
    /// behind it) sees the post-reboot state. Returns the emitted
    /// observations, empty for an unknown unit.
    pub fn announce_unit(&mut self, now: SimTime, unit: &str) -> Vec<Observation> {
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now,
            cov: &mut self.cov,
            bank: &self.bank,
            faults: &self.faults,
            obs: &mut obs,
        };
        match unit {
            "audio" => {
                ctx.output("volume", self.volume.audible());
                ctx.output("audio.muted", self.volume.is_muted() as i64);
            }
            "tuner" => ctx.output("channel", self.tuner.current()),
            "teletext" => self.teletext.announce(&mut ctx),
            "screen" => {
                self.screen.emit_mode(&mut ctx, self.teletext.is_on());
                ctx.output("source", self.screen.source());
            }
            "sleep" => ctx.output("sleep.minutes", self.sleep.minutes() as i64),
            "swivel" => ctx.output("swivel.angle", self.swivel.angle()),
            _ => {}
        }
        obs
    }

    /// Replays a journalled key press directly into the named unit's
    /// handler, bypassing focus routing — state reconciliation after a
    /// micro-reboot. The rest of the system already processed this press,
    /// so cross-unit side effects are deliberately not re-run. Returns
    /// the (discardable) observations the replay emits.
    pub fn replay_unit_key(&mut self, now: SimTime, unit: &str, key: Key) -> Vec<Observation> {
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now,
            cov: &mut self.cov,
            bank: &self.bank,
            faults: &self.faults,
            obs: &mut obs,
        };
        match (unit, key) {
            ("audio", Key::VolUp) => self.volume.vol_up(&mut ctx),
            ("audio", Key::VolDown) => self.volume.vol_down(&mut ctx),
            ("audio", Key::Mute) => self.volume.mute(&mut ctx),
            ("tuner", Key::Digit(d)) => self.tuner.digit(&mut ctx, d),
            ("tuner", Key::ChannelUp) => self.tuner.channel_up(&mut ctx),
            ("tuner", Key::ChannelDown) => self.tuner.channel_down(&mut ctx),
            ("teletext", Key::Digit(d)) if self.teletext.is_on() => {
                self.teletext.digit(&mut ctx, d);
            }
            ("teletext", Key::Teletext) => self.teletext.toggle(&mut ctx),
            ("teletext", Key::Back) => self.teletext.force_off(&mut ctx),
            ("screen", Key::Menu) => self.screen.menu(&mut ctx, self.teletext.is_on()),
            ("screen", Key::Epg) => self.screen.epg(&mut ctx, self.teletext.is_on()),
            ("screen", Key::DualScreen) => {
                self.screen.dual_toggle(&mut ctx, self.teletext.is_on());
            }
            ("screen", Key::Pip) => self.screen.pip_toggle(&mut ctx, self.teletext.is_on()),
            ("screen", Key::Source) => self.screen.source_cycle(&mut ctx),
            ("screen", Key::Back) => {
                self.screen.back(&mut ctx, self.teletext.is_on());
            }
            ("sleep", Key::Sleep) => self.sleep.key(&mut ctx),
            ("swivel", Key::SwivelLeft) => self.swivel.key(&mut ctx, true),
            ("swivel", Key::SwivelRight) => self.swivel.key(&mut ctx, false),
            // Power cycles and OSD-swallowed keys carry no unit-local
            // state; replay ignores them.
            _ => {}
        }
        obs
    }

    fn power_on(
        volume: &mut Volume,
        tuner: &mut ChannelTuner,
        screen: &mut ScreenManager,
        ctx: &mut FeatureCtx<'_>,
    ) {
        ctx.exec(FirmwareOp::Boot, 0);
        ctx.exec(FirmwareOp::Tune, tuner.current() as u32);
        screen.reset();
        // The set announces its restored state on the outputs.
        ctx.output("screen.mode", "video");
        ctx.mode("scaler", "video");
        ctx.output("volume", volume.audible());
        ctx.output("audio.muted", volume.is_muted() as i64);
        ctx.output("channel", tuner.current());
    }

    fn power_off(
        teletext: &mut Teletext,
        screen: &mut ScreenManager,
        sleep: &mut SleepTimer,
        ctx: &mut FeatureCtx<'_>,
    ) {
        ctx.exec(FirmwareOp::Boot, 1);
        teletext.force_off(ctx);
        screen.reset();
        sleep.reset();
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
    fn timer_heartbeat_tracks_arming_and_fault() {
        let mut tv = on_tv();
        assert!(
            tv.timer_heartbeat(SimTime::ZERO).is_empty(),
            "no heartbeat while disarmed"
        );
        tv.press(SimTime::ZERO, Key::Sleep);
        let hb = tv.timer_heartbeat(SimTime::from_millis(50));
        assert_eq!(hb.len(), 1);
        assert_eq!(hb[0].source, "sleep.timer");
        tv.inject_fault(TvFault::SleepTimerLost);
        assert!(
            tv.timer_heartbeat(SimTime::from_millis(100)).is_empty(),
            "the lost interrupt silences the heartbeat"
        );
        tv.clear_fault(TvFault::SleepTimerLost);
        assert_eq!(tv.timer_heartbeat(SimTime::from_millis(150)).len(), 1);
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
        tv.tuner_mut().lock_channel(13);
        let states: Vec<_> = TvSystem::UNITS
            .iter()
            .map(|u| (u, tv.unit_state(u).unwrap()))
            .collect();
        // Mutate everything, then restore each unit from its snapshot.
        tv.press(SimTime::ZERO, Key::Digit(2));
        tv.press(SimTime::ZERO, Key::Digit(3)); // page 123 entered
        tv.press(SimTime::ZERO, Key::Mute);
        tv.press(SimTime::ZERO, Key::SwivelLeft);
        for (unit, state) in &states {
            assert!(tv.restore_unit(unit, state), "unknown unit {unit}");
        }
        for (unit, state) in &states {
            assert_eq!(&tv.unit_state(unit).unwrap(), state, "unit {unit}");
        }
        assert_eq!(tv.volume_level(), 25);
        assert!(tv.is_muted());
        assert_eq!(tv.channel(), 7);
        assert!(tv.teletext().is_on());
        assert!(tv.tuner_mut().is_locked(13));
        assert_eq!(tv.swivel().angle(), 15);
    }

    #[test]
    fn restore_touches_only_the_named_unit() {
        let mut tv = on_tv();
        let audio = tv.unit_state("audio").unwrap();
        tv.press(SimTime::ZERO, Key::VolUp); // 25
        tv.press(SimTime::ZERO, Key::Digit(9));
        tv.restore_unit("audio", &audio);
        assert_eq!(tv.volume_level(), 20, "audio restored");
        assert_eq!(tv.channel(), 9, "tuner untouched");
    }

    #[test]
    fn reset_unit_reboots_to_defaults() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::VolUp);
        assert!(tv.reset_unit("audio"));
        assert_eq!(tv.volume_level(), 20);
        assert!(!tv.reset_unit("nonsense"));
        assert!(tv.unit_state("nonsense").is_none());
    }

    #[test]
    fn serving_unit_follows_focus() {
        let mut tv = on_tv();
        assert_eq!(tv.serving_unit(Key::Digit(5)), "tuner");
        assert_eq!(tv.serving_unit(Key::VolUp), "audio");
        assert_eq!(tv.serving_unit(Key::Back), "screen");
        tv.press(SimTime::ZERO, Key::Teletext);
        assert_eq!(tv.serving_unit(Key::Digit(5)), "teletext");
        assert_eq!(tv.serving_unit(Key::Back), "teletext");
        tv.press(SimTime::ZERO, Key::Menu);
        assert_eq!(tv.serving_unit(Key::Digit(5)), "screen");
        assert_eq!(tv.serving_unit(Key::Teletext), "screen");
        assert_eq!(tv.serving_unit(Key::Sleep), "sleep");
        assert_eq!(tv.serving_unit(Key::SwivelLeft), "swivel");
    }

    #[test]
    fn announce_reemits_current_outputs() {
        let mut tv = on_tv();
        tv.press(SimTime::ZERO, Key::VolUp);
        let obs = tv.announce_unit(SimTime::ZERO, "audio");
        assert_eq!(last_output(&obs, "volume"), Some(ObsValue::Num(25.0)));
        assert_eq!(last_output(&obs, "audio.muted"), Some(ObsValue::Num(0.0)));
        let obs = tv.announce_unit(SimTime::ZERO, "teletext");
        assert_eq!(
            last_output(&obs, "teletext.page"),
            Some(ObsValue::Num(0.0)),
            "teletext off renders page 0"
        );
        assert!(tv.announce_unit(SimTime::ZERO, "bogus").is_empty());
    }

    #[test]
    fn replay_reconciles_restored_unit() {
        let mut tv = on_tv();
        // Checkpoint, then two presses the journal must reapply.
        let audio = tv.unit_state("audio").unwrap();
        tv.press(SimTime::ZERO, Key::VolUp);
        tv.press(SimTime::ZERO, Key::VolUp);
        assert_eq!(tv.volume_level(), 30);
        // Micro-reboot: restore the checkpoint, replay the journal.
        tv.restore_unit("audio", &audio);
        assert_eq!(tv.volume_level(), 20);
        tv.replay_unit_key(SimTime::ZERO, "audio", Key::VolUp);
        tv.replay_unit_key(SimTime::ZERO, "audio", Key::VolUp);
        assert_eq!(tv.volume_level(), 30, "journal replay converges");
        // Replay bypasses focus routing: a tuner digit retunes even
        // though teletext has focus for live presses.
        tv.press(SimTime::ZERO, Key::Teletext);
        tv.replay_unit_key(SimTime::ZERO, "tuner", Key::Digit(4));
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
