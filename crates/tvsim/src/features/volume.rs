//! Volume and mute.

use super::FeatureCtx;
use crate::blocks::{BlockMap, FirmwareOp};
use crate::faults::TvFault;

/// Volume step per key press.
pub const VOLUME_STEP: i64 = 5;

/// The audio volume/mute feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Volume {
    level: i64,
    muted: bool,
}

impl Default for Volume {
    fn default() -> Self {
        Volume {
            level: 20,
            muted: false,
        }
    }
}

impl Volume {
    /// Creates the feature at its factory defaults (level 20, unmuted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current level (0–100), ignoring mute.
    pub fn level(&self) -> i64 {
        self.level
    }

    /// True while muted.
    pub fn is_muted(&self) -> bool {
        self.muted
    }

    /// The audible volume (0 while muted).
    pub fn audible(&self) -> i64 {
        if self.muted {
            0
        } else {
            self.level
        }
    }

    /// Handles a volume-up key.
    pub fn vol_up(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.hit(BlockMap::VOLUME);
        if ctx.faults.is_active(TvFault::StuckVolume) {
            // Fault: the command is parsed but the level update is lost.
            ctx.hit(BlockMap::VOLUME + 1);
        } else {
            ctx.hit(BlockMap::VOLUME + 2);
            self.level = (self.level + VOLUME_STEP).min(100);
        }
        ctx.exec(FirmwareOp::Audio, self.level as u32);
        self.emit(ctx);
    }

    /// Handles a volume-down key.
    pub fn vol_down(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.hit(BlockMap::VOLUME + 3);
        self.level = (self.level - VOLUME_STEP).max(0);
        ctx.exec(FirmwareOp::Audio, self.level as u32);
        self.emit(ctx);
    }

    /// Handles the mute toggle.
    pub fn mute(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.hit(BlockMap::VOLUME + 4);
        if self.muted {
            if ctx.faults.is_active(TvFault::MuteInversion) {
                // Fault: the unmute command is acknowledged but the audio
                // path stays closed.
                ctx.hit(BlockMap::VOLUME + 5);
            } else {
                ctx.hit(BlockMap::VOLUME + 6);
                self.muted = false;
            }
        } else {
            ctx.hit(BlockMap::VOLUME + 7);
            self.muted = true;
        }
        ctx.exec(FirmwareOp::Audio, self.muted as u32);
        self.emit(ctx);
    }

    /// Run-time recovery: forces the audio path into the given mute
    /// state, bypassing the (possibly faulty) toggle logic.
    pub fn force_mute_state(&mut self, ctx: &mut FeatureCtx<'_>, muted: bool) {
        self.muted = muted;
        ctx.exec(FirmwareOp::Audio, 100 + muted as u32);
        self.emit(ctx);
    }

    fn emit(&self, ctx: &mut FeatureCtx<'_>) {
        ctx.output("volume", self.audible());
        ctx.output("audio.muted", self.muted as i64);
    }

    /// Micro-reboot checkpoint: the complete feature state as key/value
    /// pairs.
    pub fn snapshot(&self) -> crate::UnitState {
        let mut s = crate::UnitState::new();
        s.insert("level".into(), self.level as f64);
        s.insert("muted".into(), f64::from(u8::from(self.muted)));
        s
    }

    /// Micro-reboot restore: rebuilds the feature from a checkpoint
    /// (missing keys fall back to factory defaults).
    pub fn restore(&mut self, s: &crate::UnitState) {
        let d = Volume::default();
        self.level = (s.get("level").map_or(d.level, |v| *v as i64)).clamp(0, 100);
        self.muted = s.get("muted").map_or(d.muted, |v| *v != 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::CoverageRecorder;
    use crate::faults::FaultSet;
    use simkit::SimTime;

    fn run(
        v: &mut Volume,
        faults: &FaultSet,
        f: impl FnOnce(&mut Volume, &mut FeatureCtx<'_>),
    ) -> Vec<observe::Observation> {
        let mut cov = CoverageRecorder::default();
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now: SimTime::ZERO,
            cov: &mut cov,
            faults,
            obs: &mut obs,
        };
        f(v, &mut ctx);
        obs
    }

    #[test]
    fn volume_steps_and_clamps() {
        let faults = FaultSet::none();
        let mut v = Volume::new();
        run(&mut v, &faults, |v, c| v.vol_up(c));
        assert_eq!(v.level(), 25);
        for _ in 0..40 {
            run(&mut v, &faults, |v, c| v.vol_up(c));
        }
        assert_eq!(v.level(), 100);
        for _ in 0..40 {
            run(&mut v, &faults, |v, c| v.vol_down(c));
        }
        assert_eq!(v.level(), 0);
    }

    #[test]
    fn mute_silences_output() {
        let faults = FaultSet::none();
        let mut v = Volume::new();
        let obs = run(&mut v, &faults, |v, c| v.mute(c));
        assert!(v.is_muted());
        assert_eq!(v.audible(), 0);
        let (name, val) = obs[0].as_output().unwrap();
        assert_eq!(name, "volume");
        assert_eq!(val.as_num(), Some(0.0));
        run(&mut v, &faults, |v, c| v.mute(c));
        assert!(!v.is_muted());
        assert_eq!(v.audible(), 20);
    }

    #[test]
    fn stuck_volume_fault() {
        let mut faults = FaultSet::none();
        faults.inject(TvFault::StuckVolume);
        let mut v = Volume::new();
        run(&mut v, &faults, |v, c| v.vol_up(c));
        assert_eq!(v.level(), 20); // unchanged
                                   // vol_down still works (the fault is in the up path).
        run(&mut v, &faults, |v, c| v.vol_down(c));
        assert_eq!(v.level(), 15);
    }

    #[test]
    fn mute_inversion_fault_blocks_unmute() {
        let mut faults = FaultSet::none();
        faults.inject(TvFault::MuteInversion);
        let mut v = Volume::new();
        run(&mut v, &faults, |v, c| v.mute(c));
        assert!(v.is_muted());
        run(&mut v, &faults, |v, c| v.mute(c));
        assert!(v.is_muted(), "unmute must fail under the fault");
    }
}
