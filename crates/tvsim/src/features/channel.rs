//! Channel tuning.

use super::FeatureCtx;
use crate::blocks::{BlockMap, FirmwareOp};
use crate::faults::TvFault;

/// Highest channel number.
pub const MAX_CHANNEL: i64 = 99;

/// The tuner: the current channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelTuner {
    current: i64,
}

impl Default for ChannelTuner {
    fn default() -> Self {
        ChannelTuner { current: 1 }
    }
}

impl ChannelTuner {
    /// Creates the tuner on channel 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tuned channel (1–99).
    pub fn current(&self) -> i64 {
        self.current
    }

    fn retune(&mut self, ctx: &mut FeatureCtx<'_>, target: i64) {
        ctx.hit(BlockMap::CHANNEL + 1);
        self.current = target.clamp(1, MAX_CHANNEL);
        ctx.exec(FirmwareOp::Tune, self.current as u32);
        ctx.output("channel", self.current);
    }

    /// Handles channel-up.
    pub fn channel_up(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.hit(BlockMap::CHANNEL);
        let step = if ctx.faults.is_active(TvFault::ChannelSkip) {
            ctx.hit(BlockMap::CHANNEL + 2);
            2 // fault: off-by-one in the tuner table walk
        } else {
            1
        };
        let target = (self.current - 1 + step).rem_euclid(MAX_CHANNEL) + 1;
        self.retune(ctx, target);
    }

    /// Handles channel-down.
    pub fn channel_down(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.hit(BlockMap::CHANNEL + 3);
        let target = (self.current - 2).rem_euclid(MAX_CHANNEL) + 1;
        self.retune(ctx, target);
    }

    /// Handles a digit key used for direct tuning.
    pub fn digit(&mut self, ctx: &mut FeatureCtx<'_>, d: u8) {
        ctx.hit(BlockMap::CHANNEL + 4);
        let target = if d == 0 { 10 } else { d as i64 };
        self.retune(ctx, target);
    }

    /// Micro-reboot checkpoint: the current channel.
    pub fn snapshot(&self) -> crate::UnitState {
        let mut s = crate::UnitState::new();
        s.insert("current".into(), self.current as f64);
        s
    }

    /// Micro-reboot restore: rebuilds the tuner from a checkpoint.
    pub fn restore(&mut self, s: &crate::UnitState) {
        let d = ChannelTuner::default();
        self.current = s
            .get("current")
            .map_or(d.current, |v| (*v as i64).clamp(1, MAX_CHANNEL));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::CoverageRecorder;
    use crate::faults::FaultSet;
    use simkit::SimTime;

    fn run(
        t: &mut ChannelTuner,
        faults: &FaultSet,
        f: impl FnOnce(&mut ChannelTuner, &mut FeatureCtx<'_>),
    ) -> Vec<observe::Observation> {
        let mut cov = CoverageRecorder::default();
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now: SimTime::ZERO,
            cov: &mut cov,
            faults,
            obs: &mut obs,
        };
        f(t, &mut ctx);
        obs
    }

    #[test]
    fn up_down_wraps() {
        let faults = FaultSet::none();
        let mut t = ChannelTuner::new();
        run(&mut t, &faults, |t, c| t.channel_up(c));
        assert_eq!(t.current(), 2);
        run(&mut t, &faults, |t, c| t.channel_down(c));
        run(&mut t, &faults, |t, c| t.channel_down(c));
        assert_eq!(t.current(), MAX_CHANNEL);
        run(&mut t, &faults, |t, c| t.channel_up(c));
        assert_eq!(t.current(), 1);
    }

    #[test]
    fn digit_tunes_directly() {
        let faults = FaultSet::none();
        let mut t = ChannelTuner::new();
        let obs = run(&mut t, &faults, |t, c| t.digit(c, 7));
        assert_eq!(t.current(), 7);
        let (name, v) = obs[0].as_output().unwrap();
        assert_eq!(name, "channel");
        assert_eq!(v.as_num(), Some(7.0));
        run(&mut t, &faults, |t, c| t.digit(c, 0));
        assert_eq!(t.current(), 10);
    }

    #[test]
    fn channel_skip_fault() {
        let mut faults = FaultSet::none();
        faults.inject(TvFault::ChannelSkip);
        let mut t = ChannelTuner::new();
        run(&mut t, &faults, |t, c| t.channel_up(c));
        assert_eq!(t.current(), 3); // skipped channel 2
    }
}
