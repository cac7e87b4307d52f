//! Sleep timer and motorized swivel.
//!
//! The swivel matters for the user-perception study (paper Sect. 4.6):
//! users rank both image quality and the swivel as important, tolerate bad
//! image quality (attributed externally), but are irritated when the
//! swivel fails (attributed to the product).

use super::FeatureCtx;
use crate::blocks::{BlockMap, FirmwareOp};
use crate::faults::TvFault;
use simkit::{SimDuration, SimTime};

/// Sleep-timer step per key press.
pub const SLEEP_STEP_MIN: u64 = 15;
/// Maximum sleep-timer setting.
pub const SLEEP_MAX_MIN: u64 = 120;

/// The sleep timer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SleepTimer {
    /// Minutes configured (0 = off).
    minutes: u64,
    /// When the timer fires, if armed.
    fires_at: Option<SimTime>,
}

impl SleepTimer {
    /// Creates a disarmed timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Configured minutes (0 when off).
    pub fn minutes(&self) -> u64 {
        self.minutes
    }

    /// True while armed.
    pub fn is_armed(&self) -> bool {
        self.fires_at.is_some()
    }

    /// Handles the sleep key: extends in 15-minute steps, wrapping to off
    /// after the maximum.
    pub fn key(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.hit(BlockMap::SLEEP);
        self.minutes += SLEEP_STEP_MIN;
        if self.minutes > SLEEP_MAX_MIN {
            ctx.hit(BlockMap::SLEEP + 1);
            self.minutes = 0;
            self.fires_at = None;
        } else {
            ctx.hit(BlockMap::SLEEP + 2);
            self.fires_at = Some(ctx.now + SimDuration::from_secs(self.minutes * 60));
        }
        ctx.exec(FirmwareOp::Osd, 20 + self.minutes as u32);
        ctx.output("sleep.minutes", self.minutes as i64);
    }

    /// Checks expiry; returns true exactly once when the timer fires
    /// (the TV must then power down).
    ///
    /// Under [`TvFault::SleepTimerLost`] the timer never fires.
    pub fn tick(&mut self, now: SimTime, faults: &crate::faults::FaultSet) -> bool {
        let Some(at) = self.fires_at else {
            return false;
        };
        if now < at {
            return false;
        }
        if faults.is_active(TvFault::SleepTimerLost) {
            // Fault: the expiry interrupt is lost; timer stays pending.
            return false;
        }
        self.fires_at = None;
        self.minutes = 0;
        true
    }

    /// Disarms (power-off).
    pub fn reset(&mut self) {
        self.minutes = 0;
        self.fires_at = None;
    }

    /// Micro-reboot checkpoint: configured minutes plus the armed expiry
    /// instant (nanoseconds; `armed` gates it).
    pub fn snapshot(&self) -> crate::UnitState {
        let mut s = crate::UnitState::new();
        s.insert("minutes".into(), self.minutes as f64);
        s.insert("armed".into(), f64::from(u8::from(self.fires_at.is_some())));
        s.insert(
            "fires_at_ns".into(),
            self.fires_at.map_or(0.0, |t| t.as_nanos() as f64),
        );
        s
    }

    /// Micro-reboot restore: rebuilds the timer from a checkpoint.
    pub fn restore(&mut self, s: &crate::UnitState) {
        self.minutes = s
            .get("minutes")
            .map_or(0, |v| (*v as u64).min(SLEEP_MAX_MIN));
        let armed = s.get("armed").is_some_and(|v| *v != 0.0);
        self.fires_at = if armed {
            s.get("fires_at_ns").map(|v| SimTime::from_nanos(*v as u64))
        } else {
            None
        };
    }
}

/// Swivel step per key press, degrees.
pub const SWIVEL_STEP: i64 = 15;
/// Swivel range limit, degrees.
pub const SWIVEL_MAX: i64 = 45;

/// The motorized swivel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Swivel {
    angle: i64,
    /// The last commanded target angle — what the motor *should* be at.
    /// Tracked regardless of faults so a mode witness can compare
    /// command against actuation; not part of the micro-reboot
    /// checkpoint (a restore re-bases the command on the restored
    /// angle).
    last_cmd: i64,
}

impl Swivel {
    /// Creates a centered swivel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current angle in degrees (negative = left).
    pub fn angle(&self) -> i64 {
        self.angle
    }

    /// True when the motor has reached the last commanded angle — the
    /// mode witness's command-vs-actuation check.
    pub fn converged(&self) -> bool {
        self.last_cmd == self.angle
    }

    /// Handles a swivel key; `left` selects direction.
    pub fn key(&mut self, ctx: &mut FeatureCtx<'_>, left: bool) {
        ctx.hit(BlockMap::SWIVEL);
        let delta = if left { -SWIVEL_STEP } else { SWIVEL_STEP };
        self.last_cmd = (self.angle + delta).clamp(-SWIVEL_MAX, SWIVEL_MAX);
        if ctx.faults.is_active(TvFault::SwivelStuck) {
            // Fault: the motor driver ignores the command.
            ctx.hit(BlockMap::SWIVEL + 1);
        } else {
            ctx.hit(BlockMap::SWIVEL + 2);
            self.angle = self.last_cmd;
        }
        ctx.exec(FirmwareOp::Motor, (self.angle + SWIVEL_MAX) as u32);
        ctx.output("swivel.angle", self.angle);
    }

    /// Micro-reboot checkpoint: the motor angle.
    pub fn snapshot(&self) -> crate::UnitState {
        let mut s = crate::UnitState::new();
        s.insert("angle".into(), self.angle as f64);
        s
    }

    /// Micro-reboot restore: rebuilds the swivel from a checkpoint. The
    /// command is re-based on the restored angle — a reboot clears any
    /// pending (possibly fault-swallowed) motion.
    pub fn restore(&mut self, s: &crate::UnitState) {
        self.angle = s
            .get("angle")
            .map_or(0, |v| (*v as i64).clamp(-SWIVEL_MAX, SWIVEL_MAX));
        self.last_cmd = self.angle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::CoverageRecorder;
    use crate::faults::FaultSet;

    fn with_ctx<R>(now: SimTime, faults: &FaultSet, f: impl FnOnce(&mut FeatureCtx<'_>) -> R) -> R {
        let mut cov = CoverageRecorder::default();
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now,
            cov: &mut cov,
            faults,
            obs: &mut obs,
        };
        f(&mut ctx)
    }

    #[test]
    fn sleep_extends_then_wraps_off() {
        let faults = FaultSet::none();
        let mut s = SleepTimer::new();
        for expect in [15, 30, 45, 60, 75, 90, 105, 120] {
            with_ctx(SimTime::ZERO, &faults, |c| s.key(c));
            assert_eq!(s.minutes(), expect);
            assert!(s.is_armed());
        }
        with_ctx(SimTime::ZERO, &faults, |c| s.key(c));
        assert_eq!(s.minutes(), 0);
        assert!(!s.is_armed());
    }

    #[test]
    fn sleep_fires_once() {
        let faults = FaultSet::none();
        let mut s = SleepTimer::new();
        with_ctx(SimTime::ZERO, &faults, |c| s.key(c)); // 15 min
        let fire_time = SimTime::from_secs(15 * 60);
        assert!(!s.tick(fire_time - SimDuration::from_secs(1), &faults));
        assert!(s.tick(fire_time, &faults));
        assert!(!s.tick(fire_time + SimDuration::from_secs(1), &faults));
        assert!(!s.is_armed());
    }

    #[test]
    fn sleep_lost_fault_never_fires() {
        let mut faults = FaultSet::none();
        faults.inject(TvFault::SleepTimerLost);
        let mut s = SleepTimer::new();
        with_ctx(SimTime::ZERO, &faults, |c| s.key(c));
        assert!(!s.tick(SimTime::from_secs(10_000), &faults));
        assert!(s.is_armed(), "timer remains pending forever");
    }

    #[test]
    fn swivel_moves_and_clamps() {
        let faults = FaultSet::none();
        let mut sw = Swivel::new();
        with_ctx(SimTime::ZERO, &faults, |c| sw.key(c, false));
        assert_eq!(sw.angle(), 15);
        for _ in 0..10 {
            with_ctx(SimTime::ZERO, &faults, |c| sw.key(c, false));
        }
        assert_eq!(sw.angle(), SWIVEL_MAX);
        for _ in 0..20 {
            with_ctx(SimTime::ZERO, &faults, |c| sw.key(c, true));
        }
        assert_eq!(sw.angle(), -SWIVEL_MAX);
    }

    #[test]
    fn swivel_stuck_fault() {
        let mut faults = FaultSet::none();
        faults.inject(TvFault::SwivelStuck);
        let mut sw = Swivel::new();
        with_ctx(SimTime::ZERO, &faults, |c| sw.key(c, false));
        assert_eq!(sw.angle(), 0, "motor must not move under the fault");
        assert_eq!(sw.last_cmd, 15, "the command itself was registered");
        assert!(!sw.converged(), "witness sees command != actuation");
    }

    #[test]
    fn swivel_restore_rebases_the_command() {
        let faults = FaultSet::none();
        let mut sw = Swivel::new();
        with_ctx(SimTime::ZERO, &faults, |c| sw.key(c, false));
        assert!(sw.converged());
        let snap = sw.snapshot();
        let mut stuck = FaultSet::none();
        stuck.inject(TvFault::SwivelStuck);
        with_ctx(SimTime::ZERO, &stuck, |c| sw.key(c, false));
        assert!(!sw.converged());
        sw.restore(&snap);
        assert_eq!(sw.angle(), 15);
        assert!(sw.converged(), "restore clears the pending command");
    }
}
