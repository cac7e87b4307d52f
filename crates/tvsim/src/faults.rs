//! Injectable TV faults.
//!
//! The paper's terminology (after Avižienis et al.): a *fault* is the
//! adjudged cause of an *error* (bad state) which may lead to a *failure*
//! (user-visible misbehaviour). These are the faults the TV experiments
//! inject — programming mistakes and integration defects of the kind the
//! Trader case studies report.

use crate::system::Unit;
use std::collections::BTreeSet;
use std::fmt;

/// A fault injectable into the [`TvSystem`](crate::TvSystem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TvFault {
    /// The video decoder fails to follow the UI into teletext mode — the
    /// loss-of-synchronization defect of Sözer et al. (paper Sect. 4.3).
    TeletextSyncLoss,
    /// The teletext *render* path contains a faulty block: rendered pages
    /// are corrupted (wrong page shown). The E1 diagnosis target.
    TeletextRenderFault,
    /// Volume-up commands are dropped (volume sticks).
    StuckVolume,
    /// Channel-up skips a channel (off-by-one in the tuner table).
    ChannelSkip,
    /// The menu never closes on Back (event handler unregistered).
    MenuFreeze,
    /// The sleep timer never fires (timer wheel mis-programmed).
    SleepTimerLost,
    /// The swivel motor ignores commands (the user-perception case:
    /// internally attributed, highly irritating).
    SwivelStuck,
    /// Mute state inverted after unmute (state-update race).
    MuteInversion,
}

impl TvFault {
    /// A static name for telemetry events (matches the [`fmt::Display`]
    /// form, but borrows for `'static` so recording never allocates).
    pub fn name(self) -> &'static str {
        match self {
            TvFault::TeletextSyncLoss => "teletext-sync-loss",
            TvFault::TeletextRenderFault => "teletext-render-fault",
            TvFault::StuckVolume => "stuck-volume",
            TvFault::ChannelSkip => "channel-skip",
            TvFault::MenuFreeze => "menu-freeze",
            TvFault::SleepTimerLost => "sleep-timer-lost",
            TvFault::SwivelStuck => "swivel-stuck",
            TvFault::MuteInversion => "mute-inversion",
        }
    }

    /// The pipeline unit the fault lives in — the micro-reboot target
    /// when the awareness loop localizes an error to this fault.
    pub fn unit(self) -> Unit {
        match self {
            TvFault::TeletextSyncLoss | TvFault::TeletextRenderFault => Unit::Teletext,
            TvFault::StuckVolume | TvFault::MuteInversion => Unit::Audio,
            TvFault::ChannelSkip => Unit::Tuner,
            TvFault::MenuFreeze => Unit::Screen,
            TvFault::SleepTimerLost => Unit::Sleep,
            TvFault::SwivelStuck => Unit::Swivel,
        }
    }

    /// Every injectable fault.
    pub const ALL: [TvFault; 8] = [
        TvFault::TeletextSyncLoss,
        TvFault::TeletextRenderFault,
        TvFault::StuckVolume,
        TvFault::ChannelSkip,
        TvFault::MenuFreeze,
        TvFault::SleepTimerLost,
        TvFault::SwivelStuck,
        TvFault::MuteInversion,
    ];
}

impl fmt::Display for TvFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The set of currently active faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    active: BTreeSet<TvFault>,
}

impl FaultSet {
    /// No active faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Activates a fault.
    pub fn inject(&mut self, fault: TvFault) {
        self.active.insert(fault);
    }

    /// Deactivates a fault (e.g. after a software update).
    pub fn clear(&mut self, fault: TvFault) {
        self.active.remove(&fault);
    }

    /// True if `fault` is active.
    pub fn is_active(&self, fault: TvFault) -> bool {
        self.active.contains(&fault)
    }

    /// Number of active faults.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True when no fault is active.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Iterates over active faults.
    pub fn iter(&self) -> impl Iterator<Item = TvFault> + '_ {
        self.active.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_and_clear() {
        let mut fs = FaultSet::none();
        assert!(fs.is_empty());
        fs.inject(TvFault::StuckVolume);
        fs.inject(TvFault::StuckVolume); // idempotent
        assert!(fs.is_active(TvFault::StuckVolume));
        assert_eq!(fs.len(), 1);
        fs.clear(TvFault::StuckVolume);
        assert!(!fs.is_active(TvFault::StuckVolume));
    }

    #[test]
    fn clear_all() {
        let mut fs = FaultSet::none();
        for f in TvFault::ALL {
            fs.inject(f);
        }
        assert_eq!(fs.len(), TvFault::ALL.len());
        for f in TvFault::ALL {
            fs.clear(f);
        }
        assert!(fs.is_empty());
    }

    #[test]
    fn display_names() {
        assert_eq!(TvFault::TeletextSyncLoss.to_string(), "teletext-sync-loss");
        for f in TvFault::ALL {
            assert!(!f.to_string().is_empty());
        }
    }
}
