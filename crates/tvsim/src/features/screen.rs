//! Screen / OSD management — where the feature interactions live.
//!
//! The paper singles out "relations between dual screen, teletext and
//! various types of on-screen displays that remove or suppress each other"
//! as the modeling hazard (Sect. 4.2). This manager implements the
//! suppression lattice: menu > EPG > teletext > dual > PiP > video.

use super::FeatureCtx;
use crate::blocks::{BlockMap, FirmwareOp};
use crate::faults::TvFault;

/// The screen/OSD manager.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScreenManager {
    menu_open: bool,
    epg_open: bool,
    dual: bool,
    pip: bool,
    source: i64,
}

impl ScreenManager {
    /// Creates the manager with everything closed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The selected input source (0–3).
    pub fn source(&self) -> i64 {
        self.source
    }

    /// True when an OSD (menu or EPG) has input focus — digits and the
    /// teletext key are consumed without effect then.
    pub fn osd_has_focus(&self) -> bool {
        self.menu_open || self.epg_open
    }

    /// The user-visible screen mode given whether teletext is on.
    pub fn mode(&self, teletext_on: bool) -> &'static str {
        if self.menu_open {
            "menu"
        } else if self.epg_open {
            "epg"
        } else if teletext_on {
            if self.dual {
                "dual+teletext"
            } else {
                "teletext"
            }
        } else if self.dual {
            "dual"
        } else if self.pip {
            "pip"
        } else {
            "video"
        }
    }

    /// Emits the screen-mode output.
    pub fn emit_mode(&self, ctx: &mut FeatureCtx<'_>, teletext_on: bool) {
        ctx.output("screen.mode", self.mode(teletext_on));
        ctx.mode("scaler", self.mode(teletext_on));
    }

    /// Handles the menu key.
    pub fn menu(&mut self, ctx: &mut FeatureCtx<'_>, teletext_on: bool) {
        ctx.hit(BlockMap::SCREEN);
        self.menu_open = !self.menu_open;
        if self.menu_open {
            // Opening the menu closes the EPG (OSDs suppress each other).
            self.epg_open = false;
        }
        ctx.exec(FirmwareOp::Osd, self.menu_open as u32);
        self.emit_mode(ctx, teletext_on);
    }

    /// Handles the back key. Returns true if the key was consumed by an
    /// OSD (so the caller must not also close teletext).
    pub fn back(&mut self, ctx: &mut FeatureCtx<'_>, teletext_on: bool) -> bool {
        ctx.hit(BlockMap::SCREEN + 1);
        if self.menu_open {
            if ctx.faults.is_active(TvFault::MenuFreeze) {
                // Fault: the close handler was unregistered; menu stays.
                ctx.hit(BlockMap::SCREEN + 2);
            } else {
                ctx.hit(BlockMap::SCREEN + 3);
                self.menu_open = false;
            }
            ctx.exec(FirmwareOp::Osd, 2);
            self.emit_mode(ctx, teletext_on);
            return true;
        }
        if self.epg_open {
            ctx.hit(BlockMap::SCREEN + 4);
            self.epg_open = false;
            ctx.exec(FirmwareOp::Osd, 3);
            self.emit_mode(ctx, teletext_on);
            return true;
        }
        false
    }

    /// Handles the EPG key.
    pub fn epg(&mut self, ctx: &mut FeatureCtx<'_>, teletext_on: bool) {
        ctx.hit(BlockMap::EPG);
        if self.menu_open {
            // Menu has focus: EPG key ignored.
            ctx.hit(BlockMap::EPG + 1);
            return;
        }
        self.epg_open = !self.epg_open;
        if self.epg_open {
            ctx.exec(FirmwareOp::EpgQuery, 0);
        }
        ctx.exec(FirmwareOp::Osd, 4);
        self.emit_mode(ctx, teletext_on);
    }

    /// Handles the dual-screen key.
    pub fn dual_toggle(&mut self, ctx: &mut FeatureCtx<'_>, teletext_on: bool) {
        ctx.hit(BlockMap::SCREEN + 5);
        self.dual = !self.dual;
        if self.dual {
            // Dual screen and PiP are mutually exclusive compositions.
            self.pip = false;
        }
        ctx.exec(FirmwareOp::Compose, self.dual as u32 + 1);
        self.emit_mode(ctx, teletext_on);
    }

    /// Handles the PiP key.
    pub fn pip_toggle(&mut self, ctx: &mut FeatureCtx<'_>, teletext_on: bool) {
        ctx.hit(BlockMap::SCREEN + 6);
        self.pip = !self.pip;
        if self.pip {
            self.dual = false;
        }
        ctx.exec(FirmwareOp::Compose, self.pip as u32 + 3);
        self.emit_mode(ctx, teletext_on);
    }

    /// Handles the source key (cycles 0–3).
    pub fn source_cycle(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.hit(BlockMap::SCREEN + 7);
        self.source = (self.source + 1) % 4;
        ctx.exec(FirmwareOp::Compose, 8 + self.source as u32);
        ctx.output("source", self.source);
    }

    /// Resets the UI state (power off). The input source is a *setting*
    /// and persists across standby, like volume and channel.
    pub fn reset(&mut self) {
        let source = self.source;
        *self = ScreenManager::default();
        self.source = source;
    }

    /// Micro-reboot checkpoint: OSD flags, composition, input source.
    pub fn snapshot(&self) -> crate::UnitState {
        let mut s = crate::UnitState::new();
        s.insert("menu_open".into(), f64::from(u8::from(self.menu_open)));
        s.insert("epg_open".into(), f64::from(u8::from(self.epg_open)));
        s.insert("dual".into(), f64::from(u8::from(self.dual)));
        s.insert("pip".into(), f64::from(u8::from(self.pip)));
        s.insert("source".into(), self.source as f64);
        s
    }

    /// Micro-reboot restore: rebuilds the manager from a checkpoint.
    pub fn restore(&mut self, s: &crate::UnitState) {
        let d = ScreenManager::default();
        self.menu_open = s.get("menu_open").map_or(d.menu_open, |v| *v != 0.0);
        self.epg_open = s.get("epg_open").map_or(d.epg_open, |v| *v != 0.0);
        self.dual = s.get("dual").map_or(d.dual, |v| *v != 0.0);
        self.pip = s.get("pip").map_or(d.pip, |v| *v != 0.0);
        self.source = s
            .get("source")
            .map_or(d.source, |v| (*v as i64).rem_euclid(4));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::CoverageRecorder;
    use crate::faults::FaultSet;
    use simkit::SimTime;

    fn run(
        s: &mut ScreenManager,
        faults: &FaultSet,
        f: impl FnOnce(&mut ScreenManager, &mut FeatureCtx<'_>),
    ) {
        let mut cov = CoverageRecorder::default();
        let mut obs = Vec::new();
        let mut ctx = FeatureCtx {
            now: SimTime::ZERO,
            cov: &mut cov,
            faults,
            obs: &mut obs,
        };
        f(s, &mut ctx);
    }

    #[test]
    fn suppression_lattice() {
        let s = ScreenManager::new();
        assert_eq!(s.mode(false), "video");
        assert_eq!(s.mode(true), "teletext");
        let mut s = ScreenManager::new();
        let faults = FaultSet::none();
        run(&mut s, &faults, |s, c| s.dual_toggle(c, false));
        assert_eq!(s.mode(false), "dual");
        assert_eq!(s.mode(true), "dual+teletext");
        run(&mut s, &faults, |s, c| s.menu(c, false));
        assert_eq!(s.mode(true), "menu"); // menu suppresses everything
    }

    #[test]
    fn menu_closes_epg() {
        let faults = FaultSet::none();
        let mut s = ScreenManager::new();
        run(&mut s, &faults, |s, c| s.epg(c, false));
        assert!(s.epg_open);
        run(&mut s, &faults, |s, c| s.menu(c, false));
        assert!(s.menu_open);
        assert!(!s.epg_open);
    }

    #[test]
    fn dual_and_pip_exclusive() {
        let faults = FaultSet::none();
        let mut s = ScreenManager::new();
        run(&mut s, &faults, |s, c| s.pip_toggle(c, false));
        assert!(s.pip);
        run(&mut s, &faults, |s, c| s.dual_toggle(c, false));
        assert!(s.dual && !s.pip);
        run(&mut s, &faults, |s, c| s.pip_toggle(c, false));
        assert!(s.pip && !s.dual);
    }

    #[test]
    fn back_consumes_osd_first() {
        let faults = FaultSet::none();
        let mut s = ScreenManager::new();
        run(&mut s, &faults, |s, c| s.menu(c, true));
        let mut consumed = false;
        run(&mut s, &faults, |s, c| consumed = s.back(c, true));
        assert!(consumed);
        assert!(!s.menu_open);
        run(&mut s, &faults, |s, c| consumed = s.back(c, true));
        assert!(!consumed, "no OSD open: back falls through");
    }

    #[test]
    fn menu_freeze_fault() {
        let mut faults = FaultSet::none();
        faults.inject(TvFault::MenuFreeze);
        let mut s = ScreenManager::new();
        run(&mut s, &faults, |s, c| s.menu(c, false));
        run(&mut s, &faults, |s, c| {
            s.back(c, false);
        });
        assert!(s.menu_open, "menu must stay frozen under the fault");
    }

    #[test]
    fn epg_ignored_while_menu_open() {
        let faults = FaultSet::none();
        let mut s = ScreenManager::new();
        run(&mut s, &faults, |s, c| s.menu(c, false));
        run(&mut s, &faults, |s, c| s.epg(c, false));
        assert!(!s.epg_open);
    }

    #[test]
    fn source_cycles() {
        let faults = FaultSet::none();
        let mut s = ScreenManager::new();
        for expect in [1, 2, 3, 0, 1] {
            run(&mut s, &faults, |s, c| s.source_cycle(c));
            assert_eq!(s.source(), expect);
        }
    }
}
