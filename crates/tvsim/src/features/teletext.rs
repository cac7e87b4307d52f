//! Teletext: acquisition, page navigation, rendering.
//!
//! The feature at the heart of two paper experiments: the
//! loss-of-synchronization defect caught by mode-consistency checking
//! (Sect. 4.3) and the injected render fault localized by spectrum-based
//! diagnosis (Sect. 4.4).

use super::FeatureCtx;
use crate::blocks::{BlockMap, FirmwareOp};
use crate::faults::TvFault;

/// The teletext feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Teletext {
    ui_on: bool,
    page: i64,
    /// Digit-entry buffer for 3-digit page numbers.
    entry: Vec<u8>,
    /// The decoder component's mode — must track `ui_on`, unless the
    /// sync-loss fault is active.
    decoder_in_teletext: bool,
}

impl Default for Teletext {
    fn default() -> Self {
        Teletext {
            ui_on: false,
            page: 100,
            entry: Vec::new(),
            decoder_in_teletext: false,
        }
    }
}

impl Teletext {
    /// Creates the feature, off, at page 100.
    pub fn new() -> Self {
        Self::default()
    }

    /// True while the teletext UI is on.
    pub fn is_on(&self) -> bool {
        self.ui_on
    }

    /// The current page number (100–899).
    pub fn page(&self) -> i64 {
        self.page
    }

    /// The decoder component's current mode string.
    pub fn decoder_mode(&self) -> &'static str {
        if self.decoder_in_teletext {
            "teletext"
        } else {
            "video"
        }
    }

    /// The UI component's current mode string.
    pub fn ui_mode(&self) -> &'static str {
        if self.ui_on {
            "teletext"
        } else {
            "video"
        }
    }

    /// Renders the current page: the displayed page number output.
    ///
    /// Under [`TvFault::TeletextRenderFault`] the faulty block — which
    /// lives in the render path's conditional sub-region for variant bit
    /// [`SyntheticCodeBank::FAULT_BIT`](crate::SyntheticCodeBank::FAULT_BIT)
    /// — corrupts the rendered page. The fault is data-dependent: it only
    /// strikes when the page number exercises the faulty branch, exactly
    /// like a real programming mistake in one basic block.
    fn render(&self, ctx: &mut FeatureCtx<'_>) {
        ctx.exec(FirmwareOp::TeletextRender, self.page as u32);
        if !self.decoder_in_teletext {
            // Loss of sync: the decoder delivers no teletext data — the
            // user sees an empty page (the paper's teletext failure).
            ctx.output("teletext.page", 0i64);
            return;
        }
        let faulty_branch_taken =
            self.page as u32 & (1 << crate::blocks::SyntheticCodeBank::FAULT_BIT) != 0;
        let displayed = if ctx.faults.is_active(TvFault::TeletextRenderFault) && faulty_branch_taken
        {
            // The faulty block mangles the page register before display.
            ctx.hit(BlockMap::TELETEXT + 9);
            self.page + 7
        } else {
            self.page
        };
        ctx.output("teletext.page", displayed);
    }

    /// Emits the current displayed-page output (0 when off).
    fn emit_off(&self, ctx: &mut FeatureCtx<'_>) {
        ctx.output("teletext.page", 0i64);
    }

    /// Emits the two components' modes in dependency order: entering
    /// teletext brings the decoder up first; leaving tears the UI down
    /// first. This keeps the externally observable mode sequence free of
    /// transient inconsistencies when the system is healthy.
    fn emit_modes(&self, ctx: &mut FeatureCtx<'_>) {
        if self.ui_on {
            ctx.mode("decoder", self.decoder_mode());
            ctx.mode("ui", self.ui_mode());
        } else {
            ctx.mode("ui", self.ui_mode());
            ctx.mode("decoder", self.decoder_mode());
        }
    }

    /// Handles the teletext toggle key. Returns true if the toggle was
    /// accepted (the screen manager may have suppressed it).
    pub fn toggle(&mut self, ctx: &mut FeatureCtx<'_>) {
        ctx.hit(BlockMap::TELETEXT);
        if self.ui_on {
            ctx.hit(BlockMap::TELETEXT + 1);
            self.ui_on = false;
            self.decoder_in_teletext = false;
            self.entry.clear();
            ctx.exec(FirmwareOp::Compose, 0);
            self.emit_off(ctx);
        } else {
            ctx.hit(BlockMap::TELETEXT + 2);
            self.ui_on = true;
            self.page = 100;
            self.entry.clear();
            ctx.exec(FirmwareOp::TeletextAcquire, self.page as u32);
            if ctx.faults.is_active(TvFault::TeletextSyncLoss) {
                // Fault: the decoder misses the mode-change notification.
                ctx.hit(BlockMap::TELETEXT + 3);
            } else {
                ctx.hit(BlockMap::TELETEXT + 4);
                self.decoder_in_teletext = true;
            }
            self.render(ctx);
        }
        self.emit_modes(ctx);
    }

    /// Handles a digit key while teletext is visible (page entry).
    pub fn digit(&mut self, ctx: &mut FeatureCtx<'_>, d: u8) {
        ctx.hit(BlockMap::TELETEXT + 5);
        self.entry.push(d);
        if self.entry.len() == 3 {
            let n = self.entry[0] as i64 * 100 + self.entry[1] as i64 * 10 + self.entry[2] as i64;
            self.entry.clear();
            // Valid teletext pages are 100–899.
            if (100..=899).contains(&n) {
                ctx.hit(BlockMap::TELETEXT + 6);
                self.page = n;
                ctx.exec(FirmwareOp::TeletextAcquire, self.page as u32);
                self.render(ctx);
            } else {
                ctx.hit(BlockMap::TELETEXT + 7);
                // Invalid page: entry discarded, page unchanged, re-render.
                self.render(ctx);
            }
        }
    }

    /// Channel changed while teletext on: re-acquire and re-render.
    pub fn on_channel_change(&mut self, ctx: &mut FeatureCtx<'_>) {
        if self.ui_on {
            ctx.hit(BlockMap::TELETEXT + 8);
            self.page = 100;
            self.entry.clear();
            ctx.exec(FirmwareOp::TeletextAcquire, self.page as u32);
            self.render(ctx);
        }
    }

    /// Run-time recovery: re-synchronizes the decoder to the UI state
    /// (the corrective action for the loss-of-sync error, applied by the
    /// recovery side of the awareness loop).
    pub fn resync(&mut self, ctx: &mut FeatureCtx<'_>) {
        self.decoder_in_teletext = self.ui_on;
        if self.ui_on {
            ctx.exec(FirmwareOp::TeletextAcquire, self.page as u32);
            self.render(ctx);
        }
        self.emit_modes(ctx);
    }

    /// Re-emits the current displayed page without touching state — the
    /// announce step after a micro-reboot restore.
    pub fn announce(&self, ctx: &mut FeatureCtx<'_>) {
        if self.ui_on {
            self.render(ctx);
        } else {
            self.emit_off(ctx);
        }
    }

    /// Micro-reboot checkpoint: UI/decoder modes, page, and the partial
    /// digit-entry buffer.
    pub fn snapshot(&self) -> crate::UnitState {
        let mut s = crate::UnitState::new();
        s.insert("ui_on".into(), f64::from(u8::from(self.ui_on)));
        s.insert("page".into(), self.page as f64);
        s.insert(
            "decoder_in_teletext".into(),
            f64::from(u8::from(self.decoder_in_teletext)),
        );
        s.insert("entry.len".into(), self.entry.len() as f64);
        for (i, d) in self.entry.iter().enumerate() {
            s.insert(format!("entry.{i}").into(), f64::from(*d));
        }
        s
    }

    /// Micro-reboot restore: rebuilds the feature from a checkpoint.
    pub fn restore(&mut self, s: &crate::UnitState) {
        let d = Teletext::default();
        self.ui_on = s.get("ui_on").map_or(d.ui_on, |v| *v != 0.0);
        self.page = s
            .get("page")
            .map_or(d.page, |v| (*v as i64).clamp(100, 899));
        self.decoder_in_teletext = s
            .get("decoder_in_teletext")
            .map_or(d.decoder_in_teletext, |v| *v != 0.0);
        let len = s.get("entry.len").map_or(0, |v| (*v as usize).min(2));
        self.entry = (0..len)
            .filter_map(|i| s.get(format!("entry.{i}").as_str()).map(|v| *v as u8))
            .collect();
    }

    /// Forces teletext off (power-off, back key).
    pub fn force_off(&mut self, ctx: &mut FeatureCtx<'_>) {
        if self.ui_on {
            self.ui_on = false;
            self.decoder_in_teletext = false;
            self.entry.clear();
            self.emit_off(ctx);
            self.emit_modes(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::CoverageRecorder;
    use crate::faults::FaultSet;
    use simkit::SimTime;

    fn run(
        t: &mut Teletext,
        faults: &FaultSet,
        f: impl FnOnce(&mut Teletext, &mut FeatureCtx<'_>),
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

    fn output_value(obs: &[observe::Observation], name: &str) -> Option<f64> {
        obs.iter()
            .filter_map(|o| o.as_output())
            .filter(|(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_num())
            .next_back()
    }

    #[test]
    fn toggle_on_shows_page_100() {
        let faults = FaultSet::none();
        let mut t = Teletext::new();
        let obs = run(&mut t, &faults, |t, c| t.toggle(c));
        assert!(t.is_on());
        assert_eq!(output_value(&obs, "teletext.page"), Some(100.0));
        assert_eq!(t.decoder_mode(), "teletext");
        assert_eq!(t.ui_mode(), "teletext");
    }

    #[test]
    fn three_digit_page_entry() {
        let faults = FaultSet::none();
        let mut t = Teletext::new();
        run(&mut t, &faults, |t, c| t.toggle(c));
        run(&mut t, &faults, |t, c| t.digit(c, 2));
        run(&mut t, &faults, |t, c| t.digit(c, 3));
        assert_eq!(t.page(), 100); // entry incomplete
        let obs = run(&mut t, &faults, |t, c| t.digit(c, 4));
        assert_eq!(t.page(), 234);
        assert_eq!(output_value(&obs, "teletext.page"), Some(234.0));
    }

    #[test]
    fn invalid_page_discarded() {
        let faults = FaultSet::none();
        let mut t = Teletext::new();
        run(&mut t, &faults, |t, c| t.toggle(c));
        for d in [0, 5, 0] {
            run(&mut t, &faults, |t, c| t.digit(c, d));
        }
        assert_eq!(t.page(), 100);
    }

    #[test]
    fn sync_loss_fault_desynchronizes_decoder() {
        let mut faults = FaultSet::none();
        faults.inject(TvFault::TeletextSyncLoss);
        let mut t = Teletext::new();
        run(&mut t, &faults, |t, c| t.toggle(c));
        assert!(t.is_on());
        assert_eq!(t.ui_mode(), "teletext");
        assert_eq!(t.decoder_mode(), "video"); // out of sync!
    }

    #[test]
    fn render_fault_is_data_dependent() {
        let mut faults = FaultSet::none();
        faults.inject(TvFault::TeletextRenderFault);
        let mut t = Teletext::new();
        // Page 100 does not exercise the faulty branch (bit 3 clear).
        let obs = run(&mut t, &faults, |t, c| t.toggle(c));
        assert_eq!(output_value(&obs, "teletext.page"), Some(100.0));
        // Page 123 has bit 3 set: corrupted to 130.
        for d in [1, 2] {
            run(&mut t, &faults, |t, c| t.digit(c, d));
        }
        let obs = run(&mut t, &faults, |t, c| t.digit(c, 3));
        assert_eq!(output_value(&obs, "teletext.page"), Some(130.0));
        // Internal page state stays correct — only the render corrupts.
        assert_eq!(t.page(), 123);
    }

    #[test]
    fn channel_change_reacquires() {
        let faults = FaultSet::none();
        let mut t = Teletext::new();
        run(&mut t, &faults, |t, c| t.toggle(c));
        for d in [2, 3, 4] {
            run(&mut t, &faults, |t, c| t.digit(c, d));
        }
        let obs = run(&mut t, &faults, |t, c| t.on_channel_change(c));
        assert_eq!(t.page(), 100);
        assert_eq!(output_value(&obs, "teletext.page"), Some(100.0));
    }

    #[test]
    fn force_off_resets() {
        let faults = FaultSet::none();
        let mut t = Teletext::new();
        run(&mut t, &faults, |t, c| t.toggle(c));
        let obs = run(&mut t, &faults, |t, c| t.force_off(c));
        assert!(!t.is_on());
        assert_eq!(output_value(&obs, "teletext.page"), Some(0.0));
        assert_eq!(t.decoder_mode(), "video");
    }
}
