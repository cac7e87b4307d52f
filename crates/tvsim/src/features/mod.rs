//! The TV's feature logic, one module per feature cluster.
//!
//! Every feature method is *instrumented*: it records the basic blocks it
//! executes into the system's [`CoverageRecorder`] through the
//! [`FeatureCtx`], the way AspectKoala instrumented the real Koala
//! components (paper Sect. 4.1). Hand-written blocks are marked at once;
//! a synthetic firmware operation is logged as a variant mask and its
//! blocks are filled in only when a snapshot reads them. Feature
//! interactions — "relations between dual screen, teletext and various
//! types of on-screen displays that remove or suppress each other"
//! (Sect. 4.2) — live in [`screen::ScreenManager`].

pub mod channel;
pub mod extras;
pub mod screen;
pub mod teletext;
pub mod volume;

use crate::blocks::{CoverageRecorder, FirmwareOp};
use crate::faults::FaultSet;
use observe::{ObsValue, Observation, ObservationKind};
use simkit::SimTime;

/// Shared execution context passed to feature handlers.
#[derive(Debug)]
pub struct FeatureCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Coverage recorder (block instrumentation target), holding the
    /// synthetic firmware bank.
    pub cov: &'a mut CoverageRecorder,
    /// Currently active faults.
    pub faults: &'a FaultSet,
    /// Observation sink.
    pub obs: &'a mut Vec<Observation>,
}

impl FeatureCtx<'_> {
    /// Records execution of a hand-written block.
    pub fn hit(&mut self, block: u32) {
        self.cov.hit(block);
    }

    /// Executes a synthetic firmware operation: logs it in the recorder,
    /// whose next snapshot fills in the blocks it covers.
    pub fn exec(&mut self, op: FirmwareOp, variant: u32) {
        self.cov.exec(op, variant);
    }

    /// Emits an output observation. Output names are the TV's fixed
    /// vocabulary, so they travel borrowed.
    pub fn output(&mut self, name: &'static str, value: impl Into<ObsValue>) {
        self.obs.push(Observation::new(
            self.now,
            "tv",
            ObservationKind::Output {
                name: name.into(),
                value: value.into(),
            },
        ));
    }

    /// Emits a component-mode observation, borrowed like
    /// [`FeatureCtx::output`].
    pub fn mode(&mut self, component: &'static str, mode: &'static str) {
        self.obs.push(Observation::new(
            self.now,
            component,
            ObservationKind::Mode {
                component: component.into(),
                mode: mode.into(),
            },
        ));
    }
}
