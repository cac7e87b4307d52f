//! # tvsim — a component-based television system under observation
//!
//! The Trader project's Carrying Industrial Partner (NXP) supplied case
//! studies from the TV domain: a high-end TV whose software grew from 1 KB
//! (1980) to over 20 MB, with features such as "picture-in-picture,
//! teletext, sleep timer, child lock, TV ratings, emergency alerts, TV
//! guide, and advanced image processing" and rich feature interactions
//! ("relations between dual screen, teletext and various types of
//! on-screen displays that remove or suppress each other", paper
//! Sect. 2/4.2). That software is proprietary; this crate is the
//! behavioural stand-in used by every TV-domain experiment:
//!
//! * [`TvSystem`] — the executable TV control software, instrumented with
//!   basic-block coverage ([`observe::BlockCoverage`], recorded through a
//!   [`blocks::CoverageRecorder`]) like the real C code in the paper's
//!   diagnosis experiment;
//! * [`features`] — volume, channel tuning, teletext, screen/OSD
//!   management, sleep timer, swivel: each with the feature
//!   interactions the paper calls out (the paper's child lock is not
//!   modelled: no specification, scenario or fault reaches it);
//! * [`remote::Key`] — the remote control, the TV's input alphabet;
//! * [`blocks`] — the block-id map plus the [`SyntheticCodeBank`]
//!   representing the rest of the 20 MB firmware for the 60 000-block
//!   diagnosis experiment;
//! * [`faults`] — injectable TV faults (teletext sync loss, stuck volume,
//!   teletext render fault, …);
//! * [`model`] — the specification [`statemachine::Machine`] of desired
//!   behaviour that the awareness framework executes at run time;
//! * [`pipeline`] — the streaming pipeline mapped onto simulated SoC
//!   processors, for the overload / load-balancing experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod faults;
pub mod features;
pub mod model;
pub mod pipeline;
pub mod remote;
pub mod system;

pub use blocks::{BlockMap, SyntheticCodeBank, N_BLOCKS};
pub use faults::{FaultSet, TvFault};
pub use model::{tv_spec, tv_spec_machine};
pub use pipeline::{PipelineConfig, PipelineReport, StreamingPipeline};
pub use remote::{Key, KeySequence};
pub use system::{TvSystem, Unit, UnitState};
