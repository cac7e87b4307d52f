//! # devtools — development-time dependability aids
//!
//! The Trader project also improved reliability *during development*
//! (paper Sect. 4.7). This crate reproduces its **warning
//! prioritization** (Boogerd & Moonen, SCAM'06): prioritize the warnings
//! of a software inspection tool (QA-C) by the *execution likelihood* of
//! the code they sit in, computed by static profiling over the call
//! graph. See [`CodeModel`], [`likelihood`], [`prioritize`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod likelihood;
pub mod prioritize;
pub mod warning;

pub use likelihood::execution_likelihood;
pub use prioritize::{evaluate_ranking, rank_by_likelihood, rank_textual, RankingQuality};
pub use warning::{CodeModel, Violation, WarnSeverity};
