//! # spectra — spectrum-based fault localization
//!
//! Reproduces the diagnosis technique of the Trader project (paper
//! Sect. 4.4, after Zoeteweij, Abreu, Golsteijn & van Gemund, ECBS'07):
//!
//! 1. the program is instrumented to record which **basic blocks** execute
//!    between consecutive user inputs (one *spectrum* per scenario step —
//!    see [`observe::BlockCoverage`]);
//! 2. an error detector labels each step pass/fail (the *error vector*);
//! 3. for every block, the similarity between its hit pattern and the error
//!    vector is computed ([`Coefficient`]: Ochiai, Tarantula, Jaccard, …);
//! 4. blocks are ranked by similarity — the faulty block should rank first.
//!
//! The paper's anchor experiment: 60 000 blocks, a 27-key-press teletext
//! scenario executing 13 796 blocks, injected fault ranked **#1**. The E1
//! bench regenerates that setup.
//!
//! One engine implements the technique: the [`Diagnoser`] folds each
//! step into streaming [`CountsMatrix`] columnar counters (O(blocks)
//! memory, O(hits) per step) and scores them on read — the loop's top-k
//! window with the [`score_top_k`] scorer, the paper's full ranking under
//! any coefficient with [`CountsMatrix::rank`]. The dense
//! [`SpectrumMatrix`] (row per step, faithful to the paper, O(steps ×
//! blocks) memory) is kept as the oracle the counts are tested against:
//! they reproduce its rankings exactly at millions of blocks (the E14
//! bench sweeps 60 k → 4 M).
//!
//! ```
//! use spectra::{Diagnoser, Coefficient};
//!
//! // 4 blocks, 3 steps. Block 2 is hit exactly when the step fails.
//! let mut d = Diagnoser::new(4);
//! d.append_step([0, 1], false);
//! d.append_step([0, 2], true);
//! d.append_step([0, 2, 3], true);
//! let report = d.diagnose(Coefficient::Ochiai);
//! assert_eq!(report.ranking.entries()[0].block, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
pub mod diagnosis;
pub mod matrix;
pub mod ranking;
pub mod report;
pub mod similarity;
pub mod topk;

pub use counts::CountsMatrix;
pub use diagnosis::Diagnoser;
pub use matrix::SpectrumMatrix;
pub use ranking::{Ranking, RankingEntry};
pub use report::DiagnosisReport;
pub use similarity::{Coefficient, Counts};
pub use topk::{score_top_k, TopK};
