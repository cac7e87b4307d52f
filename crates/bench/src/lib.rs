//! Report writers for the measured experiments, and the trajectory that
//! gates them across commits.
//!
//! The benches in `benches/` cover E1 and E14–E19 (see DESIGN.md's
//! experiment index and EXPERIMENTS.md for the recorded numbers). Each
//! is a plain `harness = false` program: it runs its experiment once,
//! prints the table, checks the experiment's hard asserts and writes
//! `BENCH_<id>.json` at the workspace root. [`trajectory`] folds those
//! files into `BENCH_trajectory.json` and diffs it against the previous
//! commit's. The F1, F2 and E2–E12 tables come from the `paper_tables`
//! example.

#![forbid(unsafe_code)]

pub mod trajectory;
