//! Experiment harnesses: one module per paper figure / narrative result.
//!
//! | ID  | Paper anchor | Claim |
//! |-----|--------------|-------|
//! | F1  | Fig. 1  | closed awareness loop restores behaviour after faults |
//! | F2  | Fig. 2  | framework validated model-to-model across the boundary |
//! | E1  | §4.4    | spectrum diagnosis: 60 000 blocks, 27 keys, rank #1 |
//! | E2  | §4.3    | comparator threshold/consecutive tuning trade-off |
//! | E3  | §4.3    | mode-consistency detection of teletext sync loss |
//! | E4  | §4.5    | partial recovery vs whole-system restart |
//! | E5  | §4.5    | task migration restores quality under overload |
//! | E6  | §4.7    | CPU-eater stress testing |
//! | E7  | §4.6    | user perception: attribution dominates |
//! | E8  | §5      | model-to-model + media-player awareness |
//! | E9  | §4.1    | observation overhead is bounded |
//! | E10 | §4.7    | execution-likelihood warning prioritization |
//! | E11 | §4.5    | adaptive memory arbitration |
//! | E12 | §4.3    | real-time property monitoring |
//! | E14 | §4.4    | streaming + sharded diagnosis scales past 60 000 blocks |
//! | E15 | §4.1    | flight-recorder telemetry stays within the probe budget |
//! | E16 | §4.5    | micro-reboot recovery beats whole-system restart MTTR ≥2x (in `chaos::experiments`) |
//! | E17 | §4.7    | parallel campaign fleets scale throughput, fingerprint-identical |
//! | E18 | §6      | dependability scorecard: fault × workload × recovery coverage matrix (in `chaos::experiments`) |
//! | E19 | §4.1/§6 | active health observatory closes the scorecard's blind cells (in `chaos::experiments`) |
//!
//! Every module exposes a `run(...)` returning a serializable report with
//! a `Display` rendering the paper-style table. The EXPERIMENTS.md
//! numbers come from [`paper_tables`], which the `paper_tables` example
//! prints; E1, E14, E15 and E17 also have a Criterion bench in
//! `crates/bench`.

pub mod e10_warning_priority;
pub mod e11_memory_arbiter;
pub mod e12_realtime_monitoring;
pub mod e14_spectra_scale;
pub mod e15_telemetry_overhead;
pub mod e17_fleet_throughput;
pub mod e1_spectra;
pub mod e2_comparator;
pub mod e3_mode_consistency;
pub mod e4_partial_recovery;
pub mod e5_load_balancing;
pub mod e6_cpu_eater;
pub mod e7_perception;
pub mod e8_model_to_model;
pub mod e9_observation_overhead;
pub mod f1_closed_loop;
pub mod f2_framework;

/// Every paper table (F1, F2, E1–E12) at the seeds EXPERIMENTS.md quotes,
/// rendered in one text under a title banner: the `paper_tables`
/// example's output, byte for byte.
pub fn paper_tables() -> String {
    let tables = [
        f1_closed_loop::run(40, 3).to_string(),
        f2_framework::run(4).to_string(),
        e1_spectra::run(27).to_string(),
        e2_comparator::run(9).to_string(),
        e3_mode_consistency::run().to_string(),
        e4_partial_recovery::run().to_string(),
        e5_load_balancing::run().to_string(),
        e6_cpu_eater::run().to_string(),
        e7_perception::run(42).to_string(),
        e8_model_to_model::run(9).to_string(),
        e9_observation_overhead::run().to_string(),
        e10_warning_priority::run(11).to_string(),
        e11_memory_arbiter::run().to_string(),
        e12_realtime_monitoring::run().to_string(),
    ];
    let rule = "================================================================";
    let mut out = format!(
        "{rule}\n trader-rs — paper experiment tables\n Brinksma & Hooman, DATE 2008 (Trader project)\n{rule}\n"
    );
    for table in tables {
        out.push('\n');
        out.push_str(&table);
        out.push('\n');
    }
    out
}
