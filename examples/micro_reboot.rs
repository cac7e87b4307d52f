//! Micro-reboot recovery: restart one wedged unit, not the whole TV.
//!
//! Runs the same closed-loop scenario — a mute-inversion fault pinned to
//! the audio unit — twice, under the two unit-recovery styles the loop
//! supports (Sect. 4.5's local-recovery principle):
//!
//! * **full restart** — the legacy reaction: every unit restarts, the
//!   TV is dark for seconds, and key presses aimed at perfectly healthy
//!   units vanish with it;
//! * **micro-reboot** — only the faulty unit is restored from its
//!   newest *validated* checkpoint (seed-derived fingerprint, torn and
//!   corrupt checkpoints fall back generation-by-generation) and the
//!   journalled post-checkpoint key presses are replayed, while the
//!   rest of the pipeline keeps serving.
//!
//! ```sh
//! cargo run --example micro_reboot           # seed 5
//! cargo run --example micro_reboot -- 11     # another seed
//! ```

use trader::prelude::*;

fn run(seed: u64, style: UnitRecoveryStyle) -> LoopOutcome {
    let mut looped = TvDependabilityLoop::closed(seed);
    looped.schedule_fault(
        faults::Schedule::Between {
            from: SimTime::from_millis(1650),
            to: SimTime::from_millis(1750),
        },
        TvFault::MuteInversion,
    );
    looped.unit_recovery(style);
    looped.run(&TimedScenario::teletext_session(30))
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(5);

    println!("== full restart (whole-TV reboot on a unit fault) ==");
    let full = run(seed, UnitRecoveryStyle::FullRestart);
    println!("{}", full.summary());

    println!();
    println!("== micro-reboot (checkpoint restore + journal replay) ==");
    let micro = run(seed, UnitRecoveryStyle::MicroReboot);
    println!("{}", micro.summary());
    println!(
        "checkpoint generations: {}",
        micro
            .checkpoint_generations
            .iter()
            .map(|(unit, generation)| format!("{unit}:{generation}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    if let (Some(full_mttr), Some(micro_mttr)) = (full.reboot_mttr, micro.reboot_mttr) {
        println!();
        println!(
            "MTTR {full_mttr} -> {micro_mttr} ({:.1}x better); presses lost on \
             unaffected units {} -> {}",
            full_mttr.as_nanos() as f64 / micro_mttr.as_nanos() as f64,
            full.lost_presses_unaffected,
            micro.lost_presses_unaffected,
        );
    }
}
