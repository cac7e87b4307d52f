//! E8 — model-to-model validation and media-player awareness (paper
//! Sect. 5).
//!
//! "Our Linux-based awareness framework has been validated by means of
//! model-to-model experiments. That is, we have compared a specification
//! model with code generated from models of the SUO. Currently, the
//! framework is used for awareness experiments with the open source media
//! player MPlayer, investigating both correctness and performance
//! issues."
//!
//! Three parts:
//! 1. **model-to-model** — the spec model monitors an SUO that *is*
//!    (code generated from) the same model: zero errors expected even
//!    across a jittery process boundary;
//! 2. **correctness** — the spec model monitors the media player with an
//!    injected control fault (pause ignored); the omission is caught by
//!    *time-based* comparison;
//! 3. **performance** — a corrupt stream makes frames late; a watchdog on
//!    the render heartbeat detects the stall.

use crate::report::render_table;
use awareness::{to_obs_value, CompareSpec, Configuration, MonitorBuilder};
use detect::{Detector, WatchdogDetector};
use mediasim::{player_spec_machine, MediaPlayer, MediaStream, PlayerConfig};
use simkit::{SimDuration, SimTime};
use statemachine::{Event, Executor};
use std::fmt;

/// E8 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E8Report {
    /// Errors in the model-to-model run (must be 0).
    pub model_to_model_errors: usize,
    /// Messages exchanged in the model-to-model run.
    pub model_to_model_comparisons: u64,
    /// Errors detected on the healthy player (must be 0).
    pub player_healthy_errors: usize,
    /// Errors detected on the pause-ignoring player.
    pub player_fault_errors: usize,
    /// Watchdog timeouts on the clean stream (must be 0).
    pub perf_clean_timeouts: u64,
    /// Watchdog timeouts on the corrupt stream.
    pub perf_corrupt_timeouts: u64,
    /// Late frames on the corrupt stream (ground truth).
    pub late_frames: u64,
}

impl fmt::Display for E8Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E8 model-to-model and media-player awareness:")?;
        let rows = vec![
            vec![
                "model-to-model".to_owned(),
                self.model_to_model_errors.to_string(),
                format!("{} comparisons", self.model_to_model_comparisons),
            ],
            vec![
                "player correctness (healthy)".to_owned(),
                self.player_healthy_errors.to_string(),
                "-".to_owned(),
            ],
            vec![
                "player correctness (pause lost)".to_owned(),
                self.player_fault_errors.to_string(),
                "time-based comparison".to_owned(),
            ],
            vec![
                "player performance (clean)".to_owned(),
                self.perf_clean_timeouts.to_string(),
                "-".to_owned(),
            ],
            vec![
                "player performance (corrupt)".to_owned(),
                self.perf_corrupt_timeouts.to_string(),
                format!("{} late frames", self.late_frames),
            ],
        ];
        write!(
            f,
            "{}",
            render_table(&["experiment", "errors detected", "notes"], &rows)
        )
    }
}

/// Part 1: spec model vs itself-as-SUO across a jittery boundary.
fn model_to_model(seed: u64) -> (usize, u64) {
    let machine = player_spec_machine();
    let cfg = Configuration::new().with_default_spec(CompareSpec::exact().with_max_consecutive(1));
    let mut monitor = MonitorBuilder::new(&machine)
        .configuration(cfg)
        .output_delay(SimDuration::from_millis(2))
        .jitter(SimDuration::from_millis(3))
        .seed(seed)
        .build();
    // The "SUO": a second executor of the same model (code generated from
    // the SUO's model, per the paper).
    let suo_machine = player_spec_machine();
    let mut suo = Executor::new(&suo_machine);
    suo.start();

    let commands = ["play", "pause", "pause", "stop", "play", "stop"];
    for (i, cmd) in commands.iter().cycle().take(60).enumerate() {
        let at = SimTime::from_millis(50 * (i as u64 + 1));
        suo.step_at(at, &Event::plain(*cmd));
        monitor.offer_input(at, *cmd);
        for out in suo.drain_outputs() {
            monitor.offer(&observe::Observation::new(
                at,
                "suo",
                observe::ObservationKind::Output {
                    name: out.name.into(),
                    value: to_obs_value(out.value),
                },
            ));
        }
        monitor.advance_to(at + SimDuration::from_millis(49));
    }
    (
        monitor.errors().len(),
        monitor.comparator_stats().comparisons,
    )
}

/// Part 2: the spec model monitors the real player; time-based comparison
/// catches the pause-omission fault.
fn player_correctness(faulty: bool) -> usize {
    let machine = player_spec_machine();
    let cfg = Configuration::new().observable(
        "player.state",
        CompareSpec::exact()
            .with_max_consecutive(0)
            .time_based(SimDuration::from_millis(100)),
    );
    let mut monitor = MonitorBuilder::new(&machine).configuration(cfg).build();
    let mut player = MediaPlayer::new(PlayerConfig::default());
    player.load(MediaStream::clean(10_000));
    player.set_pause_ignored(faulty);

    let commands = ["play", "pause", "pause", "stop"];
    let mut at = SimTime::ZERO;
    for cmd in commands.iter().cycle().take(24) {
        at += SimDuration::from_millis(500);
        // The player's KeyPress observation doubles as the input event;
        // the observer forwards it to the model executor.
        for obs in player.command(at, cmd) {
            monitor.offer(&obs);
        }
        monitor.advance_to(at + SimDuration::from_millis(499));
    }
    monitor.errors().len()
}

/// Part 3: performance monitoring via a render-heartbeat watchdog.
fn player_performance(corrupt: bool) -> (u64, u64) {
    let mut player = MediaPlayer::new(PlayerConfig::default());
    let stream = if corrupt {
        MediaStream::with_corruption(300, 0.35, 99)
    } else {
        MediaStream::clean(300)
    };
    player.load(stream);
    player.command(SimTime::ZERO, "play");
    // The render heartbeat must arrive within two frame periods.
    let mut watchdog = WatchdogDetector::new("player", SimDuration::from_millis(80));
    watchdog.arm(SimTime::ZERO);
    let mut timeouts = 0;
    for _ in 0..300 {
        for obs in player.run_frames(1) {
            if matches!(
                &obs.kind,
                observe::ObservationKind::Output { name, .. } if name == "frame.rendered"
            ) {
                watchdog.observe(&obs);
            }
        }
        timeouts += watchdog.tick(player.now()).len() as u64;
    }
    (timeouts, player.frames_late())
}

/// Runs all three parts of E8.
pub fn run(seed: u64) -> E8Report {
    let (m2m_errors, m2m_comparisons) = model_to_model(seed);
    let player_healthy_errors = player_correctness(false);
    let player_fault_errors = player_correctness(true);
    let (perf_clean_timeouts, _) = player_performance(false);
    let (perf_corrupt_timeouts, late_frames) = player_performance(true);
    E8Report {
        model_to_model_errors: m2m_errors,
        model_to_model_comparisons: m2m_comparisons,
        player_healthy_errors,
        player_fault_errors,
        perf_clean_timeouts,
        perf_corrupt_timeouts,
        late_frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_to_model_is_clean() {
        let report = run(3);
        assert_eq!(report.model_to_model_errors, 0, "{report}");
        assert!(report.model_to_model_comparisons > 20, "{report}");
    }

    #[test]
    fn correctness_fault_detected_healthy_clean() {
        let report = run(3);
        assert_eq!(report.player_healthy_errors, 0, "{report}");
        assert!(report.player_fault_errors > 0, "{report}");
    }

    #[test]
    fn performance_stall_detected() {
        let report = run(3);
        assert_eq!(report.perf_clean_timeouts, 0, "{report}");
        assert!(report.perf_corrupt_timeouts > 0, "{report}");
        assert!(report.late_frames > 0, "{report}");
    }
}
