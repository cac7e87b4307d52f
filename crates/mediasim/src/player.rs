//! The media-player SUO.

use crate::stream::MediaStream;
use observe::{ObsValue, Observation, ObservationKind};
use simkit::{Cpu, SimDuration, SimTime, TaskId};

/// The demux stage task.
const TASK_DEMUX: TaskId = TaskId(10);
/// The decode stage task.
const TASK_DECODE: TaskId = TaskId(11);
/// The postprocessing stage task.
const TASK_POSTPROC: TaskId = TaskId(12);
/// The render stage task.
const TASK_RENDER: TaskId = TaskId(13);

/// Player control state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerState {
    /// Nothing loaded / stopped.
    Stopped,
    /// Playing frames.
    Playing,
    /// Paused mid-stream.
    Paused,
}

impl PlayerState {
    /// The state's observable name.
    pub fn as_str(self) -> &'static str {
        match self {
            PlayerState::Stopped => "stopped",
            PlayerState::Playing => "playing",
            PlayerState::Paused => "paused",
        }
    }
}

/// Player timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayerConfig {
    /// Frame period.
    pub frame_period: SimDuration,
    /// Demux cost per frame.
    pub demux_wcet: SimDuration,
    /// Decode cost per clean frame.
    pub decode_wcet: SimDuration,
    /// Extra decode factor for corrupt frames (error concealment).
    pub corrupt_decode_factor: f64,
    /// Postprocessing cost per frame.
    pub postproc_wcet: SimDuration,
    /// Render cost per frame.
    pub render_wcet: SimDuration,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            frame_period: SimDuration::from_millis(40),
            demux_wcet: SimDuration::from_millis(2),
            decode_wcet: SimDuration::from_millis(18),
            corrupt_decode_factor: 2.2,
            postproc_wcet: SimDuration::from_millis(8),
            render_wcet: SimDuration::from_millis(4),
        }
    }
}

/// The media-player system under observation.
///
/// ```
/// use mediasim::{MediaPlayer, MediaStream, PlayerConfig, PlayerState};
/// use simkit::SimTime;
///
/// let mut p = MediaPlayer::new(PlayerConfig::default());
/// p.load(MediaStream::clean(10));
/// p.command(SimTime::ZERO, "play");
/// assert_eq!(p.state(), PlayerState::Playing);
/// let obs = p.run_frames(10);
/// assert!(obs.iter().any(|o| o.as_output().is_some()));
/// assert_eq!(p.frames_rendered(), 10);
/// ```
#[derive(Debug)]
pub struct MediaPlayer {
    config: PlayerConfig,
    cpu: Cpu,
    state: PlayerState,
    stream: Option<MediaStream>,
    position: u64,
    now: SimTime,
    rendered: u64,
    late: u64,
    pause_ignored: bool,
}

impl MediaPlayer {
    /// Creates a stopped player.
    pub fn new(config: PlayerConfig) -> Self {
        MediaPlayer {
            config,
            cpu: Cpu::new("media-cpu"),
            state: PlayerState::Stopped,
            stream: None,
            position: 0,
            now: SimTime::ZERO,
            rendered: 0,
            late: 0,
            pause_ignored: false,
        }
    }

    /// Injects the control fault used in the awareness validation: pause
    /// commands are silently dropped (a lost event registration).
    pub fn set_pause_ignored(&mut self, ignored: bool) {
        self.pause_ignored = ignored;
    }

    /// Loads a stream (stops playback).
    pub fn load(&mut self, stream: MediaStream) {
        self.stream = Some(stream);
        self.position = 0;
        self.state = PlayerState::Stopped;
    }

    /// Control state.
    pub fn state(&self) -> PlayerState {
        self.state
    }

    /// Frames rendered on time so far.
    pub fn frames_rendered(&self) -> u64 {
        self.rendered
    }

    /// Frames rendered late (visible stutter).
    pub fn frames_late(&self) -> u64 {
        self.late
    }

    /// Current stream position (frame index).
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Handles a control command (`play`, `pause`, `stop`, `seek`),
    /// returning the observations it produces.
    ///
    /// Unknown commands are ignored (robustness: the real framework must
    /// tolerate unexpected input).
    pub fn command(&mut self, now: SimTime, cmd: &str) -> Vec<Observation> {
        self.now = self.now.max(now);
        let before = self.state;
        match (cmd, self.state) {
            ("play", PlayerState::Stopped) | ("play", PlayerState::Paused)
                if self.stream.is_some() =>
            {
                self.state = PlayerState::Playing;
            }
            ("pause", PlayerState::Playing) if !self.pause_ignored => {
                self.state = PlayerState::Paused;
            }
            ("pause", PlayerState::Paused) => self.state = PlayerState::Playing,
            ("stop", _) => {
                self.state = PlayerState::Stopped;
                self.position = 0;
            }
            ("seek", PlayerState::Playing) | ("seek", PlayerState::Paused) => {
                // Seek to stream midpoint (a deterministic stand-in).
                if let Some(s) = &self.stream {
                    self.position = s.frames() / 2;
                }
            }
            _ => {}
        }
        let mut obs = vec![Observation::new(
            self.now,
            "player",
            ObservationKind::KeyPress {
                key: cmd.to_owned().into(),
                code: None,
            },
        )];
        if self.state != before || cmd == "stop" {
            obs.push(self.state_output());
        }
        obs
    }

    fn state_output(&self) -> Observation {
        Observation::new(
            self.now,
            "player",
            ObservationKind::Output {
                name: "player.state".into(),
                value: ObsValue::Text(self.state.as_str().into()),
            },
        )
    }

    /// Plays up to `n` frame periods, returning observations (rendered
    /// frame heartbeats, late frames, end-of-stream).
    pub fn run_frames(&mut self, n: u64) -> Vec<Observation> {
        let mut obs = Vec::new();
        for _ in 0..n {
            if self.state != PlayerState::Playing {
                break;
            }
            let Some(stream) = &self.stream else { break };
            if self.position >= stream.frames() {
                self.state = PlayerState::Stopped;
                obs.push(self.state_output());
                break;
            }
            let start = self.now;
            let deadline = start + self.config.frame_period;
            let corrupt = stream.is_corrupt(self.position);
            let decode_cost = if corrupt {
                self.config
                    .decode_wcet
                    .mul_f64(self.config.corrupt_decode_factor)
            } else {
                self.config.decode_wcet
            };
            self.cpu
                .release(start, TASK_DEMUX, self.config.demux_wcet, 1, deadline);
            self.cpu
                .release(start, TASK_DECODE, decode_cost, 2, deadline);
            self.cpu
                .release(start, TASK_POSTPROC, self.config.postproc_wcet, 3, deadline);
            self.cpu
                .release(start, TASK_RENDER, self.config.render_wcet, 4, deadline);
            let done = self.cpu.advance_to(deadline);
            let render_done = done.iter().find(|j| j.task == TASK_RENDER);
            match render_done {
                Some(j) if j.deadline_met => {
                    self.rendered += 1;
                    obs.push(Observation::new(
                        j.completion,
                        "player",
                        ObservationKind::Output {
                            name: "frame.rendered".into(),
                            value: ObsValue::Num(self.position as f64),
                        },
                    ));
                }
                _ => {
                    // Late or unfinished: count and flush the pipeline
                    // (frame skip) so lateness does not cascade.
                    self.late += 1;
                    self.cpu.flush();
                    obs.push(Observation::new(
                        deadline,
                        "player",
                        ObservationKind::Value {
                            name: "frame.late".into(),
                            value: self.position as f64,
                        },
                    ));
                }
            }
            self.position += 1;
            self.now = deadline;
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn player_with(frames: u64) -> MediaPlayer {
        let mut p = MediaPlayer::new(PlayerConfig::default());
        p.load(MediaStream::clean(frames));
        p
    }

    #[test]
    fn control_state_machine() {
        let mut p = player_with(10);
        assert_eq!(p.state(), PlayerState::Stopped);
        p.command(SimTime::ZERO, "play");
        assert_eq!(p.state(), PlayerState::Playing);
        p.command(SimTime::ZERO, "pause");
        assert_eq!(p.state(), PlayerState::Paused);
        p.command(SimTime::ZERO, "pause");
        assert_eq!(p.state(), PlayerState::Playing);
        p.command(SimTime::ZERO, "stop");
        assert_eq!(p.state(), PlayerState::Stopped);
        assert_eq!(p.position(), 0);
    }

    #[test]
    fn play_without_stream_stays_stopped() {
        let mut p = MediaPlayer::new(PlayerConfig::default());
        p.command(SimTime::ZERO, "play");
        assert_eq!(p.state(), PlayerState::Stopped);
    }

    #[test]
    fn unknown_command_ignored() {
        let mut p = player_with(5);
        let obs = p.command(SimTime::ZERO, "frobnicate");
        assert_eq!(p.state(), PlayerState::Stopped);
        assert_eq!(obs.len(), 1); // just the input record
    }

    #[test]
    fn clean_stream_renders_all_frames_on_time() {
        let mut p = player_with(50);
        p.command(SimTime::ZERO, "play");
        p.run_frames(50);
        assert_eq!(p.frames_rendered(), 50);
        assert_eq!(p.frames_late(), 0);
    }

    #[test]
    fn corrupt_frames_cause_lateness() {
        // 18 * 2.2 = 39.6ms decode + 14ms other stages > 40ms.
        let mut p = MediaPlayer::new(PlayerConfig::default());
        p.load(MediaStream::with_corruption(100, 0.3, 42));
        p.command(SimTime::ZERO, "play");
        p.run_frames(100);
        assert!(p.frames_late() > 10, "late={}", p.frames_late());
        assert!(p.frames_rendered() > 40);
    }

    #[test]
    fn end_of_stream_stops() {
        let mut p = player_with(3);
        p.command(SimTime::ZERO, "play");
        let obs = p.run_frames(10);
        assert_eq!(p.state(), PlayerState::Stopped);
        assert!(obs.iter().any(|o| {
            o.as_output()
                .map(|(n, v)| n == "player.state" && v.as_text() == Some("stopped"))
                .unwrap_or(false)
        }));
    }

    #[test]
    fn seek_jumps_to_midpoint() {
        let mut p = player_with(100);
        p.command(SimTime::ZERO, "play");
        p.command(SimTime::ZERO, "seek");
        assert_eq!(p.position(), 50);
    }

    #[test]
    fn paused_player_does_not_advance() {
        let mut p = player_with(10);
        p.command(SimTime::ZERO, "play");
        p.run_frames(2);
        p.command(p.now(), "pause");
        let obs = p.run_frames(5);
        assert!(obs.is_empty());
        assert_eq!(p.position(), 2);
    }
}
