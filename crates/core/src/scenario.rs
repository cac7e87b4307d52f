//! Timed user scenarios.

use simkit::{SimDuration, SimRng, SimTime};
use tvsim::{Key, KeySequence};

/// A sequence of key presses with absolute press times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedScenario {
    presses: Vec<(SimTime, Key)>,
}

impl TimedScenario {
    /// Spaces the keys of `sequence` evenly, one press per `gap`,
    /// starting at `gap`.
    pub fn from_sequence(sequence: &KeySequence, gap: SimDuration) -> Self {
        let presses = sequence
            .keys()
            .iter()
            .enumerate()
            .map(|(i, k)| (SimTime::ZERO + gap * (i as u64 + 1), *k))
            .collect();
        TimedScenario { presses }
    }

    /// The paper-shaped teletext session of `len` presses, one key every
    /// 100 ms.
    pub fn teletext_session(len: usize) -> Self {
        Self::from_sequence(
            &KeySequence::teletext_scenario(len),
            SimDuration::from_millis(100),
        )
    }

    /// The near-idle session of `len` presses (power on, tune, then
    /// nothing), one key every 100 ms — the scorecard's low-exercise
    /// workload.
    pub fn idle_session(len: usize) -> Self {
        Self::from_sequence(
            &KeySequence::idle_scenario(len),
            SimDuration::from_millis(100),
        )
    }

    /// The zapping burst of `len` presses (rapid channel surfing), one
    /// key every 100 ms.
    pub fn zapping_session(len: usize) -> Self {
        Self::from_sequence(
            &KeySequence::zapping_scenario(len),
            SimDuration::from_millis(100),
        )
    }

    /// The full-mix session of `len` presses exercising every observed
    /// function (volume, mute, channel, teletext, menu, sleep, swivel),
    /// one key every 100 ms — the scorecard's high-exercise workload.
    pub fn full_mix_session(len: usize) -> Self {
        Self::from_sequence(
            &KeySequence::full_mix_scenario(len),
            SimDuration::from_millis(100),
        )
    }

    /// A random scenario of `len` presses with uniformly random gaps in
    /// `[min_gap, max_gap]`.
    pub fn random(
        len: usize,
        min_gap: SimDuration,
        max_gap: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        let seq = KeySequence::random(len, rng);
        let mut presses = Vec::with_capacity(len);
        let mut t = SimTime::ZERO;
        for k in seq.keys() {
            t += SimDuration::from_nanos(rng.uniform_u64(
                min_gap.as_nanos(),
                max_gap.as_nanos().max(min_gap.as_nanos()),
            ));
            presses.push((t, *k));
        }
        TimedScenario { presses }
    }

    /// The timed presses.
    pub fn presses(&self) -> &[(SimTime, Key)] {
        &self.presses
    }

    /// Number of presses.
    pub fn len(&self) -> usize {
        self.presses.len()
    }

    /// True for an empty scenario.
    pub fn is_empty(&self) -> bool {
        self.presses.is_empty()
    }

    /// The time of the final press.
    pub fn end(&self) -> SimTime {
        self.presses
            .last()
            .map(|(t, _)| *t)
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sequence_spaces_evenly() {
        let s = TimedScenario::teletext_session(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.presses()[0].0, SimTime::from_millis(100));
        assert_eq!(s.presses()[4].0, SimTime::from_millis(500));
        assert_eq!(s.end(), SimTime::from_millis(500));
        assert_eq!(s.presses()[0].1, Key::Power);
    }

    #[test]
    fn scorecard_sessions_share_the_press_cadence() {
        for s in [
            TimedScenario::idle_session(12),
            TimedScenario::zapping_session(12),
            TimedScenario::full_mix_session(12),
        ] {
            assert_eq!(s.len(), 12);
            assert_eq!(s.presses()[0].0, SimTime::from_millis(100));
            assert_eq!(s.end(), SimTime::from_millis(1200));
        }
    }

    #[test]
    fn random_is_monotone_and_deterministic() {
        let mut r1 = SimRng::seed(4);
        let mut r2 = SimRng::seed(4);
        let a = TimedScenario::random(
            30,
            SimDuration::from_millis(50),
            SimDuration::from_millis(300),
            &mut r1,
        );
        let b = TimedScenario::random(
            30,
            SimDuration::from_millis(50),
            SimDuration::from_millis(300),
            &mut r2,
        );
        assert_eq!(a, b);
        for w in a.presses().windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(!a.is_empty());
    }
}
