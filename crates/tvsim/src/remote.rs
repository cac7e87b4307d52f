//! The remote control: the TV's input alphabet.

use simkit::SimRng;
use statemachine::Event;
use std::fmt;

/// A remote-control key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    /// Power toggle (on/standby).
    Power,
    /// A digit key (0–9).
    Digit(u8),
    /// Volume up.
    VolUp,
    /// Volume down.
    VolDown,
    /// Mute toggle.
    Mute,
    /// Next channel.
    ChannelUp,
    /// Previous channel.
    ChannelDown,
    /// Teletext toggle.
    Teletext,
    /// Dual-screen toggle.
    DualScreen,
    /// Menu toggle.
    Menu,
    /// Confirm.
    Ok,
    /// Back / exit.
    Back,
    /// Electronic programme guide toggle.
    Epg,
    /// Picture-in-picture toggle.
    Pip,
    /// Input-source cycle.
    Source,
    /// Swivel the set left.
    SwivelLeft,
    /// Swivel the set right.
    SwivelRight,
    /// Arm/extend the sleep timer.
    Sleep,
}

impl Key {
    /// Every key, for scenario generation.
    pub const ALL: [Key; 18] = [
        Key::Power,
        Key::Digit(1),
        Key::VolUp,
        Key::VolDown,
        Key::Mute,
        Key::ChannelUp,
        Key::ChannelDown,
        Key::Teletext,
        Key::DualScreen,
        Key::Menu,
        Key::Ok,
        Key::Back,
        Key::Epg,
        Key::Pip,
        Key::Source,
        Key::SwivelLeft,
        Key::SwivelRight,
        Key::Sleep,
    ];

    /// The event name used in specification models and observations.
    pub fn event_name(self) -> &'static str {
        match self {
            Key::Power => "power",
            Key::Digit(_) => "digit",
            Key::VolUp => "vol_up",
            Key::VolDown => "vol_down",
            Key::Mute => "mute",
            Key::ChannelUp => "ch_up",
            Key::ChannelDown => "ch_down",
            Key::Teletext => "teletext",
            Key::DualScreen => "dual",
            Key::Menu => "menu",
            Key::Ok => "ok",
            Key::Back => "back",
            Key::Epg => "epg",
            Key::Pip => "pip",
            Key::Source => "source",
            Key::SwivelLeft => "swivel_left",
            Key::SwivelRight => "swivel_right",
            Key::Sleep => "sleep",
        }
    }

    /// The digit payload for digit keys.
    pub fn payload(self) -> Option<i64> {
        match self {
            Key::Digit(d) => Some(d as i64),
            _ => None,
        }
    }

    /// The specification-model input event for this key: its
    /// [`event_name`](Self::event_name), carrying the digit
    /// [`payload`](Self::payload) for digit keys.
    pub fn event(self) -> Event {
        match self.payload() {
            Some(p) => Event::with_payload(self.event_name(), p),
            None => Event::plain(self.event_name()),
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Digit(d) => write!(f, "digit({d})"),
            other => f.write_str(other.event_name()),
        }
    }
}

/// A sequence of key presses — a *scenario* in the paper's terminology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySequence {
    keys: Vec<Key>,
}

impl KeySequence {
    /// Creates a scenario from explicit keys.
    pub fn new(keys: Vec<Key>) -> Self {
        KeySequence { keys }
    }

    /// The keys, in press order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Scenario length (number of key presses).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True for the empty scenario.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The paper's teletext scenario shape: power on, tune, browse a
    /// diverse set of teletext pages (123, 211, 100, 108, …), interleave
    /// volume and channel keys — `len` presses total.
    ///
    /// The page diversity matters for diagnosis: pages both with and
    /// without each page-number bit are visited, so spectra discriminate
    /// data-dependent branches from one another.
    pub fn teletext_scenario(len: usize) -> Self {
        let pattern = [
            Key::Teletext, // on, page 100
            Key::Digit(1),
            Key::Digit(2),
            Key::Digit(3), // page 123
            Key::VolUp,
            Key::Digit(2),
            Key::Digit(1),
            Key::Digit(1),  // page 211
            Key::ChannelUp, // re-acquire page 100
            Key::Digit(1),
            Key::Digit(0),
            Key::Digit(8), // page 108
            Key::VolDown,
            Key::Mute,
            Key::Mute,
            Key::Teletext, // off
            Key::ChannelDown,
            Key::Ok,
        ];
        Self::power_on_then(len, &pattern)
    }

    /// The near-idle scenario: power on, tune channel 1, then leave the
    /// set alone (`Ok` presses that change nothing). The scorecard's
    /// low-exercise workload — most fault classes stay dormant because
    /// their function is never invoked, which is exactly the coverage
    /// gap the matrix is built to expose.
    pub fn idle_scenario(len: usize) -> Self {
        Self::power_on_then(len, &[Key::Ok])
    }

    /// The zapping burst: power on, then rapid channel surfing. Tuner
    /// faults are hammered; everything else stays dormant.
    pub fn zapping_scenario(len: usize) -> Self {
        let pattern = [
            Key::ChannelUp,
            Key::ChannelUp,
            Key::ChannelUp,
            Key::ChannelDown,
            Key::ChannelUp,
            Key::ChannelDown,
        ];
        Self::power_on_then(len, &pattern)
    }

    /// The full-mix session: every user-facing function the awareness
    /// loop observes gets exercised — volume, mute, channel, teletext
    /// paging, menu open/close, sleep timer, swivel. The scorecard's
    /// high-exercise workload: a fault class that stays undetected here
    /// is a genuine monitoring gap, not a dormant function.
    pub fn full_mix_scenario(len: usize) -> Self {
        let pattern = [
            Key::VolUp,
            Key::ChannelUp,
            Key::Mute,
            Key::Mute,
            Key::Teletext, // on, page 100
            Key::Digit(1),
            Key::Digit(2),
            Key::Digit(3), // page 123
            Key::Teletext, // off
            Key::Menu,
            Key::Back,
            Key::Sleep,
            Key::SwivelLeft,
            Key::SwivelRight,
            Key::VolDown,
            Key::ChannelDown,
        ];
        Self::power_on_then(len, &pattern)
    }

    /// Power on, tune channel 1, then `pattern` over and over: `len`
    /// keys in all.
    fn power_on_then(len: usize, pattern: &[Key]) -> Self {
        let mut keys = vec![Key::Power, Key::Digit(1)];
        while keys.len() < len {
            keys.push(pattern[(keys.len() - 2) % pattern.len()]);
        }
        keys.truncate(len);
        KeySequence { keys }
    }

    /// A random scenario of `len` keys (deterministic from `rng`).
    pub fn random(len: usize, rng: &mut SimRng) -> Self {
        let mut keys = Vec::with_capacity(len);
        for _ in 0..len {
            let k = *rng.pick(&Key::ALL).expect("ALL is non-empty");
            // Randomize digits fully.
            let k = match k {
                Key::Digit(_) => Key::Digit(rng.uniform_u64(0, 9) as u8),
                other => other,
            };
            keys.push(k);
        }
        KeySequence { keys }
    }
}

impl FromIterator<Key> for KeySequence {
    fn from_iter<I: IntoIterator<Item = Key>>(iter: I) -> Self {
        KeySequence {
            keys: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_stable() {
        assert_eq!(Key::Power.event_name(), "power");
        assert_eq!(Key::Digit(7).event_name(), "digit");
        assert_eq!(Key::Digit(7).payload(), Some(7));
        assert_eq!(Key::VolUp.payload(), None);
        assert_eq!(Key::Digit(7).event(), Event::with_payload("digit", 7));
        assert_eq!(Key::VolUp.event(), Event::plain("vol_up"));
    }

    #[test]
    fn display() {
        assert_eq!(Key::Digit(3).to_string(), "digit(3)");
        assert_eq!(Key::Teletext.to_string(), "teletext");
    }

    #[test]
    fn teletext_scenario_has_requested_length() {
        let s = KeySequence::teletext_scenario(27);
        assert_eq!(s.len(), 27);
        assert_eq!(s.keys()[0], Key::Power);
        assert!(s.keys().contains(&Key::Teletext));
    }

    #[test]
    fn scorecard_scenarios_have_requested_length_and_shape() {
        let idle = KeySequence::idle_scenario(40);
        assert_eq!(idle.len(), 40);
        assert!(idle.keys()[2..].iter().all(|k| *k == Key::Ok));

        let zap = KeySequence::zapping_scenario(40);
        assert_eq!(zap.len(), 40);
        assert!(zap.keys().contains(&Key::ChannelUp));
        assert!(!zap.keys().contains(&Key::VolUp));

        let mix = KeySequence::full_mix_scenario(40);
        assert_eq!(mix.len(), 40);
        for key in [
            Key::VolUp,
            Key::Mute,
            Key::Teletext,
            Key::ChannelUp,
            Key::Menu,
            Key::Sleep,
            Key::SwivelLeft,
        ] {
            assert!(mix.keys().contains(&key), "full mix misses {key}");
        }
        // Degenerate lengths stay well-formed.
        assert_eq!(KeySequence::idle_scenario(1).len(), 1);
        assert_eq!(KeySequence::full_mix_scenario(0).len(), 0);
    }

    #[test]
    fn random_scenario_is_deterministic() {
        let mut r1 = SimRng::seed(5);
        let mut r2 = SimRng::seed(5);
        assert_eq!(
            KeySequence::random(50, &mut r1),
            KeySequence::random(50, &mut r2)
        );
    }

    #[test]
    fn collect_from_iterator() {
        let s: KeySequence = [Key::Ok, Key::Back].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
