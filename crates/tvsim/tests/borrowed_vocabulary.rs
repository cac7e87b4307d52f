//! The TV's observation vocabulary travels borrowed.
//!
//! Every name the TV emits — observation sources, key names, output and
//! value names, mode components and modes, symbolic output values — is a
//! literal of its fixed vocabulary, carried as `Cow::Borrowed`. Cloning
//! such an observation (the monitor's boundary messages, the detector's
//! mode map) then copies pointers, not strings. A stray `.to_owned()` on
//! one of these paths would still compare equal everywhere; this test is
//! what catches it, by name, before it shows up as a count in the loop's
//! allocation budget.

use std::borrow::Cow;

use observe::{ObsValue, Observation, ObservationKind};
use simkit::{SimDuration, SimTime};
use tvsim::{Key, TvFault, TvSystem, Unit};

/// How many names of each kind the checks saw, so a path that stops
/// emitting some kind cannot pass vacuously.
#[derive(Default)]
struct Seen {
    key_presses: usize,
    modes: usize,
    values: usize,
    outputs: usize,
    texts: usize,
}

impl Seen {
    fn check(&mut self, context: &str, observations: &[Observation]) {
        for obs in observations {
            assert!(
                matches!(obs.source, Cow::Borrowed(_)),
                "{context}: owned source in {obs:?}"
            );
            let names: Vec<&Cow<'static, str>> = match &obs.kind {
                ObservationKind::KeyPress { key, .. } => {
                    self.key_presses += 1;
                    vec![key]
                }
                ObservationKind::Mode { component, mode } => {
                    self.modes += 1;
                    vec![component, mode]
                }
                ObservationKind::Value { name, .. } => {
                    self.values += 1;
                    vec![name]
                }
                ObservationKind::Output { name, value } => {
                    self.outputs += 1;
                    match value {
                        ObsValue::Text(text) => {
                            self.texts += 1;
                            vec![name, text]
                        }
                        ObsValue::Num(_) => vec![name],
                    }
                }
            };
            for name in names {
                assert!(
                    matches!(name, Cow::Borrowed(_)),
                    "{context}: owned name {name:?} in {obs:?}"
                );
            }
        }
    }
}

/// Keys that walk the TV through its focus states (teletext, menu,
/// EPG, dual screen, PiP), so every feature handler emits.
fn tour() -> Vec<Key> {
    let mut keys = Key::ALL.to_vec();
    keys.extend([
        Key::Power,
        Key::Teletext,
        Key::Digit(1),
        Key::Digit(2),
        Key::Digit(3),
        Key::Menu,
        Key::Digit(4),
        Key::Back,
        Key::Back,
        Key::Epg,
        Key::Teletext,
        Key::Epg,
        Key::DualScreen,
        Key::Teletext,
        Key::Back,
        Key::Pip,
        Key::Sleep,
        Key::Sleep,
    ]);
    keys.extend((0..10).map(Key::Digit));
    keys
}

/// Drives one TV through the tour and every non-press entry point.
fn exercise(faults: &[TvFault], seen: &mut Seen) {
    let mut tv = TvSystem::new();
    for &fault in faults {
        tv.inject_fault(fault);
    }
    let context = format!("faults {faults:?}");
    let mut now = SimTime::ZERO;
    seen.check(&context, &tv.press(now, Key::Power));
    for key in tour() {
        now += SimDuration::from_millis(100);
        if !tv.is_on() {
            seen.check(&context, &tv.press(now, Key::Power));
        }
        seen.check(&format!("{context}, {key}"), &tv.press(now, key));
        seen.check(&context, &tv.tick(now));
    }
    if !tv.is_on() {
        seen.check(&context, &tv.press(now, Key::Power));
    }
    seen.check(&context, &tv.press(now, Key::Sleep));
    seen.check(&context, &tv.press(now, Key::SwivelRight));
    seen.check(&context, &tv.resync_teletext(now));
    for muted in [true, false] {
        seen.check(&context, &tv.force_audio(now, muted));
    }
    for unit in Unit::ALL {
        seen.check(
            &format!("{context}, {unit:?}"),
            &tv.announce_unit(now, unit),
        );
    }
    seen.check(&context, tv.timer_heartbeat(now).as_slice());
    seen.check(&context, &tv.witness_swivel(now));
}

#[test]
fn every_emitted_name_is_borrowed() {
    let mut seen = Seen::default();
    exercise(&[], &mut seen);
    for fault in TvFault::ALL {
        exercise(&[fault], &mut seen);
    }
    exercise(&TvFault::ALL, &mut seen);
    assert!(seen.key_presses > 0, "no key press observed");
    assert!(seen.modes > 0, "no mode observed");
    assert!(seen.values > 0, "no heartbeat observed");
    assert!(seen.outputs > 0, "no output observed");
    assert!(seen.texts > 0, "no symbolic output value observed");
}

#[test]
fn key_events_are_borrowed() {
    for key in Key::ALL.into_iter().chain((0..10).map(Key::Digit)) {
        assert!(
            matches!(key.event().name, Cow::Borrowed(_)),
            "{key}: owned event name"
        );
    }
}
