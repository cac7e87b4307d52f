//! Property test: the healthy TV system and its specification model agree
//! on every observable output, over arbitrary key scenarios.
//!
//! This is the foundation of the whole awareness approach (paper
//! Sect. 4.2): the run-time model is only useful if a *healthy* system
//! never deviates from it. The property is checked over randomized
//! scenarios (proptest shrinks counterexamples to minimal key sequences).

use proptest::prelude::*;
use simkit::SimTime;
use statemachine::{Executor, Value};
use std::collections::BTreeMap;
use tvsim::{tv_spec, Key, TvSystem};

fn arb_key() -> impl Strategy<Value = Key> {
    prop_oneof![
        Just(Key::Power),
        (0u8..10).prop_map(Key::Digit),
        Just(Key::VolUp),
        Just(Key::VolDown),
        Just(Key::Mute),
        Just(Key::ChannelUp),
        Just(Key::ChannelDown),
        Just(Key::Teletext),
        Just(Key::DualScreen),
        Just(Key::Menu),
        Just(Key::Ok),
        Just(Key::Back),
        Just(Key::Epg),
        Just(Key::Pip),
        Just(Key::Source),
        Just(Key::SwivelLeft),
        Just(Key::SwivelRight),
        Just(Key::Sleep),
    ]
}

fn to_num_or_text(v: &Value) -> (Option<f64>, Option<String>) {
    match v {
        Value::Str(s) => (None, Some(s.clone())),
        other => (other.as_f64(), None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn healthy_system_matches_model_outputs(keys in prop::collection::vec(arb_key(), 1..80)) {
        let mut model = Executor::new(tv_spec());
        model.start();
        let mut tv = TvSystem::new();

        let mut expected: BTreeMap<String, Value> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            let at = SimTime::from_millis(100 * (i as u64 + 1));
            let observations = tv.press(at, *key);
            model.step_at(at, &key.event());
            for rec in model.drain_outputs() {
                expected.insert(rec.name, rec.value);
            }
            prop_assert!(model.errors().is_empty(), "model errors: {:?}", model.errors());

            // Every output the system emitted this step must match the
            // model's current expectation for that observable.
            for obs in &observations {
                if let Some((name, actual)) = obs.as_output() {
                    let want = expected.get(name);
                    prop_assert!(
                        want.is_some(),
                        "system emitted `{name}` the model never produced (key {key}, step {i})"
                    );
                    let (num, text) = to_num_or_text(want.unwrap());
                    match (num, text, actual.as_num(), actual.as_text()) {
                        (Some(w), _, Some(a), _) => prop_assert!(
                            (w - a).abs() < 1e-9,
                            "`{name}`: model {w} vs system {a} after {key} (step {i})"
                        ),
                        (_, Some(w), _, Some(a)) => prop_assert_eq!(
                            w, a.to_owned(),
                            "`{}` mismatch after {} (step {})", name, key, i
                        ),
                        _ => prop_assert!(
                            false,
                            "`{name}`: kind mismatch after {key} (step {i})"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn model_state_vars_track_system_state(keys in prop::collection::vec(arb_key(), 1..60)) {
        let mut model = Executor::new(tv_spec());
        model.start();
        let mut tv = TvSystem::new();
        for (i, key) in keys.iter().enumerate() {
            let at = SimTime::from_millis(100 * (i as u64 + 1));
            tv.press(at, *key);
            model.step_at(at, &key.event());
        }
        // Deep state agreement at the end of the scenario.
        let on = model.active_leaf_name() == "on";
        prop_assert_eq!(on, tv.is_on());
        if on {
            prop_assert_eq!(
                model.var("level").and_then(Value::as_i64),
                Some(tv.volume_level())
            );
            prop_assert_eq!(
                model.var("muted").and_then(Value::as_bool),
                Some(tv.is_muted())
            );
            prop_assert_eq!(
                model.var("ch").and_then(Value::as_i64),
                Some(tv.channel())
            );
            prop_assert_eq!(
                model.var("txt").and_then(Value::as_bool),
                Some(tv.teletext().is_on())
            );
        }
    }
}
