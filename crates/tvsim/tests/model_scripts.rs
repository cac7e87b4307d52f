//! Test scripts against the TV specification model — the paper's
//! model-quality workflow (Sect. 4.2): "we investigate the possibilities
//! of formal model-checking and test scripts to improve model quality."

use simkit::SimDuration;
use statemachine::{Event, TestScript};
use tvsim::tv_spec;

#[test]
fn volume_session_script_passes() {
    let outcome = TestScript::new("volume-session")
        .inject(Event::plain("power"))
        .expect_state("on")
        .expect_output("volume", 20)
        .inject(Event::plain("vol_up"))
        .expect_output("volume", 25)
        .inject(Event::plain("mute"))
        .expect_output("volume", 0)
        .expect_output("audio.muted", 1)
        .inject(Event::plain("mute"))
        .expect_output("volume", 25)
        .inject(Event::plain("power"))
        .expect_state("standby")
        .expect_output("screen.mode", "off")
        .run(tv_spec());
    assert!(outcome.passed(), "{:?}", outcome.failures);
}

#[test]
fn feature_interaction_script_passes() {
    // The interactions the paper warns about: dual screen, teletext and
    // OSDs "remove or suppress each other".
    let outcome = TestScript::new("interactions")
        .inject(Event::plain("power"))
        .inject(Event::plain("dual"))
        .expect_output("screen.mode", "dual")
        .inject(Event::plain("teletext"))
        .expect_output("screen.mode", "dual+teletext")
        .expect_output("teletext.page", 100)
        .inject(Event::plain("menu"))
        .expect_output("screen.mode", "menu")
        // Digits are swallowed by the menu: channel unchanged.
        .inject(Event::with_payload("digit", 7))
        .expect_var("ch", 1)
        .inject(Event::plain("back"))
        .expect_output("screen.mode", "dual+teletext")
        // Teletext key ignored while EPG has focus.
        .inject(Event::plain("epg"))
        .expect_output("screen.mode", "epg")
        .inject(Event::plain("teletext"))
        .expect_var("txt", 1)
        .inject(Event::plain("back"))
        .inject(Event::plain("back"))
        .expect_output("teletext.page", 0)
        .expect_output("screen.mode", "dual")
        .run(tv_spec());
    assert!(outcome.passed(), "{:?}", outcome.failures);
}

#[test]
fn teletext_page_entry_script_passes() {
    let outcome = TestScript::new("page-entry")
        .inject(Event::plain("power"))
        .inject(Event::plain("teletext"))
        .expect_output("teletext.page", 100)
        .inject(Event::with_payload("digit", 2))
        .inject(Event::with_payload("digit", 3))
        // Incomplete entry: page unchanged.
        .expect_output("teletext.page", 100)
        .inject(Event::with_payload("digit", 4))
        .expect_output("teletext.page", 234)
        // Invalid page 050 is discarded.
        .inject(Event::with_payload("digit", 0))
        .inject(Event::with_payload("digit", 5))
        .inject(Event::with_payload("digit", 0))
        .expect_output("teletext.page", 234)
        .inject(Event::plain("ch_up"))
        .expect_output("teletext.page", 100)
        .expect_output("channel", 2)
        .run(tv_spec());
    assert!(outcome.passed(), "{:?}", outcome.failures);
}

#[test]
fn a_wrong_expectation_is_reported_precisely() {
    // The other half of the workflow: a script that disagrees with the
    // model localizes the disagreement to a step.
    let outcome = TestScript::new("wrong")
        .inject(Event::plain("power"))
        .advance(SimDuration::from_millis(5))
        .inject(Event::plain("vol_up"))
        .expect_output("volume", 999)
        .run(tv_spec());
    assert!(!outcome.passed());
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].step, 3);
    assert!(outcome.failures[0].message.contains("volume"));
}
