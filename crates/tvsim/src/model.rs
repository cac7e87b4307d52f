//! The specification model of desired TV behaviour.
//!
//! This is the artifact paper Sect. 4.2 describes: a high-level executable
//! model of the TV "from the viewpoint of the user", capturing the
//! relation between remote-control input and observable output. It is a
//! *partial* model (the paper: complete models are infeasible; partial
//! models concentrate on what matters to the user): it covers volume,
//! mute, channel, teletext pages, screen-mode composition, source, swivel
//! and the sleep-timer setting — but not, e.g., the sleep timer's
//! long-horizon expiry.
//!
//! The awareness framework executes this machine at run time next to the
//! [`TvSystem`](crate::TvSystem); any divergence beyond the configured
//! tolerances is an error.

use statemachine::{Expr, Machine, MachineBuilder};
use std::sync::OnceLock;

/// The user-view screen-mode expression over the model's variables.
fn mode_expr() -> Expr {
    Expr::var("menu").eq(Expr::lit(1)).if_else(
        Expr::lit("menu"),
        Expr::var("epg").eq(Expr::lit(1)).if_else(
            Expr::lit("epg"),
            Expr::var("txt").eq(Expr::lit(1)).if_else(
                Expr::var("dual")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit("dual+teletext"), Expr::lit("teletext")),
                Expr::var("dual").eq(Expr::lit(1)).if_else(
                    Expr::lit("dual"),
                    Expr::var("pip")
                        .eq(Expr::lit(1))
                        .if_else(Expr::lit("pip"), Expr::lit("video")),
                ),
            ),
        ),
    )
}

/// Audible volume: 0 while muted.
fn volume_expr() -> Expr {
    Expr::var("muted")
        .eq(Expr::lit(1))
        .if_else(Expr::lit(0), Expr::var("level"))
}

fn osd_focused() -> Expr {
    Expr::var("menu")
        .eq(Expr::lit(1))
        .or(Expr::var("epg").eq(Expr::lit(1)))
}

/// Builds the TV specification machine.
///
/// Every call builds a fresh machine; runs that only execute the
/// specification borrow the shared one from [`tv_spec`] instead.
///
/// ```
/// use tvsim::tv_spec_machine;
/// let machine = tv_spec_machine();
/// assert!(machine.is_well_formed(), "{:?}", machine.validate());
/// ```
pub fn tv_spec_machine() -> Machine {
    let b = MachineBuilder::new("tv-spec")
        .state("standby")
        .state("on")
        .initial("standby")
        .var("level", 20)
        .var("muted", 0)
        .var("ch", 1)
        .var("txt", 0)
        .var("page", 100)
        .var("td_count", 0)
        .var("td_acc", 0)
        .var("menu", 0)
        .var("epg", 0)
        .var("dual", 0)
        .var("pip", 0)
        .var("src", 0)
        .var("angle", 0)
        .var("sleep_min", 0)
        .output("volume")
        .output("audio.muted")
        .output("channel")
        .output("teletext.page")
        .output("screen.mode")
        .output("source")
        .output("swivel.angle")
        .output("sleep.minutes");

    let b = b
        // Power on: announce restored state.
        .on("standby", "power", "on", |t| {
            t.output_const("screen.mode", "video")
                .output("volume", volume_expr())
                .output("audio.muted", Expr::var("muted"))
                .output("channel", Expr::var("ch"))
        })
        // Power off: UI state resets, settings persist. The teletext
        // plane is blanked (page 0), mirroring the system's forced
        // teletext shutdown.
        .on("on", "power", "standby", |t| {
            t.assign("txt", Expr::lit(0))
                .assign("td_count", Expr::lit(0))
                .assign("td_acc", Expr::lit(0))
                .assign("menu", Expr::lit(0))
                .assign("epg", Expr::lit(0))
                .assign("dual", Expr::lit(0))
                .assign("pip", Expr::lit(0))
                .assign("sleep_min", Expr::lit(0))
                .output_const("teletext.page", 0)
                .output_const("screen.mode", "off")
        });

    // Volume.
    let b = b
        .on("on", "vol_up", "on", |t| {
            t.assign(
                "level",
                Expr::var("level")
                    .add(Expr::lit(5))
                    .clamp(Expr::lit(0), Expr::lit(100)),
            )
            .output("volume", volume_expr())
            .output("audio.muted", Expr::var("muted"))
        })
        .on("on", "vol_down", "on", |t| {
            t.assign(
                "level",
                Expr::var("level")
                    .sub(Expr::lit(5))
                    .clamp(Expr::lit(0), Expr::lit(100)),
            )
            .output("volume", volume_expr())
            .output("audio.muted", Expr::var("muted"))
        })
        .on("on", "mute", "on", |t| {
            t.assign(
                "muted",
                Expr::var("muted")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit(0), Expr::lit(1)),
            )
            .output("volume", volume_expr())
            .output("audio.muted", Expr::var("muted"))
        });

    // Digits: OSD swallows; teletext page entry; direct tune.
    let page_candidate = || Expr::var("td_acc").mul(Expr::lit(10)).add(Expr::Payload);
    let b = b
        .on("on", "digit", "on", |t| t.guard(osd_focused()))
        .on("on", "digit", "on", |t| {
            t.guard(
                Expr::var("txt")
                    .eq(Expr::lit(1))
                    .and(Expr::var("td_count").lt(Expr::lit(2))),
            )
            .assign("td_count", Expr::var("td_count").add(Expr::lit(1)))
            .assign("td_acc", page_candidate())
        })
        .on("on", "digit", "on", |t| {
            t.guard(
                Expr::var("txt")
                    .eq(Expr::lit(1))
                    .and(Expr::var("td_count").eq(Expr::lit(2))),
            )
            .assign(
                "page",
                page_candidate()
                    .ge(Expr::lit(100))
                    .and(page_candidate().le(Expr::lit(899)))
                    .if_else(page_candidate(), Expr::var("page")),
            )
            .assign("td_count", Expr::lit(0))
            .assign("td_acc", Expr::lit(0))
            .output("teletext.page", Expr::var("page"))
        })
        .on("on", "digit", "on", |t| {
            t.assign(
                "ch",
                Expr::Payload
                    .eq(Expr::lit(0))
                    .if_else(Expr::lit(10), Expr::Payload),
            )
            .output("channel", Expr::var("ch"))
        });

    // Channel up/down, with teletext re-acquisition.
    let b = b
        .on("on", "ch_up", "on", |t| {
            t.guard(Expr::var("txt").eq(Expr::lit(1)))
                .assign(
                    "ch",
                    Expr::var("ch")
                        .ge(Expr::lit(99))
                        .if_else(Expr::lit(1), Expr::var("ch").add(Expr::lit(1))),
                )
                .assign("page", Expr::lit(100))
                .assign("td_count", Expr::lit(0))
                .assign("td_acc", Expr::lit(0))
                .output("channel", Expr::var("ch"))
                .output("teletext.page", Expr::var("page"))
        })
        .on("on", "ch_up", "on", |t| {
            t.assign(
                "ch",
                Expr::var("ch")
                    .ge(Expr::lit(99))
                    .if_else(Expr::lit(1), Expr::var("ch").add(Expr::lit(1))),
            )
            .output("channel", Expr::var("ch"))
        })
        .on("on", "ch_down", "on", |t| {
            t.guard(Expr::var("txt").eq(Expr::lit(1)))
                .assign(
                    "ch",
                    Expr::var("ch")
                        .le(Expr::lit(1))
                        .if_else(Expr::lit(99), Expr::var("ch").sub(Expr::lit(1))),
                )
                .assign("page", Expr::lit(100))
                .assign("td_count", Expr::lit(0))
                .assign("td_acc", Expr::lit(0))
                .output("channel", Expr::var("ch"))
                .output("teletext.page", Expr::var("page"))
        })
        .on("on", "ch_down", "on", |t| {
            t.assign(
                "ch",
                Expr::var("ch")
                    .le(Expr::lit(1))
                    .if_else(Expr::lit(99), Expr::var("ch").sub(Expr::lit(1))),
            )
            .output("channel", Expr::var("ch"))
        });

    // Teletext toggle (suppressed under OSD focus).
    let b = b
        .on("on", "teletext", "on", |t| t.guard(osd_focused()))
        .on("on", "teletext", "on", |t| {
            t.guard(Expr::var("txt").eq(Expr::lit(0)))
                .assign("txt", Expr::lit(1))
                .assign("page", Expr::lit(100))
                .assign("td_count", Expr::lit(0))
                .assign("td_acc", Expr::lit(0))
                .output("teletext.page", Expr::var("page"))
                .output("screen.mode", mode_expr())
        })
        .on("on", "teletext", "on", |t| {
            t.guard(Expr::var("txt").eq(Expr::lit(1)))
                .assign("txt", Expr::lit(0))
                .assign("td_count", Expr::lit(0))
                .assign("td_acc", Expr::lit(0))
                .output_const("teletext.page", 0)
                .output("screen.mode", mode_expr())
        });

    // Composition keys.
    let b = b
        .on("on", "dual", "on", |t| {
            t.assign(
                "dual",
                Expr::var("dual")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit(0), Expr::lit(1)),
            )
            .assign(
                "pip",
                Expr::var("dual")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit(0), Expr::var("pip")),
            )
            .output("screen.mode", mode_expr())
        })
        .on("on", "pip", "on", |t| {
            t.assign(
                "pip",
                Expr::var("pip")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit(0), Expr::lit(1)),
            )
            .assign(
                "dual",
                Expr::var("pip")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit(0), Expr::var("dual")),
            )
            .output("screen.mode", mode_expr())
        })
        .on("on", "menu", "on", |t| {
            t.assign(
                "menu",
                Expr::var("menu")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit(0), Expr::lit(1)),
            )
            .assign(
                "epg",
                Expr::var("menu")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit(0), Expr::var("epg")),
            )
            .output("screen.mode", mode_expr())
        })
        .on("on", "epg", "on", |t| {
            t.guard(Expr::var("menu").eq(Expr::lit(1)))
        })
        .on("on", "epg", "on", |t| {
            t.assign(
                "epg",
                Expr::var("epg")
                    .eq(Expr::lit(1))
                    .if_else(Expr::lit(0), Expr::lit(1)),
            )
            .output("screen.mode", mode_expr())
        });

    // Back: menu, then EPG, then teletext.
    let b = b
        .on("on", "back", "on", |t| {
            t.guard(Expr::var("menu").eq(Expr::lit(1)))
                .assign("menu", Expr::lit(0))
                .output("screen.mode", mode_expr())
        })
        .on("on", "back", "on", |t| {
            t.guard(Expr::var("epg").eq(Expr::lit(1)))
                .assign("epg", Expr::lit(0))
                .output("screen.mode", mode_expr())
        })
        .on("on", "back", "on", |t| {
            t.guard(Expr::var("txt").eq(Expr::lit(1)))
                .assign("txt", Expr::lit(0))
                .assign("td_count", Expr::lit(0))
                .assign("td_acc", Expr::lit(0))
                .output_const("teletext.page", 0)
                .output("screen.mode", mode_expr())
        });

    // Source, swivel, sleep.
    let b = b
        .on("on", "source", "on", |t| {
            t.assign(
                "src",
                Expr::var("src")
                    .ge(Expr::lit(3))
                    .if_else(Expr::lit(0), Expr::var("src").add(Expr::lit(1))),
            )
            .output("source", Expr::var("src"))
        })
        .on("on", "swivel_left", "on", |t| {
            t.assign(
                "angle",
                Expr::var("angle")
                    .sub(Expr::lit(15))
                    .clamp(Expr::lit(-45), Expr::lit(45)),
            )
            .output("swivel.angle", Expr::var("angle"))
        })
        .on("on", "swivel_right", "on", |t| {
            t.assign(
                "angle",
                Expr::var("angle")
                    .add(Expr::lit(15))
                    .clamp(Expr::lit(-45), Expr::lit(45)),
            )
            .output("swivel.angle", Expr::var("angle"))
        })
        .on("on", "sleep", "on", |t| {
            t.assign(
                "sleep_min",
                Expr::var("sleep_min")
                    .ge(Expr::lit(120))
                    .if_else(Expr::lit(0), Expr::var("sleep_min").add(Expr::lit(15))),
            )
            .output("sleep.minutes", Expr::var("sleep_min"))
        });

    b.build().expect("tv spec machine is structurally valid")
}

/// The TV specification machine, built once per process and shared.
///
/// A [`Machine`] is immutable once built, so every executor — the loop's
/// oracle, the monitor's model, an experiment harness — can borrow this
/// one definition instead of building its own.
///
/// ```
/// use statemachine::Executor;
/// let mut oracle = Executor::new(tvsim::tv_spec());
/// oracle.start();
/// ```
pub fn tv_spec() -> &'static Machine {
    static SPEC: OnceLock<Machine> = OnceLock::new();
    SPEC.get_or_init(tv_spec_machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use statemachine::{Event, Executor, Value};

    fn exec() -> Executor<'static> {
        let mut e = Executor::new(tv_spec());
        e.start();
        e
    }

    #[test]
    fn shared_spec_is_built_once_and_equals_a_fresh_build() {
        assert!(std::ptr::eq(tv_spec(), tv_spec()));
        assert_eq!(*tv_spec(), tv_spec_machine());
    }

    #[test]
    fn machine_is_well_formed() {
        let m = tv_spec_machine();
        let issues = m.validate();
        assert!(m.is_well_formed(), "{issues:?}");
    }

    #[test]
    fn mirrors_volume_semantics() {
        let mut e = exec();
        e.step(&Event::plain("power"));
        assert_eq!(e.last_output("volume"), Some(&Value::Int(20)));
        e.step(&Event::plain("vol_up"));
        assert_eq!(e.last_output("volume"), Some(&Value::Int(25)));
        e.step(&Event::plain("mute"));
        assert_eq!(e.last_output("volume"), Some(&Value::Int(0)));
        assert_eq!(e.last_output("audio.muted"), Some(&Value::Int(1)));
        e.step(&Event::plain("mute"));
        assert_eq!(e.last_output("volume"), Some(&Value::Int(25)));
    }

    #[test]
    fn mirrors_teletext_page_entry() {
        let mut e = exec();
        e.step(&Event::plain("power"));
        e.step(&Event::plain("teletext"));
        assert_eq!(e.last_output("teletext.page"), Some(&Value::Int(100)));
        for d in [2i64, 3, 4] {
            e.step(&Event::with_payload("digit", d));
        }
        assert_eq!(e.last_output("teletext.page"), Some(&Value::Int(234)));
        assert_eq!(
            e.last_output("screen.mode"),
            Some(&Value::Str("teletext".into()))
        );
    }

    #[test]
    fn digit_tunes_when_no_teletext() {
        let mut e = exec();
        e.step(&Event::plain("power"));
        e.step(&Event::with_payload("digit", 7i64));
        assert_eq!(e.last_output("channel"), Some(&Value::Int(7)));
        e.step(&Event::with_payload("digit", 0i64));
        assert_eq!(e.last_output("channel"), Some(&Value::Int(10)));
    }

    #[test]
    fn channel_wraps() {
        let mut e = exec();
        e.step(&Event::plain("power"));
        e.step(&Event::plain("ch_down"));
        assert_eq!(e.last_output("channel"), Some(&Value::Int(99)));
        e.step(&Event::plain("ch_up"));
        assert_eq!(e.last_output("channel"), Some(&Value::Int(1)));
    }

    #[test]
    fn power_off_resets_ui_keeps_settings() {
        let mut e = exec();
        e.step(&Event::plain("power"));
        e.step(&Event::plain("vol_up"));
        e.step(&Event::plain("teletext"));
        e.step(&Event::plain("power"));
        assert_eq!(
            e.last_output("screen.mode"),
            Some(&Value::Str("off".into()))
        );
        e.step(&Event::plain("power"));
        // Volume persisted; teletext did not.
        assert_eq!(e.last_output("volume"), Some(&Value::Int(25)));
        assert_eq!(e.var("txt"), Some(&Value::Int(0)));
    }

    #[test]
    fn mode_lattice_matches_screen_manager() {
        let mut e = exec();
        e.step(&Event::plain("power"));
        e.step(&Event::plain("dual"));
        assert_eq!(
            e.last_output("screen.mode"),
            Some(&Value::Str("dual".into()))
        );
        e.step(&Event::plain("teletext"));
        assert_eq!(
            e.last_output("screen.mode"),
            Some(&Value::Str("dual+teletext".into()))
        );
        e.step(&Event::plain("menu"));
        assert_eq!(
            e.last_output("screen.mode"),
            Some(&Value::Str("menu".into()))
        );
        e.step(&Event::plain("back"));
        assert_eq!(
            e.last_output("screen.mode"),
            Some(&Value::Str("dual+teletext".into()))
        );
    }
}
