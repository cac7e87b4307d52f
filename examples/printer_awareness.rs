//! Domain transfer: run-time awareness for a printer/copier.
//!
//! The paper's closing remark (Sect. 5): "the model-based run-time
//! awareness concept is also exploited in the domain of printer/copiers
//! at the company Océ in the context of the ESI-project Octopus."
//! This example shows exactly that portability: no TV code involved —
//! a fresh specification model of a printer's behaviour is written with
//! the same `statemachine` substrate and monitored with the same
//! `awareness` framework.
//!
//! ```sh
//! cargo run --example printer_awareness
//! ```

use trader::awareness::{CompareSpec, Configuration, MonitorBuilder};
use trader::observe::{ObsValue, Observation, ObservationKind};
use trader::prelude::*;
use trader::simkit::SimDuration;

/// The printer's specification model: warm-up takes at most 3 s, then
/// jobs print at up to 1 page/s; a jam must raise the jam indicator and
/// halt output.
fn printer_spec() -> Machine {
    MachineBuilder::new("printer-spec")
        .state("sleeping")
        .state("warming")
        .unstable("warming") // comparison off while thermally unstable
        .state("ready")
        .state("printing")
        .state("jammed")
        .initial("sleeping")
        .var("pages", 0)
        .output("printer.state")
        .output("pages.done")
        .output("jam.light")
        .on("sleeping", "wake", "warming", |t| {
            // Power-up lamp test: all indicators announce their state.
            t.output_const("printer.state", "warming")
                .output_const("jam.light", 0)
        })
        .after("warming", SimDuration::from_secs(3), "ready", |t| {
            t.output_const("printer.state", "ready")
        })
        .on("ready", "job", "printing", |t| {
            t.output_const("printer.state", "printing")
        })
        .on("printing", "page_out", "printing", |t| {
            t.assign("pages", Expr::var("pages").add(Expr::lit(1)))
                .output("pages.done", Expr::var("pages"))
        })
        .on("printing", "job_done", "ready", |t| {
            t.output_const("printer.state", "ready")
        })
        .on("printing", "jam", "jammed", |t| {
            t.output_const("printer.state", "jammed")
                .output_const("jam.light", 1)
        })
        .on("jammed", "cleared", "ready", |t| {
            t.output_const("printer.state", "ready")
                .output_const("jam.light", 0)
        })
        .build()
        .expect("printer model is structurally valid")
}

/// A tiny printer "firmware" — the SUO. The injected defect: the jam
/// indicator light is never switched on (a real Océ-class usability
/// fault: the machine stops, the user has no idea why).
struct Printer {
    pages: i64,
    jam_light_broken: bool,
}

impl Printer {
    fn emit(&self, at: SimTime, name: &str, value: ObsValue) -> Observation {
        Observation::new(
            at,
            "printer",
            ObservationKind::Output {
                name: name.to_owned().into(),
                value,
            },
        )
    }

    fn handle(&mut self, at: SimTime, event: &str) -> Vec<Observation> {
        let mut out = vec![Observation::key_press(at, "panel", event.to_owned(), None)];
        match event {
            "wake" => {
                out.push(self.emit(at, "printer.state", "warming".into()));
                // Lamp test: the jam light reports itself off.
                out.push(self.emit(at, "jam.light", ObsValue::Num(0.0)));
            }
            "job" => out.push(self.emit(at, "printer.state", "printing".into())),
            "page_out" => {
                self.pages += 1;
                out.push(self.emit(at, "pages.done", ObsValue::Num(self.pages as f64)));
            }
            "job_done" => out.push(self.emit(at, "printer.state", "ready".into())),
            "jam" => {
                out.push(self.emit(at, "printer.state", "jammed".into()));
                if !self.jam_light_broken {
                    out.push(self.emit(at, "jam.light", ObsValue::Num(1.0)));
                }
                // Broken: the light stays dark — an *omission* failure.
            }
            "cleared" => {
                out.push(self.emit(at, "printer.state", "ready".into()));
                out.push(self.emit(at, "jam.light", ObsValue::Num(0.0)));
            }
            _ => {}
        }
        out
    }
}

fn run(jam_light_broken: bool) -> usize {
    let machine = printer_spec();
    // Time-based comparison for the jam light: omissions need it.
    let cfg = Configuration::new()
        .observable(
            "jam.light",
            CompareSpec::exact().time_based(SimDuration::from_millis(500)),
        )
        .with_default_spec(CompareSpec::exact().with_max_consecutive(1));
    let mut monitor = MonitorBuilder::new(&machine).configuration(cfg).build();
    let mut printer = Printer {
        pages: 0,
        jam_light_broken,
    };

    let script: [(u64, &str); 9] = [
        (100, "wake"),
        (3200, "job"), // after warm-up
        (4000, "page_out"),
        (5000, "page_out"),
        (6000, "jam"),
        (9000, "cleared"),
        (9500, "job"),
        (10500, "page_out"),
        (11000, "job_done"),
    ];
    // The printer must also emit ready after its own warm-up, like the
    // model expects.
    let mut warmup_announced = false;
    for (ms, event) in script {
        let at = SimTime::from_millis(ms);
        if !warmup_announced && ms > 3100 {
            warmup_announced = true;
            let ready_at = SimTime::from_millis(3100);
            monitor.offer(&printer.emit(ready_at, "printer.state", "ready".into()));
        }
        for obs in printer.handle(at, event) {
            monitor.offer(&obs);
        }
        monitor.advance_to(at + SimDuration::from_millis(90));
    }
    monitor.advance_to(SimTime::from_millis(12_000));
    monitor.drain_errors().len()
}

fn main() {
    let machine = printer_spec();
    println!(
        "printer model: {} states, {} transitions, well-formed: {}",
        machine.states().len(),
        machine.transitions().len(),
        machine.is_well_formed()
    );
    let healthy = run(false);
    let broken = run(true);
    println!("healthy printer:        {healthy} errors detected");
    println!("broken jam indicator:   {broken} errors detected");
    assert_eq!(healthy, 0, "healthy printer must be silent");
    assert!(broken > 0, "the dark jam light must be detected");
    println!();
    println!("Same framework, new domain — the Octopus transfer the paper");
    println!("announces in its conclusion (Sect. 5).");
}
