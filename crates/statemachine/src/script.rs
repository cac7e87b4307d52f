//! Test scripts against a model.
//!
//! The paper (Sect. 4.2) uses executable models plus test scripts to
//! improve confidence in model fidelity before deploying the model as a
//! run-time component. A [`TestScript`] is a linear scenario of time
//! advances, injected events, and expectations about states, variables and
//! outputs; running it yields a [`ScriptOutcome`] listing every violated
//! expectation.

use crate::event::Event;
use crate::executor::Executor;
use crate::machine::Machine;
use crate::value::Value;
use simkit::{SimDuration, SimTime};
use std::fmt;

/// One step of a test script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptStep {
    /// Advance model time by this much.
    Advance(SimDuration),
    /// Inject an event.
    Inject(Event),
    /// Expect the active leaf state to have this name.
    ExpectState(String),
    /// Expect a variable to hold a value.
    ExpectVar(String, Value),
    /// Expect the most recent value of an output.
    ExpectOutput(String, Value),
}

/// A violated expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptFailure {
    /// Index of the failing step.
    pub step: usize,
    /// Model time when the step ran.
    pub time: SimTime,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ScriptFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {} at {}: {}", self.step, self.time, self.message)
    }
}

/// The result of running a script.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptOutcome {
    /// Violated expectations, in order.
    pub failures: Vec<ScriptFailure>,
    /// Model evaluation errors accumulated during the run.
    pub model_errors: Vec<String>,
}

impl ScriptOutcome {
    /// True when every expectation held and the model raised no errors.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.model_errors.is_empty()
    }
}

/// A linear test scenario for a machine.
///
/// ```
/// use statemachine::{MachineBuilder, TestScript, ScriptStep, Event, Value};
///
/// let m = MachineBuilder::new("m")
///     .state("off").state("on").initial("off")
///     .output("light")
///     .on("off", "press", "on", |t| t.output_const("light", 1))
///     .build().unwrap();
///
/// let script = TestScript::new("turn-on")
///     .inject(Event::plain("press"))
///     .expect_state("on")
///     .expect_output("light", Value::from(1));
/// assert!(script.run(&m).passed());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TestScript {
    /// Script name (for reporting).
    pub name: String,
    /// Steps in execution order.
    pub steps: Vec<ScriptStep>,
}

impl TestScript {
    /// Starts an empty script.
    pub fn new(name: impl Into<String>) -> Self {
        TestScript {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a raw step.
    pub fn step(mut self, step: ScriptStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Appends a time advance.
    pub fn advance(self, d: SimDuration) -> Self {
        self.step(ScriptStep::Advance(d))
    }

    /// Appends an event injection.
    pub fn inject(self, event: Event) -> Self {
        self.step(ScriptStep::Inject(event))
    }

    /// Appends a leaf-state expectation.
    pub fn expect_state(self, name: impl Into<String>) -> Self {
        self.step(ScriptStep::ExpectState(name.into()))
    }

    /// Appends a variable expectation.
    pub fn expect_var(self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.step(ScriptStep::ExpectVar(name.into(), value.into()))
    }

    /// Appends an output expectation.
    pub fn expect_output(self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.step(ScriptStep::ExpectOutput(name.into(), value.into()))
    }

    /// Runs the script against a fresh executor of `machine`.
    pub fn run(&self, machine: &Machine) -> ScriptOutcome {
        let mut exec = Executor::new(machine);
        exec.start();
        let mut failures = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            let fail = |message: String, exec: &Executor<'_>| ScriptFailure {
                step: i,
                time: exec.now(),
                message,
            };
            match step {
                ScriptStep::Advance(d) => {
                    let target = exec.now() + *d;
                    exec.advance_to(target);
                }
                ScriptStep::Inject(ev) => exec.step(ev),
                ScriptStep::ExpectState(name) => {
                    let actual = exec.active_leaf_name().to_owned();
                    if &actual != name {
                        failures.push(fail(
                            format!("expected leaf state `{name}`, in `{actual}`"),
                            &exec,
                        ));
                    }
                }
                ScriptStep::ExpectVar(name, expected) => match exec.var(name) {
                    Some(actual) if actual == expected => {}
                    Some(actual) => failures.push(fail(
                        format!("var `{name}` = {actual}, expected {expected}"),
                        &exec,
                    )),
                    None => failures.push(fail(format!("var `{name}` missing"), &exec)),
                },
                ScriptStep::ExpectOutput(name, expected) => match exec.last_output(name) {
                    Some(actual) if actual == expected => {}
                    Some(actual) => failures.push(fail(
                        format!("output `{name}` = {actual}, expected {expected}"),
                        &exec,
                    )),
                    None => failures.push(fail(format!("output `{name}` never produced"), &exec)),
                },
            }
        }
        ScriptOutcome {
            failures,
            model_errors: exec.errors().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MachineBuilder;
    use crate::expr::Expr;

    fn machine() -> Machine {
        MachineBuilder::new("vol")
            .state("idle")
            .state("muted")
            .initial("idle")
            .var("level", 10)
            .output("audio")
            .on("idle", "up", "idle", |t| {
                t.assign("level", Expr::var("level").add(Expr::lit(1)))
                    .output("audio", Expr::var("level"))
            })
            .on("idle", "mute", "muted", |t| t.output_const("audio", 0))
            .on("muted", "mute", "idle", |t| {
                t.output("audio", Expr::var("level"))
            })
            .build()
            .unwrap()
    }

    #[test]
    fn passing_script() {
        let m = machine();
        let outcome = TestScript::new("s")
            .inject(Event::plain("up"))
            .expect_var("level", 11)
            .expect_output("audio", 11)
            .inject(Event::plain("mute"))
            .expect_state("muted")
            .expect_output("audio", 0)
            .inject(Event::plain("mute"))
            .expect_state("idle")
            .expect_output("audio", 11)
            .run(&m);
        assert!(outcome.passed(), "{:?}", outcome.failures);
    }

    #[test]
    fn failing_expectation_reported_with_step() {
        let m = machine();
        let outcome = TestScript::new("s")
            .inject(Event::plain("up"))
            .expect_var("level", 99)
            .run(&m);
        assert!(!outcome.passed());
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].step, 1);
        assert!(outcome.failures[0].message.contains("level"));
    }

    #[test]
    fn missing_var_reported() {
        let m = machine();
        let outcome = TestScript::new("s").expect_var("ghost", 0).run(&m);
        assert!(outcome.failures[0].message.contains("missing"));
    }

    #[test]
    fn advance_steps_time() {
        let m = machine();
        let outcome = TestScript::new("s")
            .advance(SimDuration::from_millis(5))
            .advance(SimDuration::from_millis(5))
            .run(&m);
        assert!(outcome.passed());
    }

    #[test]
    fn failure_display() {
        let f = ScriptFailure {
            step: 2,
            time: SimTime::from_millis(1),
            message: "x".into(),
        };
        assert_eq!(f.to_string(), "step 2 at 1.000ms: x");
    }
}
