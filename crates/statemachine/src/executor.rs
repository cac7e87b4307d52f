//! Run-to-completion execution of a machine on simulated time.
//!
//! The executor is the run-time form of the model: the Trader awareness
//! framework's *Model Executor* component (paper Fig. 2) wraps one of
//! these, feeding it observed input events and reading back expected
//! outputs for the comparator.
//!
//! ## Semantics
//!
//! * **Run-to-completion**: an injected event is processed fully —
//!   including internal events it emits and any `after(d)` transitions
//!   already due — before `step` returns.
//! * **Inner-first priority**: transitions whose source is the innermost
//!   active state win over ancestors'; among transitions from the same
//!   state, declaration order decides.
//! * **Timed transitions**: `after(d)` becomes enabled once its source
//!   state has been continuously active for `d`; [`Executor::advance_to`]
//!   fires due timers in chronological order.
//! * **Errors don't panic**: guard/action evaluation errors are recorded
//!   in [`Executor::errors`] and the offending guard treated as false /
//!   action skipped — a run-time monitor must never crash the monitored
//!   system.

use crate::event::Event;
use crate::expr::Vars;
use crate::machine::Machine;
use crate::state::StateId;
use crate::transition::{Action, Transition, Trigger};
use crate::value::Value;
use simkit::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// An observable output produced by the model.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputRecord {
    /// When the output was produced.
    pub time: SimTime,
    /// Declared output name.
    pub name: String,
    /// The produced value.
    pub value: Value,
}

/// Bound on chained internal events / due timed transitions per step, to
/// turn modeling livelocks into recorded errors instead of hangs.
const RTC_LIMIT: usize = 1_000;

/// Executes a [`Machine`] against simulated time.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone)]
pub struct Executor<'m> {
    machine: &'m Machine,
    now: SimTime,
    /// Active state chain, root first, leaf last.
    active: Vec<StateId>,
    entered_at: BTreeMap<StateId, SimTime>,
    vars: Vars,
    outputs: Vec<OutputRecord>,
    last_outputs: BTreeMap<String, Value>,
    internal: VecDeque<Event>,
    errors: Vec<String>,
    started: bool,
    steps: u64,
    /// Reusable entry-path buffer for [`Executor::fire`]; the executor
    /// sits on the awareness loop's per-press hot path, so transition
    /// firing must not allocate.
    path_scratch: Vec<StateId>,
}

impl<'m> Executor<'m> {
    /// Creates an executor for `machine`, not yet started.
    pub fn new(machine: &'m Machine) -> Self {
        Executor {
            machine,
            now: SimTime::ZERO,
            active: Vec::new(),
            entered_at: BTreeMap::new(),
            vars: machine.initial_vars().clone(),
            outputs: Vec::new(),
            last_outputs: BTreeMap::new(),
            internal: VecDeque::new(),
            errors: Vec::new(),
            started: false,
            steps: 0,
            path_scratch: Vec::new(),
        }
    }

    /// Current model time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of external events processed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Recorded evaluation errors (model bugs surfaced at run time).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Enters the initial configuration and settles due timed transitions.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "executor already started");
        self.started = true;
        let descent = self.machine.initial_descent(self.machine.initial());
        for id in descent {
            self.enter_single(id);
        }
        self.run_to_completion(None);
    }

    /// The active leaf state's name.
    ///
    /// # Panics
    ///
    /// Panics if the executor has not been started.
    pub fn active_leaf_name(&self) -> &str {
        let id = *self.active.last().expect("executor not started");
        &self.machine.state(id).name
    }

    /// Names of the active chain, root first.
    pub fn active_chain(&self) -> Vec<&str> {
        self.active
            .iter()
            .map(|id| self.machine.state(*id).name.as_str())
            .collect()
    }

    /// True if the named state is active (leaf or ancestor).
    pub fn is_active(&self, name: &str) -> bool {
        self.active
            .iter()
            .any(|id| self.machine.state(*id).name == name)
    }

    /// True while any active state is marked unstable
    /// ([`MachineBuilder::unstable`](crate::MachineBuilder::unstable)):
    /// the comparator should skip comparison.
    pub fn in_unstable_state(&self) -> bool {
        self.active
            .iter()
            .any(|id| !self.machine.state(*id).compare_enabled)
    }

    /// One variable's current value.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// The most recent value produced for an output.
    pub fn last_output(&self, name: &str) -> Option<&Value> {
        self.last_outputs.get(name)
    }

    /// All output records so far (in production order).
    pub fn outputs(&self) -> &[OutputRecord] {
        &self.outputs
    }

    /// Removes and returns the accumulated output records.
    pub fn drain_outputs(&mut self) -> Vec<OutputRecord> {
        std::mem::take(&mut self.outputs)
    }

    /// Moves the accumulated output records into `buf` (appending),
    /// keeping the internal buffer's capacity. The allocation-free twin
    /// of [`Executor::drain_outputs`] for callers that poll every step.
    pub fn drain_outputs_into(&mut self, buf: &mut Vec<OutputRecord>) {
        buf.append(&mut self.outputs);
    }

    /// Advances model time to `to`, firing due `after(d)` transitions in
    /// chronological order.
    ///
    /// # Panics
    ///
    /// Panics if `to` is before the current model time or the executor has
    /// not been started.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(self.started, "executor not started");
        assert!(to >= self.now, "model time cannot rewind");
        let machine = self.machine;
        while let Some((due, idx)) = self
            .timer_candidates()
            .min_by_key(|(due, idx)| (*due, *idx))
        {
            if due > to {
                break;
            }
            if due > self.now {
                self.now = due;
            }
            let tr = &machine.transitions()[idx];
            if self.guard_holds(tr, None) {
                self.fire(idx, None);
                self.run_to_completion(None);
            } else {
                // Guard false: the timer stays due but cannot fire; stop
                // processing timers to avoid spinning on it.
                break;
            }
        }
        if to > self.now {
            self.now = to;
        }
    }

    /// Injects an external event at the current model time and runs to
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics if the executor has not been started.
    pub fn step(&mut self, event: &Event) {
        assert!(self.started, "executor not started");
        self.steps += 1;
        if let Some(idx) = self.find_enabled(Some(event)) {
            self.fire(idx, Some(event));
        }
        self.run_to_completion(None);
    }

    /// Injects an event at an absolute time (advancing first).
    pub fn step_at(&mut self, at: SimTime, event: &Event) {
        self.advance_to(at);
        self.step(event);
    }

    /// When the next `after(d)` transition becomes due, if any — lets a
    /// host schedule a wake-up instead of polling.
    pub fn next_timer_due(&self) -> Option<SimTime> {
        self.earliest_due_or_future_timer()
    }

    // ---- internals -----------------------------------------------------

    fn earliest_due_or_future_timer(&self) -> Option<SimTime> {
        self.timer_candidates().map(|(due, _)| due).min()
    }

    /// All enabled-by-activity `after` transitions with their due times.
    fn timer_candidates(&self) -> impl Iterator<Item = (SimTime, usize)> + '_ {
        self.machine
            .transitions()
            .iter()
            .enumerate()
            .filter_map(move |(idx, tr)| match tr.trigger {
                Trigger::After(d) => {
                    if self.active.contains(&tr.source) {
                        let entered = *self.entered_at.get(&tr.source)?;
                        Some((entered + d, idx))
                    } else {
                        None
                    }
                }
                _ => None,
            })
    }

    fn guard_holds(&mut self, tr: &Transition, event: Option<&Event>) -> bool {
        match &tr.guard {
            None => true,
            Some(g) => match g.eval_bool(&self.vars, event) {
                Ok(b) => b,
                Err(e) => {
                    self.errors.push(format!(
                        "guard error on transition to {}: {e}",
                        self.machine.state(tr.target).name
                    ));
                    false
                }
            },
        }
    }

    /// Finds the highest-priority enabled transition for `event`
    /// (or a due-timer transition when `event` is `None`).
    fn find_enabled(&mut self, event: Option<&Event>) -> Option<usize> {
        let machine = self.machine;
        // Inner-first: walk active chain from leaf to root. Indexed to
        // keep `self` free for `guard_holds` without collecting the
        // chain — this runs several times per press in the awareness
        // loop and must not allocate.
        for depth in (0..self.active.len()).rev() {
            let state = self.active[depth];
            for (idx, tr) in machine.transitions().iter().enumerate() {
                if tr.source != state {
                    continue;
                }
                let triggered = match (&tr.trigger, event) {
                    (Trigger::On(name), Some(ev)) => name == &ev.name,
                    (Trigger::After(d), None) => {
                        // A due timer counts as enabled during RTC.
                        self.entered_at
                            .get(&tr.source)
                            .is_some_and(|t| *t + *d <= self.now)
                    }
                    _ => false,
                };
                if triggered && self.guard_holds(tr, event) {
                    return Some(idx);
                }
            }
        }
        None
    }

    fn enter_single(&mut self, id: StateId) {
        self.active.push(id);
        self.entered_at.insert(id, self.now);
        let machine = self.machine;
        for action in &machine.state(id).entry {
            self.run_action(action, None);
        }
    }

    fn exit_single(&mut self) {
        let Some(id) = self.active.pop() else { return };
        let machine = self.machine;
        for action in &machine.state(id).exit {
            self.run_action(action, None);
        }
        self.entered_at.remove(&id);
    }

    /// Fires transition `idx` triggered by `event`.
    fn fire(&mut self, idx: usize, event: Option<&Event>) {
        let machine = self.machine;
        let tr = &machine.transitions()[idx];

        // Scope: deepest proper ancestor common to source and target.
        // Walks parent links directly (machines are shallow) instead of
        // materializing the two ancestor chains.
        let lca = {
            let mut found = None;
            let mut a = machine.state(tr.source).parent;
            'src: while let Some(x) = a {
                let mut b = machine.state(tr.target).parent;
                while let Some(y) = b {
                    if x == y {
                        found = Some(x);
                        break 'src;
                    }
                    b = machine.state(y).parent;
                }
                a = machine.state(x).parent;
            }
            found
        };

        // Exit active states innermost-first down to (excluding) the LCA.
        while let Some(&top) = self.active.last() {
            if Some(top) == lca {
                break;
            }
            self.exit_single();
            if self.active.is_empty() {
                break;
            }
        }
        if lca.is_none() {
            // Exit everything (root scope).
            while !self.active.is_empty() {
                self.exit_single();
            }
        }

        // Transition actions between exits and entries.
        for action in &tr.actions {
            self.run_action(action, event);
        }

        // Entry path: from below the LCA down to the target, then the
        // target's initial descent. Reuses the scratch buffer so firing
        // never allocates after warm-up.
        let mut path = std::mem::take(&mut self.path_scratch);
        path.clear();
        let mut cur = Some(tr.target);
        while let Some(id) = cur {
            if Some(id) == lca {
                break;
            }
            path.push(id);
            cur = machine.state(id).parent;
        }
        path.reverse();
        for id in path.drain(..) {
            self.enter_single(id);
        }
        self.path_scratch = path;
        // Descend into initial children below the target.
        let mut child = machine.state(tr.target).initial_child();
        while let Some(id) = child {
            self.enter_single(id);
            child = machine.state(id).initial_child();
        }
    }

    /// Drains internal events and due timed transitions, bounded.
    fn run_to_completion(&mut self, _event: Option<&Event>) {
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > RTC_LIMIT {
                self.errors
                    .push("run-to-completion limit exceeded (model livelock?)".to_owned());
                self.internal.clear();
                return;
            }
            if let Some(ev) = self.internal.pop_front() {
                if let Some(idx) = self.find_enabled(Some(&ev)) {
                    self.fire(idx, Some(&ev));
                }
                continue;
            }
            if let Some(idx) = self.find_enabled(None) {
                self.fire(idx, None);
                continue;
            }
            break;
        }
    }

    fn run_action(&mut self, action: &Action, event: Option<&Event>) {
        match action {
            Action::Assign(var, expr) => match expr.eval(&self.vars, event) {
                Ok(v) => {
                    // Steady-state assigns overwrite in place; the key
                    // `String` is only cloned the first time a variable
                    // appears (hot-path: assigns run on every press).
                    if let Some(slot) = self.vars.get_mut(var) {
                        *slot = v;
                    } else {
                        self.vars.insert(var.clone(), v);
                    }
                }
                Err(e) => self.errors.push(format!("assign {var}: {e}")),
            },
            Action::Emit(name, payload) => {
                let payload = match payload {
                    None => None,
                    Some(expr) => match expr.eval(&self.vars, event) {
                        Ok(v) => Some(v),
                        Err(e) => {
                            self.errors.push(format!("emit {name}: {e}"));
                            None
                        }
                    },
                };
                self.internal.push_back(Event {
                    name: name.clone().into(),
                    payload,
                });
            }
            Action::Output(name, expr) => match expr.eval(&self.vars, event) {
                Ok(v) => {
                    // Same in-place discipline as assigns: the output
                    // name key is cloned only on first production.
                    if let Some(slot) = self.last_outputs.get_mut(name) {
                        slot.clone_from(&v);
                    } else {
                        self.last_outputs.insert(name.clone(), v.clone());
                    }
                    self.outputs.push(OutputRecord {
                        time: self.now,
                        name: name.clone(),
                        value: v,
                    });
                }
                Err(e) => self.errors.push(format!("output {name}: {e}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MachineBuilder;
    use crate::expr::Expr;
    use simkit::SimDuration;

    fn toggle() -> Machine {
        MachineBuilder::new("toggle")
            .state("off")
            .state("on")
            .initial("off")
            .output("light")
            .on("off", "press", "on", |t| t.output_const("light", 1))
            .on("on", "press", "off", |t| t.output_const("light", 0))
            .build()
            .unwrap()
    }

    #[test]
    fn start_enters_initial() {
        let m = toggle();
        let mut e = Executor::new(&m);
        e.start();
        assert_eq!(e.active_leaf_name(), "off");
        assert!(e.is_active("off"));
        assert!(!e.is_active("on"));
    }

    #[test]
    fn events_drive_transitions_and_outputs() {
        let m = toggle();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("press"));
        assert_eq!(e.active_leaf_name(), "on");
        assert_eq!(e.last_output("light"), Some(&Value::Int(1)));
        e.step(&Event::plain("press"));
        assert_eq!(e.active_leaf_name(), "off");
        assert_eq!(e.last_output("light"), Some(&Value::Int(0)));
        assert_eq!(e.outputs().len(), 2);
    }

    #[test]
    fn unknown_event_is_ignored() {
        let m = toggle();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("bogus"));
        assert_eq!(e.active_leaf_name(), "off");
        assert!(e.errors().is_empty());
    }

    #[test]
    fn guards_select_transitions() {
        let m = MachineBuilder::new("g")
            .state("a")
            .state("b")
            .state("c")
            .initial("a")
            .var("x", 1)
            .on("a", "go", "b", |t| t.guard(Expr::var("x").eq(Expr::lit(0))))
            .on("a", "go", "c", |t| t.guard(Expr::var("x").eq(Expr::lit(1))))
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("go"));
        assert_eq!(e.active_leaf_name(), "c");
    }

    #[test]
    fn payload_flows_into_actions() {
        let m = MachineBuilder::new("p")
            .state("a")
            .initial("a")
            .var("last", 0)
            .on("a", "digit", "a", |t| t.assign("last", Expr::Payload))
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::with_payload("digit", 7));
        assert_eq!(e.var("last"), Some(&Value::Int(7)));
    }

    #[test]
    fn hierarchy_enter_exits_run_in_order() {
        let m = MachineBuilder::new("h")
            .state("p")
            .child_state("p", "c1")
            .child_state("p", "c2")
            .child_initial("p", "c1")
            .state("q")
            .initial("p")
            .var("log", 0)
            .entry(
                "p",
                Action::Assign("log".into(), Expr::var("log").add(Expr::lit(1))),
            )
            .entry(
                "c1",
                Action::Assign("log".into(), Expr::var("log").mul(Expr::lit(10))),
            )
            .on("c1", "next", "c2", |t| t)
            .on("p", "leave", "q", |t| t)
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        // entry order: p (log=1) then c1 (log=10).
        assert_eq!(e.var("log"), Some(&Value::Int(10)));
        assert_eq!(e.active_chain(), vec!["p", "c1"]);
        e.step(&Event::plain("next"));
        assert_eq!(e.active_chain(), vec!["p", "c2"]);
        // Super-transition from composite fires while child active.
        e.step(&Event::plain("leave"));
        assert_eq!(e.active_chain(), vec!["q"]);
    }

    #[test]
    fn inner_transition_wins_over_outer() {
        let m = MachineBuilder::new("prio")
            .state("p")
            .child_state("p", "c")
            .child_initial("p", "c")
            .state("inner_target")
            .state("outer_target")
            .initial("p")
            .on("p", "e", "outer_target", |t| t)
            .on("c", "e", "inner_target", |t| t)
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("e"));
        assert_eq!(e.active_leaf_name(), "inner_target");
    }

    #[test]
    fn internal_events_chain_in_one_step() {
        let m = MachineBuilder::new("chain")
            .state("a")
            .state("b")
            .state("c")
            .initial("a")
            .on("a", "go", "b", |t| t.emit("hop"))
            .on("b", "hop", "c", |t| t)
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("go"));
        assert_eq!(e.active_leaf_name(), "c");
    }

    #[test]
    fn eventless_transitions_settle() {
        // A zero-delay timed transition is due the moment its source is
        // entered, so it settles within the step that entered it.
        let m = MachineBuilder::new("settle")
            .state("a")
            .state("b")
            .state("c")
            .initial("a")
            .var("x", 5)
            .on("a", "go", "b", |t| t)
            .after("b", SimDuration::ZERO, "c", |t| {
                t.guard(Expr::lit(0).lt(Expr::var("x")))
            })
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        assert_eq!(e.active_leaf_name(), "a"); // guard only checked in b
        e.step(&Event::plain("go"));
        assert_eq!(e.active_leaf_name(), "c");
    }

    #[test]
    fn livelock_is_detected_not_hung() {
        let m = MachineBuilder::new("livelock")
            .state("a")
            .state("b")
            .initial("a")
            .on("a", "ping", "b", |t| t.emit("pong"))
            .on("b", "pong", "a", |t| t.emit("ping"))
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("ping"));
        assert!(e
            .errors()
            .iter()
            .any(|s| s.contains("run-to-completion limit")));
    }

    #[test]
    fn after_fires_on_advance() {
        let m = MachineBuilder::new("timer")
            .state("arming")
            .state("fired")
            .initial("arming")
            .output("alarm")
            .after("arming", SimDuration::from_millis(50), "fired", |t| {
                t.output_const("alarm", 1)
            })
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        assert_eq!(e.next_timer_due(), Some(SimTime::from_millis(50)));
        e.advance_to(SimTime::from_millis(49));
        assert_eq!(e.active_leaf_name(), "arming");
        e.advance_to(SimTime::from_millis(100));
        assert_eq!(e.active_leaf_name(), "fired");
        // Output stamped at the due time, not the advance target.
        assert_eq!(e.outputs()[0].time, SimTime::from_millis(50));
    }

    #[test]
    fn timer_resets_on_reentry() {
        let m = MachineBuilder::new("reset")
            .state("idle")
            .state("wait")
            .state("done")
            .initial("idle")
            .on("idle", "go", "wait", |t| t)
            .on("wait", "cancel", "idle", |t| t)
            .after("wait", SimDuration::from_millis(10), "done", |t| t)
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("go"));
        e.advance_to(SimTime::from_millis(8));
        e.step(&Event::plain("cancel"));
        e.step(&Event::plain("go")); // timer restarts at t=8
        e.advance_to(SimTime::from_millis(12));
        assert_eq!(e.active_leaf_name(), "wait"); // only 4ms elapsed in wait
        e.advance_to(SimTime::from_millis(18));
        assert_eq!(e.active_leaf_name(), "done");
    }

    #[test]
    fn chained_timers_fire_in_order() {
        let m = MachineBuilder::new("chain")
            .state("a")
            .state("b")
            .state("c")
            .initial("a")
            .after("a", SimDuration::from_millis(5), "b", |t| t)
            .after("b", SimDuration::from_millis(5), "c", |t| t)
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        e.advance_to(SimTime::from_millis(100));
        assert_eq!(e.active_leaf_name(), "c");
    }

    #[test]
    fn self_transition_reenters() {
        let m = MachineBuilder::new("self")
            .state("a")
            .initial("a")
            .var("entries", 0)
            .entry(
                "a",
                Action::Assign("entries".into(), Expr::var("entries").add(Expr::lit(1))),
            )
            .on("a", "kick", "a", |t| t)
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        assert_eq!(e.var("entries"), Some(&Value::Int(1)));
        e.step(&Event::plain("kick"));
        assert_eq!(e.var("entries"), Some(&Value::Int(2)));
    }

    #[test]
    fn unstable_state_reported() {
        let m = MachineBuilder::new("u")
            .state("steady")
            .state("switching")
            .unstable("switching")
            .initial("steady")
            .on("steady", "switch", "switching", |t| t)
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        assert!(!e.in_unstable_state());
        e.step(&Event::plain("switch"));
        assert!(e.in_unstable_state());
    }

    #[test]
    fn guard_errors_are_recorded_not_fatal() {
        let m = MachineBuilder::new("err")
            .state("a")
            .state("b")
            .initial("a")
            .on("a", "go", "b", |t| {
                t.guard(Expr::var("missing").lt(Expr::lit(0)))
            })
            .build()
            .unwrap();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("go"));
        assert_eq!(e.active_leaf_name(), "a");
        assert_eq!(e.errors().len(), 1);
    }

    #[test]
    fn drain_outputs_empties_buffer() {
        let m = toggle();
        let mut e = Executor::new(&m);
        e.start();
        e.step(&Event::plain("press"));
        let drained = e.drain_outputs();
        assert_eq!(drained.len(), 1);
        assert!(e.outputs().is_empty());
        assert_eq!(e.last_output("light"), Some(&Value::Int(1)));
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let m = toggle();
        let mut e = Executor::new(&m);
        e.start();
        e.start();
    }
}
