//! Ergonomic construction of machines.

use crate::expr::Expr;
use crate::machine::Machine;
use crate::state::{State, StateId, StateKind};
use crate::transition::{Action, Transition, Trigger};
use crate::value::Value;
use simkit::SimDuration;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Errors detected while assembling a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Two states share a name.
    DuplicateState(String),
    /// A referenced state name does not exist.
    UnknownState {
        /// The missing name.
        name: String,
        /// Where it was referenced.
        context: &'static str,
    },
    /// No top-level initial state was declared.
    NoInitial,
    /// The top-level initial state has a parent.
    InitialNotTopLevel(String),
    /// A composite state lacks an initial child.
    CompositeWithoutInitial(String),
    /// A declared initial child is not a direct child of its composite.
    InitialNotChild {
        /// The composite state.
        parent: String,
        /// The declared (non-)child.
        child: String,
    },
    /// The machine declares no states.
    Empty,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateState(n) => write!(f, "duplicate state `{n}`"),
            BuildError::UnknownState { name, context } => {
                write!(f, "unknown state `{name}` referenced by {context}")
            }
            BuildError::NoInitial => write!(f, "no top-level initial state declared"),
            BuildError::InitialNotTopLevel(n) => {
                write!(f, "initial state `{n}` is not top-level")
            }
            BuildError::CompositeWithoutInitial(n) => {
                write!(f, "composite state `{n}` has no initial child")
            }
            BuildError::InitialNotChild { parent, child } => {
                write!(f, "`{child}` is not a direct child of `{parent}`")
            }
            BuildError::Empty => write!(f, "machine has no states"),
        }
    }
}

impl std::error::Error for BuildError {}

#[derive(Debug, Clone)]
struct PendingState {
    name: String,
    parent: Option<String>,
    entry: Vec<Action>,
    exit: Vec<Action>,
    compare_enabled: bool,
}

#[derive(Debug, Clone)]
struct PendingTransition {
    source: String,
    target: String,
    trigger: Trigger,
    guard: Option<Expr>,
    actions: Vec<Action>,
}

/// Configures one transition inside a [`MachineBuilder::on`]-style call.
#[derive(Debug, Default)]
pub struct TransitionBuilder {
    guard: Option<Expr>,
    actions: Vec<Action>,
}

impl TransitionBuilder {
    /// Adds a boolean guard.
    pub fn guard(mut self, guard: Expr) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Adds a variable assignment action.
    pub fn assign(mut self, var: impl Into<String>, value: Expr) -> Self {
        self.actions.push(Action::Assign(var.into(), value));
        self
    }

    /// Adds an internal-event emission.
    pub fn emit(mut self, event: impl Into<String>) -> Self {
        self.actions.push(Action::Emit(event.into(), None));
        self
    }

    /// Adds an observable-output action.
    pub fn output(mut self, name: impl Into<String>, value: Expr) -> Self {
        self.actions.push(Action::Output(name.into(), value));
        self
    }

    /// Adds an observable-output action with a constant value.
    pub fn output_const(self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.output(name, Expr::Const(value.into()))
    }
}

/// Builds a [`Machine`] from named states and transitions.
///
/// ```
/// use statemachine::{MachineBuilder, Expr, Value};
///
/// let m = MachineBuilder::new("volume")
///     .state("active")
///     .initial("active")
///     .var("level", Value::from(20))
///     .output("audio")
///     .on("active", "vol_up", "active", |t| {
///         t.assign("level", Expr::var("level").add(Expr::lit(1)).clamp(Expr::lit(0), Expr::lit(100)))
///          .output("audio", Expr::var("level"))
///     })
///     .build()?;
/// assert_eq!(m.states().len(), 1);
/// # Ok::<(), statemachine::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    name: String,
    states: Vec<PendingState>,
    transitions: Vec<PendingTransition>,
    child_initials: Vec<(String, String)>,
    initial: Option<String>,
    vars: BTreeMap<String, Value>,
    outputs: BTreeSet<String>,
}

impl MachineBuilder {
    /// Starts a builder for a machine called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        MachineBuilder {
            name: name.into(),
            states: Vec::new(),
            transitions: Vec::new(),
            child_initials: Vec::new(),
            initial: None,
            vars: BTreeMap::new(),
            outputs: BTreeSet::new(),
        }
    }

    fn push_state(mut self, name: String, parent: Option<String>) -> Self {
        self.states.push(PendingState {
            name,
            parent,
            entry: Vec::new(),
            exit: Vec::new(),
            compare_enabled: true,
        });
        self
    }

    /// Declares a top-level state.
    pub fn state(self, name: impl Into<String>) -> Self {
        self.push_state(name.into(), None)
    }

    /// Declares a state nested inside `parent`.
    pub fn child_state(self, parent: impl Into<String>, name: impl Into<String>) -> Self {
        self.push_state(name.into(), Some(parent.into()))
    }

    /// Declares which child a composite state enters by default.
    pub fn child_initial(mut self, parent: impl Into<String>, child: impl Into<String>) -> Self {
        self.child_initials.push((parent.into(), child.into()));
        self
    }

    /// Declares the top-level initial state.
    pub fn initial(mut self, name: impl Into<String>) -> Self {
        self.initial = Some(name.into());
        self
    }

    /// Declares a model variable with its initial value.
    pub fn var(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.vars.insert(name.into(), value.into());
        self
    }

    /// Declares an observable output.
    pub fn output(mut self, name: impl Into<String>) -> Self {
        self.outputs.insert(name.into());
        self
    }

    /// Adds an entry action to a state.
    pub fn entry(mut self, state: impl Into<String>, action: Action) -> Self {
        let state = state.into();
        if let Some(s) = self.states.iter_mut().find(|s| s.name == state) {
            s.entry.push(action);
        }
        self
    }

    /// Adds an exit action to a state.
    pub fn exit(mut self, state: impl Into<String>, action: Action) -> Self {
        let state = state.into();
        if let Some(s) = self.states.iter_mut().find(|s| s.name == state) {
            s.exit.push(action);
        }
        self
    }

    /// Marks a state as *unstable*: the comparator suspends comparison
    /// while it is active (paper Sect. 4.3).
    pub fn unstable(mut self, state: impl Into<String>) -> Self {
        let state = state.into();
        if let Some(s) = self.states.iter_mut().find(|s| s.name == state) {
            s.compare_enabled = false;
        }
        self
    }

    fn push_transition(
        mut self,
        source: String,
        trigger: Trigger,
        target: String,
        configure: impl FnOnce(TransitionBuilder) -> TransitionBuilder,
    ) -> Self {
        let tb = configure(TransitionBuilder::default());
        self.transitions.push(PendingTransition {
            source,
            target,
            trigger,
            guard: tb.guard,
            actions: tb.actions,
        });
        self
    }

    /// Adds an event-triggered transition.
    pub fn on(
        self,
        source: impl Into<String>,
        event: impl Into<String>,
        target: impl Into<String>,
        configure: impl FnOnce(TransitionBuilder) -> TransitionBuilder,
    ) -> Self {
        self.push_transition(
            source.into(),
            Trigger::On(event.into()),
            target.into(),
            configure,
        )
    }

    /// Adds a timed (`after(d)`) transition.
    pub fn after(
        self,
        source: impl Into<String>,
        delay: SimDuration,
        target: impl Into<String>,
        configure: impl FnOnce(TransitionBuilder) -> TransitionBuilder,
    ) -> Self {
        self.push_transition(
            source.into(),
            Trigger::After(delay),
            target.into(),
            configure,
        )
    }

    /// Assembles and structurally checks the machine.
    ///
    /// # Errors
    ///
    /// Returns the first [`BuildError`] found: duplicate or unknown state
    /// names, missing initial declarations, or an initial child that is not
    /// actually a child.
    pub fn build(self) -> Result<Machine, BuildError> {
        if self.states.is_empty() {
            return Err(BuildError::Empty);
        }
        // Name → id map, rejecting duplicates.
        let mut ids: BTreeMap<&str, StateId> = BTreeMap::new();
        for (i, st) in self.states.iter().enumerate() {
            if ids.insert(st.name.as_str(), StateId(i)).is_some() {
                return Err(BuildError::DuplicateState(st.name.clone()));
            }
        }
        let resolve = |name: &str, context: &'static str| -> Result<StateId, BuildError> {
            ids.get(name)
                .copied()
                .ok_or_else(|| BuildError::UnknownState {
                    name: name.to_owned(),
                    context,
                })
        };

        // Resolve states.
        let mut states = Vec::with_capacity(self.states.len());
        for (i, st) in self.states.iter().enumerate() {
            let parent = match &st.parent {
                Some(p) => Some(resolve(p, "child_state parent")?),
                None => None,
            };
            states.push(State {
                id: StateId(i),
                name: st.name.clone(),
                parent,
                kind: StateKind::Leaf, // fixed up below
                entry: st.entry.clone(),
                exit: st.exit.clone(),
                compare_enabled: st.compare_enabled,
            });
        }

        // Composite detection + initial children.
        let mut initial_children: BTreeMap<StateId, StateId> = BTreeMap::new();
        for (parent_name, child_name) in &self.child_initials {
            let parent = resolve(parent_name, "child_initial parent")?;
            let child = resolve(child_name, "child_initial")?;
            if states[child.0].parent != Some(parent) {
                return Err(BuildError::InitialNotChild {
                    parent: parent_name.clone(),
                    child: child_name.clone(),
                });
            }
            initial_children.insert(parent, child);
        }
        let has_children: Vec<bool> = (0..states.len())
            .map(|i| states.iter().any(|s| s.parent == Some(StateId(i))))
            .collect();
        for (i, st) in self.states.iter().enumerate() {
            if has_children[i] {
                let init_id = *initial_children
                    .get(&StateId(i))
                    .ok_or_else(|| BuildError::CompositeWithoutInitial(st.name.clone()))?;
                states[i].kind = StateKind::Composite { initial: init_id };
            }
        }

        // Top-level initial.
        let initial_name = self.initial.ok_or(BuildError::NoInitial)?;
        let initial = resolve(&initial_name, "initial")?;
        if states[initial.0].parent.is_some() {
            return Err(BuildError::InitialNotTopLevel(initial_name));
        }

        // Resolve transitions.
        let mut transitions = Vec::with_capacity(self.transitions.len());
        for tr in &self.transitions {
            let source = resolve(&tr.source, "transition source")?;
            let target = resolve(&tr.target, "transition target")?;
            transitions.push(Transition {
                source,
                target,
                trigger: tr.trigger.clone(),
                guard: tr.guard.clone(),
                actions: tr.actions.clone(),
            });
        }

        Ok(Machine {
            name: self.name,
            states,
            transitions,
            initial,
            vars: self.vars,
            outputs: self.outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_machine_builds() {
        let m = MachineBuilder::new("m")
            .state("a")
            .initial("a")
            .build()
            .unwrap();
        assert_eq!(m.states().len(), 1);
        assert_eq!(m.initial(), StateId(0));
    }

    #[test]
    fn duplicate_state_rejected() {
        let err = MachineBuilder::new("m")
            .state("a")
            .state("a")
            .initial("a")
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::DuplicateState("a".into()));
    }

    #[test]
    fn missing_initial_rejected() {
        let err = MachineBuilder::new("m").state("a").build().unwrap_err();
        assert_eq!(err, BuildError::NoInitial);
    }

    #[test]
    fn unknown_transition_target_rejected() {
        let err = MachineBuilder::new("m")
            .state("a")
            .initial("a")
            .on("a", "e", "zz", |t| t)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::UnknownState { .. }));
    }

    #[test]
    fn composite_needs_initial_child() {
        let err = MachineBuilder::new("m")
            .state("p")
            .child_state("p", "c")
            .initial("p")
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::CompositeWithoutInitial("p".into()));
    }

    #[test]
    fn initial_child_must_be_direct_child() {
        let err = MachineBuilder::new("m")
            .state("p")
            .state("q")
            .child_state("p", "c")
            .child_initial("p", "q")
            .initial("p")
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::InitialNotChild { .. }));
    }

    #[test]
    fn nested_initial_must_be_top_level() {
        let err = MachineBuilder::new("m")
            .state("p")
            .child_state("p", "c")
            .child_initial("p", "c")
            .initial("c")
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::InitialNotTopLevel("c".into()));
    }

    #[test]
    fn empty_machine_rejected() {
        assert_eq!(
            MachineBuilder::new("m").build().unwrap_err(),
            BuildError::Empty
        );
    }

    #[test]
    fn transition_builder_collects_parts() {
        let m = MachineBuilder::new("m")
            .state("a")
            .state("b")
            .initial("a")
            .var("x", 0)
            .output("y")
            .on("a", "go", "b", |t| {
                t.guard(Expr::var("x").ge(Expr::lit(0)))
                    .assign("x", Expr::lit(1))
                    .emit("internal")
                    .output_const("y", 5)
            })
            .build()
            .unwrap();
        let tr = &m.transitions()[0];
        assert!(tr.guard.is_some());
        assert_eq!(tr.actions.len(), 3);
    }

    #[test]
    fn unstable_flag_set() {
        let m = MachineBuilder::new("m")
            .state("a")
            .state("busy")
            .unstable("busy")
            .initial("a")
            .build()
            .unwrap();
        let state = |name: &str| m.states().iter().find(|s| s.name == name).unwrap();
        assert!(state("a").compare_enabled);
        assert!(!state("busy").compare_enabled);
    }

    #[test]
    fn error_display_strings() {
        assert_eq!(
            BuildError::DuplicateState("x".into()).to_string(),
            "duplicate state `x`"
        );
        assert_eq!(
            BuildError::NoInitial.to_string(),
            "no top-level initial state declared"
        );
    }
}
