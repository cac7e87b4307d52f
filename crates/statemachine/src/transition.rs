//! Transitions, triggers and actions.

use crate::expr::Expr;
use crate::state::StateId;
use simkit::SimDuration;
use std::fmt;

/// What causes a transition to be considered.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// An event with this name.
    On(String),
    /// The source state has been continuously active for this long
    /// (Stateflow's `after(t)`).
    After(SimDuration),
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::On(name) => write!(f, "on {name}"),
            Trigger::After(d) => write!(f, "after {d}"),
        }
    }
}

/// A side effect of taking a transition or entering/exiting a state.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Assign the value of an expression to a model variable.
    Assign(String, Expr),
    /// Emit an internal event, processed in the same run-to-completion step.
    Emit(String, Option<Expr>),
    /// Produce an observable output value (what the comparator checks).
    Output(String, Expr),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Assign(v, _) => write!(f, "{v} := <expr>"),
            Action::Emit(e, _) => write!(f, "emit {e}"),
            Action::Output(o, _) => write!(f, "output {o}"),
        }
    }
}

/// A transition between states.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Source state (may be composite: fires while any descendant is
    /// active, like a Stateflow super-transition).
    pub source: StateId,
    /// Target state (descends into initial children if composite).
    pub target: StateId,
    /// What enables consideration of this transition.
    pub trigger: Trigger,
    /// Optional boolean guard.
    pub guard: Option<Expr>,
    /// Actions executed between exit and entry action sequences.
    pub actions: Vec<Action>,
}

impl Transition {
    /// Creates a guardless, action-less transition.
    pub fn new(source: StateId, trigger: Trigger, target: StateId) -> Self {
        Transition {
            source,
            target,
            trigger,
            guard: None,
            actions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_trigger() {
        assert_eq!(Trigger::On("up".into()).to_string(), "on up");
        assert_eq!(
            Trigger::After(SimDuration::from_millis(5)).to_string(),
            "after 5.000ms"
        );
    }

    #[test]
    fn new_transition_has_no_guard() {
        let t = Transition::new(StateId(0), Trigger::On("up".into()), StateId(1));
        assert!(t.guard.is_none());
        assert!(t.actions.is_empty());
    }
}
