//! A validated machine definition.

use crate::expr::Vars;
use crate::state::{State, StateId};
use crate::transition::Transition;

use std::collections::BTreeSet;

/// A complete hierarchical state machine definition.
///
/// Construct through [`MachineBuilder`](crate::MachineBuilder); the fields
/// are read-only afterwards so executor invariants (ids are table indices,
/// names unique) cannot be broken.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    pub(crate) name: String,
    pub(crate) states: Vec<State>,
    pub(crate) transitions: Vec<Transition>,
    pub(crate) initial: StateId,
    pub(crate) vars: Vars,
    pub(crate) outputs: BTreeSet<String>,
}

impl Machine {
    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All states; `StateId(i)` indexes this slice.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// All transitions, in declaration order (used for priority among
    /// simultaneously enabled transitions of the same source).
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The top-level initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Initial variable values.
    pub fn initial_vars(&self) -> &Vars {
        &self.vars
    }

    /// Declared output names.
    pub fn outputs(&self) -> &BTreeSet<String> {
        &self.outputs
    }

    /// The state with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (cannot happen for ids produced by
    /// this machine's builder).
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.0]
    }

    /// Iterates from `id` up through its ancestors to the root (inclusive
    /// of `id`).
    pub fn ancestors(&self, id: StateId) -> Vec<StateId> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(p) = self.state(cur).parent {
            chain.push(p);
            cur = p;
        }
        chain
    }

    /// True if `ancestor` is `state` or one of its ancestors.
    pub fn is_self_or_ancestor(&self, ancestor: StateId, state: StateId) -> bool {
        self.ancestors(state).contains(&ancestor)
    }

    /// The chain of initial children descending from `id` to a leaf,
    /// starting with `id` itself.
    pub fn initial_descent(&self, id: StateId) -> Vec<StateId> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(child) = self.state(cur).initial_child() {
            chain.push(child);
            cur = child;
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::MachineBuilder;

    #[test]
    fn ancestors_and_descent() {
        let m = MachineBuilder::new("m")
            .state("top")
            .child_state("top", "mid")
            .child_state("mid", "leaf")
            .child_initial("top", "mid")
            .child_initial("mid", "leaf")
            .initial("top")
            .build()
            .unwrap();
        let id = |name: &str| m.states().iter().find(|s| s.name == name).unwrap().id;
        let (top, mid, leaf) = (id("top"), id("mid"), id("leaf"));
        assert_eq!(m.name(), "m");
        assert_eq!(m.ancestors(leaf), vec![leaf, mid, top]);
        assert_eq!(m.initial_descent(top), vec![top, mid, leaf]);
        assert!(m.is_self_or_ancestor(top, leaf));
        assert!(m.is_self_or_ancestor(leaf, leaf));
        assert!(!m.is_self_or_ancestor(leaf, top));
    }
}
