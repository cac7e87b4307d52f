//! States of a hierarchical machine.

use crate::transition::Action;
use std::fmt;

/// Index of a state inside its [`Machine`](crate::Machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub usize);

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Whether a state is a leaf or contains children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateKind {
    /// A simple state.
    Leaf,
    /// A composite state; entering it descends into `initial`.
    Composite {
        /// The child entered by default.
        initial: StateId,
    },
}

/// One state of the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    /// This state's id (its index in the machine's state table).
    pub id: StateId,
    /// Unique name within the machine.
    pub name: String,
    /// Enclosing composite state, if any.
    pub parent: Option<StateId>,
    /// Leaf or composite.
    pub kind: StateKind,
    /// Actions executed on entry (outermost state first during descent).
    pub entry: Vec<Action>,
    /// Actions executed on exit (innermost state first during ascent).
    pub exit: Vec<Action>,
    /// When false, the awareness comparator suspends comparison while this
    /// state is active (the paper's "unstable state between certain modes").
    pub compare_enabled: bool,
}

impl State {
    /// The initial child for composites, `None` for leaves.
    pub fn initial_child(&self) -> Option<StateId> {
        match self.kind {
            StateKind::Composite { initial } => Some(initial),
            StateKind::Leaf => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_helpers() {
        let leaf = State {
            id: StateId(0),
            name: "a".into(),
            parent: None,
            kind: StateKind::Leaf,
            entry: vec![],
            exit: vec![],
            compare_enabled: true,
        };
        assert_eq!(leaf.initial_child(), None);

        let comp = State {
            kind: StateKind::Composite {
                initial: StateId(1),
            },
            ..leaf.clone()
        };
        assert_eq!(comp.initial_child(), Some(StateId(1)));
    }

    #[test]
    fn display_id() {
        assert_eq!(StateId(3).to_string(), "s3");
    }
}
