//! Wait-for-graph deadlock detection.
//!
//! The paper investigates "hardware-based deadlock detection" (Sect. 4.3).
//! The mechanism behind such hardware is a wait-for graph over resources
//! and requesters: a cycle means no participant can ever proceed.

use crate::detector::{Detector, ErrorEvent, ErrorSeverity};
use observe::Observation;
use simkit::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// A wait-for graph over named tasks.
///
/// An edge `a → b` means "a waits for a resource held by b".
///
/// ```
/// use detect::WaitForGraph;
/// let mut g = WaitForGraph::new();
/// g.add_wait("decoder", "mixer");
/// g.add_wait("mixer", "decoder");
/// let cycle = g.find_cycle().unwrap();
/// assert_eq!(cycle.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitForGraph {
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl WaitForGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `waiter` waits on `holder`.
    pub fn add_wait(&mut self, waiter: impl Into<String>, holder: impl Into<String>) {
        self.edges
            .entry(waiter.into())
            .or_default()
            .insert(holder.into());
    }

    /// Removes every edge involving `task` (the task was killed/restarted —
    /// the recovery action that breaks a deadlock).
    pub fn remove_task(&mut self, task: &str) {
        self.edges.remove(task);
        for set in self.edges.values_mut() {
            set.remove(task);
        }
        self.edges.retain(|_, set| !set.is_empty());
    }

    /// Finds a cycle if one exists, returned as the list of tasks on it.
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        // Iterative DFS with colors, deterministic order via BTreeMap.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: BTreeMap<&str, Color> = BTreeMap::new();
        for k in self.edges.keys() {
            color.insert(k, Color::White);
        }
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();

        fn dfs<'a>(
            node: &'a str,
            edges: &'a BTreeMap<String, BTreeSet<String>>,
            color: &mut BTreeMap<&'a str, Color>,
            parent: &mut BTreeMap<&'a str, &'a str>,
        ) -> Option<(&'a str, &'a str)> {
            color.insert(node, Color::Gray);
            if let Some(next) = edges.get(node) {
                for n in next {
                    match color.get(n.as_str()).copied().unwrap_or(Color::Black) {
                        Color::Gray => return Some((node, n.as_str())),
                        Color::White => {
                            parent.insert(n.as_str(), node);
                            if let Some(hit) = dfs(n.as_str(), edges, color, parent) {
                                return Some(hit);
                            }
                        }
                        Color::Black => {}
                    }
                }
            }
            color.insert(node, Color::Black);
            None
        }

        let roots: Vec<&str> = self.edges.keys().map(String::as_str).collect();
        for root in roots {
            if color.get(root) == Some(&Color::White) {
                if let Some((from, back_to)) = dfs(root, &self.edges, &mut color, &mut parent) {
                    // Walk parents from `from` back to `back_to`.
                    let mut cycle = vec![from.to_owned()];
                    let mut cur = from;
                    while cur != back_to {
                        cur = parent[cur];
                        cycle.push(cur.to_owned());
                    }
                    cycle.reverse();
                    return Some(cycle);
                }
            }
        }
        None
    }
}

/// A [`Detector`] wrapping a [`WaitForGraph`].
///
/// The host updates the graph through [`DeadlockDetector::graph_mut`]; each
/// `tick` searches for a cycle and raises a critical error (once per
/// distinct cycle occupancy).
#[derive(Debug, Clone, Default)]
pub struct DeadlockDetector {
    graph: WaitForGraph,
    last_reported: Option<Vec<String>>,
}

impl DeadlockDetector {
    /// Creates a detector with an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the wait-for graph.
    pub fn graph(&self) -> &WaitForGraph {
        &self.graph
    }

    /// Mutable access to the wait-for graph.
    pub fn graph_mut(&mut self) -> &mut WaitForGraph {
        &mut self.graph
    }
}

impl Detector for DeadlockDetector {
    fn observe(&mut self, _observation: &Observation) -> Vec<ErrorEvent> {
        Vec::new()
    }

    fn tick(&mut self, now: SimTime) -> Vec<ErrorEvent> {
        match self.graph.find_cycle() {
            None => {
                self.last_reported = None;
                Vec::new()
            }
            Some(cycle) => {
                if self.last_reported.as_ref() == Some(&cycle) {
                    return Vec::new();
                }
                let desc = format!("deadlock cycle: {}", cycle.join(" -> "));
                self.last_reported = Some(cycle);
                vec![ErrorEvent {
                    time: now,
                    detector: "deadlock".into(),
                    description: desc,
                    severity: ErrorSeverity::Critical,
                }]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_count(g: &WaitForGraph) -> usize {
        g.edges.values().map(|s| s.len()).sum()
    }

    #[test]
    fn no_cycle_in_dag() {
        let mut g = WaitForGraph::new();
        g.add_wait("a", "b");
        g.add_wait("b", "c");
        g.add_wait("a", "c");
        assert!(g.find_cycle().is_none());
        assert_eq!(edge_count(&g), 3);
    }

    #[test]
    fn two_cycle_found() {
        let mut g = WaitForGraph::new();
        g.add_wait("a", "b");
        g.add_wait("b", "a");
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&"a".to_owned()) && c.contains(&"b".to_owned()));
    }

    #[test]
    fn long_cycle_found_exactly() {
        let mut g = WaitForGraph::new();
        g.add_wait("a", "b");
        g.add_wait("b", "c");
        g.add_wait("c", "d");
        g.add_wait("d", "b");
        let c = g.find_cycle().unwrap();
        assert_eq!(c, vec!["b".to_owned(), "c".to_owned(), "d".to_owned()]);
    }

    #[test]
    fn self_wait_is_cycle() {
        let mut g = WaitForGraph::new();
        g.add_wait("a", "a");
        assert_eq!(g.find_cycle().unwrap(), vec!["a".to_owned()]);
    }

    #[test]
    fn killing_task_breaks_cycle() {
        let mut g = WaitForGraph::new();
        g.add_wait("a", "b");
        g.add_wait("b", "c");
        g.add_wait("c", "a");
        g.remove_task("b");
        assert!(g.find_cycle().is_none());
        assert_eq!(edge_count(&g), 1); // only c -> a remains
    }

    #[test]
    fn detector_reports_once_per_cycle() {
        let mut d = DeadlockDetector::new();
        d.graph_mut().add_wait("x", "y");
        d.graph_mut().add_wait("y", "x");
        let errs = d.tick(SimTime::from_millis(1));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].description.contains("deadlock cycle"));
        assert!(d.tick(SimTime::from_millis(2)).is_empty());
        // Break and re-create: reported again.
        d.graph_mut().remove_task("x");
        assert!(d.tick(SimTime::from_millis(3)).is_empty());
        d.graph_mut().add_wait("x", "y");
        d.graph_mut().add_wait("y", "x");
        assert_eq!(d.tick(SimTime::from_millis(4)).len(), 1);
    }
}
