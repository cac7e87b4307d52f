//! The injector: schedules × fault descriptors, with edge reporting.

use crate::schedule::Schedule;
use simkit::SimTime;

/// A fault-activation edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transition<F> {
    /// The fault became active.
    Activated(F),
    /// The fault became inactive.
    Deactivated(F),
}

/// Manages a set of scheduled faults of descriptor type `F` (e.g.
/// `tvsim::TvFault`), reporting activation edges so the harness can apply
/// and clear them on the SUO.
///
/// ```
/// use faults::injector::Transition;
/// use faults::{Injector, Schedule};
/// use simkit::SimTime;
///
/// let mut inj: Injector<&str> = Injector::new();
/// inj.add(Schedule::From { at: SimTime::from_millis(10) }, "teletext-fault");
/// assert!(inj.poll(SimTime::from_millis(5), 0).is_empty());
/// let edges = inj.poll(SimTime::from_millis(10), 0);
/// assert_eq!(edges, vec![Transition::Activated("teletext-fault")]);
/// ```
#[derive(Debug, Clone)]
pub struct Injector<F> {
    entries: Vec<(Schedule, F, bool)>,
}

impl<F> Default for Injector<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F> Injector<F> {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Injector {
            entries: Vec::new(),
        }
    }
}

impl<F: Clone + PartialEq> Injector<F> {
    /// Adds a scheduled fault.
    pub fn add(&mut self, schedule: Schedule, fault: F) {
        self.entries.push((schedule, fault, false));
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Re-evaluates schedules at `(now, events)`; returns the edges.
    pub fn poll(&mut self, now: SimTime, events: u64) -> Vec<Transition<F>> {
        let mut edges = Vec::new();
        for (schedule, fault, active) in &mut self.entries {
            let want = schedule.is_active(now, events);
            if want != *active {
                *active = want;
                edges.push(if want {
                    Transition::Activated(fault.clone())
                } else {
                    Transition::Deactivated(fault.clone())
                });
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    #[test]
    fn edges_fire_once_per_change() {
        let mut inj: Injector<u32> = Injector::new();
        inj.add(
            Schedule::Between {
                from: SimTime::from_millis(10),
                to: SimTime::from_millis(20),
            },
            7,
        );
        assert!(inj.poll(SimTime::from_millis(5), 0).is_empty());
        assert_eq!(
            inj.poll(SimTime::from_millis(12), 0),
            vec![Transition::Activated(7)]
        );
        assert!(inj.poll(SimTime::from_millis(15), 0).is_empty());
        assert_eq!(
            inj.poll(SimTime::from_millis(25), 0),
            vec![Transition::Deactivated(7)]
        );
    }

    #[test]
    fn multiple_faults_tracked_independently() {
        let mut inj: Injector<&str> = Injector::new();
        inj.add(Schedule::Always, "a");
        inj.add(
            Schedule::From {
                at: SimTime::from_secs(60),
            },
            "b",
        );
        inj.add(
            Schedule::Periodic {
                period: SimDuration::from_millis(10),
                duty: SimDuration::from_millis(5),
            },
            "c",
        );
        let edges = inj.poll(SimTime::ZERO, 0);
        assert_eq!(
            edges,
            vec![Transition::Activated("a"), Transition::Activated("c")]
        );
        let edges = inj.poll(SimTime::from_millis(6), 0);
        assert_eq!(edges, vec![Transition::Deactivated("c")]);
        assert_eq!(inj.len(), 3);
        assert!(!inj.is_empty());
    }
}
