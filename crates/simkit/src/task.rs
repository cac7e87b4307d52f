//! Periodic real-time task specifications and schedulability analysis.
//!
//! The television platform runs hard real-time streaming work (decode,
//! scale, enhance, render) as periodic tasks on the SoC processors. This
//! module gives those tasks a first-class description and provides
//! classical fixed-priority response-time analysis as a development-time
//! check (the kind of analysis Sect. 4.7 of the paper places *during
//! development*).

use crate::time::SimDuration;
use std::fmt;

/// Identifier of a task within a [`TaskSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A periodic task: releases a job every `period`, each job needs `wcet`
/// processor time and must finish within `deadline` of its release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicTask {
    /// Task identity.
    pub id: TaskId,
    /// Human-readable name (e.g. `"video.decode"`).
    pub name: String,
    /// Release period.
    pub period: SimDuration,
    /// Worst-case execution time per job.
    pub wcet: SimDuration,
    /// Relative deadline (≤ period for the analyses here).
    pub deadline: SimDuration,
    /// Fixed priority; **lower value = higher priority**.
    pub priority: u8,
}

impl PeriodicTask {
    /// Creates a task with deadline equal to its period.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `wcet` is zero, or `wcet > period`.
    pub fn new(
        id: TaskId,
        name: impl Into<String>,
        period: SimDuration,
        wcet: SimDuration,
        priority: u8,
    ) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        assert!(!wcet.is_zero(), "wcet must be positive");
        assert!(wcet <= period, "wcet must not exceed period");
        PeriodicTask {
            id,
            name: name.into(),
            period,
            wcet,
            deadline: period,
            priority,
        }
    }

    /// Utilization `wcet / period`.
    pub fn utilization(&self) -> f64 {
        self.wcet.ratio(self.period)
    }
}

/// A set of periodic tasks sharing one processor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskSet {
    tasks: Vec<PeriodicTask>,
}

impl TaskSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Adds a task.
    ///
    /// # Panics
    ///
    /// Panics if a task with the same id is already present.
    pub fn push(&mut self, task: PeriodicTask) {
        assert!(
            !self.tasks.iter().any(|t| t.id == task.id),
            "duplicate task id {}",
            task.id
        );
        self.tasks.push(task);
    }

    /// Looks up a task by id.
    pub fn get(&self, id: TaskId) -> Option<&PeriodicTask> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Removes a task (used when migrating it to another processor).
    pub fn remove(&mut self, id: TaskId) -> Option<PeriodicTask> {
        let idx = self.tasks.iter().position(|t| t.id == id)?;
        Some(self.tasks.remove(idx))
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the set holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total utilization of the set.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(|t| t.utilization()).sum()
    }

    /// Exact fixed-priority response-time analysis (Joseph & Pandya).
    ///
    /// Returns per-task worst-case response times, or `None` for a task
    /// whose fixed-point iteration exceeds its deadline (unschedulable).
    /// Every task is taken as released at once (the critical instant).
    pub fn response_times(&self) -> Vec<(TaskId, Option<SimDuration>)> {
        let mut out = Vec::with_capacity(self.tasks.len());
        for task in &self.tasks {
            let higher: Vec<&PeriodicTask> = self
                .tasks
                .iter()
                .filter(|t| {
                    t.id != task.id
                        && (t.priority < task.priority
                            || (t.priority == task.priority && t.id < task.id))
                })
                .collect();
            let mut r = task.wcet;
            let result = loop {
                let mut interference = SimDuration::ZERO;
                for h in &higher {
                    // ceil(r / period) * wcet
                    let n = r.as_nanos().div_ceil(h.period.as_nanos());
                    interference += h.wcet * n;
                }
                let next = task.wcet + interference;
                if next > task.deadline {
                    break None;
                }
                if next == r {
                    break Some(r);
                }
                r = next;
            };
            out.push((task.id, result));
        }
        out
    }

    /// True if every task meets its deadline under the analysis of
    /// [`TaskSet::response_times`].
    pub fn is_schedulable(&self) -> bool {
        self.response_times().iter().all(|(_, r)| r.is_some())
    }
}

impl FromIterator<PeriodicTask> for TaskSet {
    fn from_iter<I: IntoIterator<Item = PeriodicTask>>(iter: I) -> Self {
        let mut set = TaskSet::new();
        for t in iter {
            set.push(t);
        }
        set
    }
}

impl Extend<PeriodicTask> for TaskSet {
    fn extend<I: IntoIterator<Item = PeriodicTask>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn task(id: u32, period: u64, wcet: u64, prio: u8) -> PeriodicTask {
        PeriodicTask::new(TaskId(id), format!("t{id}"), ms(period), ms(wcet), prio)
    }

    #[test]
    fn utilization_sums() {
        let set: TaskSet = [task(0, 10, 2, 0), task(1, 20, 5, 1)].into_iter().collect();
        assert!((set.utilization() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn rta_matches_textbook_example() {
        // Classic schedulable example: T1(7,3) T2(12,3) T3(20,5), RM.
        let set: TaskSet = [task(0, 7, 3, 0), task(1, 12, 3, 1), task(2, 20, 5, 2)]
            .into_iter()
            .collect();
        let rts = set.response_times();
        let get = |id: u32| rts.iter().find(|(t, _)| *t == TaskId(id)).unwrap().1;
        assert_eq!(get(0), Some(ms(3))); // highest prio: just its wcet
        assert_eq!(get(1), Some(ms(6))); // 3 + 3
        assert_eq!(get(2), Some(ms(20))); // fixed point 5 + 3*3 + 2*3 = 20
        assert!(set.is_schedulable());
    }

    #[test]
    fn rta_detects_unschedulable() {
        let set: TaskSet = [task(0, 10, 6, 0), task(1, 14, 9, 1)].into_iter().collect();
        assert!(!set.is_schedulable());
        let rts = set.response_times();
        assert!(rts.iter().any(|(_, r)| r.is_none()));
    }

    #[test]
    fn remove_returns_task() {
        let mut set: TaskSet = [task(0, 10, 1, 0), task(1, 20, 1, 1)].into_iter().collect();
        let t = set.remove(TaskId(0)).unwrap();
        assert_eq!(t.id, TaskId(0));
        assert_eq!(set.len(), 1);
        assert!(set.remove(TaskId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate task id")]
    fn duplicate_id_panics() {
        let mut set = TaskSet::new();
        set.push(task(0, 10, 1, 0));
        set.push(task(0, 20, 1, 1));
    }

    #[test]
    #[should_panic(expected = "wcet must not exceed period")]
    fn overfull_task_panics() {
        let _ = task(0, 10, 11, 0);
    }
}
