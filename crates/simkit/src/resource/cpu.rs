//! A preemptive fixed-priority processor.
//!
//! The processor holds a set of released jobs and simulates their execution
//! between explicit `advance_to` calls: at any instant the highest-priority
//! ready job runs; releasing a higher-priority job preempts the current one
//! (preemption takes effect at the next `advance_to`, which is exact because
//! releases themselves only happen at event instants).
//!
//! Task stealing (`steal_task`, task migration) supports the
//! load-balancing recovery experiment (paper Sect. 4.5); per-task
//! statistics feed the overload and stress-test experiments (Sect. 4.7).

use crate::task::TaskId;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Identifier of a released job, unique per [`Cpu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// A job released onto a processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Job identity (assigned by [`Cpu::release`]).
    pub id: JobId,
    /// The task this job belongs to.
    pub task: TaskId,
    /// Remaining execution demand.
    pub remaining: SimDuration,
    /// Fixed priority; lower value = higher priority.
    pub priority: u8,
    /// Release instant.
    pub release: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
}

/// The outcome of a completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job that finished.
    pub id: JobId,
    /// Owning task.
    pub task: TaskId,
    /// Release instant.
    pub release: SimTime,
    /// Completion instant.
    pub completion: SimTime,
    /// Whether the absolute deadline was met.
    pub deadline_met: bool,
}

/// Aggregate statistics of one processor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpuStats {
    /// Completed jobs.
    pub completed: u64,
    /// Jobs that missed their deadline.
    pub deadline_misses: u64,
    /// Busy time (work delivered).
    pub busy: SimDuration,
    /// Total simulated time covered.
    pub elapsed: SimDuration,
}

impl CpuStats {
    /// Utilization: busy time over elapsed time.
    pub fn utilization(&self) -> f64 {
        self.busy.ratio(self.elapsed)
    }
}

/// A preemptive fixed-priority processor.
///
/// ```
/// use simkit::{Cpu, SimDuration, SimTime, TaskId};
///
/// let mut cpu = Cpu::new("cpu0");
/// cpu.release(
///     SimTime::ZERO,
///     TaskId(0),
///     SimDuration::from_millis(4),
///     1,
///     SimTime::from_millis(10),
/// );
/// let done = cpu.advance_to(SimTime::from_millis(10));
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].completion, SimTime::from_millis(4));
/// assert!(done[0].deadline_met);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    name: String,
    now: SimTime,
    ready: Vec<Job>,
    next_job: u64,
    stats: CpuStats,
}

impl Cpu {
    /// Creates an idle processor at time zero.
    pub fn new(name: impl Into<String>) -> Self {
        Cpu {
            name: name.into(),
            now: SimTime::ZERO,
            ready: Vec::new(),
            next_job: 0,
            stats: CpuStats::default(),
        }
    }

    /// The processor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The processor's local notion of now (last advance).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Number of ready (released, unfinished) jobs.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Releases a job at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the processor's local time, or `demand` is
    /// zero.
    pub fn release(
        &mut self,
        now: SimTime,
        task: TaskId,
        demand: SimDuration,
        priority: u8,
        deadline: SimTime,
    ) -> JobId {
        assert!(now >= self.now, "release in the past");
        assert!(!demand.is_zero(), "job demand must be positive");
        // Bring the processor up to the release instant first.
        let _ = self.advance_to(now);
        let id = JobId(self.next_job);
        self.next_job += 1;
        let job = Job {
            id,
            task,
            remaining: demand,
            priority,
            release: now,
            deadline,
        };
        self.ready.push(job);
        id
    }

    fn highest_index(&self) -> Option<usize> {
        self.ready
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| (j.priority, j.id))
            .map(|(i, _)| i)
    }

    /// Removes all ready jobs of `task` (migrating a whole task). The jobs
    /// keep their remaining demand; the caller re-releases them elsewhere.
    pub fn steal_task(&mut self, task: TaskId) -> Vec<Job> {
        let (taken, kept): (Vec<Job>, Vec<Job>) =
            self.ready.drain(..).partition(|j| j.task == task);
        self.ready = kept;
        taken
    }

    /// Drops every ready job (processor reset during recovery).
    pub fn flush(&mut self) -> usize {
        let n = self.ready.len();
        self.ready.clear();
        n
    }

    /// Simulates execution up to `to`, returning jobs that completed (in
    /// completion order).
    ///
    /// # Panics
    ///
    /// Panics if `to` is before the processor's local time.
    pub fn advance_to(&mut self, to: SimTime) -> Vec<JobOutcome> {
        assert!(
            to >= self.now,
            "cpu cannot rewind: now={} to={}",
            self.now,
            to
        );
        let mut done = Vec::new();
        while self.now < to {
            let Some(idx) = self.highest_index() else {
                // Idle until `to`.
                self.stats.elapsed += to.since(self.now);
                self.now = to;
                break;
            };
            let window = to.since(self.now);
            let job_remaining = self.ready[idx].remaining;
            if window >= job_remaining {
                // Job completes inside the window.
                self.now += job_remaining;
                self.stats.busy += job_remaining;
                self.stats.elapsed += job_remaining;
                let job = self.ready.remove(idx);
                let outcome = JobOutcome {
                    id: job.id,
                    task: job.task,
                    release: job.release,
                    completion: self.now,
                    deadline_met: self.now <= job.deadline,
                };
                self.record_completion(&outcome);
                done.push(outcome);
            } else {
                // Window ends mid-job.
                self.ready[idx].remaining = job_remaining - window;
                self.stats.busy += window;
                self.stats.elapsed += window;
                self.now = to;
            }
        }
        done
    }

    fn record_completion(&mut self, outcome: &JobOutcome) {
        self.stats.completed += 1;
        if !outcome.deadline_met {
            self.stats.deadline_misses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut cpu = Cpu::new("c");
        cpu.release(SimTime::ZERO, TaskId(0), ms(5), 0, at(100));
        let done = cpu.advance_to(at(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].completion, at(5));
        assert!(done[0].deadline_met);
        assert!((cpu.stats().utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn preemption_by_higher_priority() {
        let mut cpu = Cpu::new("c");
        cpu.release(SimTime::ZERO, TaskId(0), ms(10), 5, at(100));
        // Let low-prio run 3ms, then release high-prio.
        cpu.advance_to(at(3));
        cpu.release(at(3), TaskId(1), ms(2), 1, at(100));
        let done = cpu.advance_to(at(20));
        assert_eq!(done.len(), 2);
        // High-prio completes first at 5ms, low-prio resumes, done at 12ms.
        assert_eq!(done[0].task, TaskId(1));
        assert_eq!(done[0].completion, at(5));
        assert_eq!(done[1].task, TaskId(0));
        assert_eq!(done[1].completion, at(12));
    }

    #[test]
    fn equal_priority_breaks_by_job_id() {
        let mut cpu = Cpu::new("c");
        cpu.release(SimTime::ZERO, TaskId(0), ms(2), 3, at(100));
        cpu.release(SimTime::ZERO, TaskId(1), ms(2), 3, at(100));
        let done = cpu.advance_to(at(10));
        assert_eq!(done[0].task, TaskId(0));
        assert_eq!(done[1].task, TaskId(1));
    }

    #[test]
    fn deadline_miss_is_recorded() {
        let mut cpu = Cpu::new("c");
        cpu.release(SimTime::ZERO, TaskId(0), ms(5), 0, at(3));
        let done = cpu.advance_to(at(10));
        assert!(!done[0].deadline_met);
        assert_eq!(cpu.stats().deadline_misses, 1);
        assert_eq!(cpu.stats().completed, 1);
    }

    #[test]
    fn next_completion_predicts_exactly() {
        // A window that ends mid-job leaves the completion instant as if
        // the job had run uninterrupted.
        let mut cpu = Cpu::new("c");
        cpu.release(SimTime::ZERO, TaskId(0), ms(7), 0, at(100));
        assert!(cpu.advance_to(at(2)).is_empty());
        assert_eq!(cpu.ready[0].remaining, ms(5));
        let done = cpu.advance_to(at(100));
        assert_eq!(done[0].completion, at(7));
    }

    #[test]
    fn steal_job_preserves_remaining() {
        let mut cpu = Cpu::new("c");
        cpu.release(SimTime::ZERO, TaskId(0), ms(10), 0, at(100));
        cpu.advance_to(at(4));
        let jobs = cpu.steal_task(TaskId(0));
        assert_eq!(jobs[0].remaining, ms(6));
        assert_eq!(cpu.ready_count(), 0);
        // Stolen jobs are not completions.
        assert_eq!(cpu.stats().completed, 0);
    }

    #[test]
    fn steal_task_takes_all_jobs_of_task() {
        let mut cpu = Cpu::new("c");
        cpu.release(SimTime::ZERO, TaskId(7), ms(1), 0, at(100));
        cpu.release(SimTime::ZERO, TaskId(7), ms(1), 0, at(100));
        cpu.release(SimTime::ZERO, TaskId(8), ms(1), 0, at(100));
        let taken = cpu.steal_task(TaskId(7));
        assert_eq!(taken.len(), 2);
        assert_eq!(cpu.ready_count(), 1);
    }

    #[test]
    fn overload_accumulates_backlog() {
        let mut cpu = Cpu::new("c");
        // 2ms of work every 1ms: backlog grows.
        for k in 0..10u64 {
            cpu.release(at(k), TaskId(0), ms(2), 0, at(k + 1));
        }
        cpu.advance_to(at(10));
        let backlog = cpu
            .ready
            .iter()
            .fold(SimDuration::ZERO, |acc, j| acc + j.remaining);
        assert!(backlog >= ms(9));
        assert!((cpu.stats().utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_time_counts_in_elapsed_not_busy() {
        let mut cpu = Cpu::new("c");
        cpu.advance_to(at(10));
        assert_eq!(cpu.stats().busy, SimDuration::ZERO);
        assert_eq!(cpu.stats().elapsed, ms(10));
        assert_eq!(cpu.stats().utilization(), 0.0);
    }

    #[test]
    fn flush_discards_ready_jobs() {
        let mut cpu = Cpu::new("c");
        cpu.release(SimTime::ZERO, TaskId(0), ms(5), 0, at(100));
        cpu.release(SimTime::ZERO, TaskId(1), ms(5), 0, at(100));
        assert_eq!(cpu.flush(), 2);
        let done = cpu.advance_to(at(10));
        assert!(done.is_empty());
    }
}
