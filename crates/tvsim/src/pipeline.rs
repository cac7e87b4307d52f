//! The streaming pipeline on the simulated SoC.
//!
//! Models the real-time half of the TV: per-frame decode and image
//! enhancement jobs on the platform's processors. Bad input signals
//! inflate decode cost through error correction — the overload scenario of
//! paper Sect. 4.5, where IMEC's task migration "leads to improved image
//! quality in case of overload situations (e.g., due to intensive error
//! correction on a bad input signal)".

use simkit::{Cpu, SimDuration, SimTime, TaskId};
use std::collections::BTreeMap;
use telemetry::Telemetry;

/// The decode task id.
pub const TASK_DECODE: TaskId = TaskId(0);
/// The image-enhancement task id.
pub const TASK_ENHANCE: TaskId = TaskId(1);
/// First id free for background/stress tasks.
pub const TASK_BACKGROUND_BASE: u32 = 100;

/// Pipeline timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Frame period (40 ms = 25 fps).
    pub frame_period: SimDuration,
    /// Decode cost per frame at perfect signal.
    pub decode_wcet: SimDuration,
    /// Enhancement cost per frame.
    pub enhance_wcet: SimDuration,
    /// Extra decode cost factor at worst signal: cost scales by
    /// `1 + factor * (1 - quality)`.
    pub error_correction_factor: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            frame_period: SimDuration::from_millis(40),
            decode_wcet: SimDuration::from_millis(14),
            enhance_wcet: SimDuration::from_millis(16),
            error_correction_factor: 1.6,
        }
    }
}

/// Per-run pipeline outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Frames processed.
    pub frames: u64,
    /// Frames with both decode and enhancement on time (full quality).
    pub full_quality: u64,
    /// Frames decoded on time but enhancement late (degraded).
    pub degraded: u64,
    /// Frames whose decode itself was late (visible artifacts).
    pub broken: u64,
    /// Mean frame quality in `[0, 1]`.
    pub mean_quality: f64,
    /// Utilization per processor.
    pub cpu_utilization: Vec<f64>,
}

/// A background (stress) task on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BackgroundTask {
    task: TaskId,
    cpu: usize,
    period: SimDuration,
    wcet: SimDuration,
    priority: u8,
}

/// The per-frame streaming pipeline over a set of processors.
///
/// ```
/// use tvsim::{StreamingPipeline, PipelineConfig};
///
/// let mut p = StreamingPipeline::new(2, PipelineConfig::default());
/// p.set_signal_quality(1.0);
/// let report = p.run_frames(100);
/// assert_eq!(report.full_quality, 100);
/// ```
#[derive(Debug)]
pub struct StreamingPipeline {
    cpus: Vec<Cpu>,
    config: PipelineConfig,
    /// Which processor runs decode / enhance.
    assignment: BTreeMap<TaskId, usize>,
    background: Vec<BackgroundTask>,
    signal_quality: f64,
    now: SimTime,
    last_frame_loads: Vec<f64>,
    frames_done: u64,
    quality_sum: f64,
    full: u64,
    degraded: u64,
    broken: u64,
    migrations: u64,
    telemetry: Telemetry,
}

impl StreamingPipeline {
    /// Creates a pipeline over `n_cpus` processors, with both tasks
    /// initially on processor 0 (the cost-constrained default mapping).
    ///
    /// # Panics
    ///
    /// Panics if `n_cpus` is zero.
    pub fn new(n_cpus: usize, config: PipelineConfig) -> Self {
        assert!(n_cpus > 0, "need at least one processor");
        let cpus = (0..n_cpus).map(|i| Cpu::new(format!("cpu{i}"))).collect();
        let mut assignment = BTreeMap::new();
        assignment.insert(TASK_DECODE, 0);
        assignment.insert(TASK_ENHANCE, 0);
        StreamingPipeline {
            cpus,
            config,
            assignment,
            background: Vec::new(),
            signal_quality: 1.0,
            now: SimTime::ZERO,
            last_frame_loads: vec![0.0; n_cpus],
            frames_done: 0,
            quality_sum: 0.0,
            full: 0,
            degraded: 0,
            broken: 0,
            migrations: 0,
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle. Frames and decode cost are recorded
    /// as metrics only (per-frame rate); broken frames and migrations are
    /// signal-level and also land in the flight recorder.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Sets the input signal quality (1.0 = perfect, 0.0 = worst).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn set_signal_quality(&mut self, q: f64) {
        assert!((0.0..=1.0).contains(&q), "quality must be in [0,1]");
        self.signal_quality = q;
    }

    /// The processor currently assigned to `task`.
    pub fn assignment_of(&self, task: TaskId) -> Option<usize> {
        self.assignment.get(&task).copied()
    }

    /// Migrates a pipeline task to another processor (the load-balancing
    /// recovery action). Pending jobs move with their remaining demand.
    ///
    /// # Panics
    ///
    /// Panics if `to_cpu` is out of range or the task is unknown.
    pub fn migrate_task(&mut self, task: TaskId, to_cpu: usize) {
        assert!(to_cpu < self.cpus.len(), "no such processor");
        let from = *self.assignment.get(&task).expect("unknown pipeline task");
        if from == to_cpu {
            return;
        }
        // Move queued jobs; bring both processors to a common time first.
        let now = self.now;
        self.cpus[from].advance_to(now);
        self.cpus[to_cpu].advance_to(now);
        let jobs = self.cpus[from].steal_task(task);
        for job in jobs {
            self.cpus[to_cpu].release(now, job.task, job.remaining, job.priority, job.deadline);
        }
        self.assignment.insert(task, to_cpu);
        self.migrations += 1;
        self.telemetry.count(now, "tvsim.pipeline.migrations", 1);
    }

    /// Task migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Adds a periodic background task (e.g. the CPU eater) to a
    /// processor. Returns its task id.
    pub fn add_background_task(
        &mut self,
        cpu: usize,
        period: SimDuration,
        wcet: SimDuration,
        priority: u8,
    ) -> TaskId {
        assert!(cpu < self.cpus.len(), "no such processor");
        let task = TaskId(TASK_BACKGROUND_BASE + self.background.len() as u32);
        self.background.push(BackgroundTask {
            task,
            cpu,
            period,
            wcet,
            priority,
        });
        task
    }

    /// Current mean load per processor (utilization so far).
    pub fn cpu_loads(&self) -> Vec<f64> {
        self.cpus.iter().map(|c| c.stats().utilization()).collect()
    }

    /// Per-processor load during the most recent frame — the windowed
    /// signal a load balancer reacts to.
    pub fn last_frame_loads(&self) -> &[f64] {
        &self.last_frame_loads
    }

    /// Simulated time so far.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Runs `n` frame periods, returning the cumulative report.
    pub fn run_frames(&mut self, n: u64) -> PipelineReport {
        for _ in 0..n {
            self.run_one_frame();
        }
        self.report()
    }

    fn decode_cost(&self) -> SimDuration {
        let inflate = 1.0 + self.config.error_correction_factor * (1.0 - self.signal_quality);
        self.config.decode_wcet.mul_f64(inflate)
    }

    fn run_one_frame(&mut self) {
        let start = self.now;
        let deadline = start + self.config.frame_period;
        let busy_before: Vec<_> = self.cpus.iter().map(|c| c.stats().busy).collect();
        // Release pipeline jobs.
        let dec_cpu = self.assignment[&TASK_DECODE];
        let enh_cpu = self.assignment[&TASK_ENHANCE];
        let decode_cost = self.decode_cost();
        self.cpus[dec_cpu].release(start, TASK_DECODE, decode_cost, 1, deadline);
        self.cpus[enh_cpu].release(start, TASK_ENHANCE, self.config.enhance_wcet, 2, deadline);
        // Release background jobs due within this frame.
        for b in self.background.clone() {
            let mut t = SimTime::ZERO;
            // Align to the task's own period grid.
            let k = start.as_nanos().div_ceil(b.period.as_nanos().max(1));
            t += SimDuration::from_nanos(k * b.period.as_nanos());
            let mut release = SimTime::from_nanos(t.as_nanos());
            while release < deadline {
                if release >= start {
                    self.cpus[b.cpu].release(
                        release,
                        b.task,
                        b.wcet,
                        b.priority,
                        release + b.period,
                    );
                }
                release += b.period;
            }
        }
        // Run the frame window.
        let mut decode_ok = false;
        let mut enhance_ok = false;
        for cpu in &mut self.cpus {
            for done in cpu.advance_to(deadline) {
                if done.task == TASK_DECODE && done.deadline_met {
                    decode_ok = true;
                }
                if done.task == TASK_ENHANCE && done.deadline_met {
                    enhance_ok = true;
                }
            }
        }
        // Late jobs from previous frames may still be queued; drop stale
        // pipeline jobs so lateness does not cascade unboundedly (frame
        // skipping, as real pipelines do).
        for cpu in &mut self.cpus {
            let stale: Vec<_> = [TASK_DECODE, TASK_ENHANCE]
                .iter()
                .flat_map(|t| cpu.steal_task(*t))
                .collect();
            drop(stale);
        }
        let quality = match (decode_ok, enhance_ok) {
            (true, true) => {
                self.full += 1;
                1.0
            }
            (true, false) => {
                self.degraded += 1;
                self.telemetry.metric_incr("tvsim.pipeline.degraded", 1);
                0.6
            }
            (false, _) => {
                self.broken += 1;
                self.telemetry.count(deadline, "tvsim.pipeline.broken", 1);
                0.2
            }
        };
        self.quality_sum += quality;
        self.frames_done += 1;
        self.telemetry.metric_incr("tvsim.pipeline.frames", 1);
        self.telemetry
            .observe_ns("tvsim.pipeline.decode_cost_ns", decode_cost.as_nanos());
        self.last_frame_loads = self
            .cpus
            .iter()
            .zip(&busy_before)
            .map(|(c, before)| (c.stats().busy - *before).ratio(self.config.frame_period))
            .collect();
        self.now = deadline;
    }

    /// The cumulative report.
    pub fn report(&self) -> PipelineReport {
        PipelineReport {
            frames: self.frames_done,
            full_quality: self.full,
            degraded: self.degraded,
            broken: self.broken,
            mean_quality: if self.frames_done == 0 {
                0.0
            } else {
                self.quality_sum / self.frames_done as f64
            },
            cpu_utilization: self.cpu_loads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_signal_single_cpu_fits() {
        // 14 + 16 = 30ms of work per 40ms frame: fits on one CPU.
        let mut p = StreamingPipeline::new(1, PipelineConfig::default());
        let r = p.run_frames(50);
        assert_eq!(r.full_quality, 50);
        assert_eq!(r.broken, 0);
        assert!((r.mean_quality - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bad_signal_overloads_single_cpu() {
        let mut p = StreamingPipeline::new(1, PipelineConfig::default());
        p.set_signal_quality(0.2);
        // decode = 14 * (1 + 1.6*0.8) = 31.9ms; + 16ms enhance > 40ms.
        let r = p.run_frames(50);
        assert!(r.full_quality < 10, "full={}", r.full_quality);
        assert!(r.mean_quality < 0.9);
    }

    #[test]
    fn migration_restores_quality_under_bad_signal() {
        let mut p = StreamingPipeline::new(2, PipelineConfig::default());
        p.set_signal_quality(0.2);
        let before = p.run_frames(50);
        assert!(before.mean_quality < 0.9);
        // Recovery: move enhancement to the second processor.
        p.migrate_task(TASK_ENHANCE, 1);
        let frames_before = p.report().frames;
        let after_total = p.run_frames(50);
        // Quality of the second window alone:
        let after_full = after_total.full_quality - before.full_quality;
        assert!(
            after_full >= 45,
            "full-quality frames after migration: {after_full}"
        );
        assert_eq!(p.migrations(), 1);
        assert_eq!(after_total.frames, frames_before + 50);
    }

    #[test]
    fn background_eater_degrades_pipeline() {
        let mut p = StreamingPipeline::new(1, PipelineConfig::default());
        // CPU eater: 20ms every 40ms at high priority.
        p.add_background_task(
            0,
            SimDuration::from_millis(40),
            SimDuration::from_millis(20),
            0,
        );
        let r = p.run_frames(50);
        assert!(r.full_quality < 10, "full={}", r.full_quality);
        // Without the eater the same processor serves every frame.
        let mut clean = StreamingPipeline::new(1, PipelineConfig::default());
        assert_eq!(clean.run_frames(50).full_quality, 50);
    }

    #[test]
    fn migrate_to_same_cpu_is_noop() {
        let mut p = StreamingPipeline::new(2, PipelineConfig::default());
        p.migrate_task(TASK_DECODE, 0);
        assert_eq!(p.migrations(), 0);
        assert_eq!(p.assignment_of(TASK_DECODE), Some(0));
    }

    #[test]
    fn loads_reflect_assignment() {
        let mut p = StreamingPipeline::new(2, PipelineConfig::default());
        p.migrate_task(TASK_ENHANCE, 1);
        p.run_frames(20);
        let loads = p.cpu_loads();
        assert!(loads[0] > 0.2 && loads[1] > 0.2);
        assert!(loads[0] < 1.0 && loads[1] < 1.0);
    }

    #[test]
    #[should_panic(expected = "no such processor")]
    fn migrate_out_of_range_panics() {
        let mut p = StreamingPipeline::new(1, PipelineConfig::default());
        p.migrate_task(TASK_DECODE, 5);
    }
}
