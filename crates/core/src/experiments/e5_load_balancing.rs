//! E5 — load balancing by task migration (paper Sect. 4.5).
//!
//! "Project partner IMEC has demonstrated the possibility to migrate an
//! image processing task from one processor to another, which leads to
//! improved image quality in case of overload situations (e.g., due to
//! intensive error correction on a bad input signal)."

use crate::report::{f2, render_table};
use recovery::LoadBalancer;
use std::fmt;
use tvsim::pipeline::TASK_ENHANCE;
use tvsim::{PipelineConfig, StreamingPipeline};

/// One phase's quality numbers for both strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct E5Row {
    /// Phase label.
    pub phase: String,
    /// Mean quality without load balancing.
    pub quality_static: f64,
    /// Mean quality with load balancing.
    pub quality_balanced: f64,
}

/// E5 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E5Report {
    /// Per-phase rows.
    pub rows: Vec<E5Row>,
    /// Migrations the balancer performed.
    pub migrations: u64,
}

impl fmt::Display for E5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E5 load balancing ({} migrations):", self.migrations)?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.phase.clone(),
                    f2(r.quality_static),
                    f2(r.quality_balanced),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["phase", "static quality", "balanced quality"], &rows)
        )
    }
}

/// Frames per phase.
const PHASE_FRAMES: u64 = 100;

fn phase_quality(p: &mut StreamingPipeline, balancer: Option<&mut LoadBalancer>) -> f64 {
    let before = p.report();
    let mut balancer = balancer;
    for _ in 0..PHASE_FRAMES {
        p.run_frames(1);
        if let Some(b) = balancer.as_deref_mut() {
            if let Some(decision) = b.check(p.last_frame_loads()) {
                // Migrate the image-processing (enhancement) task away
                // from the overloaded processor — IMEC's demonstration.
                if p.assignment_of(TASK_ENHANCE) == Some(decision.from) {
                    p.migrate_task(TASK_ENHANCE, decision.to);
                }
            }
        }
    }
    let after = p.report();
    (after.full_quality - before.full_quality) as f64 * 1.0 / PHASE_FRAMES as f64 * 1.0
        + (after.degraded - before.degraded) as f64 * 0.6 / PHASE_FRAMES as f64
        + (after.broken - before.broken) as f64 * 0.2 / PHASE_FRAMES as f64
}

fn run_strategy(balanced: bool) -> (Vec<f64>, u64) {
    let mut p = StreamingPipeline::new(2, PipelineConfig::default());
    let mut balancer = LoadBalancer::new(0.85, 0.6, 5);
    let mut qualities = Vec::new();
    // Phase 1: good signal.
    p.set_signal_quality(1.0);
    qualities.push(phase_quality(&mut p, balanced.then_some(&mut balancer)));
    // Phase 2: bad signal — error correction overloads CPU 0.
    p.set_signal_quality(0.2);
    qualities.push(phase_quality(&mut p, balanced.then_some(&mut balancer)));
    // Phase 3: signal recovers.
    p.set_signal_quality(1.0);
    qualities.push(phase_quality(&mut p, balanced.then_some(&mut balancer)));
    (qualities, p.migrations())
}

/// Runs E5: three signal phases, static vs balanced.
pub fn run() -> E5Report {
    let (static_q, _) = run_strategy(false);
    let (balanced_q, migrations) = run_strategy(true);
    let phases = ["good signal", "bad signal (overload)", "signal recovered"];
    E5Report {
        rows: phases
            .iter()
            .zip(static_q.iter().zip(&balanced_q))
            .map(|(phase, (s, b))| E5Row {
                phase: (*phase).to_owned(),
                quality_static: *s,
                quality_balanced: *b,
            })
            .collect(),
        migrations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_improves_overload_quality() {
        let report = run();
        assert!(report.migrations >= 1, "{report}");
        let overload = &report.rows[1];
        assert!(
            overload.quality_balanced > overload.quality_static + 0.2,
            "{report}"
        );
    }

    #[test]
    fn good_signal_phases_equal() {
        let report = run();
        let good = &report.rows[0];
        assert!(
            (good.quality_static - good.quality_balanced).abs() < 0.05,
            "{report}"
        );
        assert!(good.quality_static > 0.95);
    }
}
