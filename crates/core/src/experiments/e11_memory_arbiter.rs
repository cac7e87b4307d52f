//! E11 — adaptive memory arbitration (paper Sect. 4.5).
//!
//! "NXP Research investigates the possibility to make memory arbitration
//! more flexible such that it can be adapted at run-time to deal with
//! problems concerning memory access."

use crate::report::{f2, render_table};
use recovery::AdaptiveArbiter;
use simkit::resource::PortId;
use simkit::{MemoryArbiter, MemoryRequest, SimDuration, SimTime, SlotTable};
use std::fmt;

/// One phase's latency numbers for both strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct E11Row {
    /// Phase label.
    pub phase: String,
    /// Victim port mean latency, static table (µs).
    pub latency_static_us: f64,
    /// Victim port mean latency, adaptive table (µs).
    pub latency_adaptive_us: f64,
}

/// E11 report.
#[derive(Debug, Clone, PartialEq)]
pub struct E11Report {
    /// Per-phase rows.
    pub rows: Vec<E11Row>,
    /// Reconfigurations the adaptive policy performed.
    pub reconfigurations: u64,
}

impl fmt::Display for E11Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E11 adaptive memory arbitration ({} reconfigurations):",
            self.reconfigurations
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.phase.clone(),
                    f2(r.latency_static_us),
                    f2(r.latency_adaptive_us),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &["phase", "static latency (µs)", "adaptive latency (µs)"],
                &rows
            )
        )
    }
}

const VIDEO: PortId = PortId(0);
const CPU: PortId = PortId(1);
const SLOT: SimDuration = SimDuration::from_micros(10);

/// Runs one strategy over two phases; returns per-phase mean latency of
/// the video port and the reconfiguration count.
fn run_strategy(adaptive: bool) -> (Vec<f64>, u64) {
    let ports = [VIDEO, CPU];
    let mut policy = AdaptiveArbiter::new(&ports, 6);
    policy.set_target(VIDEO, SimDuration::from_micros(40));
    let mut arbiter = MemoryArbiter::new(SlotTable::round_robin(&ports), SLOT);

    let mut phase_latencies = Vec::new();
    for (phase, video_bursts) in [(0u64, 1u32), (1u64, 3u32)] {
        // Phase 1: HD video needs 3 bursts per request (more bandwidth).
        let mut sum = SimDuration::ZERO;
        let mut n = 0u64;
        for k in 0..200u64 {
            let now = SimTime::from_micros(phase * 20_000 + k * 100);
            let done = arbiter.request(
                now,
                MemoryRequest {
                    port: VIDEO,
                    bursts: video_bursts,
                },
            );
            sum += done.since(now);
            n += 1;
            arbiter.request(
                now,
                MemoryRequest {
                    port: CPU,
                    bursts: 1,
                },
            );
            if adaptive && k % 20 == 19 {
                policy.adapt(&mut arbiter);
            }
        }
        phase_latencies.push((sum / n).as_micros_f64());
    }
    (phase_latencies, arbiter.reconfigurations())
}

/// Runs E11: SD phase then HD phase, static vs adaptive.
pub fn run() -> E11Report {
    let (static_lat, _) = run_strategy(false);
    let (adaptive_lat, reconfigurations) = run_strategy(true);
    let phases = ["SD stream (1 burst)", "HD stream (3 bursts)"];
    E11Report {
        rows: phases
            .iter()
            .zip(static_lat.iter().zip(&adaptive_lat))
            .map(|(phase, (s, a))| E11Row {
                phase: (*phase).to_owned(),
                latency_static_us: *s,
                latency_adaptive_us: *a,
            })
            .collect(),
        reconfigurations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_cuts_hd_latency() {
        let report = run();
        assert!(report.reconfigurations >= 1, "{report}");
        let hd = &report.rows[1];
        assert!(
            hd.latency_adaptive_us < hd.latency_static_us * 0.8,
            "{report}"
        );
    }

    #[test]
    fn sd_phase_comparable() {
        let report = run();
        let sd = &report.rows[0];
        // The SD phase may already trigger a boost; adaptive must never be
        // worse.
        assert!(
            sd.latency_adaptive_us <= sd.latency_static_us + 1.0,
            "{report}"
        );
    }
}
