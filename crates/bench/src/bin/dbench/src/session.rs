//! The session workloads: `steady-session` and `fault-storm`.
//!
//! Both are closed loops driven by one thread: the next session starts
//! only when the previous one has returned, and presses inside a
//! session follow the simulated clock, so host time per press is the
//! cost of the loop itself.

use trader::faults::Schedule;
use trader::simkit::{SimDuration, SimRng, SimTime};
use trader::tvsim::TvFault;
use trader::{LoopOutcome, TimedScenario};

use crate::phase::{self, Sample};
use crate::press::{trace_session, PressCounts, SessionConfig};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::Args;

/// Presses per `steady-session` session.
const STEADY_PRESSES: usize = 2_000;
/// Presses per `fault-storm` session.
const STORM_PRESSES: usize = 500;
/// Distinct `fault-storm` sessions; the measured phase cycles through them.
const STORM_SESSIONS: usize = 24;
/// The fault classes `chaos::campaign` draws from: the ones the loop can
/// repair (sync loss, mute inversion, render fault) or only detect
/// (stuck volume, channel skip).
const STORM_FAULTS: [TvFault; 5] = [
    TvFault::TeletextSyncLoss,
    TvFault::MuteInversion,
    TvFault::StuckVolume,
    TvFault::ChannelSkip,
    TvFault::TeletextRenderFault,
];
/// Fault density: every session schedules each class once, active for
/// this long at a seed-drawn offset inside the 50 s session.
const STORM_WINDOW: SimDuration = SimDuration::from_secs(8);

/// The press replica's spans: span name, per-layer metric, and whether
/// the layer reports allocations. The press span's self time is the
/// loop's own glue.
const PRESS_LAYERS: [(&str, &str, bool); 11] = [
    ("faults.poll", "faults.poll", false),
    ("tvsim.press", "tvsim.press", true),
    ("tvsim.take_coverage", "tvsim.take_coverage", true),
    ("tvsim.repair", "tvsim.repair", false),
    ("statemachine.step", "statemachine.step", true),
    ("awareness.offer", "awareness.offer", true),
    ("awareness.advance", "awareness.advance", true),
    ("awareness.drain", "awareness.drain", true),
    ("detect.observe", "detect.observe", false),
    ("spectra.record", "spectra.record", true),
    ("core.press", "core.glue", true),
];

/// The generated sessions of one workload.
#[derive(Debug)]
pub struct SessionInputs {
    pub sessions: Vec<(TimedScenario, SessionConfig)>,
    /// Sessions per measured unit.
    pub per_unit: usize,
    /// True when every session must stay healthy (no failure, no
    /// detection).
    pub healthy: bool,
}

/// `steady-session`: one healthy session of each kind per round, in a
/// seed-rotated order, with seed-derived loop seeds.
pub fn steady_inputs(seed: u64, presses: usize) -> SessionInputs {
    let kinds: [fn(usize) -> TimedScenario; 3] = [
        TimedScenario::full_mix_session,
        TimedScenario::teletext_session,
        TimedScenario::zapping_session,
    ];
    let mut rng = SimRng::seed(seed ^ 0x5354_4541_4459);
    let rotation = (seed % 3) as usize;
    let sessions = (0..kinds.len())
        .map(|j| {
            let scenario = kinds[(j + rotation) % kinds.len()](presses);
            (
                scenario,
                SessionConfig::healthy(rng.uniform_u64(0, u64::MAX)),
            )
        })
        .collect();
    SessionInputs {
        sessions,
        per_unit: kinds.len(),
        healthy: true,
    }
}

/// `fault-storm`: `sessions` full-mix sessions, each with every fault
/// class in a seed-drawn window, over reliable lossy supervised
/// channels with online diagnosis.
pub fn fault_storm_inputs(seed: u64, sessions: usize, presses: usize) -> SessionInputs {
    let scenario = TimedScenario::full_mix_session(presses);
    let horizon = SimTime::from_millis(100 * (presses as u64 + 1));
    let window = STORM_WINDOW.min(SimDuration::from_millis(50 * presses as u64));
    let mut rng = SimRng::seed(seed ^ 0x5354_4f52_4d00);
    let sessions = (0..sessions)
        .map(|_| {
            let faults = STORM_FAULTS
                .iter()
                .map(|&fault| (Schedule::random_window(horizon, window, &mut rng), fault))
                .collect();
            let config = SessionConfig {
                seed: rng.uniform_u64(0, u64::MAX),
                faults,
                jitter: SimDuration::from_micros(1_500),
                loss: 0.1,
                reliable: true,
                supervised: true,
                diagnose_top_k: Some(32),
            };
            (scenario.clone(), config)
        })
        .collect();
    SessionInputs {
        sessions,
        per_unit: 1,
        healthy: false,
    }
}

fn run_session((scenario, config): &(TimedScenario, SessionConfig)) -> LoopOutcome {
    config.build_loop().run(scenario)
}

/// Checks one session's outcome: it processed every press with a
/// conserved channel audit, stayed healthy where required, and equals
/// every earlier run of the same session.
fn check_session(
    report: &mut Report,
    inputs: &SessionInputs,
    index: usize,
    outcome: Option<LoopOutcome>,
    first: &mut [Option<LoopOutcome>],
) {
    let Some(outcome) = outcome else {
        report.check(false, || format!("session {index} panicked"));
        return;
    };
    let presses = inputs.sessions[index].0.len();
    let mut ok = outcome.steps == presses && outcome.channels.is_some_and(|c| c.conserved());
    if inputs.healthy {
        ok &= outcome.failure_steps == 0 && outcome.detected_errors == 0;
    }
    match &first[index] {
        Some(earlier) => ok &= *earlier == outcome,
        None => first[index] = Some(outcome.clone()),
    }
    report.check(ok, || {
        format!(
            "session {index}: {} (first run differs or unhealthy)",
            outcome.summary()
        )
    });
}

/// Runs unit `unit` of the measured phase: the next `per_unit` sessions.
fn run_unit(
    report: &mut Report,
    inputs: &SessionInputs,
    unit: usize,
    first: &mut [Option<LoopOutcome>],
) -> Sample {
    let mut sample = Sample::new(Default::default(), 0, 0);
    for k in 0..inputs.per_unit {
        let index = (unit * inputs.per_unit + k) % inputs.sessions.len();
        let (outcome, wall, allocs) = phase::measure(|| run_session(&inputs.sessions[index]));
        sample.wall += wall;
        sample.presses += inputs.sessions[index].0.len() as u64;
        sample.allocs += allocs;
        check_session(report, inputs, index, outcome, first);
    }
    sample
}

pub fn steady_session(args: &Args, report: &mut Report) {
    let make = |seed| steady_inputs(seed, STEADY_PRESSES);
    sessions(args, report, make, 2);
}

pub fn fault_storm(args: &Args, report: &mut Report) {
    let make = |seed| fault_storm_inputs(seed, STORM_SESSIONS, STORM_PRESSES);
    sessions(args, report, make, 20);
}

/// The shared session-workload run: set-up, warm-up, the measured phase
/// or — traced — the press-replica sample of `traced_units` units, then
/// the oracle re-runs.
fn sessions(
    args: &Args,
    report: &mut Report,
    make: impl Fn(u64) -> SessionInputs,
    traced_units: usize,
) {
    if !args.trace {
        let workload = report.workload;
        phase::setup(report, args.calibration(), || {
            let inputs = make(args.seed);
            let mut first = vec![None; inputs.sessions.len()];
            // Set-up runs are timed, not checked: the measured phase
            // checks the same sessions.
            let mut unchecked = Report::new(workload, false);
            run_unit(&mut unchecked, &inputs, 0, &mut first);
        });
    }
    let inputs = make(args.seed);
    let mut first: Vec<Option<LoopOutcome>> = vec![None; inputs.sessions.len()];
    run_unit(report, &inputs, 0, &mut first);

    if args.trace {
        traced(args, report, &inputs, &mut first, traced_units);
    } else {
        let samples = phase::measured(args.seconds, args.calibration(), |i| {
            run_unit(report, &inputs, i + 1, &mut first)
        });
        phase::record_costs(report, &samples);
    }

    // Oracle: every session that ran is re-run afresh.
    for (index, earlier) in first.iter().enumerate() {
        if let Some(earlier) = earlier {
            let again = run_session(&inputs.sessions[index]);
            report.check(again == *earlier, || {
                format!("session {index}: re-run differs: {}", again.summary())
            });
        }
    }
    let outcomes: Vec<&LoopOutcome> = first.iter().flatten().collect();
    let steps: usize = outcomes.iter().map(|o| o.steps).sum();
    let failures: usize = outcomes.iter().map(|o| o.failure_steps).sum();
    report.set(
        "user_failure_frac",
        "ratio",
        failures as f64 / steps.max(1) as f64,
        outcomes.len(),
    );
    let mttd: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.detection_latency)
        .map(|d| d.as_millis_f64())
        .collect();
    if !mttd.is_empty() {
        report.set("mttd_ms_p50", "ms", median(&mttd), mttd.len());
    }
}

/// The traced sample: `units` units, each session run untraced by the
/// production loop and then traced by the press replica, which must
/// reach the same outcome. Pairing the two runs session by session keeps
/// the host's drift out of `trace.overhead_frac`.
fn traced(
    args: &Args,
    report: &mut Report,
    inputs: &SessionInputs,
    first: &mut [Option<LoopOutcome>],
    units: usize,
) {
    let indices: Vec<usize> = (0..units * inputs.per_unit)
        .map(|k| k % inputs.sessions.len())
        .collect();
    let presses: usize = indices.iter().map(|&i| inputs.sessions[i].0.len()).sum();
    let mut tracer = Tracer::with_capacity(20 * presses);
    let mut counts = PressCounts::default();
    let mut scales = Vec::with_capacity(indices.len());
    let mut overheads = Vec::with_capacity(indices.len());
    for &index in &indices {
        scales.push(args.calibration().scale());
        let (untraced, wall, _) = phase::measure(|| run_session(&inputs.sessions[index]));
        check_session(report, inputs, index, untraced, first);
        let (scenario, config) = &inputs.sessions[index];
        let spans_before = tracer.spans().len();
        let outcome = trace_session(config, scenario, &mut tracer, &mut counts);
        let traced_ns = trace::root_ns(&tracer.spans()[spans_before..]);
        overheads.push(traced_ns as f64 / wall.as_nanos() as f64 - 1.0);
        let expected = first[index].as_ref();
        report.check(expected == Some(&outcome), || {
            format!("session {index}: press replica {}", outcome.summary())
        });
    }

    let spans = tracer.spans();
    let layers = trace::layers(spans);
    let per_press = |total: u64| total as f64 / counts.presses.max(1) as f64;
    // Span times are scaled to the reference host like every other
    // host time.
    let scale = median(&scales);
    let n = counts.presses as usize;
    for (span, metric, has_allocs) in PRESS_LAYERS {
        let layer = layers.get(span).copied().unwrap_or_default();
        let ns = per_press(layer.self_ns) * scale;
        report.set(&format!("{metric}.ns"), "ns", ns, n);
        if has_allocs {
            let allocs = per_press(layer.self_allocs);
            report.set(&format!("{metric}.allocs"), "count", allocs, n);
        }
    }
    report.set("tvsim.repair.calls", "count", counts.repair_calls as f64, n);
    report.set("awareness.channel.sent", "count", counts.sent as f64, n);
    report.set(
        "awareness.channel.delivered",
        "count",
        counts.delivered as f64,
        n,
    );
    report.set("awareness.channel.lost", "count", counts.lost as f64, n);
    report.set(
        "awareness.channel.delivery_ratio",
        "ratio",
        counts.delivered as f64 / counts.transmissions.max(1) as f64,
        n,
    );
    report.set(
        "awareness.errors_per_kpress",
        "1/kpress",
        1e3 * per_press(counts.comparator_errors),
        n,
    );
    report.set(
        "detect.errors_per_kpress",
        "1/kpress",
        1e3 * per_press(counts.detector_errors),
        n,
    );
    report.set("spectra.rerank.calls", "count", counts.reranks as f64, n);
    report.set(
        "spectra.rerank.useful_ratio",
        "ratio",
        counts.useful_reranks as f64 / counts.reranks.max(1) as f64,
        n,
    );

    report.set(
        "core.press.ns",
        "ns",
        per_press(trace::root_ns(spans)) * scale,
        n,
    );
    crate::record_trace_totals(report, spans);
    let overhead = median(&overheads);
    report.set("trace.overhead_frac", "ratio", overhead, overheads.len());
    if inputs.healthy && (overhead.is_nan() || overhead > 0.20) {
        report.violation(format!("trace.overhead_frac {overhead:.4} > 0.20"));
    }
    crate::write_trace(report, spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        for seed in [0, 1, 99] {
            let (a, b) = (steady_inputs(seed, 40), steady_inputs(seed, 40));
            assert_eq!(format!("{:?}", a.sessions), format!("{:?}", b.sessions));
            let (a, b) = (
                fault_storm_inputs(seed, 3, 40),
                fault_storm_inputs(seed, 3, 40),
            );
            assert_eq!(format!("{:?}", a.sessions), format!("{:?}", b.sessions));
        }
        let (a, b) = (fault_storm_inputs(1, 3, 40), fault_storm_inputs(2, 3, 40));
        assert_ne!(format!("{:?}", a.sessions), format!("{:?}", b.sessions));
    }

    #[test]
    fn steady_round_has_one_session_of_each_kind() {
        let inputs = steady_inputs(5, 30);
        assert_eq!(inputs.sessions.len(), 3);
        assert_eq!(inputs.per_unit, 3);
        let mut keys: Vec<String> = inputs
            .sessions
            .iter()
            .map(|(s, _)| format!("{:?}", s.presses()))
            .collect();
        keys.dedup();
        assert_eq!(keys.len(), 3);
    }
}
