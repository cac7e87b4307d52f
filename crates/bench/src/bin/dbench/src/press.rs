//! The press replica: the closed loop's press path rebuilt from public
//! calls, with one span around each call into a layer.
//!
//! `TvDependabilityLoop::run` is a single call, so timing from outside
//! cannot split a press into layers. The replica repeats what `run` does
//! per press for the feature set the session workloads use (faults,
//! bare or reliable lossy channels, supervision, online diagnosis,
//! targeted repair; no probes, no unit recovery) and must end with the
//! same `LoopOutcome` — `dbench` checks that on every traced session,
//! and the unit tests below check it on short sessions. Monitor offers
//! and detector observations are issued as two passes over a press's
//! observations rather than interleaved: the two never share state, so
//! the outcome is the same and each layer gets one span.

use std::collections::BTreeMap;

use trader::awareness::{
    AwarenessMonitor, CompareSpec, Configuration, DiagnosisConfig, MonitorBuilder, SupervisorConfig,
};
use trader::detect::{ConsistencyRule, Detector, ErrorEvent, ModeConsistencyDetector};
use trader::faults::injector::Transition;
use trader::faults::{Injector, Schedule};
use trader::observe::{ObsValue, Observation};
use trader::simkit::{SimDuration, SimTime};
use trader::statemachine::{Event, Executor, OutputRecord, Value};
use trader::tvsim::{tv_spec_machine, TvFault, TvSystem};
use trader::{ChannelAudit, LoopOutcome, TimedScenario, TvDependabilityLoop};

use crate::trace::Tracer;

/// The loop's SUO → monitor output delay (`TvDependabilityLoop`'s
/// default, which no session workload overrides).
const OUTPUT_DELAY: SimDuration = SimDuration::from_micros(500);

/// One session's loop configuration, shared by the production loop and
/// the press replica.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    pub seed: u64,
    pub faults: Vec<(Schedule, TvFault)>,
    pub jitter: SimDuration,
    pub loss: f64,
    pub reliable: bool,
    pub supervised: bool,
    pub diagnose_top_k: Option<usize>,
}

impl SessionConfig {
    /// The production configuration: no faults, bare channels, no
    /// supervision, no diagnosis.
    pub fn healthy(seed: u64) -> Self {
        SessionConfig {
            seed,
            faults: Vec::new(),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            reliable: false,
            supervised: false,
            diagnose_top_k: None,
        }
    }

    /// The production loop for this session.
    pub fn build_loop(&self) -> TvDependabilityLoop {
        let mut looped = TvDependabilityLoop::closed(self.seed);
        for (schedule, fault) in &self.faults {
            looped.schedule_fault(schedule.clone(), *fault);
        }
        looped.set_jitter(self.jitter);
        looped.set_channel_loss(self.loss);
        looped.use_reliable(self.reliable);
        if self.supervised {
            looped.supervised(SupervisorConfig::with_micro_reboot());
        }
        if let Some(top_k) = self.diagnose_top_k {
            looped.diagnose_online(top_k);
        }
        looped
    }

    fn build_monitor<'m>(
        &self,
        machine: &'m trader::statemachine::Machine,
        n_blocks: u32,
    ) -> AwarenessMonitor<'m> {
        let mut builder = MonitorBuilder::new(machine)
            .configuration(
                Configuration::new()
                    .with_default_spec(CompareSpec::exact().with_max_consecutive(0)),
            )
            .output_delay(OUTPUT_DELAY)
            .jitter(self.jitter)
            .loss(self.loss)
            .reliable(self.reliable)
            .seed(self.seed);
        if self.supervised {
            builder = builder.supervised(SupervisorConfig::with_micro_reboot());
        }
        if let Some(top_k) = self.diagnose_top_k {
            builder = builder.diagnosis(DiagnosisConfig::new(n_blocks).with_top_k(top_k));
        }
        builder.build()
    }
}

/// Work counts the replica observes at layer boundaries, summed over
/// the sessions it drives.
#[derive(Debug, Default)]
pub struct PressCounts {
    pub presses: u64,
    pub repair_calls: u64,
    pub comparator_errors: u64,
    pub detector_errors: u64,
    /// Spectrum steps recorded (each re-ranks the suspect window).
    pub reranks: u64,
    /// Re-ranks after which the suspect window differed.
    pub useful_reranks: u64,
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    /// Wire transmissions, retransmissions included.
    pub transmissions: u64,
}

fn mirror_output(state: &mut BTreeMap<String, ObsValue>, name: &str, value: &ObsValue) {
    match state.get_mut(name) {
        Some(slot) => slot.assign_from(value),
        None => {
            state.insert(name.to_owned(), value.clone());
        }
    }
}

/// Drives one session press by press and returns the loop outcome
/// `TvDependabilityLoop::run` would have returned.
pub fn trace_session(
    config: &SessionConfig,
    scenario: &TimedScenario,
    tracer: &mut Tracer,
    counts: &mut PressCounts,
) -> LoopOutcome {
    let machine = tv_spec_machine();
    let mut tv = TvSystem::new();
    let mut oracle = Executor::new(&machine);
    oracle.start();
    let mut ref_state: BTreeMap<String, Value> = BTreeMap::new();
    let mut sys_state: BTreeMap<String, ObsValue> = BTreeMap::new();
    let mut monitor = config.build_monitor(&machine, tv.n_blocks());
    let mut detector = ModeConsistencyDetector::new();
    detector.add_rule(ConsistencyRule::new(
        "txt-sync",
        "ui",
        "teletext",
        "decoder",
        ["teletext"],
    ));
    let mut injector = Injector::new();
    for (schedule, fault) in &config.faults {
        injector.add(schedule.clone(), *fault);
    }

    let mut outcome = LoopOutcome {
        steps: 0,
        failure_steps: 0,
        detected_errors: 0,
        recoveries: 0,
        detection_latency: None,
        fault_activations: 0,
        channels: None,
        safe_mode_entries: 0,
        diagnoses_triggered: 0,
        top_suspects: Vec::new(),
        lost_presses: 0,
        lost_presses_unaffected: 0,
        micro_reboots: 0,
        full_restarts: 0,
        reboot_mttr: None,
        checkpoint_generations: Vec::new(),
        ladder_rung: 0,
    };
    let mut first_fault_at: Option<SimTime> = None;
    let mut first_detect_at: Option<SimTime> = None;
    let mut detector_errors: Vec<ErrorEvent> = Vec::new();
    let mut repair_obs: Vec<Observation> = Vec::new();
    let mut oracle_outputs: Vec<OutputRecord> = Vec::new();
    let mut window: Vec<u32> = Vec::new();

    for (i, &(at, key)) in scenario.presses().iter().enumerate() {
        tracer.next_trace();
        tracer.enter("core.press");
        let edges = tracer.span("faults.poll", || injector.poll(at, i as u64));
        for edge in edges {
            match edge {
                Transition::Activated(fault) => {
                    tv.inject_fault(fault);
                    outcome.fault_activations += 1;
                    first_fault_at.get_or_insert(at);
                }
                Transition::Deactivated(fault) => tv.clear_fault(fault),
            }
        }

        let observations = tracer.span("tvsim.press", || tv.press(at, key));
        for obs in &observations {
            if let Some((name, value)) = obs.as_output() {
                mirror_output(&mut sys_state, name, value);
            }
        }

        let event = match key.payload() {
            Some(p) => Event::with_payload(key.event_name(), p),
            None => Event::plain(key.event_name()),
        };
        tracer.span("statemachine.step", || {
            oracle.step_at(at, &event);
            oracle_outputs.clear();
            oracle.drain_outputs_into(&mut oracle_outputs);
        });
        for rec in oracle_outputs.drain(..) {
            match ref_state.get_mut(&rec.name) {
                Some(slot) => *slot = rec.value,
                None => {
                    ref_state.insert(rec.name, rec.value);
                }
            }
        }

        tracer.span("awareness.offer", || {
            for obs in &observations {
                monitor.offer(obs);
            }
        });
        detector_errors.clear();
        tracer.span("detect.observe", || {
            for obs in &observations {
                detector_errors.extend(detector.observe(obs));
            }
        });
        let settle = at + SimDuration::from_millis(20);
        tracer.span("awareness.advance", || monitor.advance_to(settle));
        let comparator_errors = tracer.span("awareness.drain", || monitor.drain_errors());
        let press_coverage = tracer.span("tvsim.take_coverage", || tv.take_coverage());
        let n_errors = comparator_errors.len() + detector_errors.len();
        counts.comparator_errors += comparator_errors.len() as u64;
        counts.detector_errors += detector_errors.len() as u64;
        if n_errors > 0 {
            outcome.detected_errors += n_errors;
            first_detect_at.get_or_insert(settle);
        }

        // Targeted repair: the loop's error → repair mapping.
        repair_obs.clear();
        let mut resynced = false;
        for err in &detector_errors {
            if err.detector == "mode-consistency:txt-sync" && !resynced {
                let obs = tracer.span("tvsim.repair", || tv.resync_teletext(settle));
                repair_obs.extend(obs);
                resynced = true;
                outcome.recoveries += 1;
                counts.repair_calls += 1;
            }
        }
        for err in &comparator_errors {
            match err.observable.as_str() {
                "audio.muted" | "volume" => {
                    let want_muted = ref_state
                        .get("audio.muted")
                        .and_then(Value::as_bool)
                        .unwrap_or(false);
                    let obs = tracer.span("tvsim.repair", || tv.force_audio(settle, want_muted));
                    repair_obs.extend(obs);
                    outcome.recoveries += 1;
                    counts.repair_calls += 1;
                }
                "teletext.page" | "screen.mode" if !resynced => {
                    let obs = tracer.span("tvsim.repair", || tv.resync_teletext(settle));
                    repair_obs.extend(obs);
                    resynced = true;
                    outcome.recoveries += 1;
                    counts.repair_calls += 1;
                }
                _ => {}
            }
        }
        if !repair_obs.is_empty() {
            for obs in &repair_obs {
                if let Some((name, value)) = obs.as_output() {
                    mirror_output(&mut sys_state, name, value);
                }
            }
            tracer.span("awareness.offer", || {
                for obs in &repair_obs {
                    monitor.offer(obs);
                }
            });
            tracer.span("detect.observe", || {
                for obs in &repair_obs {
                    let _ = detector.observe(obs);
                }
            });
            tracer.span("awareness.advance", || {
                monitor.advance_to(settle + SimDuration::from_millis(5))
            });
            tracer.span("awareness.drain", || {
                let _ = monitor.drain_errors();
            });
            tracer.span("tvsim.take_coverage", || {
                let _ = tv.take_coverage();
            });
        }
        let steps_before = monitor.diagnosis().map_or(0, |d| d.steps());
        tracer.span("spectra.record", || {
            monitor.record_coverage(&press_coverage)
        });

        outcome.steps += 1;
        let deviates = ref_state.iter().any(|(name, expected)| {
            sys_state.get(name).is_some_and(|actual| match expected {
                Value::Str(s) => actual.as_text() != Some(s.as_str()),
                other => {
                    let expected_num = other.as_f64().unwrap_or(f64::NAN);
                    match actual.as_num() {
                        Some(a) => (expected_num - a).abs() > 1e-9,
                        None => true,
                    }
                }
            })
        });
        if deviates {
            outcome.failure_steps += 1;
        }
        tracer.exit();

        // Bookkeeping outside the press span.
        counts.presses += 1;
        if let Some(diag) = monitor.diagnosis() {
            if diag.steps() > steps_before {
                counts.reranks += 1;
                let top = diag.top_suspects();
                if !top.iter().map(|e| e.block).eq(window.iter().copied()) {
                    counts.useful_reranks += 1;
                    window.clear();
                    window.extend(top.iter().map(|e| e.block));
                }
            }
        }
    }

    outcome.detection_latency = match (first_fault_at, first_detect_at) {
        (Some(f), Some(d)) if d >= f => Some(d.since(f)),
        _ => None,
    };
    let (input, output) = (monitor.input_channel(), monitor.output_channel());
    let audit = ChannelAudit {
        sent: input.sent() + output.sent(),
        delivered: input.delivered() + output.delivered(),
        lost: input.lost() + output.lost(),
        in_flight: (input.in_flight() + output.in_flight()) as u64,
    };
    counts.sent += audit.sent;
    counts.delivered += audit.delivered;
    counts.lost += audit.lost;
    counts.transmissions += [input, output]
        .iter()
        .map(|c| c.reliable_stats().map_or(c.sent(), |s| s.transmissions))
        .sum::<u64>();
    outcome.channels = Some(audit);
    if let Some(report) = monitor.supervisor_report() {
        outcome.safe_mode_entries = report.safe_mode_entries;
        outcome.ladder_rung = if report.safe_mode_entries > 0 {
            5
        } else if report.monitor_restarts > 0 {
            4
        } else if report.micro_reboots > 0 {
            3
        } else if report.channel_restarts > 0 {
            2
        } else if report.retries > 0 {
            1
        } else {
            0
        };
    }
    if let Some(diag) = monitor.diagnosis() {
        outcome.diagnoses_triggered = diag.triggered_diagnoses();
        outcome.top_suspects = diag.top_suspects().iter().map(|e| e.block).collect();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{fault_storm_inputs, steady_inputs};

    /// Short sessions of both session workloads, three seeds each: the
    /// replica's outcome must equal the production loop's.
    #[test]
    fn replica_outcome_equals_the_production_loop() {
        for seed in [0, 7, 123_456] {
            let steady = steady_inputs(seed, 120);
            let storm = fault_storm_inputs(seed, 4, 120);
            let sessions = steady.sessions.iter().chain(&storm.sessions);
            for (scenario, config) in sessions {
                let expected = config.build_loop().run(scenario);
                let mut tracer = Tracer::with_capacity(16 * scenario.len());
                let mut counts = PressCounts::default();
                let got = trace_session(config, scenario, &mut tracer, &mut counts);
                assert_eq!(got, expected, "seed {seed}, config {config:?}");
                assert_eq!(counts.presses, scenario.len() as u64);
            }
        }
    }
}
