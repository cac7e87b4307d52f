//! The awareness monitor: paper Fig. 2 in one type.
//!
//! [`AwarenessMonitor`] holds each box of the figure as a field: the
//! Input and Output Observers are its two boundary channels, the Model
//! Executor is a [`statemachine::Executor`], the Comparator a
//! [`Comparator`], and the Controller its `running` flag and error list.

use crate::channel::DelayChannel;
use crate::comparator::{Comparator, ComparatorStats};
use crate::config::Configuration;
use crate::diagnosis::{DiagnosisConfig, OnlineDiagnosis};
use crate::error::DetectedError;
use crate::message::Message;
use crate::reliable::{BoundaryChannel, ProbeNames, ReliableChannel};
use crate::supervisor::{Supervisor, SupervisorAction, SupervisorConfig, SupervisorReport};
use observe::{ObsValue, Observation, ObservationKind};
use simkit::{SimDuration, SimTime};
use statemachine::{Event, Executor, Machine, OutputRecord, Value};
use std::borrow::Cow;
use telemetry::Telemetry;

/// Converts a model value to the observable value the comparator
/// expects: text stays text, anything else becomes a number (NaN when
/// it has no numeric view).
pub fn to_obs_value(value: Value) -> ObsValue {
    match value {
        Value::Str(s) => ObsValue::Text(s.into()),
        other => ObsValue::Num(other.as_f64().unwrap_or(f64::NAN)),
    }
}

/// A started executor of `machine`.
fn start_model(machine: &Machine) -> Executor<'_> {
    let mut model = Executor::new(machine);
    model.start();
    model
}

/// The boundary channels' settings, kept by the monitor so supervision
/// can rebuild the channels.
#[derive(Debug, Clone, Copy)]
struct ChannelSettings {
    input_delay: SimDuration,
    output_delay: SimDuration,
    /// Uniform jitter on every wire.
    jitter: SimDuration,
    /// Loss probability on the output wires.
    loss: f64,
    /// The builder's seed; restart epochs derive theirs from it.
    seed: u64,
    /// Ack/retransmit protocol over the wires.
    reliable: bool,
}

impl ChannelSettings {
    /// Builds the input and output channels of restart epoch `epoch`:
    /// the wires on seed streams +1 (input) and +2 (output); a reliable
    /// channel adds its acks on the wire's stream +0x10 and its protocol
    /// on +0x20. Both inherit `telemetry`'s probes — a restart must not
    /// silence the boundary.
    fn build(
        &self,
        epoch: u64,
        telemetry: &Telemetry,
    ) -> (BoundaryChannel<Message>, BoundaryChannel<Message>) {
        // A fresh seed stream per epoch: a restarted channel must not
        // replay the exact disturbance pattern that killed it.
        let seed = self.seed.wrapping_add(epoch.wrapping_mul(0x9E37_79B9));
        let boundary = |delay: SimDuration, loss: f64, stream: u64| {
            if self.reliable {
                BoundaryChannel::Reliable(Box::new(ReliableChannel::over(
                    self.wire(delay, loss, seed.wrapping_add(stream)),
                    self.wire(delay, loss, seed.wrapping_add(stream + 0x10)),
                    seed.wrapping_add(stream + 0x20),
                )))
            } else {
                BoundaryChannel::Delay(self.wire(delay, loss, seed.wrapping_add(stream)))
            }
        };
        let mut input = boundary(self.input_delay, 0.0, 1);
        let mut output = boundary(self.output_delay, self.loss, 2);
        input.set_telemetry(telemetry.clone(), ProbeNames::INPUT);
        output.set_telemetry(telemetry.clone(), ProbeNames::OUTPUT);
        (input, output)
    }

    /// A delay wire with this jitter (on seed stream `seed`) and `loss`.
    fn wire<T>(&self, delay: SimDuration, loss: f64, seed: u64) -> DelayChannel<T> {
        let mut wire = DelayChannel::new(delay);
        if !self.jitter.is_zero() {
            wire = wire.with_jitter(self.jitter, seed);
        }
        if loss > 0.0 {
            wire = wire.with_loss(loss);
        }
        wire
    }
}

/// Builds an [`AwarenessMonitor`].
///
/// ```
/// use awareness::{MonitorBuilder, Configuration};
/// use statemachine::MachineBuilder;
/// use simkit::SimDuration;
///
/// let machine = MachineBuilder::new("m")
///     .state("off").state("on").initial("off")
///     .output("light")
///     .on("off", "press", "on", |t| t.output_const("light", 1))
///     .on("on", "press", "off", |t| t.output_const("light", 0))
///     .build().unwrap();
///
/// let monitor = MonitorBuilder::new(&machine)
///     .configuration(Configuration::new())
///     .input_delay(SimDuration::from_micros(100))
///     .output_delay(SimDuration::from_micros(100))
///     .build();
/// # let _ = monitor;
/// ```
#[derive(Debug)]
pub struct MonitorBuilder<'m> {
    machine: &'m Machine,
    configuration: Configuration,
    channels: ChannelSettings,
    supervision: Option<SupervisorConfig>,
    diagnosis: Option<DiagnosisConfig>,
    telemetry: Telemetry,
}

impl<'m> MonitorBuilder<'m> {
    /// Starts a builder for a monitor running `machine` as specification.
    pub fn new(machine: &'m Machine) -> Self {
        MonitorBuilder {
            machine,
            configuration: Configuration::new(),
            channels: ChannelSettings {
                input_delay: SimDuration::ZERO,
                output_delay: SimDuration::ZERO,
                jitter: SimDuration::ZERO,
                loss: 0.0,
                seed: 0,
                reliable: false,
            },
            supervision: None,
            diagnosis: None,
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle: comparator, supervisor, diagnosis,
    /// and reliable-channel events all land on the shared flight
    /// recorder and metrics registry. The default ([`Telemetry::off`])
    /// leaves every probe a near-zero-cost no-op.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the comparator configuration.
    pub fn configuration(mut self, configuration: Configuration) -> Self {
        self.configuration = configuration;
        self
    }

    /// Base delay on the input-event channel.
    pub fn input_delay(mut self, delay: SimDuration) -> Self {
        self.channels.input_delay = delay;
        self
    }

    /// Base delay on the output-event channel.
    pub fn output_delay(mut self, delay: SimDuration) -> Self {
        self.channels.output_delay = delay;
        self
    }

    /// Uniform jitter added to both channels.
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.channels.jitter = jitter;
        self
    }

    /// Message loss probability on the *output* channel.
    ///
    /// Input events are never dropped: a lost input would desynchronize
    /// the model executor from the SUO permanently, so the framework
    /// (like the original's Unix-domain-socket transport) requires a
    /// reliable input path; only output observations may be lossy.
    pub fn loss(mut self, loss: f64) -> Self {
        self.channels.loss = loss;
        self
    }

    /// Seed for channel jitter/loss determinism.
    pub fn seed(mut self, seed: u64) -> Self {
        self.channels.seed = seed;
        self
    }

    /// Runs the ack/retransmit [`ReliableChannel`] protocol over both
    /// boundary wires instead of the bare [`DelayChannel`]: loss and
    /// reordering become extra latency, and the channels' accounting can
    /// tell *late* from *lost*.
    pub fn reliable(mut self, reliable: bool) -> Self {
        self.channels.reliable = reliable;
        self
    }

    /// Enables monitor self-supervision (heartbeat watchdog, graceful
    /// degradation, escalation ladder) with the given parameters.
    pub fn supervised(mut self, config: SupervisorConfig) -> Self {
        self.supervision = Some(config);
        self
    }

    /// Enables in-loop spectrum diagnosis: the loop driver feeds one
    /// step's coverage per scenario step via
    /// [`AwarenessMonitor::record_runs`] (or
    /// [`AwarenessMonitor::record_coverage`]), comparator errors turn
    /// into failing spectra, and the top-k suspect window is scored
    /// when read.
    pub fn diagnosis(mut self, config: DiagnosisConfig) -> Self {
        self.diagnosis = Some(config);
        self
    }

    /// Assembles and starts the monitor.
    pub fn build(self) -> AwarenessMonitor<'m> {
        let (input, output) = self.channels.build(0, &self.telemetry);
        let model = start_model(self.machine);
        let mut comparator = Comparator::new(self.configuration);
        comparator.set_enabled(!model.in_unstable_state());
        comparator.set_telemetry(self.telemetry.clone());
        let supervisor = self.supervision.map(|config| {
            let mut supervisor = Supervisor::new(config);
            supervisor.set_telemetry(self.telemetry.clone());
            supervisor
        });
        let diagnosis = self.diagnosis.as_ref().map(|config| {
            let mut d = OnlineDiagnosis::new(config);
            d.set_telemetry(self.telemetry.clone());
            d
        });
        AwarenessMonitor {
            machine: self.machine,
            input,
            output,
            model,
            model_outputs: Vec::new(),
            delivered: Vec::new(),
            comparator,
            running: true,
            errors: Vec::new(),
            supervisor,
            diagnosis,
            errors_total: 0,
            channels: self.channels,
            channel_epoch: 0,
            telemetry: self.telemetry,
            now: SimTime::ZERO,
        }
    }
}

/// The run-time awareness monitor: the components of paper Fig. 2 across
/// a simulated process boundary.
///
/// Drive it by offering SUO observations ([`AwarenessMonitor::offer`]) and
/// advancing time ([`AwarenessMonitor::advance_to`]); read back detected
/// errors with [`AwarenessMonitor::drain_errors`].
#[derive(Debug)]
pub struct AwarenessMonitor<'m> {
    machine: &'m Machine,
    /// Input Observer: SUO input events on their way to the model.
    input: BoundaryChannel<Message>,
    /// Output Observer: SUO output values on their way to the comparator.
    output: BoundaryChannel<Message>,
    /// Model Executor: the specification model, driven by the delivered
    /// input events; its outputs are the comparator's expected values
    /// and its unstable states switch comparison off.
    model: Executor<'m>,
    /// Reused buffer the model's outputs are drained through.
    model_outputs: Vec<OutputRecord>,
    /// Reused buffer both channels deliver through.
    delivered: Vec<(SimTime, Message)>,
    comparator: Comparator,
    /// Controller: offered observations are dropped while stopped.
    running: bool,
    /// Controller: detected errors awaiting the caller (oldest first).
    errors: Vec<DetectedError>,
    supervisor: Option<Supervisor>,
    diagnosis: Option<OnlineDiagnosis>,
    errors_total: u64,
    channels: ChannelSettings,
    channel_epoch: u64,
    telemetry: Telemetry,
    now: SimTime,
}

impl<'m> AwarenessMonitor<'m> {
    /// Offers one SUO observation to the observers.
    ///
    /// Key presses go to the input channel (the key code, if any, becomes
    /// the model event's payload), outputs to the output channel;
    /// everything else is ignored by this monitor (other detectors may
    /// want it).
    pub fn offer(&mut self, observation: &Observation) {
        if !self.running {
            return;
        }
        match &observation.kind {
            ObservationKind::KeyPress { key, code } => {
                let event = Event {
                    name: key.clone(),
                    payload: code.map(Value::from),
                };
                self.input.send(observation.time, Message::Input(event));
            }
            ObservationKind::Output { name, value } => {
                let message = Message::Output {
                    name: name.clone(),
                    value: value.clone(),
                };
                self.output.send(observation.time, message);
            }
            _ => {}
        }
    }

    /// Sends an input event directly (for SUOs that report inputs
    /// without an observation stream).
    pub fn offer_input(&mut self, now: SimTime, event: impl Into<Cow<'static, str>>) {
        if self.running {
            self.input.send(now, Message::input(event));
        }
    }

    /// Processes everything due up to `to`: delivers channel messages in
    /// time order, drives the model, compares outputs, and collects errors.
    pub fn advance_to(&mut self, to: SimTime) {
        let mut delivered = std::mem::take(&mut self.delivered);
        loop {
            let t_in = self.input.next_delivery();
            let t_out = self.output.next_delivery();
            let t_timer = self
                .model
                .next_timer_due()
                .filter(|t| *t > self.model.now());
            // Earliest pending activity; tie-break input < output < timer.
            let candidates = [(t_in, 0u8), (t_out, 1u8), (t_timer, 2u8)];
            let next = candidates
                .iter()
                .filter_map(|(t, k)| t.map(|t| (t, *k)))
                .min();
            let Some((t, kind)) = next else { break };
            if t > to {
                break;
            }
            self.now = t;
            match kind {
                0 => self.input.deliver_due_into(t, &mut delivered),
                1 => self.output.deliver_due_into(t, &mut delivered),
                _ => {
                    self.advance_model(t);
                    continue;
                }
            }
            for (at, msg) in delivered.drain(..) {
                self.handle_message(at, msg);
            }
        }
        self.delivered = delivered;
        self.now = to;
        self.advance_model(to);
        for error in self.comparator.tick(to) {
            self.report(error);
        }
        self.supervise(to);
    }

    /// Runs one self-supervision assessment at `now` and applies the
    /// resulting structural action, if any. Called automatically at the
    /// end of [`AwarenessMonitor::advance_to`].
    pub fn supervise(&mut self, now: SimTime) {
        let Some(mut supervisor) = self.supervisor.take() else {
            return;
        };
        let backlog = self.input.in_flight() + self.output.in_flight();
        self.telemetry
            .metric_gauge("awareness.monitor.backlog", backlog as i64);
        match supervisor.observe(now, backlog) {
            Some(SupervisorAction::Retry) => {
                // Cheap resync: clear deviation streaks, keep state.
                self.comparator.reset();
            }
            Some(SupervisorAction::RestartChannels) => self.restart_channels(),
            Some(SupervisorAction::MicroRebootMonitor) => self.micro_reboot_monitor(now),
            Some(SupervisorAction::RestartMonitor) => self.restart_monitor(),
            Some(SupervisorAction::EnterSafeMode) => {
                // Structural part of safe mode: drop the backlog that can
                // no longer be assessed. The mode installed below makes
                // the comparator skip every check.
                self.input.clear();
                self.output.clear();
                self.comparator.reset();
            }
            None => {}
        }
        self.comparator.set_degradation(supervisor.mode());
        supervisor.heartbeat(now);
        self.supervisor = Some(supervisor);
    }

    /// The micro-reboot rung: fresh channels on a new epoch and a reset
    /// comparator. The model executor and diagnosis state are kept —
    /// that is what makes this cheaper than a full restart.
    fn micro_reboot_monitor(&mut self, now: SimTime) {
        self.next_channel_epoch();
        self.comparator.reset();
        self.telemetry
            .count(now, "awareness.monitor.micro_reboots", 1);
    }

    /// The full-restart rung: fresh channels, a fresh model, a reset
    /// comparator, and the monitor running again.
    fn restart_monitor(&mut self) {
        self.restart_channels();
        self.comparator.reset();
        self.model = start_model(self.machine);
        self.comparator.set_enabled(!self.model.in_unstable_state());
        self.running = true;
    }

    fn restart_channels(&mut self) {
        self.next_channel_epoch();
        self.telemetry
            .count(self.now, "awareness.monitor.channel_restarts", 1);
    }

    /// Rebuilds both observation channels on the next epoch, so a
    /// rebuilt channel never reuses a disturbance stream an earlier
    /// incarnation consumed — shared by the channel-restart and
    /// micro-reboot rungs, which count their own telemetry.
    fn next_channel_epoch(&mut self) {
        self.channel_epoch += 1;
        (self.input, self.output) = self.channels.build(self.channel_epoch, &self.telemetry);
    }

    fn handle_message(&mut self, at: SimTime, msg: Message) {
        self.telemetry.metric_incr("awareness.monitor.messages", 1);
        match msg {
            Message::Input(event) => {
                // A message may arrive stamped before the model's own
                // time (reordering); model time never rewinds.
                self.model.step_at(at.max(self.model.now()), &event);
                self.apply_expected();
            }
            Message::Output { name, value } => {
                // Keep the model (and its expected values) current first.
                self.advance_model(at);
                if let Some(error) = self.comparator.observe(at, &name, value) {
                    self.report(error);
                }
            }
        }
    }

    /// Fires the model's timers due by `to` (no-op for a time already
    /// passed) and applies what they produced.
    fn advance_model(&mut self, to: SimTime) {
        if to > self.model.now() {
            self.model.advance_to(to);
        }
        self.apply_expected();
    }

    /// Hands the model's new outputs to the comparator as expected values
    /// and gates comparison on the model being in a stable state
    /// (`ISpecInfo` and `IEnableCompare`).
    fn apply_expected(&mut self) {
        self.model.drain_outputs_into(&mut self.model_outputs);
        for record in self.model_outputs.drain(..) {
            self.comparator
                .set_expected(record.name, to_obs_value(record.value));
        }
        self.comparator.set_enabled(!self.model.in_unstable_state());
    }

    /// Controller: files a comparator error (`IErrorNotify`).
    fn report(&mut self, error: DetectedError) {
        self.errors_total += 1;
        self.errors.push(error);
    }

    /// Folds one scenario step's coverage snapshot into the online
    /// diagnoser (no-op when diagnosis is not enabled).
    ///
    /// Call once per step, *after* advancing the monitor past the step's
    /// observations: the step inherits a failing verdict iff the
    /// comparator detected at least one error since the previous
    /// step. Recording only folds counters; the suspect window is
    /// scored when read ([`OnlineDiagnosis::top_suspects`]).
    pub fn record_coverage(&mut self, snapshot: &observe::BlockSnapshot) {
        self.record_step(|diag, failed| diag.append_snapshot(snapshot, failed));
    }

    /// The same step as [`record_coverage`](Self::record_coverage),
    /// given as block runs: ranges fold as counter slices and no bitset
    /// is built or scanned.
    pub fn record_runs(&mut self, runs: &observe::CoverageRuns) {
        self.record_step(|diag, failed| diag.append_runs(runs, failed));
    }

    /// The one verdict and telemetry path of a recorded step; `fold`
    /// folds its coverage.
    fn record_step(&mut self, fold: impl FnOnce(&mut spectra::Diagnoser, bool)) {
        let errors_total = self.errors_total;
        let now = self.now;
        if let Some(diag) = self.diagnosis.as_mut() {
            diag.record(now, errors_total, fold);
        }
    }

    /// Absorbs comparator errors raised by synthetic probe traffic into
    /// the diagnosis baseline *without* recording a spectra step, so
    /// the next real scenario step's verdict reflects only its own
    /// detections. The loop driver calls this after each probe burst,
    /// paired with discarding the burst's coverage snapshot — keeping
    /// probe presses out of the fault-localization ranking entirely.
    pub fn absorb_synthetic_errors(&mut self) {
        let errors_total = self.errors_total;
        if let Some(diag) = self.diagnosis.as_mut() {
            diag.absorb_errors(errors_total);
        }
    }

    /// The online diagnosis state, when enabled via
    /// [`MonitorBuilder::diagnosis`].
    pub fn diagnosis(&self) -> Option<&OnlineDiagnosis> {
        self.diagnosis.as_ref()
    }

    /// Detected errors so far (oldest first).
    pub fn errors(&self) -> &[DetectedError] {
        &self.errors
    }

    /// Removes and returns detected errors.
    pub fn drain_errors(&mut self) -> Vec<DetectedError> {
        std::mem::take(&mut self.errors)
    }

    /// Comparator activity counters.
    pub fn comparator_stats(&self) -> &ComparatorStats {
        self.comparator.stats()
    }

    /// The input-side boundary channel (accounting, stats).
    pub fn input_channel(&self) -> &BoundaryChannel<Message> {
        &self.input
    }

    /// The output-side boundary channel (accounting, stats; its
    /// reliable-protocol counters when built with
    /// [`MonitorBuilder::reliable`]).
    pub fn output_channel(&self) -> &BoundaryChannel<Message> {
        &self.output
    }

    /// Self-supervision counters, when supervision is enabled.
    pub fn supervisor_report(&self) -> Option<&SupervisorReport> {
        self.supervisor.as_ref().map(Supervisor::report)
    }

    /// Stops the monitor; offered observations are dropped.
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Current monitor time.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompareSpec;
    use crate::supervisor::DegradationMode;
    use statemachine::MachineBuilder;

    fn toggle_machine() -> Machine {
        MachineBuilder::new("toggle")
            .state("off")
            .state("on")
            .initial("off")
            .output("light")
            .on("off", "press", "on", |t| t.output_const("light", 1))
            .on("on", "press", "off", |t| t.output_const("light", 0))
            .build()
            .unwrap()
    }

    fn key(at_ms: u64) -> Observation {
        Observation::key_press(SimTime::from_millis(at_ms), "rc", "press", None)
    }

    fn light(at_ms: u64, v: f64) -> Observation {
        Observation::new(
            SimTime::from_millis(at_ms),
            "suo",
            ObservationKind::Output {
                name: "light".into(),
                value: ObsValue::Num(v),
            },
        )
    }

    /// The supervisor's degradation mode; `Normal` when unsupervised.
    fn mode(mon: &AwarenessMonitor) -> DegradationMode {
        mon.supervisor
            .as_ref()
            .map_or(DegradationMode::Normal, Supervisor::mode)
    }

    fn load(at_ms: u64) -> Observation {
        Observation::new(
            SimTime::from_millis(at_ms),
            "cpu",
            ObservationKind::Value {
                name: "cpu0.load".into(),
                value: 0.5,
            },
        )
    }

    /// A TV whose power key passes through an unstable `switching` state
    /// that a 100 ms timer leaves, showing video.
    fn tv_machine() -> Machine {
        MachineBuilder::new("tv")
            .state("standby")
            .state("switching")
            .state("on")
            .unstable("switching")
            .initial("standby")
            .output("screen")
            .on("standby", "press", "switching", |t| t)
            .after("switching", SimDuration::from_millis(100), "on", |t| {
                t.output_const("screen", "video")
            })
            .build()
            .unwrap()
    }

    fn screen(at_ms: u64, v: &'static str) -> Observation {
        Observation::new(
            SimTime::from_millis(at_ms),
            "suo",
            ObservationKind::Output {
                name: "screen".into(),
                value: ObsValue::Text(v.into()),
            },
        )
    }

    #[test]
    fn healthy_suo_raises_no_errors() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        // SUO behaves exactly like the model.
        mon.offer(&key(10));
        mon.offer(&light(10, 1.0));
        mon.offer(&key(20));
        mon.offer(&light(20, 0.0));
        mon.advance_to(SimTime::from_millis(30));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        assert!(mon.comparator_stats().comparisons >= 2);
    }

    #[test]
    fn faulty_suo_is_detected() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        mon.offer(&key(10));
        // Fault: light stays off.
        mon.offer(&light(10, 0.0));
        mon.advance_to(SimTime::from_millis(20));
        let errs = mon.drain_errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].observable, "light");
        assert_eq!(errs[0].expected, ObsValue::Num(1.0));
    }

    #[test]
    fn delay_causes_false_error_when_eager() {
        let m = toggle_machine();
        // Output channel is slow: the model switches before the system's
        // (correct) old output arrives.
        let mut mon = MonitorBuilder::new(&m)
            .output_delay(SimDuration::from_millis(5))
            .build();
        // System output of the *previous* state arrives after the key.
        mon.offer(&light(9, 0.0)); // correct for "off", delivered at 14
        mon.offer(&key(10)); // model switches to on at 10, expects 1
        mon.advance_to(SimTime::from_millis(20));
        // Eager comparator (default spec): false error.
        assert_eq!(mon.errors().len(), 1);
    }

    #[test]
    fn debounced_comparator_tolerates_delay_transient() {
        let m = toggle_machine();
        let cfg =
            Configuration::new().with_default_spec(CompareSpec::exact().with_max_consecutive(1));
        let mut mon = MonitorBuilder::new(&m)
            .configuration(cfg)
            .output_delay(SimDuration::from_millis(5))
            .build();
        mon.offer(&light(9, 0.0)); // stale but transient
        mon.offer(&key(10));
        mon.offer(&light(11, 1.0)); // fresh, correct
        mon.advance_to(SimTime::from_millis(20));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        // But a persistent fault is still caught.
        mon.offer(&key(30)); // expect 0
        mon.offer(&light(31, 1.0));
        mon.offer(&light(32, 1.0));
        mon.advance_to(SimTime::from_millis(40));
        assert_eq!(mon.errors().len(), 1);
    }

    #[test]
    fn stopped_monitor_ignores_observations() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        mon.stop();
        mon.offer(&key(10));
        mon.offer(&light(10, 55.0));
        mon.advance_to(SimTime::from_millis(20));
        assert!(mon.errors().is_empty());
        assert_eq!(mon.comparator_stats().comparisons, 0);
    }

    #[test]
    fn monitor_runs_from_build_until_stopped() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        // Running from the start: the first press and output get through.
        mon.offer(&key(10));
        mon.offer(&light(10, 0.0));
        mon.advance_to(SimTime::from_millis(20));
        assert_eq!(mon.errors().len(), 1);
        mon.stop();
        mon.offer(&key(30));
        mon.offer_input(SimTime::from_millis(30), "press");
        mon.offer(&light(30, 55.0));
        mon.advance_to(SimTime::from_millis(40));
        assert_eq!(mon.input_channel().sent(), 1);
        assert_eq!(mon.output_channel().sent(), 1);
        assert_eq!(mon.errors().len(), 1);
    }

    #[test]
    fn offer_forwards_only_keys_to_the_input_channel() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        mon.offer(&key(0));
        mon.offer(&load(0));
        assert_eq!(mon.input_channel().sent(), 1);
        assert_eq!(mon.output_channel().sent(), 0);
        mon.advance_to(SimTime::ZERO);
        assert_eq!(mon.input_channel().delivered(), 1);
        // The delivered press switched the model on: a lit light matches.
        mon.offer(&light(1, 1.0));
        mon.advance_to(SimTime::from_millis(2));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        assert_eq!(mon.comparator_stats().comparisons, 1);
    }

    #[test]
    fn offer_forwards_only_outputs_to_the_output_channel() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        mon.offer(&key(0));
        mon.offer(&light(0, 3.0));
        mon.offer(&load(0));
        assert_eq!(mon.input_channel().sent(), 1);
        assert_eq!(mon.output_channel().sent(), 1);
        mon.advance_to(SimTime::from_millis(1));
        assert_eq!(mon.output_channel().delivered(), 1);
        // The output reached the comparator with its value intact.
        let errs = mon.drain_errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].observable, "light");
        assert_eq!(errs[0].actual, ObsValue::Num(3.0));
    }

    #[test]
    fn offer_input_reaches_the_model_after_the_input_delay() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m)
            .input_delay(SimDuration::from_millis(1))
            .build();
        mon.offer_input(SimTime::ZERO, "press");
        assert_eq!(mon.input_channel().sent(), 1);
        mon.advance_to(SimTime::ZERO);
        assert_eq!(mon.input_channel().in_flight(), 1);
        mon.advance_to(SimTime::from_millis(1));
        assert_eq!(mon.input_channel().delivered(), 1);
        mon.offer(&light(1, 1.0));
        mon.advance_to(SimTime::from_millis(2));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        assert_eq!(mon.comparator_stats().comparisons, 1);
    }

    #[test]
    fn unstable_model_state_gates_comparison_until_its_timer_fires() {
        let m = tv_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        mon.offer(&key(0));
        mon.offer(&screen(50, "noise"));
        mon.advance_to(SimTime::from_millis(60));
        assert_eq!(mon.comparator_stats().skipped_disabled, 1);
        // The timer fires at 100 ms with no message pending; its output
        // is the expected value and the stable state re-enables checks.
        mon.offer(&screen(150, "video"));
        mon.advance_to(SimTime::from_millis(200));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        assert_eq!(mon.comparator_stats().comparisons, 1);
        mon.offer(&screen(250, "off"));
        mon.advance_to(SimTime::from_millis(300));
        assert_eq!(mon.errors().len(), 1);
        assert_eq!(mon.errors()[0].expected, ObsValue::Text("video".into()));
    }

    #[test]
    fn model_timer_is_armed_by_the_input_that_enters_its_state() {
        let m = tv_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        // No timer before the press: standby is stable and expects nothing.
        mon.offer(&screen(400, "off"));
        mon.advance_to(SimTime::from_millis(500));
        assert_eq!(mon.comparator_stats().skipped_disabled, 0);
        assert_eq!(mon.comparator_stats().comparisons, 0);
        // The press at 500 ms arms the timer for 600 ms.
        mon.offer(&key(500));
        mon.offer(&screen(599, "video"));
        mon.advance_to(SimTime::from_millis(599));
        assert_eq!(mon.comparator_stats().skipped_disabled, 1);
        mon.offer(&screen(601, "video"));
        mon.advance_to(SimTime::from_millis(601));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        assert_eq!(mon.comparator_stats().comparisons, 1);
    }

    #[test]
    fn late_input_never_rewinds_the_model() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        mon.advance_to(SimTime::from_millis(50));
        // Stamped before model time: stepped at the model's own now.
        mon.offer_input(SimTime::from_millis(10), "press");
        mon.offer(&light(60, 1.0));
        mon.advance_to(SimTime::from_millis(70));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        assert_eq!(mon.comparator_stats().comparisons, 1);
    }

    #[test]
    fn model_values_convert_to_observables() {
        assert_eq!(to_obs_value(Value::Int(5)), ObsValue::Num(5.0));
        assert_eq!(to_obs_value(Value::Bool(true)), ObsValue::Num(1.0));
        assert_eq!(to_obs_value(Value::Float(0.5)), ObsValue::Num(0.5));
        assert_eq!(
            to_obs_value(Value::Str("video".into())),
            ObsValue::Text("video".into())
        );
    }

    #[test]
    fn errors_accumulate_until_drained() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        mon.offer(&key(10));
        mon.offer(&light(10, 0.0));
        mon.offer(&key(20));
        mon.offer(&light(20, 1.0));
        mon.advance_to(SimTime::from_millis(30));
        assert_eq!(mon.errors().len(), 2);
        assert_eq!(mon.drain_errors().len(), 2);
        assert!(mon.errors().is_empty());
        assert_eq!(mon.errors_total, 2);
    }

    #[test]
    fn timed_model_behaviour_generates_expected_values() {
        let m = MachineBuilder::new("sleep")
            .state("active")
            .state("asleep")
            .initial("active")
            .output("power")
            .after("active", SimDuration::from_millis(100), "asleep", |t| {
                t.output_const("power", 0)
            })
            .build()
            .unwrap();
        let mut mon = MonitorBuilder::new(&m).build();
        // SUO correctly powers down at 100ms.
        mon.offer(&Observation::new(
            SimTime::from_millis(100),
            "suo",
            ObservationKind::Output {
                name: "power".into(),
                value: ObsValue::Num(0.0),
            },
        ));
        mon.advance_to(SimTime::from_millis(200));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        // SUO that *fails* to power down is caught.
        let mut mon2 = MonitorBuilder::new(&m).build();
        mon2.offer(&Observation::new(
            SimTime::from_millis(100),
            "suo",
            ObservationKind::Output {
                name: "power".into(),
                value: ObsValue::Num(1.0),
            },
        ));
        mon2.advance_to(SimTime::from_millis(200));
        assert_eq!(mon2.errors().len(), 1);
    }

    #[test]
    fn reliable_channel_turns_loss_into_latency() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m)
            .configuration(
                Configuration::new()
                    .with_default_spec(CompareSpec::exact().with_max_consecutive(1)),
            )
            .output_delay(SimDuration::from_millis(2))
            .loss(0.4)
            .seed(5)
            .reliable(true)
            .build();
        let mut v = 0.0;
        for k in 0..30u64 {
            let at = 10 + k * 20;
            mon.offer(&key(at));
            v = 1.0 - v;
            mon.offer(&light(at, v));
            mon.advance_to(SimTime::from_millis(at + 19));
        }
        // Let retransmissions drain fully.
        mon.advance_to(SimTime::from_secs(5));
        assert!(mon.errors().is_empty(), "{:?}", mon.errors());
        let out = mon.output_channel();
        assert_eq!(out.lost(), 0);
        assert_eq!(out.delivered(), 30);
        assert_eq!(out.sent(), out.delivered() + out.in_flight() as u64);
        let stats = out.reliable_stats().unwrap();
        assert!(stats.wire_lost > 0, "loss must have struck: {stats:?}");
        assert!(stats.retransmits > 0);
    }

    #[test]
    fn supervised_monitor_survives_stall_and_lands_in_safe_mode() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m)
            .supervised(SupervisorConfig::default())
            .build();
        // Healthy cadence first.
        for ms in (0..500).step_by(100) {
            mon.advance_to(SimTime::from_millis(ms));
        }
        assert_eq!(mode(&mon), DegradationMode::Normal);
        // The monitor loop starves: pumps come rarer than the stall
        // bound, persistently.
        let mut t = 500;
        while mode(&mon) != DegradationMode::SafeMode {
            t += 700;
            mon.advance_to(SimTime::from_millis(t));
            assert!(t < 60_000, "ladder must reach safe mode");
        }
        let report = mon.supervisor_report().unwrap().to_owned();
        assert!(report.retries >= 1, "{report:?}");
        assert!(report.channel_restarts >= 1, "{report:?}");
        assert!(report.micro_reboots >= 1, "{report:?}");
        assert_eq!(report.safe_mode_entries, 1, "{report:?}");
        assert!(mon.channel_epoch >= 1);
        // Safe mode skips every check, so even a glaring mismatch raises
        // nothing — the monitor no longer vouches.
        mon.offer(&key(t + 10));
        mon.offer(&light(t + 10, 55.0));
        mon.advance_to(SimTime::from_millis(t + 20));
        assert!(mon.errors().is_empty());
        assert_eq!(mode(&mon), DegradationMode::SafeMode);
    }

    #[test]
    fn micro_reboot_restores_the_monitor_from_a_checkpoint() {
        let m = toggle_machine();
        let tel = Telemetry::recording(256);
        let mut mon = MonitorBuilder::new(&m)
            .supervised(SupervisorConfig {
                // Keep the breaker out of the way: this test watches the
                // micro-reboot rung, not the safe-mode gate.
                breaker_threshold: 10,
                ..SupervisorConfig::default()
            })
            .telemetry(tel.clone())
            .build();
        // A healthy cadence first.
        for ms in (0..2100).step_by(100) {
            mon.advance_to(SimTime::from_millis(ms));
        }
        // Starve the loop: Retry, two channel restarts, then the budget
        // runs out and the micro-reboot rung fires.
        let mut t = 2100;
        loop {
            t += 700;
            mon.advance_to(SimTime::from_millis(t));
            let report = mon.supervisor_report().unwrap();
            if report.micro_reboots >= 1 {
                break;
            }
            assert!(t < 60_000, "micro-reboot rung must fire");
        }
        let report = mon.supervisor_report().unwrap().to_owned();
        assert_eq!(report.micro_reboots, 1, "{report:?}");
        assert_eq!(report.monitor_restarts, 0, "{report:?}");
        assert_eq!(report.safe_mode_entries, 0, "{report:?}");
        // Epochs only climb: the two restart-rung epochs, then one
        // past them, so no rebuilt channel reuses a consumed stream.
        assert_eq!(report.channel_restarts, 2, "{report:?}");
        assert_eq!(mon.channel_epoch, 3);
        assert_eq!(tel.counter("awareness.monitor.micro_reboots"), 1);
        // A healthy spell relaxes the degradation back to Normal…
        for step in 1..=3 {
            mon.advance_to(SimTime::from_millis(t + step * 100));
        }
        assert_eq!(mode(&mon), DegradationMode::Normal);
        // …and the monitor keeps vouching after the micro-reboot: a
        // mismatch is still detected.
        mon.offer(&key(t + 400));
        mon.offer(&light(t + 400, 0.0));
        mon.advance_to(SimTime::from_millis(t + 500));
        assert!(mon.errors_total >= 1);
    }

    #[test]
    fn unsupervised_monitor_behaviour_is_unchanged_by_gaps() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        mon.advance_to(SimTime::from_millis(10));
        mon.advance_to(SimTime::from_secs(100));
        assert_eq!(mode(&mon), DegradationMode::Normal);
        assert!(mon.supervisor_report().is_none());
    }

    #[test]
    fn comparator_error_triggers_in_loop_diagnosis() {
        use observe::BlockCoverage;
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m)
            .diagnosis(DiagnosisConfig::new(200).with_top_k(4))
            .build();
        let mut cov = BlockCoverage::new(200);

        // Step 1: healthy toggle; blocks 10..20 run.
        mon.offer(&key(10));
        mon.offer(&light(10, 1.0));
        mon.advance_to(SimTime::from_millis(20));
        for b in 10..20 {
            cov.hit(b);
        }
        mon.record_coverage(&cov.snapshot_and_reset());
        assert_eq!(mon.diagnosis().unwrap().failing_steps(), 0);
        assert_eq!(mon.errors_total, 0);

        // Step 2: faulty path 150..155 executes and the light misbehaves.
        mon.offer(&key(30));
        mon.offer(&light(30, 1.0)); // expected 0 after second press
        mon.advance_to(SimTime::from_millis(40));
        for b in (10..20).chain(150..155) {
            cov.hit(b);
        }
        mon.record_coverage(&cov.snapshot_and_reset());

        let diag = mon.diagnosis().unwrap();
        assert_eq!(diag.steps(), 2);
        assert_eq!(diag.failing_steps(), 1);
        assert_eq!(diag.triggered_diagnoses(), 1);
        // The fault region tops the window; the healthy common blocks don't.
        assert_eq!(diag.prime_suspect(), Some(150));
        assert!(mon.errors_total >= 1);
        // Draining errors must not disturb the verdict bookkeeping.
        let _ = mon.drain_errors();
        assert!(mon.errors_total >= 1);
    }

    #[test]
    fn runs_and_snapshots_record_the_same_steps() {
        use observe::{BlockCoverage, CoverageRuns};
        let m = toggle_machine();
        let build = || {
            MonitorBuilder::new(&m)
                .diagnosis(DiagnosisConfig::new(200).with_top_k(4))
                .build()
        };
        let (mut by_runs, mut by_snapshot) = (build(), build());
        // A healthy toggle, then a misbehaving light: the second step fails.
        let steps = [
            (10, 1.0, vec![10..15, 15..20], vec![3]),
            (30, 1.0, vec![10..20, 150..155], vec![3, 190]),
        ];
        for (at, light_value, ranges, blocks) in steps {
            let runs = CoverageRuns { ranges, blocks };
            let mut cov = BlockCoverage::new(200);
            runs.ranges
                .iter()
                .cloned()
                .flatten()
                .chain(runs.blocks.iter().copied())
                .for_each(|b| cov.hit(b));
            for mon in [&mut by_runs, &mut by_snapshot] {
                mon.offer(&key(at));
                mon.offer(&light(at, light_value));
                mon.advance_to(SimTime::from_millis(at + 10));
            }
            by_runs.record_runs(&runs);
            by_snapshot.record_coverage(&cov.snapshot_and_reset());
        }
        let (a, b) = (
            by_runs.diagnosis().unwrap(),
            by_snapshot.diagnosis().unwrap(),
        );
        assert_eq!((a.steps(), a.failing_steps()), (2, 1));
        assert_eq!((b.steps(), b.failing_steps()), (2, 1));
        assert_eq!(a.top_suspects(), b.top_suspects());
        assert_eq!(a.prime_suspect(), Some(150));
    }

    #[test]
    fn diagnosis_disabled_by_default() {
        let m = toggle_machine();
        let mut mon = MonitorBuilder::new(&m).build();
        let mut cov = observe::BlockCoverage::new(10);
        cov.hit(1);
        mon.record_coverage(&cov.snapshot_and_reset()); // no-op
        assert!(mon.diagnosis().is_none());
    }
}
