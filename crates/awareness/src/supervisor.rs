//! Monitor self-supervision: who watches the watcher.
//!
//! The awareness monitor is itself software running on the same loaded
//! platform as the SUO (paper Sect. 4.2: resource stress is a primary
//! failure trigger). A starved or flooded monitor silently stops being a
//! dependability asset — worse, it keeps *claiming* health. The
//! [`Supervisor`] closes a second, inner awareness loop around the
//! monitor:
//!
//! * a **heartbeat watchdog** — every pump of the monitor's event loop
//!   records a heartbeat; a gap longer than the configured stall bound
//!   means the monitor was starved (e.g. by a CPU eater);
//! * a **backlog watermark** — undelivered boundary-channel messages
//!   above the overload limit mean the monitor is falling behind;
//! * **graceful degradation** — after a stall
//!   ([`DegradationMode::Relaxed`]) or under overload
//!   ([`DegradationMode::Shedding`]) the comparator widens every
//!   tolerance while the monitor re-synchronises: thresholds double
//!   (exact specs get an absolute slack of 0.5) and two more
//!   consecutive deviations are tolerated;
//! * an **escalation ladder** built from the recovery crate's
//!   primitives: cheap retry → restart the boundary channels
//!   ([`recovery::EscalationPolicy`] unit restart) → micro-reboot the
//!   monitor from its latest validated checkpoint (policy escalation) →
//!   restart the whole monitor → **safe mode** when the
//!   [`recovery::CircuitBreaker`] trips. Safe mode is sticky and honest:
//!   every check is skipped, so the monitor stops vouching for health it
//!   can no longer assess.

use recovery::{CircuitBreaker, EscalationPolicy, RecoveryAction};
use simkit::{SimDuration, SimTime};
use telemetry::Telemetry;

/// How far the monitor has degraded, from healthy to safe mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationMode {
    /// Full checking, nominal tolerances.
    Normal,
    /// Tolerances widened (post-stall re-synchronisation).
    Relaxed,
    /// Tolerances widened as in `Relaxed`; the label records that
    /// overload, not a stall, caused it.
    Shedding,
    /// Every check skipped; sticky until explicitly left.
    SafeMode,
}

impl DegradationMode {
    /// Stable lowercase label used in telemetry transitions.
    pub fn label(self) -> &'static str {
        match self {
            DegradationMode::Normal => "normal",
            DegradationMode::Relaxed => "relaxed",
            DegradationMode::Shedding => "shedding",
            DegradationMode::SafeMode => "safe_mode",
        }
    }
}

/// Watchdog and escalation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Heartbeat gap beyond which the monitor counts as stalled.
    pub stall_after: SimDuration,
    /// Undelivered boundary messages beyond which the monitor counts as
    /// overloaded.
    pub overload_backlog: usize,
    /// Channel restarts allowed per window before escalating to a
    /// micro-reboot (the [`EscalationPolicy`] budget).
    pub max_channel_restarts: u32,
    /// Sliding window for the restart budget.
    pub restart_window: SimDuration,
    /// Consecutive escalated anomalies before the breaker opens and the
    /// monitor drops to safe mode.
    pub breaker_threshold: u32,
    /// Breaker cool-down (a healthy probe after this closes it again).
    pub breaker_cooldown: SimDuration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            stall_after: SimDuration::from_millis(500),
            overload_backlog: 64,
            max_channel_restarts: 2,
            restart_window: SimDuration::from_secs(10),
            breaker_threshold: 4,
            breaker_cooldown: SimDuration::from_secs(5),
        }
    }
}

impl SupervisorConfig {
    /// The same as [`SupervisorConfig::default`]: the micro-reboot rung
    /// is always on. Kept because the benchmark harness and older tests
    /// call it by name.
    pub fn with_micro_reboot() -> Self {
        Self::default()
    }
}

/// A structural action the supervised monitor must carry out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorAction {
    /// Clear comparator streaks and re-synchronise; cheapest rung.
    Retry,
    /// Drop and re-create the boundary channels' in-flight state.
    RestartChannels,
    /// Restore the monitor from its latest validated checkpoint,
    /// keeping the executing model — cheaper than a full restart. Falls
    /// back to [`SupervisorAction::RestartMonitor`] when the checkpoint
    /// history is exhausted.
    MicroRebootMonitor,
    /// Restart the whole monitor (model, comparator, channels).
    RestartMonitor,
    /// Enter sticky safe mode.
    EnterSafeMode,
}

/// Self-supervision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorReport {
    /// Heartbeats recorded.
    pub heartbeats: u64,
    /// Stalls detected by the watchdog.
    pub stalls: u64,
    /// Overload episodes detected.
    pub overloads: u64,
    /// Cheap retries issued (first ladder rung).
    pub retries: u64,
    /// Channel restarts issued (second rung).
    pub channel_restarts: u64,
    /// Micro-reboots issued (third rung).
    pub micro_reboots: u64,
    /// Full monitor restarts issued (fourth rung).
    pub monitor_restarts: u64,
    /// Safe-mode entries (final rung).
    pub safe_mode_entries: u64,
}

impl SupervisorReport {
    /// The highest escalation rung reached: 0 none, 1 retry, 2 channel
    /// restart, 3 micro-reboot, 4 monitor restart, 5 safe mode.
    pub fn rung(&self) -> u8 {
        let ladder = [
            self.retries,
            self.channel_restarts,
            self.micro_reboots,
            self.monitor_restarts,
            self.safe_mode_entries,
        ];
        ladder
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i as u8 + 1)
    }
}

/// The monitor's watchdog and degradation governor.
///
/// Drive it with [`Supervisor::observe`] (before pumping, so the
/// heartbeat gap is visible) and [`Supervisor::heartbeat`] (after a
/// successful pump). `observe` returns the structural action, if any,
/// the caller must apply; the current [`DegradationMode`] tells the
/// comparator how far to widen its tolerances.
#[derive(Debug, Clone)]
pub struct Supervisor {
    config: SupervisorConfig,
    escalation: EscalationPolicy,
    breaker: CircuitBreaker,
    last_heartbeat: Option<SimTime>,
    consecutive_anomalies: u32,
    micro_attempted: bool,
    mode: DegradationMode,
    report: SupervisorReport,
    telemetry: Telemetry,
}

impl Supervisor {
    /// Creates a supervisor in [`DegradationMode::Normal`].
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            escalation: EscalationPolicy::new(config.max_channel_restarts, config.restart_window),
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            config,
            last_heartbeat: None,
            consecutive_anomalies: 0,
            micro_attempted: false,
            mode: DegradationMode::Normal,
            report: SupervisorReport::default(),
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle (mode transitions, stall/overload and
    /// ladder-rung counters).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Switches mode, emitting the transition on the timeline.
    fn set_mode(&mut self, now: SimTime, mode: DegradationMode) {
        if self.mode != mode {
            self.telemetry.transition(
                now,
                "awareness.supervisor.mode",
                self.mode.label(),
                mode.label(),
            );
        }
        self.mode = mode;
    }

    /// The configuration in force.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// The current degradation mode.
    pub fn mode(&self) -> DegradationMode {
        self.mode
    }

    /// Self-supervision counters.
    pub fn report(&self) -> &SupervisorReport {
        &self.report
    }

    /// Records that the monitor's event loop ran at `now`.
    pub fn heartbeat(&mut self, now: SimTime) {
        self.report.heartbeats += 1;
        self.last_heartbeat = Some(self.last_heartbeat.map_or(now, |t| t.max(now)));
    }

    /// Assesses monitor health at `now` given the boundary backlog, and
    /// returns the structural action to apply, if any.
    ///
    /// Anomalies climb the ladder: the first anomaly after a healthy
    /// spell costs a cheap [`SupervisorAction::Retry`]; anomalies
    /// recurring within the restart window consume channel restarts,
    /// then a micro-reboot, then a monitor restart; when even that keeps
    /// failing, the circuit breaker opens and the supervisor drops to
    /// sticky safe mode.
    pub fn observe(&mut self, now: SimTime, backlog: usize) -> Option<SupervisorAction> {
        if self.mode == DegradationMode::SafeMode {
            return None;
        }
        let stalled = match self.last_heartbeat {
            Some(last) => now.since(last) > self.config.stall_after,
            None => false,
        };
        let overloaded = backlog > self.config.overload_backlog;
        if stalled {
            self.report.stalls += 1;
            self.telemetry.count(now, "awareness.supervisor.stalls", 1);
        }
        if overloaded {
            self.report.overloads += 1;
            self.telemetry
                .count(now, "awareness.supervisor.overloads", 1);
        }
        if !stalled && !overloaded {
            // Healthy assessment: heal the breaker, reset the ladder,
            // and relax any transient degradation (safe mode is handled
            // above).
            self.breaker.record(now, true);
            self.consecutive_anomalies = 0;
            self.micro_attempted = false;
            self.set_mode(now, DegradationMode::Normal);
            return None;
        }
        // Degrade first; the mode records whether overload or a stall
        // caused it.
        self.set_mode(
            now,
            if overloaded {
                DegradationMode::Shedding
            } else {
                DegradationMode::Relaxed
            },
        );
        self.consecutive_anomalies += 1;
        if !self.breaker.allows(now) {
            return Some(self.enter_safe_mode(now));
        }
        self.breaker.record(now, false);
        if self.consecutive_anomalies == 1 {
            // First anomaly after a healthy spell: cheap resync only.
            self.report.retries += 1;
            self.telemetry.count(now, "awareness.supervisor.retries", 1);
            return Some(SupervisorAction::Retry);
        }
        if self.micro_attempted {
            // The micro-reboot rung already ran and the anomaly persists:
            // the ladder keeps climbing — no dropping back below it.
            self.micro_attempted = false;
            self.report.monitor_restarts += 1;
            self.telemetry
                .count(now, "awareness.supervisor.monitor_restarts", 1);
            return Some(SupervisorAction::RestartMonitor);
        }
        let unit = if stalled { "monitor-loop" } else { "boundary" };
        match self.escalation.decide(now, unit) {
            RecoveryAction::RestartAll => {
                self.micro_attempted = true;
                self.report.micro_reboots += 1;
                self.telemetry
                    .count(now, "awareness.supervisor.micro_reboots", 1);
                Some(SupervisorAction::MicroRebootMonitor)
            }
            // RestartUnit (and any future partial action) maps to the
            // channel-restart rung.
            _ => {
                self.report.channel_restarts += 1;
                self.telemetry
                    .count(now, "awareness.supervisor.channel_restarts", 1);
                Some(SupervisorAction::RestartChannels)
            }
        }
    }

    fn enter_safe_mode(&mut self, now: SimTime) -> SupervisorAction {
        self.set_mode(now, DegradationMode::SafeMode);
        self.report.safe_mode_entries += 1;
        self.telemetry
            .count(now, "awareness.supervisor.safe_mode_entries", 1);
        SupervisorAction::EnterSafeMode
    }

    /// Leaves safe mode explicitly (operator intervention): the ladder
    /// and breaker restart from a clean slate.
    pub fn leave_safe_mode(&mut self) {
        if self.mode == DegradationMode::SafeMode {
            self.mode = DegradationMode::Normal;
            self.escalation =
                EscalationPolicy::new(self.config.max_channel_restarts, self.config.restart_window);
            self.breaker =
                CircuitBreaker::new(self.config.breaker_threshold, self.config.breaker_cooldown);
            self.last_heartbeat = None;
            self.consecutive_anomalies = 0;
            self.micro_attempted = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup() -> Supervisor {
        Supervisor::new(SupervisorConfig::default())
    }

    #[test]
    fn rung_0_when_nothing_escalated() {
        let report = SupervisorReport {
            heartbeats: 40,
            stalls: 0,
            overloads: 3,
            ..SupervisorReport::default()
        };
        assert_eq!(report.rung(), 0);
    }

    #[test]
    fn rung_1_after_a_retry() {
        let report = SupervisorReport {
            retries: 2,
            ..SupervisorReport::default()
        };
        assert_eq!(report.rung(), 1);
    }

    #[test]
    fn rung_2_after_a_channel_restart() {
        let report = SupervisorReport {
            retries: 1,
            channel_restarts: 1,
            ..SupervisorReport::default()
        };
        assert_eq!(report.rung(), 2);
    }

    #[test]
    fn rung_3_after_a_micro_reboot() {
        let report = SupervisorReport {
            micro_reboots: 1,
            ..SupervisorReport::default()
        };
        assert_eq!(report.rung(), 3);
    }

    #[test]
    fn rung_4_after_a_monitor_restart() {
        let report = SupervisorReport {
            retries: 5,
            micro_reboots: 1,
            monitor_restarts: 1,
            ..SupervisorReport::default()
        };
        assert_eq!(report.rung(), 4);
    }

    #[test]
    fn rung_5_in_safe_mode() {
        let report = SupervisorReport {
            retries: 1,
            channel_restarts: 2,
            monitor_restarts: 1,
            safe_mode_entries: 1,
            ..SupervisorReport::default()
        };
        assert_eq!(report.rung(), 5);
    }

    #[test]
    fn healthy_monitor_stays_normal() {
        let mut s = sup();
        for ms in (0..2000).step_by(100) {
            let t = SimTime::from_millis(ms);
            assert_eq!(s.observe(t, 0), None);
            s.heartbeat(t);
        }
        assert_eq!(s.mode(), DegradationMode::Normal);
        assert_eq!(s.report().stalls, 0);
        assert_eq!(s.report().retries, 0);
    }

    #[test]
    fn persistent_stall_climbs_the_full_ladder_into_safe_mode() {
        let mut s = sup();
        s.heartbeat(SimTime::ZERO);
        // Heartbeats stop; assessments every 600ms (> 500ms stall bound).
        let mut actions = Vec::new();
        for k in 1..=10u64 {
            let t = SimTime::from_millis(600 * k);
            actions.extend(s.observe(t, 0));
            if s.mode() == DegradationMode::SafeMode {
                break;
            }
        }
        assert_eq!(
            actions,
            vec![
                SupervisorAction::Retry,
                SupervisorAction::RestartChannels,
                SupervisorAction::RestartChannels,
                SupervisorAction::MicroRebootMonitor,
                SupervisorAction::EnterSafeMode,
            ],
            "{:?}",
            s.report()
        );
        assert_eq!(s.mode(), DegradationMode::SafeMode);
        assert_eq!(s.report().safe_mode_entries, 1);
        // Safe mode is sticky and quiet.
        assert_eq!(s.observe(SimTime::from_secs(60), 1000), None);
        assert_eq!(s.mode(), DegradationMode::SafeMode);
    }

    #[test]
    fn micro_reboot_rung_sits_between_channels_and_monitor_restart() {
        let mut s = Supervisor::new(SupervisorConfig {
            // One extra breaker credit so the full six-rung ladder is
            // visible before safe mode.
            breaker_threshold: 5,
            ..SupervisorConfig::default()
        });
        s.heartbeat(SimTime::ZERO);
        let mut actions = Vec::new();
        for k in 1..=10u64 {
            let t = SimTime::from_millis(600 * k);
            actions.extend(s.observe(t, 0));
            if s.mode() == DegradationMode::SafeMode {
                break;
            }
        }
        assert_eq!(
            actions,
            vec![
                SupervisorAction::Retry,
                SupervisorAction::RestartChannels,
                SupervisorAction::RestartChannels,
                SupervisorAction::MicroRebootMonitor,
                SupervisorAction::RestartMonitor,
                SupervisorAction::EnterSafeMode,
            ],
            "{:?}",
            s.report()
        );
        assert_eq!(s.report().micro_reboots, 1);
        assert_eq!(s.report().monitor_restarts, 1);
    }

    #[test]
    fn healthy_spell_rearms_the_micro_reboot_rung() {
        let mut s = Supervisor::new(SupervisorConfig {
            // Generous breaker so the climb-heal-climb cycle never trips
            // it — the re-arming of the rung is what's under test.
            breaker_threshold: 10,
            ..SupervisorConfig::default()
        });
        let mut t = SimTime::ZERO;
        s.heartbeat(t);
        // Climb to the micro-reboot rung.
        let mut climbed = Vec::new();
        for _ in 0..4 {
            t += SimDuration::from_millis(600);
            climbed.extend(s.observe(t, 0));
        }
        assert_eq!(climbed.last(), Some(&SupervisorAction::MicroRebootMonitor));
        // A healthy assessment resets the ladder and the micro attempt.
        s.heartbeat(t);
        t += SimDuration::from_millis(100);
        assert_eq!(s.observe(t, 0), None);
        // A fresh anomaly starts back at the cheap rung, and the micro
        // rung is available again on the next climb.
        t += SimDuration::from_millis(600);
        assert_eq!(s.observe(t, 0), Some(SupervisorAction::Retry));
        assert_eq!(s.report().micro_reboots, 1);
    }

    #[test]
    fn overload_sheds_then_recovers() {
        let mut s = sup();
        let t0 = SimTime::ZERO;
        s.heartbeat(t0);
        let t1 = SimTime::from_millis(100);
        let action = s.observe(t1, 1000);
        assert_eq!(action, Some(SupervisorAction::Retry));
        assert_eq!(s.mode(), DegradationMode::Shedding);
        // Backlog drains: back to normal, ladder reset.
        s.heartbeat(t1);
        assert_eq!(s.observe(SimTime::from_millis(200), 0), None);
        assert_eq!(s.mode(), DegradationMode::Normal);
    }

    #[test]
    fn transient_stall_relaxes_then_heals() {
        let mut s = sup();
        s.heartbeat(SimTime::ZERO);
        let action = s.observe(SimTime::from_secs(2), 0);
        assert_eq!(action, Some(SupervisorAction::Retry));
        assert_eq!(s.mode(), DegradationMode::Relaxed);
        s.heartbeat(SimTime::from_secs(2));
        assert_eq!(s.observe(SimTime::from_millis(2100), 0), None);
        assert_eq!(s.mode(), DegradationMode::Normal);
    }

    #[test]
    fn leave_safe_mode_resets_the_ladder() {
        let mut s = sup();
        s.heartbeat(SimTime::ZERO);
        for k in 1..=10u64 {
            s.observe(SimTime::from_millis(600 * k), 0);
        }
        assert_eq!(s.mode(), DegradationMode::SafeMode);
        s.leave_safe_mode();
        assert_eq!(s.mode(), DegradationMode::Normal);
        // The ladder starts over from the cheap rung.
        s.heartbeat(SimTime::from_secs(100));
        let action = s.observe(SimTime::from_secs(102), 0);
        assert_eq!(action, Some(SupervisorAction::Retry));
    }

    #[test]
    fn interleaved_recovery_keeps_breaker_closed() {
        let mut s = sup();
        let mut t = SimTime::ZERO;
        s.heartbeat(t);
        // Alternating stall / recovery for a long time never reaches
        // safe mode: every healthy assessment heals the breaker.
        for _ in 0..50 {
            t += SimDuration::from_millis(700);
            let action = s.observe(t, 0);
            assert_eq!(action, Some(SupervisorAction::Retry));
            s.heartbeat(t);
            t += SimDuration::from_millis(100);
            assert_eq!(s.observe(t, 0), None);
        }
        assert_eq!(s.mode(), DegradationMode::Normal);
        assert_eq!(s.report().safe_mode_entries, 0);
        assert_eq!(s.report().stalls, 50);
    }
}
