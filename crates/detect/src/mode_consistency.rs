//! Mode-consistency checking across components.
//!
//! Reproduces the detection approach of Sözer, Hofmann, Tekinerdoğan &
//! Akşit ("Detecting mode inconsistencies in component-based embedded
//! software", DSN-WADS 2007) that the paper reports as "successful to
//! detect teletext problems due to a loss of synchronization between
//! components" (Sect. 4.3): each component exposes its current mode; a set
//! of declarative rules states which mode combinations are legal.

use crate::detector::{Detector, ErrorEvent, ErrorSeverity};
use observe::{Observation, ObservationKind};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A declarative consistency rule: **when** `component` is in `mode`,
/// **then** `peer` must be in one of `allowed_modes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyRule {
    /// Rule name (for error messages).
    pub name: Cow<'static, str>,
    /// The triggering component.
    pub component: Cow<'static, str>,
    /// The triggering mode.
    pub mode: Cow<'static, str>,
    /// The constrained peer component.
    pub peer: Cow<'static, str>,
    /// Modes the peer may legally be in.
    pub allowed_modes: Vec<Cow<'static, str>>,
}

impl ConsistencyRule {
    /// Creates a rule.
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        component: impl Into<Cow<'static, str>>,
        mode: impl Into<Cow<'static, str>>,
        peer: impl Into<Cow<'static, str>>,
        allowed_modes: impl IntoIterator<Item = impl Into<Cow<'static, str>>>,
    ) -> Self {
        ConsistencyRule {
            name: name.into(),
            component: component.into(),
            mode: mode.into(),
            peer: peer.into(),
            allowed_modes: allowed_modes.into_iter().map(Into::into).collect(),
        }
    }
}

/// Tracks component modes and checks rules on every mode change.
///
/// ```
/// use detect::{ModeConsistencyDetector, ConsistencyRule, Detector};
/// use observe::{Observation, ObservationKind};
/// use simkit::SimTime;
///
/// let mut d = ModeConsistencyDetector::new();
/// d.add_rule(ConsistencyRule::new(
///     "txt-sync", "ui", "teletext", "decoder", ["teletext"],
/// ));
/// let mode = |c: &'static str, m: &'static str, t: u64| Observation::new(
///     SimTime::from_millis(t), c,
///     ObservationKind::Mode { component: c.into(), mode: m.into() },
/// );
/// assert!(d.observe(&mode("decoder", "video", 0)).is_empty());
/// // UI enters teletext while the decoder still decodes video: sync loss.
/// let errs = d.observe(&mode("ui", "teletext", 1));
/// assert_eq!(errs.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModeConsistencyDetector {
    rules: Vec<ConsistencyRule>,
    modes: BTreeMap<Cow<'static, str>, Cow<'static, str>>,
    violations: u64,
}

impl ModeConsistencyDetector {
    /// Creates a detector with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a rule.
    pub fn add_rule(&mut self, rule: ConsistencyRule) {
        self.rules.push(rule);
    }

    /// Rule violations raised so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    fn check_rules(&mut self, time: simkit::SimTime) -> Vec<ErrorEvent> {
        let mut errs = Vec::new();
        for rule in &self.rules {
            let Some(trigger_mode) = self.modes.get(&rule.component) else {
                continue;
            };
            if trigger_mode != &rule.mode {
                continue;
            }
            let Some(peer_mode) = self.modes.get(&rule.peer) else {
                // Peer mode unknown yet: not checkable.
                continue;
            };
            if !rule.allowed_modes.contains(peer_mode) {
                errs.push(ErrorEvent {
                    time,
                    detector: format!("mode-consistency:{}", rule.name),
                    description: format!(
                        "`{}` is in `{}` but `{}` is in `{}` (allowed: {})",
                        rule.component,
                        rule.mode,
                        rule.peer,
                        peer_mode,
                        rule.allowed_modes.join("|")
                    ),
                    severity: ErrorSeverity::Major,
                });
            }
        }
        self.violations += errs.len() as u64;
        errs
    }
}

impl Detector for ModeConsistencyDetector {
    fn observe(&mut self, observation: &Observation) -> Vec<ErrorEvent> {
        let ObservationKind::Mode { component, mode } = &observation.kind else {
            return Vec::new();
        };
        self.modes.insert(component.clone(), mode.clone());
        self.check_rules(observation.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    fn mode(c: &'static str, m: &'static str, t: u64) -> Observation {
        Observation::new(
            SimTime::from_millis(t),
            c,
            ObservationKind::Mode {
                component: c.into(),
                mode: m.into(),
            },
        )
    }

    fn teletext_rule() -> ConsistencyRule {
        ConsistencyRule::new("txt-sync", "ui", "teletext", "decoder", ["teletext"])
    }

    #[test]
    fn consistent_modes_pass() {
        let mut d = ModeConsistencyDetector::new();
        d.add_rule(teletext_rule());
        assert!(d.observe(&mode("decoder", "teletext", 0)).is_empty());
        assert!(d.observe(&mode("ui", "teletext", 1)).is_empty());
        assert_eq!(d.violations(), 0);
        assert_eq!(d.modes.get("ui").map(|mode| &**mode), Some("teletext"));
    }

    #[test]
    fn sync_loss_detected() {
        let mut d = ModeConsistencyDetector::new();
        d.add_rule(teletext_rule());
        d.observe(&mode("decoder", "video", 0));
        let errs = d.observe(&mode("ui", "teletext", 5));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].description.contains("decoder"));
        assert_eq!(d.violations(), 1);
    }

    #[test]
    fn violation_also_fires_when_peer_changes_later() {
        let mut d = ModeConsistencyDetector::new();
        d.add_rule(teletext_rule());
        d.observe(&mode("decoder", "teletext", 0));
        d.observe(&mode("ui", "teletext", 1));
        // Decoder falls out of teletext while UI stays in it.
        let errs = d.observe(&mode("decoder", "video", 2));
        assert_eq!(errs.len(), 1);
    }

    #[test]
    fn unknown_peer_not_checkable() {
        let mut d = ModeConsistencyDetector::new();
        d.add_rule(teletext_rule());
        assert!(d.observe(&mode("ui", "teletext", 0)).is_empty());
    }

    #[test]
    fn non_mode_observations_ignored() {
        let mut d = ModeConsistencyDetector::new();
        d.add_rule(teletext_rule());
        let obs = Observation::key_press(SimTime::ZERO, "x", "ok", None);
        assert!(d.observe(&obs).is_empty());
    }

    #[test]
    fn multiple_allowed_modes() {
        let mut d = ModeConsistencyDetector::new();
        d.add_rule(ConsistencyRule::new(
            "dual",
            "ui",
            "dualscreen",
            "scaler",
            ["split", "pip"],
        ));
        d.observe(&mode("scaler", "pip", 0));
        assert!(d.observe(&mode("ui", "dualscreen", 1)).is_empty());
        d.observe(&mode("scaler", "full", 2));
        assert_eq!(d.violations(), 1);
    }
}
