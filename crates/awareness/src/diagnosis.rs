//! Online diagnosis: spectrum-based fault localization riding the
//! awareness loop.
//!
//! The paper's diagnosis experiment (Sect. 4.4) ran *post-mortem*: record
//! 27 key presses worth of spectra, then rank offline. The replay-debugging
//! line of work behind it stresses that diagnosis only earns its keep when
//! it is cheap enough to run **continuously on-device**. This module wires
//! the streaming [`Diagnoser`] — the one E1 ranks the post-mortem
//! experiment with — into the monitor: the loop driver hands the monitor
//! one step's coverage per key press — as block runs
//! ([`crate::AwarenessMonitor::record_runs`]) or as a snapshot
//! ([`crate::AwarenessMonitor::record_coverage`]) — and the step inherits
//! its pass/fail verdict from the comparator's detections since the
//! previous step. A step only folds counters, in O(hits); the top-k
//! suspect window is scored when it is read ([`OnlineDiagnosis::top_k`])
//! — at any step, mid-run, or once at the end — and equals what a
//! re-rank after every step would have held at that point.

use simkit::SimTime;
use spectra::{Diagnoser, RankingEntry, TopK};
use telemetry::Telemetry;

/// Parameters for in-loop diagnosis.
#[derive(Debug, Clone)]
pub struct DiagnosisConfig {
    /// Instrumented blocks of the SUO.
    pub n_blocks: u32,
    /// Size of the suspect window.
    pub top_k: usize,
}

impl DiagnosisConfig {
    /// Defaults for an SUO with `n_blocks` instrumented blocks.
    pub fn new(n_blocks: u32) -> Self {
        DiagnosisConfig {
            n_blocks,
            top_k: 10,
        }
    }

    /// Sets the suspect-window size.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }
}

/// The monitor-resident diagnosis state: a streaming diagnoser plus
/// bookkeeping tying spectra to the comparator's verdicts.
#[derive(Debug)]
pub struct OnlineDiagnosis {
    diagnoser: Diagnoser,
    errors_at_last_step: u64,
    telemetry: Telemetry,
}

impl OnlineDiagnosis {
    /// Builds the diagnosis state from its configuration.
    pub fn new(config: &DiagnosisConfig) -> Self {
        OnlineDiagnosis {
            diagnoser: Diagnoser::new(config.n_blocks).with_top_k(config.top_k),
            errors_at_last_step: 0,
            telemetry: Telemetry::off(),
        }
    }

    /// Attaches a telemetry handle (step counts, triggered diagnoses, and
    /// the prime suspect after each failing step as a gauge — the one
    /// per-step read of the suspect window, made only while recording).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Records one step at monitor time `now`: `fold` folds the step's
    /// coverage into the diagnoser with the step's verdict. `errors_total`
    /// is the monitor's monotonic detection counter; the step fails iff
    /// it advanced since the previous step.
    pub(crate) fn record(
        &mut self,
        now: SimTime,
        errors_total: u64,
        fold: impl FnOnce(&mut Diagnoser, bool),
    ) {
        let failed = errors_total > self.errors_at_last_step;
        self.errors_at_last_step = errors_total;
        fold(&mut self.diagnoser, failed);
        self.telemetry.metric_incr("awareness.diagnosis.steps", 1);
        if failed {
            self.telemetry
                .count(now, "awareness.diagnosis.triggered", 1);
            if self.telemetry.is_on() {
                if let Some(block) = self.prime_suspect() {
                    self.telemetry.gauge(
                        now,
                        "awareness.diagnosis.prime_suspect",
                        i64::from(block),
                    );
                }
            }
        }
    }

    /// Moves the error baseline forward without recording a step:
    /// detections raised by synthetic probe traffic are *absorbed* so
    /// the next real scenario step does not inherit their failing
    /// verdict (probe coverage is likewise discarded by the loop — see
    /// [`crate::AwarenessMonitor::absorb_synthetic_errors`]).
    pub(crate) fn absorb_errors(&mut self, errors_total: u64) {
        self.errors_at_last_step = errors_total;
    }

    /// The suspect window over the steps recorded so far, scored on
    /// this call (one O(blocks) pass that scores each run of equal
    /// counts the window turns away once).
    pub fn top_k(&self) -> TopK {
        self.diagnoser.top_k()
    }

    /// The current best suspects as ranking entries (scored on this
    /// call, like [`top_k`](Self::top_k)).
    pub fn top_suspects(&self) -> Vec<RankingEntry> {
        self.top_k().entries().to_vec()
    }

    /// The single most suspicious block, if any step was recorded.
    pub fn prime_suspect(&self) -> Option<u32> {
        self.diagnoser.top_k().prime_suspect()
    }

    /// Steps recorded so far.
    pub fn steps(&self) -> usize {
        self.diagnoser.steps()
    }

    /// Steps that inherited a failing verdict from the comparator.
    pub fn failing_steps(&self) -> usize {
        self.diagnoser.counts().failing_steps()
    }

    /// Error-triggered diagnoses: one per failing step.
    pub fn triggered_diagnoses(&self) -> u64 {
        self.failing_steps() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use observe::{BlockCoverage, BlockSnapshot};

    fn record(diag: &mut OnlineDiagnosis, snapshot: &BlockSnapshot, errors_total: u64) {
        diag.record(SimTime::ZERO, errors_total, |d, failed| {
            d.append_snapshot(snapshot, failed)
        });
    }

    #[test]
    fn verdicts_follow_error_counter() {
        let config = DiagnosisConfig::new(100).with_top_k(3);
        let mut diag = OnlineDiagnosis::new(&config);
        let mut cov = BlockCoverage::new(100);

        cov.hit(1);
        cov.hit(2);
        record(&mut diag, &cov.snapshot_and_reset(), 0); // no new errors: pass
        cov.hit(2);
        cov.hit(7);
        record(&mut diag, &cov.snapshot_and_reset(), 1); // counter advanced: fail
        assert_eq!(diag.steps(), 2);
        assert_eq!(diag.failing_steps(), 1);
        assert_eq!(diag.triggered_diagnoses(), 1);
        assert_eq!(diag.prime_suspect(), Some(7));

        // Counter unchanged: next step passes even though errors existed
        // earlier in the run.
        cov.hit(1);
        record(&mut diag, &cov.snapshot_and_reset(), 1);
        assert_eq!(diag.failing_steps(), 1);
        assert_eq!(diag.steps(), 3);
        assert_eq!(diag.top_suspects()[0].block, 7);
    }

    #[test]
    fn config_builders() {
        let c = DiagnosisConfig::new(50).with_top_k(5);
        assert_eq!(c.n_blocks, 50);
        assert_eq!(c.top_k, 5);
        let diag = OnlineDiagnosis::new(&c);
        assert_eq!(diag.steps(), 0);
        assert_eq!(diag.prime_suspect(), None);
        assert!(diag.top_k().entries().is_empty());
    }
}
