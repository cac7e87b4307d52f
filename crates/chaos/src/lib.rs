//! # chaos — deterministic fault-campaign engine
//!
//! The paper's central claim is that dependability must be *engineered
//! in* and then *demonstrated* — the industry-as-laboratory approach
//! validates the awareness loop against realistic fault loads, not
//! hand-picked single faults. This crate turns that into an executable
//! regression: **campaigns**.
//!
//! A campaign is derived *entirely* from one `u64` seed
//! ([`CampaignSpec::from_seed`]): a multi-fault injection plan over the
//! television SUO, a disturbed process boundary (delay, jitter, loss),
//! the channel protocol and supervision configuration, and a resource
//! stress leg ([`StressPlan`]) composing the TASS-style eaters with a
//! deadlock cycle. Running the campaign ([`CampaignSpec::run`]) drives
//! the full closed loop *and* an open-loop twin over the same scenario,
//! then [`check_invariants`] audits the outcome:
//!
//! 1. **No panic** — the run completed and processed every press.
//! 2. **Determinism** — open and closed arms saw identical fault edges;
//!    replaying the seed reproduces the outcome bit for bit
//!    ([`CampaignOutcome::fingerprint`]).
//! 3. **Bounded detection latency** — when the monitor detects, it
//!    detects within [`detection_latency_bound`].
//! 4. **Recovery convergence** — the closed loop never shows more
//!    user-visible failures than its open-loop twin.
//! 5. **Channel accounting conservation** — `sent == delivered + lost +
//!    in_flight` on the monitor's boundary channels, and the reliable
//!    protocol abandons nothing (`lost == 0`).
//! 6. **Stress sanity** — eaters measurably degrade their resource and
//!    the injected wait-for cycle is detected.
//!
//! Running a campaign with a recording [`telemetry::Telemetry`] handle
//! ([`CampaignSpec::run_with`]) arms a flight recorder on the closed
//! arm; if an invariant then trips, [`forensics`] drains the newest
//! events into the failure report as a JSONL timeline — the offending
//! component's fault edges, detections, and restarts are in the dump
//! itself, not just the reproducing seed. [`replay`] closes the loop
//! the other way: it parses such a dump back into the campaign that
//! produced it and re-executes it, asserting a byte-identical
//! fingerprint — trace-driven failure replay.
//!
//! [`fleet`] scales all of this from single campaigns to *populations*:
//! [`run_fleet`] executes an arbitrary slice of specs
//! across N self-scheduling workers, each campaign isolated with its
//! own telemetry and audited on the worker, and merges the results in
//! canonical seed order — the fleet fingerprint is byte-identical for
//! every worker count, so parallelism never costs reproducibility. The
//! work-stealing machinery itself is the generic
//! [`exec::scatter_map`], shared with [`scorecard`]: the coverage
//! matrix that *enumerates* every fault class × workload × recovery
//! style as its own small campaign and folds the grid into a
//! [`DependabilityScorecard`] —
//! detection rates, MTTD/MTTR histograms, collateral damage, and
//! false-alarm twins, all worker-count-invariant.
//!
//! [`experiments`] holds the harnesses that run on this crate's data:
//! E16 (micro-reboot MTTR over seed-derived campaigns), E18 (the
//! scorecard sweep and its baseline gate) and E19 (the scorecard with
//! the active health observatory on).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod exec;
pub mod experiments;
pub mod fleet;
pub mod forensics;
pub mod invariants;
pub mod replay;
pub mod scorecard;
pub mod stress;

pub use campaign::{CampaignOutcome, CampaignSpec, FaultPlan};
pub use exec::scatter_map;
pub use fleet::{fleet_specs, regression_fleet, run_fleet, FleetCampaignResult, FleetOutcome};
pub use forensics::{assert_with_forensics, audit_with_forensics, ForensicReport};
pub use invariants::{assert_invariants, check_invariants, detection_latency_bound};
pub use replay::{replay_dump, ReplayReport};
pub use scorecard::{
    run_scorecard, CellOutcome, CellSpec, DependabilityScorecard, RecoveryStyle, ScenarioKind,
    ScorecardConfig,
};
pub use stress::{StressOutcome, StressPlan};

/// Builds and runs the campaign for `seed`.
///
/// Everything about the campaign — fault mix, schedules, channel
/// disturbance, protocol, supervision, stress shares — is derived from
/// the seed, so a failure report only ever needs to print this one
/// number to be reproducible.
pub fn run_campaign(seed: u64) -> CampaignOutcome {
    CampaignSpec::from_seed(seed).run()
}

/// The FNV-1a state behind every fingerprint and cell seed in this
/// crate.
struct Fnv(u64);

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one whole word.
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }

    /// Folds in a byte string byte by byte, then a `0xFF` separator so
    /// `("ab", "c")` and `("a", "bc")` differ.
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
        self.mix(0xFF);
    }

    fn finish(self) -> u64 {
        self.0
    }
}
