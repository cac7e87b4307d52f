//! Property tests for the scorecard's grid-independence contract: a
//! cell's result is a pure function of its coordinates — not of the
//! worker count that ran it, not of which grid it ran inside, not of
//! the order its metrics merged. Four families:
//!
//! 1. the matrix fingerprint and merged metrics are invariant across
//!    worker counts {1, 2, 4, 8};
//! 2. any grid cell's outcome is byte-identical to running the same
//!    [`CellSpec`] standalone;
//! 3. the grid-wide metrics merge is order-insensitive (histograms and
//!    counters are associative + commutative);
//! 4. fault-free twins never detect, for any cell coordinate — zero
//!    false alarms is a property, not a sampled observation.
//!
//! Cells run a handful of 10-press loops each, so case counts stay
//! small; the committed full-grid baseline covers the exhaustive
//! corner.

use chaos::scorecard::{run_scorecard, CellSpec, RecoveryStyle, ScenarioKind, ScorecardConfig};
use proptest::prelude::*;
use telemetry::MetricsRegistry;
use tvsim::TvFault;

fn small_config() -> ScorecardConfig {
    // Probes on: the invariance families must hold for the active
    // observatory too (its schedule is a pure function of the window
    // sequence, so nothing here may depend on the worker count).
    ScorecardConfig {
        reps: 1,
        scenario_len: 10,
        recoveries: vec![RecoveryStyle::MicroReboot],
        probes: true,
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(4))]

    /// Family 1: the whole matrix — fingerprint, per-cell fingerprints,
    /// merged metrics — is byte-identical for workers {1, 2, 4, 8}.
    #[test]
    fn matrix_is_worker_count_invariant(
        workers in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let config = small_config();
        let sequential = run_scorecard(&config, 1);
        let parallel = run_scorecard(&config, workers);

        prop_assert_eq!(sequential.fingerprint(), parallel.fingerprint());
        prop_assert_eq!(sequential.cells.len(), parallel.cells.len());
        for (seq, par) in sequential.cells.iter().zip(&parallel.cells) {
            prop_assert_eq!(
                seq.fingerprint(),
                par.fingerprint(),
                "cell {}/{}/{} diverged under {} workers",
                seq.spec.fault.name(),
                seq.spec.scenario.name(),
                seq.spec.recovery.name(),
                workers
            );
            prop_assert_eq!(&seq.reps, &par.reps);
        }
        prop_assert_eq!(
            sequential.merged_metrics().to_json().render(),
            parallel.merged_metrics().to_json().render()
        );
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(6))]

    /// Family 2: a cell inside the grid equals the same cell run
    /// standalone — results derive from coordinates, never from grid
    /// position or neighbours.
    #[test]
    fn grid_cells_match_standalone_runs(
        cell_index in 0usize..40,
        workers in prop::sample::select(vec![1usize, 3]),
    ) {
        let config = small_config();
        let scorecard = run_scorecard(&config, workers);
        let in_grid = &scorecard.cells[cell_index % scorecard.cells.len()];
        let standalone = in_grid.spec.run();

        prop_assert_eq!(in_grid.fingerprint(), standalone.fingerprint());
        prop_assert_eq!(&in_grid.reps, &standalone.reps);
        prop_assert_eq!(in_grid.twin_detections, standalone.twin_detections);
        prop_assert_eq!(
            in_grid.metrics.to_json().render(),
            standalone.metrics.to_json().render()
        );
    }

    /// Family 3: merging the per-cell registries in any order yields
    /// the same readout — the merge is associative and commutative, so
    /// scheduling can never leak into the folded metrics.
    #[test]
    fn metrics_merge_is_order_insensitive(
        rotation in 0usize..40,
        pair in 0usize..40,
    ) {
        let scorecard = run_scorecard(&small_config(), 2);
        let n = scorecard.cells.len();
        let canonical = scorecard.merged_metrics().to_json().render();

        // A rotation of the fold order…
        let rotated = MetricsRegistry::merge_all(
            (0..n).map(|i| &scorecard.cells[(i + rotation) % n].metrics),
        );
        prop_assert_eq!(rotated.to_json().render(), canonical.clone());

        // …and an adjacent transposition.
        let mut order: Vec<usize> = (0..n).collect();
        order.swap(pair % n, (pair + 1) % n);
        let swapped =
            MetricsRegistry::merge_all(order.iter().map(|&i| &scorecard.cells[i].metrics));
        prop_assert_eq!(swapped.to_json().render(), canonical);
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(12))]

    /// Family 4: the fault-free twin of any cell coordinate reports
    /// zero detections — the comparator never cries wolf on a healthy
    /// loop, whatever the workload or recovery style.
    #[test]
    fn twins_never_false_alarm(
        fault in prop::sample::select(TvFault::ALL.to_vec()),
        scenario in prop::sample::select(ScenarioKind::ALL.to_vec()),
        recovery in prop::sample::select(RecoveryStyle::ALL.to_vec()),
        reps in 1usize..3,
        probes in any::<bool>(),
    ) {
        let outcome = CellSpec {
            fault,
            scenario,
            recovery,
            reps,
            scenario_len: 12,
            probes,
        }
        .run();
        prop_assert_eq!(
            outcome.twin_detections,
            0,
            "false alarm in the twin of {}/{}/{}",
            fault.name(),
            scenario.name(),
            recovery.name()
        );
    }
}
