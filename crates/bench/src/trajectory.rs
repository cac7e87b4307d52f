//! Bench-trajectory aggregation: every `BENCH_*.json` folded into one
//! `BENCH_trajectory.json`, diffable across commits.
//!
//! Each experiment bench writes a machine-readable `BENCH_<id>.json` at
//! the workspace root; CI uploads them as artifacts, but nothing so far
//! *compared* consecutive commits — a silently shrinking detection
//! coverage or a diagnosis rank creeping from 1 to 4 would sail
//! through as long as each bench's own hard asserts held.
//! [`collect`] flattens the scalar top-level facts of every bench
//! report into one trajectory document, and [`diff`] compares two such
//! documents under the curated [`GATES`] table: correctness booleans
//! must stay true, counts like `scorecard_regressions` must not grow,
//! coverage ratios must not shrink beyond their per-metric tolerance.
//! Wall-clock timings are deliberately *not* gated — CI runners are
//! shared hardware and their noise would make the gate cry wolf; the
//! trajectory file still records them for humans to eyeball.
//!
//! The `bench_trajectory` binary (and `scripts/bench_trajectory.sh`)
//! wires this into CI: collect, write, diff against the previous
//! commit's artifact (restored from the actions cache), fail on
//! regression.

use std::fs;
use std::path::Path;

use telemetry::json::Json;

/// How a gated metric is allowed to move between commits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// A correctness boolean: once true, it must stay true.
    StayTrue,
    /// A smaller-is-better metric (rank, regression count): the current
    /// value may exceed the previous by at most this relative headroom
    /// (0.0 = must not grow at all).
    NotAbove(f64),
    /// A bigger-is-better metric (coverage, speedup floor): the current
    /// value may fall short of the previous by at most this relative
    /// headroom (0.0 = must not shrink at all).
    NotBelow(f64),
}

/// One gated metric: bench id (the `<id>` of `BENCH_<id>.json`), the
/// top-level field name, and the rule.
pub type Gate = (&'static str, &'static str, Rule);

/// The curated gate table. Only deterministic verdicts and
/// virtual-time-derived quantities are listed; wall-clock timings are
/// recorded in the trajectory but never gated.
pub const GATES: &[Gate] = &[
    ("e1", "ochiai_best_case_rank", Rule::NotAbove(0.0)),
    // The best case hides the tie group the fault shares; the mid-tie
    // rank shows when that group grows.
    ("e1", "ochiai_mid_tie_rank", Rule::NotAbove(0.0)),
    ("e14", "oracle_agrees", Rule::StayTrue),
    ("e15", "within_budget", Rule::StayTrue),
    ("e15", "outcomes_agree", Rule::StayTrue),
    ("e16", "mttr_improvement_ok", Rule::StayTrue),
    // Virtual-time ratio over a handful of campaigns — allow headroom
    // for pipeline reshapes.
    ("e16", "min_mttr_ratio", Rule::NotBelow(0.5)),
    ("e17", "fleet_deterministic", Rule::StayTrue),
    ("e18", "matrix_deterministic", Rule::StayTrue),
    ("e18", "twin_false_alarms", Rule::NotAbove(0.0)),
    ("e18", "scorecard_regressions", Rule::NotAbove(0.0)),
    ("e18", "covered_cells", Rule::NotBelow(0.0)),
    ("e18", "detection_coverage", Rule::NotBelow(0.0)),
    ("e19", "coverage_lift_ok", Rule::StayTrue),
    ("e19", "sleep_timer_lost_ok", Rule::StayTrue),
    ("e19", "matrix_deterministic", Rule::StayTrue),
    ("e19", "probe_false_alarms", Rule::NotAbove(0.0)),
    // The headline ratchet: once the observatory lifts detection
    // coverage, no later commit may quietly give that coverage back.
    ("e19", "detection_coverage", Rule::NotBelow(0.0)),
];

/// Collects every `BENCH_<id>.json` directly under `root` into one
/// trajectory document:
///
/// ```json
/// {"format": "bench-trajectory-v1",
///  "benches": {"e1": {...scalars...}, "e14": {...}, ...}}
/// ```
///
/// Only scalar top-level fields (bools, numbers, strings) are carried
/// over — nested cell arrays stay in the per-bench artifacts. The
/// trajectory file itself (`BENCH_trajectory.json`) is excluded from
/// the scan. Unparsable reports are skipped, with the file name
/// recorded under `"skipped"` so a corrupt artifact is visible instead
/// of silently absent.
pub fn collect(root: &Path) -> Json {
    let mut names: Vec<String> = Vec::new();
    if let Ok(entries) = fs::read_dir(root) {
        for entry in entries.flatten() {
            let file = entry.file_name().to_string_lossy().into_owned();
            if let Some(id) = file
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
            {
                if id != "trajectory" {
                    names.push(id.to_owned());
                }
            }
        }
    }
    names.sort();

    let mut benches = Json::object();
    let mut skipped: Vec<Json> = Vec::new();
    for id in &names {
        let path = root.join(format!("BENCH_{id}.json"));
        let parsed = fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        match parsed {
            Ok(report) => {
                let mut flat = Json::object();
                for (key, value) in report.entries() {
                    match value {
                        Json::Bool(_) | Json::Int(_) | Json::Num(_) | Json::Str(_) => {
                            flat = flat.field(key, value.clone());
                        }
                        _ => {}
                    }
                }
                benches = benches.field(id, flat);
            }
            Err(_) => skipped.push(format!("BENCH_{id}.json").into()),
        }
    }
    Json::object()
        .field("format", "bench-trajectory-v1".into())
        .field("benches", benches)
        .field("skipped", skipped.into())
}

/// Compares two trajectory documents under [`GATES`] and returns the
/// regressions, one human-readable line each (empty = gate passes).
///
/// A gated metric present in `prev` but absent from `cur` is a
/// regression (the bench stopped reporting it); gated metrics absent
/// from `prev` are new evidence and pass. Benches absent from `prev`
/// entirely (first run after adding an experiment) pass.
///
/// Quick and full runs measure different grids, so the `NotAbove` and
/// `NotBelow` gates apply only when both reports carry the same `quick`
/// flag (or either lacks it); `StayTrue` gates always apply.
pub fn diff(prev: &Json, cur: &Json) -> Vec<String> {
    let mut regressions = Vec::new();
    let prev_benches = prev.get("benches");
    let cur_benches = cur.get("benches");
    for &(bench, metric, rule) in GATES {
        let prev_report = prev_benches.and_then(|b| b.get(bench));
        let cur_report = cur_benches.and_then(|b| b.get(bench));
        let Some(prev_value) = prev_report.and_then(|r| r.get(metric)) else {
            continue;
        };
        let Some(cur_value) = cur_report.and_then(|r| r.get(metric)) else {
            regressions.push(format!(
                "{bench}.{metric}: present in previous trajectory, missing from current"
            ));
            continue;
        };
        let quick = |report: Option<&Json>| report?.get("quick")?.as_bool();
        let same_shape = quick(prev_report)
            .zip(quick(cur_report))
            .is_none_or(|(p, c)| p == c);
        match rule {
            Rule::StayTrue => {
                if prev_value.as_bool() == Some(true) && cur_value.as_bool() != Some(true) {
                    regressions.push(format!(
                        "{bench}.{metric}: was true, now {}",
                        cur_value.render()
                    ));
                }
            }
            Rule::NotAbove(_) | Rule::NotBelow(_) if !same_shape => {}
            Rule::NotAbove(headroom) => {
                if let (Some(p), Some(c)) = (prev_value.as_f64(), cur_value.as_f64()) {
                    if c > p * (1.0 + headroom) + 1e-9 {
                        regressions.push(format!(
                            "{bench}.{metric}: rose {p} -> {c} (allowed +{:.0}%)",
                            headroom * 100.0
                        ));
                    }
                }
            }
            Rule::NotBelow(headroom) => {
                if let (Some(p), Some(c)) = (prev_value.as_f64(), cur_value.as_f64()) {
                    if c < p * (1.0 - headroom) - 1e-9 {
                        regressions.push(format!(
                            "{bench}.{metric}: fell {p} -> {c} (allowed -{:.0}%)",
                            headroom * 100.0
                        ));
                    }
                }
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::workspace_root;

    fn trajectory(entries: &[(&str, Json)]) -> Json {
        let mut benches = Json::object();
        for (id, report) in entries {
            benches = benches.field(id, report.clone());
        }
        Json::object()
            .field("format", "bench-trajectory-v1".into())
            .field("benches", benches)
    }

    #[test]
    fn identical_trajectories_pass() {
        let t = trajectory(&[
            (
                "e17",
                Json::object().field("fleet_deterministic", true.into()),
            ),
            (
                "e18",
                Json::object()
                    .field("matrix_deterministic", true.into())
                    .field("covered_cells", 8u64.into())
                    .field("scorecard_regressions", 0u64.into()),
            ),
        ]);
        assert!(diff(&t, &t).is_empty());
    }

    #[test]
    fn boolean_flips_and_shrinking_coverage_regress() {
        let prev = trajectory(&[(
            "e18",
            Json::object()
                .field("matrix_deterministic", true.into())
                .field("covered_cells", 8u64.into()),
        )]);
        let cur = trajectory(&[(
            "e18",
            Json::object()
                .field("matrix_deterministic", false.into())
                .field("covered_cells", 6u64.into()),
        )]);
        let regressions = diff(&prev, &cur);
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions[0].contains("matrix_deterministic"));
        assert!(regressions[1].contains("covered_cells"));
    }

    #[test]
    fn growth_within_headroom_passes() {
        let prev = trajectory(&[("e16", Json::object().field("min_mttr_ratio", 70.0.into()))]);
        let cur = trajectory(&[("e16", Json::object().field("min_mttr_ratio", 40.0.into()))]);
        // 40 >= 70 * (1 - 0.5) = 35 — inside the band.
        assert!(diff(&prev, &cur).is_empty());
        let bad = trajectory(&[("e16", Json::object().field("min_mttr_ratio", 30.0.into()))]);
        assert_eq!(diff(&prev, &bad).len(), 1);
    }

    #[test]
    fn vanished_gated_metric_regresses_but_new_benches_pass() {
        let prev = trajectory(&[(
            "e1",
            Json::object().field("ochiai_best_case_rank", 1u64.into()),
        )]);
        let cur = trajectory(&[("e14", Json::object().field("oracle_agrees", true.into()))]);
        let regressions = diff(&prev, &cur);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("e1.ochiai_best_case_rank"));
        // The reverse direction: e14's gate vanishes, e1 is new.
        assert_eq!(diff(&cur, &prev).len(), 1);
        assert!(diff(&trajectory(&[]), &cur).is_empty());
    }

    #[test]
    fn quantity_gates_compare_only_runs_of_one_shape() {
        let e18 = |quick: Option<bool>, covered: u64| {
            let mut report = Json::object();
            if let Some(quick) = quick {
                report = report.field("quick", quick.into());
            }
            trajectory(&[(
                "e18",
                report
                    .field("matrix_deterministic", (covered > 8).into())
                    .field("covered_cells", covered.into()),
            )])
        };
        // A quick run after a full one measures a smaller grid: the
        // count gate does not compare them, the verdict gate still does.
        let quick_after_full = diff(&e18(Some(false), 24), &e18(Some(true), 8));
        assert_eq!(quick_after_full.len(), 1, "{quick_after_full:?}");
        assert!(quick_after_full[0].contains("matrix_deterministic"));
        // The same drop between runs of one shape is a regression, also
        // when a report predates the flag.
        for (prev, cur) in [
            (Some(false), Some(false)),
            (Some(true), Some(true)),
            (None, Some(true)),
        ] {
            let regressions = diff(&e18(prev, 24), &e18(cur, 8));
            assert_eq!(regressions.len(), 2, "{prev:?} -> {cur:?}: {regressions:?}");
            assert!(regressions[1].contains("covered_cells: fell 24 -> 8"));
        }
    }

    #[test]
    fn rank_growth_regresses() {
        let prev = trajectory(&[(
            "e1",
            Json::object().field("ochiai_best_case_rank", 1u64.into()),
        )]);
        let cur = trajectory(&[(
            "e1",
            Json::object().field("ochiai_best_case_rank", 4u64.into()),
        )]);
        assert_eq!(diff(&prev, &cur).len(), 1);
    }

    #[test]
    fn collect_flattens_scalars_and_skips_garbage() {
        let dir = std::env::temp_dir().join(format!("trajectory_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("BENCH_e98.json"),
            r#"{"experiment":"e98","ok":true,"count":3,"cells":[1,2]}"#,
        )
        .unwrap();
        fs::write(dir.join("BENCH_e99.json"), "{not json").unwrap();
        fs::write(dir.join("BENCH_trajectory.json"), r#"{"old":true}"#).unwrap();
        let doc = collect(&dir);
        fs::remove_dir_all(&dir).unwrap();

        let benches = doc.get("benches").unwrap();
        let e98 = benches.get("e98").unwrap();
        assert_eq!(e98.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(e98.get("count").and_then(Json::as_i64), Some(3));
        assert!(e98.get("cells").is_none(), "arrays must not be flattened");
        assert!(benches.get("trajectory").is_none());
        assert_eq!(doc.get("skipped").unwrap().items().len(), 1);
    }

    #[test]
    fn gates_cover_every_standing_bench_verdict() {
        // The table is curated, not generated — this pins the benches it
        // must at least reach, and checks every gate against the bench
        // that writes its report and against the committed report, so a
        // misspelled or renamed field fails here instead of `diff`
        // skipping it forever.
        for bench in ["e1", "e14", "e15", "e16", "e17", "e18", "e19"] {
            assert!(
                GATES.iter().any(|(b, _, _)| *b == bench),
                "no gate covers {bench}"
            );
        }
        let sources: Vec<String> =
            fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("benches"))
                .expect("read benches/")
                .map(|entry| {
                    fs::read_to_string(entry.expect("bench entry").path()).expect("read bench")
                })
                .collect();
        let committed = collect(&workspace_root());
        for &(bench, metric, _) in GATES {
            let writer = format!("write_bench_json(\"{bench}\"");
            let source = sources
                .iter()
                .find(|source| source.contains(&writer))
                .unwrap_or_else(|| panic!("no bench writes BENCH_{bench}.json"));
            assert!(
                source.contains(&format!("\"{metric}\"")),
                "the bench writing BENCH_{bench}.json has no field {metric}"
            );
            assert!(
                committed
                    .get("benches")
                    .and_then(|b| b.get(bench))
                    .and_then(|r| r.get(metric))
                    .is_some(),
                "committed BENCH_{bench}.json has no top-level scalar {metric}"
            );
        }
    }
}
