//! End-to-end diagnosis: injected TV faults are localized by
//! spectrum-based fault localization across fault types and coefficients.

use spectra::{Coefficient, Diagnoser};
use statemachine::{Executor, Value};
use std::collections::BTreeMap;
use trader::prelude::*;

/// Runs a scenario on a faulty TV, labeling each step by model comparison,
/// and returns (report, rank of `target_block` under Ochiai).
fn diagnose(fault: TvFault, presses: usize, target_block: u32) -> (usize, Option<f64>, usize) {
    let mut oracle = Executor::new(tv_spec());
    oracle.start();
    let mut tv = TvSystem::new();
    tv.inject_fault(fault);
    let mut diagnoser = Diagnoser::new(tv.n_blocks());
    let scenario = TimedScenario::teletext_session(presses);
    let mut expected: BTreeMap<String, Value> = BTreeMap::new();
    for (at, key) in scenario.presses() {
        let observations = tv.press(*at, *key);
        oracle.step_at(*at, &key.event());
        for rec in oracle.drain_outputs() {
            expected.insert(rec.name, rec.value);
        }
        let failed = observations.iter().any(|obs| {
            obs.as_output().is_some_and(|(name, actual)| {
                expected.get(name).is_some_and(|want| match want {
                    Value::Str(s) => actual.as_text() != Some(s.as_str()),
                    other => actual
                        .as_num()
                        .zip(other.as_f64())
                        .map(|(a, w)| (a - w).abs() > 1e-9)
                        .unwrap_or(true),
                })
            })
        });
        diagnoser.append_snapshot(&tv.take_coverage(), failed);
    }
    let report = diagnoser.diagnose(Coefficient::Ochiai);
    let rank = report.fault_rank(target_block);
    let best = report
        .ranking
        .best_case_rank_of(target_block)
        .unwrap_or(usize::MAX);
    (report.failing_steps, rank, best)
}

#[test]
fn render_fault_localizes_to_its_block() {
    let tv = TvSystem::new();
    let block = tv.bank().teletext_fault_block();
    let (failing, rank, best) = diagnose(TvFault::TeletextRenderFault, 27, block);
    assert!(failing > 0);
    assert_eq!(best, 1, "faulty block must top the ranking");
    assert!(rank.unwrap() < 200.0, "mid-tie rank {rank:?}");
}

#[test]
fn longer_scenarios_sharpen_the_ranking() {
    let tv = TvSystem::new();
    let block = tv.bank().teletext_fault_block();
    let (_, rank_short, _) = diagnose(TvFault::TeletextRenderFault, 15, block);
    let (_, rank_long, _) = diagnose(TvFault::TeletextRenderFault, 55, block);
    // More steps = more discriminating spectra: the rank must not degrade.
    assert!(
        rank_long.unwrap() <= rank_short.unwrap() + 1.0,
        "short {rank_short:?} vs long {rank_long:?}"
    );
}

#[test]
fn healthy_run_has_no_failing_steps() {
    let mut oracle = Executor::new(tv_spec());
    oracle.start();
    let mut tv = TvSystem::new();
    let mut diagnoser = Diagnoser::new(tv.n_blocks());
    let mut expected: BTreeMap<String, Value> = BTreeMap::new();
    for (at, key) in TimedScenario::teletext_session(27).presses() {
        let observations = tv.press(*at, *key);
        oracle.step_at(*at, &key.event());
        for rec in oracle.drain_outputs() {
            expected.insert(rec.name, rec.value);
        }
        let failed = observations.iter().any(|obs| {
            obs.as_output().is_some_and(|(name, actual)| {
                expected.get(name).is_some_and(|want| match want {
                    Value::Str(s) => actual.as_text() != Some(s.as_str()),
                    other => actual
                        .as_num()
                        .zip(other.as_f64())
                        .map(|(a, w)| (a - w).abs() > 1e-9)
                        .unwrap_or(true),
                })
            })
        });
        diagnoser.append_snapshot(&tv.take_coverage(), failed);
    }
    let report = diagnoser.diagnose(Coefficient::Ochiai);
    assert_eq!(report.failing_steps, 0);
    // With no failures, no block carries suspicion.
    assert!(report.ranking.entries()[0].score == 0.0);
}

#[test]
fn all_coefficients_put_fault_block_in_front_region() {
    let tv = TvSystem::new();
    let block = tv.bank().teletext_fault_block();
    for coefficient in [
        Coefficient::Ochiai,
        Coefficient::Tarantula,
        Coefficient::Jaccard,
    ] {
        let mut oracle = Executor::new(tv_spec());
        oracle.start();
        let mut tv = TvSystem::new();
        tv.inject_fault(TvFault::TeletextRenderFault);
        let mut diagnoser = Diagnoser::new(tv.n_blocks());
        let mut expected: BTreeMap<String, Value> = BTreeMap::new();
        for (at, key) in TimedScenario::teletext_session(27).presses() {
            let observations = tv.press(*at, *key);
            oracle.step_at(*at, &key.event());
            for rec in oracle.drain_outputs() {
                expected.insert(rec.name, rec.value);
            }
            let failed = observations.iter().any(|obs| {
                obs.as_output().is_some_and(|(name, actual)| {
                    expected.get(name).is_some_and(|want| match want {
                        Value::Str(s) => actual.as_text() != Some(s.as_str()),
                        other => actual
                            .as_num()
                            .zip(other.as_f64())
                            .map(|(a, w)| (a - w).abs() > 1e-9)
                            .unwrap_or(true),
                    })
                })
            });
            diagnoser.append_snapshot(&tv.take_coverage(), failed);
        }
        let report = diagnoser.diagnose(coefficient);
        let wasted = report.ranking.wasted_effort(block).unwrap();
        assert!(
            wasted < 0.02,
            "{coefficient}: wasted effort {wasted} too high"
        );
    }
}
