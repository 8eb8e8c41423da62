//! Behavioural tests for the CI engine: adaptivity state machines, the
//! new-testset alarm, testset eras, and label accounting.

use easeml_bounds::Adaptivity;
use easeml_ci_core::{
    AlarmReason, CiEngine, CiError, CiEvent, CiScript, CollectingSink, EngineError, Mode,
    ModelCommit, SampleSizeEstimator, Testset, Tribool, VecOracle,
};
use std::cell::RefCell;
use std::rc::Rc;

/// A script whose tolerance is loose enough that small synthetic
/// testsets satisfy the estimator.
fn loose_script(adaptivity: Adaptivity, steps: u32, mode: Mode) -> CiScript {
    CiScript::builder()
        .condition_str("n > 0.6 +/- 0.25")
        .unwrap()
        .reliability(0.9)
        .mode(mode)
        .adaptivity(adaptivity)
        .steps(steps)
        .build()
        .unwrap()
}

fn pool(script: &CiScript) -> usize {
    SampleSizeEstimator::new()
        .estimate(script)
        .unwrap()
        .total_samples() as usize
}

/// All-ones labels; a commit predicting 1 everywhere is perfect, a commit
/// predicting 0 everywhere is hopeless.
fn engine_with_pool(script: CiScript) -> (CiEngine, usize) {
    let n = pool(&script);
    let labels = vec![1u32; n];
    let old = vec![0u32; n];
    let engine = CiEngine::new(script, Testset::fully_labeled(labels), old).unwrap();
    (engine, n)
}

#[test]
fn full_adaptivity_releases_signal_and_updates_old_model() {
    let script = loose_script(Adaptivity::Full, 8, Mode::FpFree);
    let (mut engine, n) = engine_with_pool(script);
    // A perfect commit passes and becomes the accepted model.
    let good = ModelCommit::new("good", vec![1u32; n]);
    let receipt = engine.submit(&good).unwrap();
    assert_eq!(receipt.signal, Some(true));
    assert!(receipt.accepted);
    assert_eq!(receipt.outcome, Tribool::True);
    assert_eq!(engine.old_predictions(), vec![1u32; n]);
    // A hopeless commit fails and does not displace the accepted model.
    let bad = ModelCommit::new("bad", vec![0u32; n]);
    let receipt = engine.submit(&bad).unwrap();
    assert_eq!(receipt.signal, Some(false));
    assert!(!receipt.accepted);
    assert_eq!(engine.old_predictions(), vec![1u32; n]);
    assert_eq!(engine.history().passed_count(), 1);
}

#[test]
fn none_adaptivity_withholds_signal_but_notifies_sink() {
    let script = loose_script(Adaptivity::None, 8, Mode::FpFree);
    let n = pool(&script);
    let sink = Rc::new(RefCell::new(CollectingSink::new()));
    let engine =
        CiEngine::new(script, Testset::fully_labeled(vec![1u32; n]), vec![0u32; n]).unwrap();
    let mut engine = engine.with_sink(Box::new(Rc::clone(&sink)));

    let bad = ModelCommit::new("bad", vec![0u32; n]);
    let receipt = engine.submit(&bad).unwrap();
    // Developer sees nothing; the repository accepts the commit anyway.
    assert_eq!(receipt.signal, None);
    assert!(receipt.accepted);
    assert!(!receipt.passed);
    // The third-party channel received the true outcome.
    let events = sink.borrow().events().to_vec();
    assert!(matches!(
        events[0],
        CiEvent::CommitTested { passed: false, .. }
    ));
    // The *active* model only advances on a pass, so the failing commit
    // does not displace it even though the repository accepted it.
    assert_eq!(engine.old_predictions(), vec![0u32; n]);
    let good = ModelCommit::new("good", vec![1u32; n]);
    let receipt = engine.submit(&good).unwrap();
    assert!(receipt.passed && receipt.accepted && receipt.signal.is_none());
    assert_eq!(engine.old_predictions(), vec![1u32; n]);
}

#[test]
fn first_change_retires_testset_on_pass() {
    let script = loose_script(Adaptivity::FirstChange, 8, Mode::FpFree);
    let (mut engine, n) = engine_with_pool(script);
    // Failing commits keep the era alive.
    let bad = ModelCommit::new("bad", vec![0u32; n]);
    let receipt = engine.submit(&bad).unwrap();
    assert_eq!(receipt.alarm, None);
    assert!(!engine.is_retired());
    // The first pass retires the testset.
    let good = ModelCommit::new("good", vec![1u32; n]);
    let receipt = engine.submit(&good).unwrap();
    assert_eq!(receipt.alarm, Some(AlarmReason::PassedInHybrid));
    assert!(engine.is_retired());
    assert_eq!(engine.steps_remaining(), 0);
    // Further submissions are refused until a fresh testset arrives.
    let err = engine.submit(&good).unwrap_err();
    assert!(err.to_string().contains("retired"));
}

#[test]
fn budget_exhaustion_raises_alarm_and_blocks() {
    let script = loose_script(Adaptivity::Full, 2, Mode::FpFree);
    let (mut engine, n) = engine_with_pool(script);
    let bad = ModelCommit::new("bad", vec![0u32; n]);
    assert!(engine.submit(&bad).unwrap().alarm.is_none());
    let receipt = engine.submit(&bad).unwrap();
    assert_eq!(receipt.alarm, Some(AlarmReason::BudgetExhausted));
    assert!(engine.is_retired());
    assert!(engine.submit(&bad).is_err());
}

#[test]
fn install_testset_starts_new_era_and_releases_old() {
    let script = loose_script(Adaptivity::Full, 1, Mode::FpFree);
    let n = pool(&script);
    let sink = Rc::new(RefCell::new(CollectingSink::new()));
    let mut engine = CiEngine::new(script, Testset::fully_labeled(vec![1u32; n]), vec![0u32; n])
        .unwrap()
        .with_sink(Box::new(Rc::clone(&sink)));

    let bad = ModelCommit::new("bad", vec![0u32; n]);
    let receipt = engine.submit(&bad).unwrap();
    assert_eq!(receipt.alarm, Some(AlarmReason::BudgetExhausted));
    assert_eq!(engine.era(), 0);

    let released = engine
        .install_testset(Testset::fully_labeled(vec![1u32; n]), vec![0u32; n])
        .unwrap();
    assert_eq!(released.len(), n);
    assert_eq!(engine.era(), 1);
    assert_eq!(engine.steps_used(), 0);
    assert!(!engine.is_retired());
    // New era accepts commits again; history spans eras.
    engine
        .submit(&ModelCommit::new("retry", vec![1u32; n]))
        .unwrap();
    assert_eq!(engine.history().len(), 2);
    assert_eq!(engine.history().entries()[1].era, 1);
    let events = sink.borrow().events().to_vec();
    assert!(events
        .iter()
        .any(|e| matches!(e, CiEvent::TestsetReleased { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, CiEvent::TestsetInstalled { .. })));
}

#[test]
fn fn_free_mode_accepts_unknown() {
    // Pick estimates that straddle: accuracy 0.7 with threshold 0.6 and
    // tolerance 0.25 → interval [0.45, 0.95] straddles → Unknown.
    let fp = loose_script(Adaptivity::Full, 4, Mode::FpFree);
    let fnf = loose_script(Adaptivity::Full, 4, Mode::FnFree);
    for (script, expect_pass) in [(fp, false), (fnf, true)] {
        let n = pool(&script);
        let mut labels = vec![1u32; n];
        for l in labels.iter_mut().take(3 * n / 10) {
            *l = 0; // new model will be 70% right
        }
        let mut engine =
            CiEngine::new(script, Testset::fully_labeled(labels), vec![0u32; n]).unwrap();
        let commit = ModelCommit::new("borderline", vec![1u32; n]);
        let receipt = engine.submit(&commit).unwrap();
        assert_eq!(receipt.outcome, Tribool::Unknown);
        assert_eq!(receipt.passed, expect_pass);
    }
}

#[test]
fn active_labeling_requests_only_disagreements() {
    // Difference condition over an unlabeled pool with an oracle: labels
    // are only pulled where predictions differ.
    let script = CiScript::builder()
        .condition_str("n - o > 0.02 +/- 0.05")
        .unwrap()
        .reliability(0.9)
        .mode(Mode::FpFree)
        .adaptivity(Adaptivity::None)
        .steps(4)
        .build()
        .unwrap();
    let est = SampleSizeEstimator::new().estimate(&script).unwrap();
    let n = est.total_samples() as usize;
    let truth = vec![1u32; n];
    let old = vec![0u32; n];
    // New model fixes 5% of the pool — within the Pattern-2 drift cap.
    let mut new = vec![0u32; n];
    for (i, p) in new.iter_mut().enumerate() {
        if i % 20 == 0 {
            *p = 1;
        }
    }
    let mut engine = CiEngine::new(script, Testset::unlabeled(n), old)
        .unwrap()
        .with_oracle(Box::new(VecOracle::new(truth.clone())));
    let receipt = engine.submit(&ModelCommit::new("fix5", new)).unwrap();
    // Only the ~5% disagreement points needed labels, and only within
    // the range the layout actually evaluates.
    assert!(receipt.estimates.labels_requested > 0);
    assert!(
        receipt.estimates.labels_requested <= (n as u64) / 4,
        "requested {} of {n}",
        receipt.estimates.labels_requested
    );
    assert_eq!(
        engine.labeled_count() as u64,
        receipt.estimates.labels_requested
    );
    // diff ≈ 0.05 → interval [0, 0.1] straddles 0.02 → Unknown → fail.
    assert_eq!(receipt.outcome, Tribool::Unknown);

    // A commit that drifts far beyond the a-priori cap is refused with a
    // grow-the-pool error rather than an unsound verdict.
    let mut engine2 = CiEngine::new(
        CiScript::builder()
            .condition_str("n - o > 0.02 +/- 0.05")
            .unwrap()
            .reliability(0.9)
            .mode(Mode::FpFree)
            .adaptivity(Adaptivity::None)
            .steps(4)
            .build()
            .unwrap(),
        Testset::unlabeled(n),
        vec![0u32; n],
    )
    .unwrap()
    .with_oracle(Box::new(VecOracle::new(truth)));
    let err = engine2
        .submit(&ModelCommit::new("rewrite", vec![1u32; n]))
        .unwrap_err();
    assert!(matches!(
        err,
        easeml_ci_core::CiError::Engine(EngineError::TestsetTooSmall { .. })
    ));
}

#[test]
fn d_only_condition_needs_no_labels_at_all() {
    let script = CiScript::builder()
        .condition_str("d < 0.5 +/- 0.2")
        .unwrap()
        .reliability(0.9)
        .mode(Mode::FpFree)
        .adaptivity(Adaptivity::None)
        .steps(4)
        .build()
        .unwrap();
    let n = pool(&script);
    let old = vec![0u32; n];
    let new = vec![0u32; n]; // identical predictions: d = 0
    let mut engine = CiEngine::new(script, Testset::unlabeled(n), old).unwrap();
    let receipt = engine.submit(&ModelCommit::new("same", new)).unwrap();
    assert_eq!(receipt.estimates.labels_requested, 0);
    assert_eq!(receipt.outcome, Tribool::True);
    assert!(receipt.passed);
    assert_eq!(receipt.estimates.d, Some(0.0));
}

#[test]
fn rejects_undersized_testset_and_bad_predictions() {
    let script = loose_script(Adaptivity::Full, 4, Mode::FpFree);
    let n = pool(&script);
    // Too small a pool.
    let err = CiEngine::new(
        script.clone(),
        Testset::fully_labeled(vec![1; n - 1]),
        vec![0; n - 1],
    )
    .unwrap_err();
    assert!(err.to_string().contains("testset has"));
    // Old predictions of the wrong length.
    let err = CiEngine::new(
        script.clone(),
        Testset::fully_labeled(vec![1; n]),
        vec![0; n + 1],
    )
    .unwrap_err();
    assert!(err.to_string().contains("predictions"));
    // Commit predictions of the wrong length.
    let (mut engine, _) = engine_with_pool(script);
    let err = engine
        .submit(&ModelCommit::new("short", vec![1u32; 3]))
        .unwrap_err();
    assert!(matches!(
        err,
        easeml_ci_core::CiError::Engine(EngineError::PredictionLengthMismatch { .. })
    ));
}

#[test]
fn missing_labels_without_oracle_fail_cleanly() {
    let script = loose_script(Adaptivity::Full, 4, Mode::FpFree);
    let n = pool(&script);
    let mut engine = CiEngine::new(script, Testset::unlabeled(n), vec![0u32; n]).unwrap();
    let err = engine
        .submit(&ModelCommit::new("c", vec![1u32; n]))
        .unwrap_err();
    assert!(matches!(
        err,
        easeml_ci_core::CiError::Engine(EngineError::LabelUnavailable { .. })
    ));
}

/// Failure injection: a labelling team that walks away mid-evaluation.
/// The failed submission must not consume a step, and a refilled oracle
/// lets the same commit succeed afterwards.
#[test]
fn oracle_exhaustion_does_not_burn_budget() {
    struct FlakyOracle {
        truth: Vec<u32>,
        remaining: u64,
    }
    impl easeml_ci_core::LabelOracle for FlakyOracle {
        fn label(&mut self, index: usize) -> Option<u32> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            self.truth.get(index).copied()
        }
    }
    let script = loose_script(Adaptivity::Full, 4, Mode::FpFree);
    let n = pool(&script);
    // Only half the needed labels are available.
    let oracle = FlakyOracle {
        truth: vec![1u32; n],
        remaining: (n / 2) as u64,
    };
    let mut engine = CiEngine::new(script.clone(), Testset::unlabeled(n), vec![0u32; n])
        .unwrap()
        .with_oracle(Box::new(oracle));
    let commit = ModelCommit::new("starved", vec![1u32; n]);
    let err = engine.submit(&commit).unwrap_err();
    assert!(matches!(
        err,
        easeml_ci_core::CiError::Engine(EngineError::LabelUnavailable { .. })
    ));
    // The failed evaluation consumed no step and left no history entry.
    assert_eq!(engine.steps_used(), 0);
    assert!(engine.history().is_empty());
    // A generous oracle completes the same commit; the cached half of
    // the labels is reused (only ~n/2 fresh requests needed).
    let mut engine = {
        let labeled = engine.labeled_count();
        assert!(labeled > 0, "partial labels must persist");
        engine.with_oracle(Box::new(VecOracle::new(vec![1u32; n])))
    };
    let receipt = engine.submit(&commit).unwrap();
    assert!(receipt.passed);
    assert!(
        receipt.estimates.labels_requested <= (n as u64) / 2 + 1,
        "cached labels must be reused: {} of {n}",
        receipt.estimates.labels_requested
    );
    assert_eq!(engine.steps_used(), 1);
}

#[test]
fn history_records_every_submission() {
    let script = loose_script(Adaptivity::Full, 5, Mode::FpFree);
    let (mut engine, n) = engine_with_pool(script);
    for i in 0..3 {
        let preds = if i % 2 == 0 {
            vec![1u32; n]
        } else {
            vec![0u32; n]
        };
        engine
            .submit(&ModelCommit::new(format!("c{i}"), preds))
            .unwrap();
    }
    let history = engine.history();
    assert_eq!(history.len(), 3);
    assert_eq!(history.entries()[0].commit_id, "c0");
    assert_eq!(history.entries()[1].step, 2);
    assert_eq!(history.passed_count(), 2);
    assert_eq!(history.last_passed().unwrap().commit_id, "c2");
    let rendered = history.to_string();
    assert!(rendered.contains("c1"));
    assert!(rendered.contains("FAIL"));
}

/// Pattern-1 layout end to end: the filter phase short-circuits a commit
/// that changes too many predictions, without consuming any labels.
#[test]
fn pattern1_filter_short_circuits_without_labels() {
    let script = CiScript::builder()
        .condition_str("d < 0.1 +/- 0.05 /\\ n - o > 0.0 +/- 0.05")
        .unwrap()
        .reliability(0.99)
        .mode(Mode::FpFree)
        .adaptivity(Adaptivity::None)
        .steps(4)
        .build()
        .unwrap();
    let est = SampleSizeEstimator::new().estimate(&script).unwrap();
    assert!(matches!(
        est.provenance,
        easeml_ci_core::EstimateProvenance::Optimized(_)
    ));
    let n = est.total_samples() as usize;
    let old = vec![0u32; n];
    let new = vec![1u32; n]; // changes every prediction: d = 1
    let mut engine = CiEngine::new(script, Testset::unlabeled(n), old)
        .unwrap()
        .with_oracle(Box::new(VecOracle::new(vec![1u32; n])));
    let receipt = engine.submit(&ModelCommit::new("rewrite", new)).unwrap();
    assert_eq!(receipt.outcome, Tribool::False);
    assert_eq!(
        receipt.estimates.labels_requested, 0,
        "filter must not label"
    );
    assert!(!receipt.passed);
}

/// Pattern-3 (coarse-to-fine) layout end to end: a high quality floor is
/// evaluated through the two labelled phases.
#[test]
fn pattern3_coarse_fine_layout() {
    let script = CiScript::builder()
        .condition_str("n > 0.9 +/- 0.04")
        .unwrap()
        .reliability(0.95)
        .mode(Mode::FpFree)
        .adaptivity(Adaptivity::None)
        .steps(4)
        .build()
        .unwrap();
    let est = SampleSizeEstimator::new().estimate(&script).unwrap();
    assert!(matches!(
        est.provenance,
        easeml_ci_core::EstimateProvenance::Optimized(
            easeml_ci_core::estimator::OptimizedPlan::CoarseToFine(_)
        )
    ));
    let n = est.total_samples() as usize;
    // A model at 97%, its errors spread over the pool: certainly above
    // the 0.94 pass bar, and the coarse pass certifies the floor.
    let mut preds = vec![1u32; n];
    for p in preds.iter_mut().step_by(34) {
        *p = 0;
    }
    let mut engine = CiEngine::new(script, Testset::unlabeled(n), vec![0u32; n])
        .unwrap()
        .with_oracle(Box::new(VecOracle::new(vec![1u32; n])));
    let receipt = engine
        .submit(&ModelCommit::new("high-floor", preds))
        .unwrap();
    assert_eq!(receipt.outcome, Tribool::True, "97% clears n > 0.9 ± 0.04");
    assert!(receipt.passed);
    // Both phases label fully: the whole pool ends up labelled.
    assert_eq!(receipt.estimates.labels_requested as usize, n);
    assert!(receipt.estimates.n.is_some());
}

/// A Pattern-3 engine for `n > 0.9 ± 0.04` at reliability 0.95 (coarse
/// phase 337 items at ε_c ≈ 0.093, fine phase 1,482 items), whose commit
/// gets the first `coarse_wrong` items wrong and every other item right.
fn pattern3_submit(coarse_wrong: usize, mode: Mode) -> (easeml_ci_core::CommitReceipt, usize) {
    let script = CiScript::builder()
        .condition_str("n > 0.9 +/- 0.04")
        .unwrap()
        .reliability(0.95)
        .mode(mode)
        .adaptivity(Adaptivity::None)
        .steps(4)
        .build()
        .unwrap();
    let est = SampleSizeEstimator::new().estimate(&script).unwrap();
    let easeml_ci_core::EstimateProvenance::Optimized(
        easeml_ci_core::estimator::OptimizedPlan::CoarseToFine(plan),
    ) = &est.provenance
    else {
        panic!("expected a coarse-to-fine plan, got {:?}", est.provenance);
    };
    let coarse = plan.coarse.samples as usize;
    assert!(coarse_wrong <= coarse);
    let n = est.total_samples() as usize;
    let mut preds = vec![1u32; n];
    for p in preds.iter_mut().take(coarse_wrong) {
        *p = 0;
    }
    let mut engine = CiEngine::new(script, Testset::unlabeled(n), vec![0u32; n])
        .unwrap()
        .with_oracle(Box::new(VecOracle::new(vec![1u32; n])));
    let receipt = engine.submit(&ModelCommit::new("c", preds)).unwrap();
    (receipt, coarse)
}

/// Pattern 3's fine phase is sized by a variance bound that holds only
/// when the true accuracy is at least `floor − ε_c`. Here the pool's
/// accuracy (1,619 / 1,819 ≈ 0.89) sits below the floor and the coarse
/// pass shows it (n̂_c + ε_c ≈ 0.50 < 0.9); a fine range that happens
/// to look perfect must not pass the commit.
#[test]
fn pattern3_coarse_pass_below_the_floor_decides_false() {
    for mode in [Mode::FpFree, Mode::FnFree] {
        let (receipt, coarse) = pattern3_submit(200, mode);
        assert_eq!(receipt.outcome, Tribool::False, "{mode:?}");
        assert!(!receipt.passed, "{mode:?}");
        // The decision rests on the coarse estimate; the fine range is
        // never labelled.
        let n_hat = receipt.estimates.n.unwrap();
        assert!((n_hat - (coarse - 200) as f64 / coarse as f64).abs() < 1e-12);
        assert_eq!(receipt.estimates.labels_requested as usize, coarse);
    }
}

/// A coarse estimate below the floor but within ε_c of it cannot certify
/// the fine phase's premise either way: the outcome is `Unknown`, which
/// each mode resolves conservatively.
#[test]
fn pattern3_coarse_pass_near_the_floor_decides_unknown() {
    // 50 wrong of 337: n̂_c ≈ 0.852, in [0.9 − ε_c, 0.9).
    for (mode, passed) in [(Mode::FpFree, false), (Mode::FnFree, true)] {
        let (receipt, coarse) = pattern3_submit(50, mode);
        assert_eq!(receipt.outcome, Tribool::Unknown, "{mode:?}");
        assert_eq!(receipt.passed, passed, "{mode:?}");
        assert_eq!(receipt.estimates.labels_requested as usize, coarse);
    }
}

/// Pattern-1 layout: a gentle improvement passes the filter and labels
/// only the disagreement points of the Bennett range.
#[test]
fn pattern1_test_phase_labels_only_disagreements() {
    let script = CiScript::builder()
        .condition_str("d < 0.2 +/- 0.05 /\\ n - o > 0.0 +/- 0.1")
        .unwrap()
        .reliability(0.99)
        .mode(Mode::FnFree)
        .adaptivity(Adaptivity::None)
        .steps(4)
        .build()
        .unwrap();
    let est = SampleSizeEstimator::new().estimate(&script).unwrap();
    let n = est.total_samples() as usize;
    let truth = vec![1u32; n];
    let old = vec![0u32; n];
    // New model fixes 10% of points everywhere.
    let new: Vec<u32> = (0..n).map(|i| u32::from(i % 10 == 0)).collect();
    let mut engine = CiEngine::new(script, Testset::unlabeled(n), old)
        .unwrap()
        .with_oracle(Box::new(VecOracle::new(truth)));
    let receipt = engine.submit(&ModelCommit::new("gentle", new)).unwrap();
    assert!(receipt.passed, "outcome: {:?}", receipt.outcome);
    // Labels only on ~10% of the Bennett test range.
    let labeled_fraction = receipt.estimates.labels_requested as f64 / n as f64;
    assert!(labeled_fraction < 0.15, "fraction = {labeled_fraction}");
    assert!(receipt.estimates.labels_requested > 0);
}

#[test]
fn metric_conditions_are_refused_at_construction() {
    // The engine measures n, o and d only; before the refusal it built
    // an engine for an f1 script whose every submit then failed.
    for condition in [
        "f1(n) > 0.5 +/- 0.1",
        "n - o > 0.0 +/- 0.1 /\\ topk(n, 2) > 0.5 +/- 0.1",
    ] {
        let script = CiScript::builder()
            .condition_str(condition)
            .unwrap()
            .reliability(0.9)
            .adaptivity(Adaptivity::None)
            .steps(1)
            .build()
            .unwrap();
        let n = pool(&script);
        let err = CiEngine::new(script, Testset::fully_labeled(vec![1; n]), vec![0; n])
            .expect_err("a metric condition must be refused at construction");
        let CiError::Semantic(message) = err else {
            panic!("{condition}: expected a semantic error, got {err:?}");
        };
        let metric_clause = condition.rsplit("/\\ ").next().unwrap();
        assert!(
            message.contains(metric_clause) && message.contains("class count"),
            "{condition}: the refusal must name the clause and the missing class count: {message}"
        );
    }
}
