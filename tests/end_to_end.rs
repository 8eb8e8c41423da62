//! Cross-crate integration: script text → estimator → engine →
//! decisions, using the simulation substrate for ground truth.

use easeml_ci::core::EstimateProvenance;
use easeml_ci::sim::joint::{evolve_predictions, exact_pair, PairSpec};
use easeml_ci::sim::oracle::CountingOracle;
use easeml_ci::{
    Adaptivity, CiEngine, CiScript, Mode, ModelCommit, SampleSizeEstimator, Testset, Tribool,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCRIPT: &str = "\
language: python
ml:
  - script     : ./test_model.py
  - condition  : n - o > 0.02 +/- 0.05
  - reliability: 0.99
  - mode       : fp-free
  - adaptivity : full
  - steps      : 6
";

#[test]
fn script_to_decisions() {
    let script = CiScript::parse(SCRIPT).unwrap();
    assert_eq!(script.adaptivity(), Adaptivity::Full);
    let estimator = SampleSizeEstimator::new();
    let estimate = estimator.estimate(&script).unwrap();
    // The improvement condition matches Pattern 2.
    assert!(matches!(
        estimate.provenance,
        EstimateProvenance::Optimized(_)
    ));

    let mut rng = StdRng::seed_from_u64(5);
    // Provision 30% headroom over the estimate: the Pattern-2 probe
    // sizes the labelled prefix from the *observed* difference, and
    // sampling noise can push it past the a-priori cap.
    let pool = (estimate.total_samples() as usize) * 13 / 10;
    let base = exact_pair(
        pool,
        &PairSpec {
            acc_old: 0.7,
            acc_new: 0.7,
            diff: 0.0,
            churn: 0.5,
            num_classes: 4,
        },
        &mut rng,
    )
    .unwrap();
    let oracle = CountingOracle::new(base.labels.clone());
    let mut engine = CiEngine::new(script, Testset::unlabeled(pool), base.old.clone())
        .unwrap()
        .with_oracle(Box::new(oracle));

    // Clear improvement (+9 points): must pass.
    let better =
        evolve_predictions(&base.labels, &base.old, 0.79, 0.095, 0.5, 4, &mut rng).unwrap();
    let receipt = engine
        .submit(&ModelCommit::new("good", better.clone()))
        .unwrap();
    assert_eq!(receipt.outcome, Tribool::True);
    assert_eq!(receipt.signal, Some(true));
    assert!(receipt.estimates.labels_requested > 0);

    // Clear regression (−9 points): must fail.
    let worse = evolve_predictions(&base.labels, &better, 0.70, 0.095, 0.5, 4, &mut rng).unwrap();
    let receipt = engine.submit(&ModelCommit::new("bad", worse)).unwrap();
    assert_eq!(receipt.outcome, Tribool::False);
    assert!(!receipt.passed);

    // The engine's baseline stayed on the passing commit.
    assert_eq!(engine.history().last_passed().unwrap().commit_id, "good");
    assert_eq!(engine.steps_used(), 2);
}

#[test]
fn estimator_facade_matches_direct_bounds() {
    // The full stack (script text → facade → bounds) agrees with calling
    // the bound directly.
    let script = CiScript::parse(
        "ml:\n  - condition  : n > 0.8 +/- 0.05\n  - reliability: 0.9999\n\
         \x20 - adaptivity : full\n  - steps      : 32\n",
    )
    .unwrap();
    let estimate = SampleSizeEstimator::new().estimate(&script).unwrap();
    let direct = easeml_ci::bounds::hoeffding_sample_size_from_ln_delta(
        1.0,
        0.05,
        Adaptivity::Full
            .ln_effective_delta(script.delta(), 32)
            .unwrap(),
        easeml_ci::Tail::OneSided,
    )
    .unwrap();
    assert_eq!(estimate.labeled_samples, direct);
}

#[test]
fn testset_era_rollover_end_to_end() {
    let script = CiScript::builder()
        .condition_str("n > 0.5 +/- 0.2")
        .unwrap()
        .reliability(0.95)
        .mode(Mode::FnFree)
        .adaptivity(Adaptivity::FirstChange)
        .steps(5)
        .build()
        .unwrap();
    let estimate = SampleSizeEstimator::new().estimate(&script).unwrap();
    let pool = estimate.total_samples() as usize;
    let labels = vec![1u32; pool];
    let mut engine = CiEngine::new(
        script,
        Testset::fully_labeled(labels.clone()),
        vec![0u32; pool],
    )
    .unwrap();
    // A passing commit retires the testset under firstChange.
    let receipt = engine
        .submit(&ModelCommit::new("winner", vec![1u32; pool]))
        .unwrap();
    assert!(receipt.passed);
    assert!(engine.is_retired());
    // Fresh testset: the developer got the old one back.
    let released = engine
        .install_testset(Testset::fully_labeled(labels), vec![1u32; pool])
        .unwrap();
    assert_eq!(released.len(), pool);
    assert_eq!(engine.era(), 1);
    assert!(engine
        .submit(&ModelCommit::new("next", vec![1u32; pool]))
        .is_ok());
}

/// Under `adaptivity: none -> addr` the developer's signal is withheld,
/// and what the named mailbox is owed is the receipt's integration-team
/// view: the outcome, the pass bit and the alarm.
#[test]
fn mailbox_collects_withheld_results() {
    let script = CiScript::builder()
        .condition_str("d < 0.3 +/- 0.1")
        .unwrap()
        .reliability(0.95)
        .adaptivity(Adaptivity::None)
        .notify("integration@example.com")
        .steps(3)
        .build()
        .unwrap();
    assert_eq!(script.notify(), Some("integration@example.com"));
    let pool = SampleSizeEstimator::new()
        .estimate(&script)
        .unwrap()
        .total_samples() as usize;
    let mut engine = CiEngine::new(script, Testset::unlabeled(pool), vec![0u32; pool]).unwrap();
    let receipt = engine
        .submit(&ModelCommit::new("quiet", vec![0u32; pool]))
        .unwrap();
    assert_eq!(
        receipt.signal, None,
        "adaptivity none must withhold the signal"
    );
    assert!(
        receipt.passed && receipt.outcome == Tribool::True,
        "d = 0 certainly satisfies d < 0.3: {receipt:?}"
    );
    assert_eq!(receipt.alarm, None);
}
