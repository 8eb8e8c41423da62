//! Monte-Carlo validation harnesses.
//!
//! Two experiments back the paper's empirical claims:
//!
//! * **Estimator validity** (Figure 4): for a model of known accuracy,
//!   compare the analytic `(ε, δ)` guarantee against the *empirical*
//!   error — the gap between the `δ` and `1 − δ` quantiles of observed
//!   testset accuracies over many resamples.
//! * **Process soundness** (§5 "returns the right answer w.p. 1 − δ"):
//!   drive the real [`CiEngine`] with simulated developers whose
//!   proposals have *known population statistics*, and count trials where
//!   a released decision contradicts the ground truth.

use crate::developer::Developer;
use crate::error::Result;
use crate::joint::{exact_pair, ConditionalEvolution, PairSpec};
use crate::stats::quantile;
use easeml_ci_core::{
    CiEngine, CiScript, EstimatorConfig, ModelCommit, SampleSizeEstimator, Testset, VecOracle,
};
use easeml_par::{splitmix64, Pool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Empirical half-width of the accuracy estimate: the gap between the
/// `δ` and `1 − δ` quantiles of `trials` simulated testset accuracies,
/// divided by two (the paper's Figure 4 methodology). Trials fan out
/// across [`Pool::global`].
///
/// # Panics
///
/// Panics if `trials` is zero or parameters leave their domains.
#[must_use]
pub fn empirical_epsilon(n: u64, true_accuracy: f64, delta: f64, trials: u32, seed: u64) -> f64 {
    empirical_epsilon_with_pool(n, true_accuracy, delta, trials, seed, Pool::global())
}

/// [`empirical_epsilon`] on an explicit pool (determinism tests pin the
/// thread count with this).
///
/// # Panics
///
/// Same conditions as [`empirical_epsilon`].
#[must_use]
pub fn empirical_epsilon_with_pool(
    n: u64,
    true_accuracy: f64,
    delta: f64,
    trials: u32,
    seed: u64,
    pool: &Pool,
) -> f64 {
    assert!(trials > 0, "need at least one trial");
    assert!((0.0..=1.0).contains(&true_accuracy));
    assert!(delta > 0.0 && delta < 0.5);
    let accuracies = trial_map(pool, trials, seed, move |rng| {
        let mut correct = 0u64;
        for _ in 0..n {
            if rng.random::<f64>() < true_accuracy {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    });
    (quantile(&accuracies, 1.0 - delta) - quantile(&accuracies, delta)) / 2.0
}

/// Configuration of one simulated CI process.
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// The script under test.
    pub script: CiScript,
    /// Estimator configuration used to size the testset.
    pub estimator: EstimatorConfig,
    /// Number of commits to drive (at most the script's step budget).
    pub commits: u32,
    /// True accuracy of the initially accepted model.
    pub initial_accuracy: f64,
    /// Classes in the simulated task.
    pub num_classes: u32,
    /// Wrong↔wrong churn fraction of the joint distribution.
    pub churn: f64,
}

/// Outcome of one simulated process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcessOutcome {
    /// Commits evaluated.
    pub commits: u32,
    /// Commits that passed.
    pub passes: u32,
    /// Decisions contradicting ground truth, by kind.
    pub false_positives: u32,
    /// Fail decisions contradicting ground truth.
    pub false_negatives: u32,
    /// Labels requested across the process.
    pub labels_requested: u64,
    /// Whether an alarm fired before `commits` evaluations completed.
    pub stopped_early: bool,
}

impl ProcessOutcome {
    /// Whether any released decision was statistically wrong.
    #[must_use]
    pub fn violated(&self) -> bool {
        self.false_positives > 0 || self.false_negatives > 0
    }
}

/// Drive one full CI process with a developer policy and known ground
/// truth; see the module docs.
///
/// # Errors
///
/// Propagates engine/estimator configuration errors. Infeasible
/// developer proposals are clamped to the nearest feasible statistics
/// rather than failing.
pub fn run_process(
    config: &ProcessConfig,
    developer: &mut dyn Developer,
    seed: u64,
) -> Result<ProcessOutcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let estimator = SampleSizeEstimator::with_config(config.estimator);
    let estimate = estimator.estimate(&config.script)?;
    let pool = usize::try_from(estimate.total_samples()).unwrap_or(usize::MAX);

    // Initial accepted model with exact population accuracy.
    let base = exact_pair(
        pool,
        &PairSpec {
            acc_old: config.initial_accuracy,
            acc_new: config.initial_accuracy,
            diff: 0.0,
            churn: config.churn,
            num_classes: config.num_classes,
        },
        &mut rng,
    )?;
    let mut engine = CiEngine::with_estimator(
        config.script.clone(),
        Testset::unlabeled(pool),
        base.old.clone(),
        &estimator,
    )?
    .with_oracle(Box::new(VecOracle::new(base.labels.clone())));

    let mut accepted_truth = config.initial_accuracy;
    let mut accepted_preds = base.old;
    let mut outcome = ProcessOutcome::default();
    let mut feedback: Option<bool> = None;

    for _ in 0..config.commits {
        let proposal = developer.propose(feedback);
        // Clamp the proposal into the feasible joint region.
        let (acc_new, diff) = clamp_feasible(
            accepted_truth,
            proposal.true_accuracy,
            proposal.diff_from_accepted,
            config.churn,
        );
        let evolution = ConditionalEvolution::solve(
            accepted_truth,
            acc_new,
            diff,
            config.churn,
            config.num_classes,
        )?;
        let new_preds = evolution.apply(&base.labels, &accepted_preds, &mut rng);
        let commit = ModelCommit::new(format!("sim-{}", outcome.commits), new_preds.clone());
        let receipt = match engine.submit(&commit) {
            Ok(r) => r,
            Err(_) => {
                outcome.stopped_early = true;
                break;
            }
        };
        outcome.commits += 1;
        outcome.labels_requested += receipt.estimates.labels_requested;
        if receipt.passed {
            outcome.passes += 1;
        }

        // Ground truth at population values.
        let truth = easeml_ci_core::VariableEstimates::new(acc_new, accepted_truth, diff);
        let truth_holds = config.script.condition().clauses().iter().all(|clause| {
            let lhs = truth.evaluate_expr(&clause.expr);
            match clause.cmp {
                easeml_ci_core::dsl::CmpOp::Gt => lhs > clause.threshold,
                easeml_ci_core::dsl::CmpOp::Lt => lhs < clause.threshold,
            }
        });
        match (receipt.passed, truth_holds) {
            (true, false) => outcome.false_positives += 1,
            (false, true) => outcome.false_negatives += 1,
            _ => {}
        }

        // Mirror the engine: the `o` baseline advances only on a pass.
        if receipt.passed {
            accepted_truth = acc_new;
            accepted_preds = new_preds;
            developer.accepted(&crate::developer::ProposedModel {
                true_accuracy: acc_new,
                diff_from_accepted: diff,
            });
        }
        feedback = receipt.signal;
        if receipt.alarm.is_some() {
            outcome.stopped_early = outcome.commits < config.commits;
            break;
        }
    }
    Ok(outcome)
}

/// Clamp a proposal into the feasible (accuracy, difference) region
/// relative to the accepted model.
fn clamp_feasible(acc_old: f64, acc_new: f64, diff: f64, churn: f64) -> (f64, f64) {
    let acc_new = acc_new.clamp(0.01, 0.99);
    let gap = (acc_old - acc_new).abs();
    // d must cover the gap, and b/c/e/f masses must stay non-negative:
    // the binding constraints are d ≥ gap and e = 1 − a − d ≥ 0.
    let mut diff = diff.max(gap);
    // Feasibility of e: a = min(acc_old, acc_new) − churn·slack/2 ≥ 0 and
    // e = 1 − a − d ≥ 0. Shrink d toward the (always feasible) gap until
    // both hold; at d = gap, e = 1 − max(acc) ≥ 0 by the 0.99 clamp.
    let feasible = |d: f64| {
        let slack = d - gap;
        let a = acc_old.min(acc_new) - churn * slack / 2.0;
        a >= 0.0 && 1.0 - a - d >= 0.0
    };
    let mut iterations = 0;
    while !feasible(diff) && iterations < 128 {
        diff = gap + (diff - gap) / 2.0;
        iterations += 1;
    }
    if !feasible(diff) {
        diff = gap;
    }
    (acc_new, diff.clamp(0.0, 1.0))
}

/// Violation statistics over many simulated processes.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationReport {
    /// Processes simulated.
    pub trials: u32,
    /// Processes with at least one false positive.
    pub trials_with_false_positive: u32,
    /// Processes with at least one false negative.
    pub trials_with_false_negative: u32,
    /// Mean passes per process.
    pub mean_passes: f64,
    /// Mean labels per process.
    pub mean_labels: f64,
}

impl ViolationReport {
    /// Fraction of processes with a false positive.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        f64::from(self.trials_with_false_positive) / f64::from(self.trials.max(1))
    }

    /// Fraction of processes with a false negative.
    #[must_use]
    pub fn false_negative_rate(&self) -> f64 {
        f64::from(self.trials_with_false_negative) / f64::from(self.trials.max(1))
    }
}

/// Run `trials` independent full CI processes across the pool,
/// returning each outcome in trial order. Trial `i` runs on the seed
/// [`splitmix64`]`(seed, i)` — a pure function of the root seed and the
/// trial index — so results are bit-identical at any thread count.
/// `make_developer` builds a fresh (per-trial-seeded) policy per trial.
///
/// # Errors
///
/// Propagates the first (in trial order) process error encountered.
pub fn run_process_trials<F>(
    config: &ProcessConfig,
    make_developer: F,
    trials: u32,
    seed: u64,
) -> Result<Vec<ProcessOutcome>>
where
    F: Fn(u64) -> Box<dyn Developer + Send> + Sync,
{
    run_process_trials_with_pool(config, make_developer, trials, seed, Pool::global())
}

/// [`run_process_trials`] on an explicit pool.
///
/// # Errors
///
/// Same conditions as [`run_process_trials`].
pub fn run_process_trials_with_pool<F>(
    config: &ProcessConfig,
    make_developer: F,
    trials: u32,
    seed: u64,
    pool: &Pool,
) -> Result<Vec<ProcessOutcome>>
where
    F: Fn(u64) -> Box<dyn Developer + Send> + Sync,
{
    pool.par_map_index(trials as usize, |i| {
        let trial_seed = splitmix64(seed, i as u64);
        let mut developer = make_developer(trial_seed);
        run_process(config, developer.as_mut(), trial_seed)
    })
    .into_iter()
    .collect()
}

/// Run `trials` independent processes (in parallel, via
/// [`run_process_trials`]) and aggregate violations. `make_developer`
/// builds a fresh (differently seeded) policy per trial.
///
/// # Errors
///
/// Propagates the first process error encountered.
pub fn violation_report<F>(
    config: &ProcessConfig,
    make_developer: F,
    trials: u32,
    seed: u64,
) -> Result<ViolationReport>
where
    F: Fn(u64) -> Box<dyn Developer + Send> + Sync,
{
    violation_report_with_pool(config, make_developer, trials, seed, Pool::global())
}

/// [`violation_report`] on an explicit pool.
///
/// # Errors
///
/// Same conditions as [`violation_report`].
pub fn violation_report_with_pool<F>(
    config: &ProcessConfig,
    make_developer: F,
    trials: u32,
    seed: u64,
    pool: &Pool,
) -> Result<ViolationReport>
where
    F: Fn(u64) -> Box<dyn Developer + Send> + Sync,
{
    let outcomes = run_process_trials_with_pool(config, make_developer, trials, seed, pool)?;
    let mut report = ViolationReport {
        trials,
        trials_with_false_positive: 0,
        trials_with_false_negative: 0,
        mean_passes: 0.0,
        mean_labels: 0.0,
    };
    let mut passes = 0u64;
    let mut labels = 0u64;
    for outcome in outcomes {
        if outcome.false_positives > 0 {
            report.trials_with_false_positive += 1;
        }
        if outcome.false_negatives > 0 {
            report.trials_with_false_negative += 1;
        }
        passes += u64::from(outcome.passes);
        labels += outcome.labels_requested;
    }
    report.mean_passes = passes as f64 / f64::from(trials.max(1));
    report.mean_labels = labels as f64 / f64::from(trials.max(1));
    Ok(report)
}

/// Run `count` seeded jobs across the pool, preserving order: job `i`
/// draws from a fresh `StdRng` seeded with [`splitmix64`]`(seed, i)`.
fn trial_map<T, F>(pool: &Pool, count: u32, seed: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut StdRng) -> T + Sync,
{
    pool.par_map_index(count as usize, |i| {
        let mut rng = StdRng::seed_from_u64(splitmix64(seed, i as u64));
        job(&mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::developer::{OverfitterDeveloper, RandomWalkDeveloper};
    use easeml_bounds::Adaptivity;
    use easeml_ci_core::Mode;

    fn quick_script(
        condition: &str,
        reliability: f64,
        adaptivity: Adaptivity,
        steps: u32,
    ) -> CiScript {
        CiScript::builder()
            .condition_str(condition)
            .unwrap()
            .reliability(reliability)
            .mode(Mode::FpFree)
            .adaptivity(adaptivity)
            .steps(steps)
            .build()
            .unwrap()
    }

    #[test]
    fn empirical_epsilon_shrinks_with_n() {
        let small = empirical_epsilon(200, 0.9, 0.05, 400, 1);
        let large = empirical_epsilon(3_200, 0.9, 0.05, 400, 1);
        assert!(large < small, "small-n={small} large-n={large}");
        // √16 = 4× shrink expected.
        let ratio = small / large;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio = {ratio}");
    }

    #[test]
    fn empirical_epsilon_below_hoeffding() {
        let n = 1_000;
        let delta = 0.05;
        let emp = empirical_epsilon(n, 0.85, delta, 600, 7);
        let hoeff =
            easeml_bounds::hoeffding_epsilon(1.0, n, delta, easeml_bounds::Tail::TwoSided).unwrap();
        assert!(
            emp < hoeff,
            "empirical {emp} must be below analytic {hoeff}"
        );
    }

    #[test]
    fn process_runs_and_accounts() {
        let config = ProcessConfig {
            script: quick_script("n - o > 0.0 +/- 0.15", 0.95, Adaptivity::Full, 6),
            estimator: EstimatorConfig::default(),
            commits: 6,
            initial_accuracy: 0.7,
            num_classes: 4,
            churn: 0.5,
        };
        let mut dev = RandomWalkDeveloper::new(0.7, 0.02, 0.05, 3);
        let outcome = run_process(&config, &mut dev, 99).unwrap();
        assert!(outcome.commits >= 1);
        assert!(outcome.labels_requested > 0);
    }

    #[test]
    fn adversary_rarely_beats_the_budget() {
        // An overfitter that never improves should (almost) never pass an
        // improvement test: the fp-free guarantee in action.
        let config = ProcessConfig {
            script: quick_script("n - o > 0.05 +/- 0.1", 0.9, Adaptivity::Full, 5),
            estimator: EstimatorConfig::default(),
            commits: 5,
            initial_accuracy: 0.75,
            num_classes: 4,
            churn: 0.5,
        };
        let report = violation_report(
            &config,
            |seed| Box::new(OverfitterDeveloper::new(0.75, 0.002, 0.05, seed)),
            40,
            12345,
        )
        .unwrap();
        // δ = 0.1: allow generous slack on 40 trials.
        assert!(
            report.false_positive_rate() <= 0.15,
            "fp rate = {}",
            report.false_positive_rate()
        );
    }

    #[test]
    fn clamp_feasible_outputs_are_solvable() {
        for (o, n, d) in [
            (0.9, 0.2, 0.05),
            (0.99, 0.985, 0.9),
            (0.5, 0.999, 0.0),
            (0.7, 0.7, 1.0),
        ] {
            let (acc_new, diff) = clamp_feasible(o, n, d, 0.5);
            let spec = PairSpec {
                acc_old: o,
                acc_new,
                diff,
                churn: 0.5,
                num_classes: 4,
            };
            assert!(
                crate::joint::JointDistribution::solve(&spec).is_ok(),
                "clamp produced infeasible ({o}, {acc_new}, {diff})"
            );
        }
    }

    #[test]
    fn trial_map_is_deterministic_ordered_and_width_invariant() {
        let pool = easeml_par::Pool::new(4);
        let a = trial_map(&pool, 37, 5, |rng| rng.random::<u64>());
        let b = trial_map(&pool, 37, 5, |rng| rng.random::<u64>());
        assert_eq!(a, b);
        assert_eq!(a.len(), 37);
        // Different seeds produce different streams.
        let c = trial_map(&pool, 37, 6, |rng| rng.random::<u64>());
        assert_ne!(a, c);
        // Thread count never changes the results.
        for threads in [1, 2, 8] {
            let w = trial_map(&easeml_par::Pool::new(threads), 37, 5, |rng| {
                rng.random::<u64>()
            });
            assert_eq!(a, w, "threads={threads}");
        }
    }

    #[test]
    fn process_trials_report_consistency() {
        let config = ProcessConfig {
            script: quick_script("n - o > 0.0 +/- 0.2", 0.9, Adaptivity::Full, 3),
            estimator: EstimatorConfig::default(),
            commits: 3,
            initial_accuracy: 0.7,
            num_classes: 4,
            churn: 0.5,
        };
        let make = |seed| -> Box<dyn crate::developer::Developer + Send> {
            Box::new(RandomWalkDeveloper::new(0.7, 0.02, 0.05, seed))
        };
        let outcomes = run_process_trials(&config, make, 12, 99).unwrap();
        assert_eq!(outcomes.len(), 12);
        let report = violation_report(&config, make, 12, 99).unwrap();
        let fp = outcomes.iter().filter(|o| o.false_positives > 0).count();
        assert_eq!(report.trials_with_false_positive, fp as u32);
        let labels: u64 = outcomes.iter().map(|o| o.labels_requested).sum();
        assert!((report.mean_labels - labels as f64 / 12.0).abs() < 1e-9);
    }
}
