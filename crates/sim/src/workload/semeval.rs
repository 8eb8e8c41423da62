//! The SemEval-2019 Task 3 commit-history workload (Figures 5 and 6).
//!
//! The paper replays eight models submitted incrementally to the
//! EmoContext competition (final rank 29/165) against the 5 509-item
//! test set published after the competition. The original models are not
//! available, so this module rebuilds the workload two ways:
//!
//! * [`scripted_history`] — prediction vectors over a synthetic
//!   5 509-item testset whose per-iteration test accuracies, dev
//!   accuracies, and pairwise prediction differences follow the
//!   trajectory described in the paper (gradual improvement, ≤ 10 %
//!   consecutive disagreement, final overfit commit). The CI decisions
//!   depend only on these statistics, so the pass/fail strip of Figure 5
//!   is reproduced faithfully.
//! * [`trained_history`] — eight *real* classifiers of increasing
//!   capacity from `easeml-ml`, trained on the synthetic emotion corpus
//!   with a deliberately overfit final iteration; a qualitative
//!   cross-check that live models produce the same shapes.

use crate::error::Result;
use crate::joint::{evolve_predictions, exact_pair, PairSpec};
use easeml_ml::models::{
    Classifier, LogisticRegression, LogisticRegressionConfig, MajorityClassifier, Mlp, MlpConfig,
    NaiveBayes, NaiveBayesConfig,
};
use easeml_ml::synth::text::{EmotionCorpus, EmotionCorpusConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Size of the published SemEval-2019 Task 3 test set.
pub const TEST_SIZE: usize = 5_509;

/// Number of incrementally developed submissions.
pub const ITERATIONS: usize = 8;

/// Per-iteration true test accuracy of the scripted trajectory.
///
/// Rises gradually (several ≥ 2-point jumps), peaks at iteration 7 and
/// dips at iteration 8 — the overfit final submission of Figure 6.
pub const TEST_ACCURACY: [f64; ITERATIONS] =
    [0.585, 0.642, 0.638, 0.664, 0.690, 0.701, 0.734, 0.718];

/// Per-iteration development-set accuracy (monotonically climbing —
/// which is exactly why the developer would want the last commit).
pub const DEV_ACCURACY: [f64; ITERATIONS] =
    [0.601, 0.655, 0.682, 0.714, 0.748, 0.781, 0.823, 0.871];

/// Consecutive-submission prediction difference. Chosen so that every
/// pair the CI queries actually compare (new submission vs the *active*
/// model, which may lag a few submissions behind) stays within the 10 %
/// disagreement bound the paper's Pattern-2 footnote exploits.
pub const CONSECUTIVE_DIFF: [f64; ITERATIONS - 1] =
    [0.085, 0.020, 0.030, 0.040, 0.025, 0.050, 0.030];

/// One reconstructed submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Predictions over the shared testset.
    pub predictions: Vec<u32>,
    /// True (population/target) test accuracy.
    pub test_accuracy: f64,
    /// Development-set accuracy (for Figure 6).
    pub dev_accuracy: f64,
}

/// The full workload: a shared labelled testset plus the eight
/// submissions.
#[derive(Debug, Clone, PartialEq)]
pub struct SemEvalWorkload {
    /// Ground-truth labels of the shared testset.
    pub labels: Vec<u32>,
    /// The eight submissions, in commit order.
    pub submissions: Vec<Submission>,
}

impl SemEvalWorkload {
    /// Realised accuracy of submission `i` on the testset.
    #[must_use]
    pub fn realized_accuracy(&self, i: usize) -> f64 {
        easeml_ml::metrics::accuracy(&self.submissions[i].predictions, &self.labels)
    }
}

/// Build the scripted workload (exact-count statistics, seeded).
///
/// # Errors
///
/// Propagates joint-distribution infeasibility (cannot happen for the
/// built-in trajectory).
pub fn scripted_history(seed: u64) -> Result<SemEvalWorkload> {
    scripted_history_with(TEST_SIZE, &TEST_ACCURACY, &CONSECUTIVE_DIFF, seed)
}

/// Build a scripted workload with custom targets (first accuracy seeds
/// the chain; each subsequent model is evolved from its predecessor).
///
/// # Errors
///
/// Returns an error when a step's `(accuracy, difference)` target is
/// jointly infeasible.
pub fn scripted_history_with(
    test_size: usize,
    accuracies: &[f64],
    diffs: &[f64],
    seed: u64,
) -> Result<SemEvalWorkload> {
    assert_eq!(
        diffs.len() + 1,
        accuracies.len(),
        "need one diff per consecutive pair"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let base = exact_pair(
        test_size,
        &PairSpec {
            acc_old: accuracies[0],
            acc_new: accuracies[0],
            diff: 0.0,
            churn: 0.5,
            num_classes: 4,
        },
        &mut rng,
    )?;
    let mut submissions = Vec::with_capacity(accuracies.len());
    submissions.push(Submission {
        iteration: 1,
        predictions: base.old.clone(),
        test_accuracy: accuracies[0],
        dev_accuracy: DEV_ACCURACY.first().copied().unwrap_or(accuracies[0]),
    });
    let mut previous = base.old.clone();
    for (k, (&acc, &diff)) in accuracies[1..].iter().zip(diffs).enumerate() {
        let next = evolve_predictions(&base.labels, &previous, acc, diff, 0.35, 4, &mut rng)?;
        submissions.push(Submission {
            iteration: k + 2,
            predictions: next.clone(),
            test_accuracy: acc,
            dev_accuracy: DEV_ACCURACY.get(k + 1).copied().unwrap_or(acc),
        });
        previous = next;
    }
    Ok(SemEvalWorkload {
        labels: base.labels,
        submissions,
    })
}

/// Train eight real models of increasing capacity on the synthetic
/// emotion corpus; the final iteration deliberately overfits (high
/// capacity, tiny training slice).
///
/// # Errors
///
/// Propagates corpus-generation and training errors.
pub fn trained_history(seed: u64) -> Result<SemEvalWorkload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus_cfg = EmotionCorpusConfig::default();
    let corpus = EmotionCorpus::generate(24_000, &corpus_cfg, &mut rng)?;
    let dim = 512;
    let data = corpus.vectorize(dim)?;
    // Held-out "competition" testset + dev split for the developer.
    let (devpool, test) = data.split(0.7, &mut rng)?;
    let (train_full, dev) = devpool.split(0.8, &mut rng)?;

    // Eight iterations: growing data and capacity; iteration 8 overfits.
    let fractions = [0.04, 0.08, 0.15, 0.25, 0.40, 0.60, 1.0, 0.05];
    let mut submissions = Vec::with_capacity(ITERATIONS);
    let mut labels = Vec::new();
    for (k, &fraction) in fractions.iter().enumerate() {
        let take = ((train_full.len() as f64) * fraction).round().max(8.0) as usize;
        let indices: Vec<usize> = (0..take.min(train_full.len())).collect();
        let slice = train_full.subset(&indices)?;
        let model: Box<dyn Classifier> = match k {
            0 => Box::new(MajorityClassifier::new()),
            1 => Box::new(NaiveBayes::new(NaiveBayesConfig { smoothing: 2.0 })),
            2 => Box::new(NaiveBayes::default()),
            3 | 4 => Box::new(LogisticRegression::new(LogisticRegressionConfig {
                epochs: 10 + 10 * k as u32,
                seed: seed ^ k as u64,
                ..Default::default()
            })),
            5 | 6 => Box::new(Mlp::new(MlpConfig {
                hidden: 24 + 16 * (k - 5),
                epochs: 30,
                seed: seed ^ k as u64,
                ..Default::default()
            })),
            // Overfit finale: big MLP, long schedule, 5% of the data.
            _ => Box::new(Mlp::new(MlpConfig {
                hidden: 96,
                epochs: 150,
                seed: seed ^ 0xBAD,
                ..Default::default()
            })),
        };
        let mut model = model;
        model.fit(&slice)?;
        let test_preds = model.predict_dataset(&test)?;
        let dev_preds = model.predict_dataset(&dev)?;
        let test_acc = easeml_ml::metrics::accuracy(&test_preds, test.labels());
        // The developer *sees* training-slice performance trends via the
        // dev split; the overfit model looks great on its tiny slice.
        let train_preds = model.predict_dataset(&slice)?;
        let dev_acc = if k == ITERATIONS - 1 {
            easeml_ml::metrics::accuracy(&train_preds, slice.labels())
        } else {
            easeml_ml::metrics::accuracy(&dev_preds, dev.labels())
        };
        if labels.is_empty() {
            labels = test.labels().to_vec();
        }
        submissions.push(Submission {
            iteration: k + 1,
            predictions: test_preds,
            test_accuracy: test_acc,
            dev_accuracy: dev_acc,
        });
    }
    Ok(SemEvalWorkload {
        labels,
        submissions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_history_matches_targets() {
        let w = scripted_history(42).unwrap();
        assert_eq!(w.labels.len(), TEST_SIZE);
        assert_eq!(w.submissions.len(), ITERATIONS);
        let tol = 5.0 / TEST_SIZE as f64;
        for (k, sub) in w.submissions.iter().enumerate() {
            let acc = w.realized_accuracy(k);
            assert!(
                (acc - TEST_ACCURACY[k]).abs() <= tol,
                "iteration {}: acc {acc} vs target {}",
                k + 1,
                TEST_ACCURACY[k]
            );
            assert_eq!(sub.iteration, k + 1);
        }
        for (k, want) in CONSECUTIVE_DIFF.iter().enumerate().take(ITERATIONS - 1) {
            let d = easeml_ml::metrics::prediction_difference(
                &w.submissions[k].predictions,
                &w.submissions[k + 1].predictions,
            );
            assert!((d - want).abs() <= tol, "diff {k}: {d} vs {want}");
            assert!(d <= 0.10 + tol, "consecutive diff exceeds 10%");
        }
    }

    #[test]
    fn scripted_history_is_seed_deterministic() {
        assert_eq!(scripted_history(1).unwrap(), scripted_history(1).unwrap());
        assert_ne!(scripted_history(1).unwrap(), scripted_history(2).unwrap());
    }

    #[test]
    fn figure6_shape_dev_up_test_dips() {
        // Dev accuracy strictly climbs; test accuracy peaks at 7.
        for k in 1..ITERATIONS {
            assert!(DEV_ACCURACY[k] > DEV_ACCURACY[k - 1]);
        }
        let best = TEST_ACCURACY
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 6, "test accuracy must peak at iteration 7");
        const { assert!(TEST_ACCURACY[7] < TEST_ACCURACY[6]) };
    }

    #[test]
    fn custom_trajectory() {
        let w = scripted_history_with(1_000, &[0.5, 0.6, 0.55], &[0.12, 0.08], 9).unwrap();
        assert_eq!(w.submissions.len(), 3);
        assert!((w.realized_accuracy(1) - 0.6).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "one diff per consecutive pair")]
    fn mismatched_diffs_panic() {
        let _ = scripted_history_with(100, &[0.5, 0.6], &[0.1, 0.1], 0);
    }
}
