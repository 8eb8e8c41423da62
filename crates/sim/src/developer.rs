//! Developer behaviour models.
//!
//! The statistical guarantees of ease.ml/ci are quantified over the
//! developer's *interaction policy*: non-adaptive developers ignore the
//! pass/fail stream, adaptive ones react to it, and adversarial ones
//! actively mine it (the Ladder-style setting the `δ/2^H` budget guards
//! against). Each policy here produces a stream of *proposed models*
//! described by their true statistics; the Monte-Carlo harness materialises
//! predictions via [`crate::joint`] and drives the real engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A proposed model, described by its true (population) statistics
/// relative to the currently accepted model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposedModel {
    /// True accuracy of the proposal.
    pub true_accuracy: f64,
    /// True prediction-difference rate from the accepted model.
    pub diff_from_accepted: f64,
}

/// A developer policy: produces the next proposal given the feedback for
/// the previous one (`None` on the first commit or when the signal is
/// withheld).
pub trait Developer {
    /// Propose the next model.
    fn propose(&mut self, feedback: Option<bool>) -> ProposedModel;

    /// Record that a proposal was accepted as the new baseline (called
    /// by the harness so the policy can track the accepted accuracy).
    fn accepted(&mut self, model: &ProposedModel) {
        let _ = model;
    }
}

/// Non-adaptive developer: a random walk of model quality that never
/// looks at the feedback (the §3.2 setting).
#[derive(Debug, Clone)]
pub struct RandomWalkDeveloper {
    rng: StdRng,
    current: f64,
    step_std: f64,
    diff: f64,
    floor: f64,
    ceil: f64,
}

impl RandomWalkDeveloper {
    /// A walk starting at `start` accuracy with per-commit Gaussian
    /// steps of standard deviation `step_std` and prediction diff
    /// `diff`.
    #[must_use]
    pub fn new(start: f64, step_std: f64, diff: f64, seed: u64) -> Self {
        RandomWalkDeveloper {
            rng: StdRng::seed_from_u64(seed),
            current: start,
            step_std,
            diff,
            floor: 0.02,
            ceil: 0.98,
        }
    }

    fn gaussian(&mut self) -> f64 {
        // Box–Muller.
        loop {
            let u1: f64 = self.rng.random();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2: f64 = self.rng.random();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

impl Developer for RandomWalkDeveloper {
    fn propose(&mut self, _feedback: Option<bool>) -> ProposedModel {
        let step = self.gaussian() * self.step_std;
        self.current = (self.current + step).clamp(self.floor, self.ceil);
        // The walk must stay reachable within the configured diff.
        ProposedModel {
            true_accuracy: self.current,
            diff_from_accepted: self.diff,
        }
    }
}

/// Adaptive hill-climber: explores variations and keeps building on
/// whatever last passed (the intended use of `adaptivity: full`).
#[derive(Debug, Clone)]
pub struct HillClimbDeveloper {
    rng: StdRng,
    accepted_accuracy: f64,
    exploration_std: f64,
    improvement_rate: f64,
    diff: f64,
}

impl HillClimbDeveloper {
    /// Start from an accepted model of accuracy `start`; on each failure
    /// try a fresh variation, on success push slightly further.
    #[must_use]
    pub fn new(
        start: f64,
        exploration_std: f64,
        improvement_rate: f64,
        diff: f64,
        seed: u64,
    ) -> Self {
        HillClimbDeveloper {
            rng: StdRng::seed_from_u64(seed),
            accepted_accuracy: start,
            exploration_std,
            improvement_rate,
            diff,
        }
    }

    fn gaussian(&mut self) -> f64 {
        loop {
            let u1: f64 = self.rng.random();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2: f64 = self.rng.random();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

impl Developer for HillClimbDeveloper {
    fn propose(&mut self, feedback: Option<bool>) -> ProposedModel {
        // After a pass the baseline advanced (see `accepted`); either way
        // propose: genuine improvement attempt + exploration noise.
        let drift = if feedback == Some(false) {
            // A failure: try a different direction, slightly bolder.
            self.gaussian() * self.exploration_std * 1.5
        } else {
            self.improvement_rate + self.gaussian() * self.exploration_std
        };
        let accuracy = (self.accepted_accuracy + drift).clamp(0.02, 0.98);
        ProposedModel {
            true_accuracy: accuracy,
            diff_from_accepted: self.diff,
        }
    }

    fn accepted(&mut self, model: &ProposedModel) {
        self.accepted_accuracy = model.true_accuracy;
    }
}

/// Adversarial developer: never actually improves the model, but keeps
/// resubmitting noise-level variations hoping one squeaks past the test —
/// the attack the `δ/2^H` fully-adaptive budget is sized against.
#[derive(Debug, Clone)]
pub struct OverfitterDeveloper {
    rng: StdRng,
    true_accuracy: f64,
    wiggle: f64,
    diff: f64,
}

impl OverfitterDeveloper {
    /// An overfitter whose proposals all have true accuracy within
    /// `±wiggle` of `true_accuracy` (no real progress).
    #[must_use]
    pub fn new(true_accuracy: f64, wiggle: f64, diff: f64, seed: u64) -> Self {
        OverfitterDeveloper {
            rng: StdRng::seed_from_u64(seed),
            true_accuracy,
            wiggle,
            diff,
        }
    }
}

impl Developer for OverfitterDeveloper {
    fn propose(&mut self, _feedback: Option<bool>) -> ProposedModel {
        let jitter: f64 = self.rng.random_range(-1.0..1.0) * self.wiggle;
        ProposedModel {
            true_accuracy: (self.true_accuracy + jitter).clamp(0.0, 1.0),
            diff_from_accepted: self.diff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_walk_ignores_feedback_and_is_seeded() {
        let mut a = RandomWalkDeveloper::new(0.7, 0.02, 0.1, 4);
        let mut b = RandomWalkDeveloper::new(0.7, 0.02, 0.1, 4);
        for i in 0..20 {
            let fa = if i % 2 == 0 { Some(true) } else { Some(false) };
            let pa = a.propose(fa);
            let pb = b.propose(None);
            assert_eq!(pa, pb, "feedback must not influence the walk");
            assert!((0.0..=1.0).contains(&pa.true_accuracy));
        }
    }

    #[test]
    fn hill_climber_builds_on_accepted_models() {
        let mut dev = HillClimbDeveloper::new(0.6, 0.005, 0.02, 0.1, 7);
        let mut accepted = 0.6;
        for _ in 0..30 {
            let p = dev.propose(Some(true));
            if p.true_accuracy > accepted {
                dev.accepted(&p);
                accepted = p.true_accuracy;
            }
        }
        assert!(
            accepted > 0.65,
            "climber should make progress, got {accepted}"
        );
    }

    #[test]
    fn overfitter_never_improves_in_truth() {
        let mut dev = OverfitterDeveloper::new(0.75, 0.005, 0.05, 3);
        for _ in 0..50 {
            let p = dev.propose(Some(false));
            assert!((p.true_accuracy - 0.75).abs() <= 0.005 + 1e-12);
        }
    }
}
