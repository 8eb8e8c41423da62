//! The sample-size estimator utility (§2.3, §3, §4).
//!
//! Given a [`CiScript`], [`SampleSizeEstimator`] answers "how many test
//! examples must the user provide?" It first tries the §4 pattern
//! optimizations (unless configured baseline-only) and falls back to the
//! §3 Hoeffding recursion.
//!
//! ```
//! use easeml_ci_core::{CiScript, SampleSizeEstimator};
//!
//! # fn main() -> Result<(), easeml_ci_core::CiError> {
//! let script = CiScript::builder()
//!     .condition_str("n > 0.8 +/- 0.05")?
//!     .reliability(0.9999)
//!     .adaptivity(easeml_bounds::Adaptivity::Full)
//!     .steps(32)
//!     .build()?;
//! let estimate = SampleSizeEstimator::new().estimate(&script)?;
//! assert_eq!(estimate.labeled_samples, 6_279); // §3.3 worked example
//! # Ok(())
//! # }
//! ```

mod baseline;
mod pattern;

pub use baseline::{
    clause_sample_size, clause_sample_size_with_options, formula_sample_size,
    formula_sample_size_with_options, Allocation, ClauseEstimate, LeafBound, LeafEstimate,
    MetricSensitivity,
};
pub use pattern::{
    coarse_to_fine_plan, hierarchical_plan, implicit_variance_plan, implicit_variance_test_phase,
    match_patterns, ActiveLabelingSchedule, CoarseToFinePlan, HierarchicalPlan,
    ImplicitVariancePlan, OptimizedPlan, Pattern1Options, Pattern2Options, PhaseEstimate,
};

use crate::cache::{CachePolicy, PlanCache, PlanFingerprint};
use crate::error::Result;
use crate::logic::Mode;
use crate::script::CiScript;
use easeml_bounds::{Adaptivity, Tail};

/// Exact `f64` rendering for [`plan_fingerprint`]: 16 lowercase hex
/// digits of the bit pattern, so distinct values never share a key.
fn hex_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Strategy the estimator is allowed to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EstimatorStrategy {
    /// Pattern optimizations when they apply, baseline otherwise.
    #[default]
    Auto,
    /// Baseline Hoeffding recursion only (§3) — the ablation reference.
    BaselineOnly,
}

/// Configuration of the sample-size estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Which strategies may be used.
    pub strategy: EstimatorStrategy,
    /// ε-budget allocation for compound expressions.
    pub allocation: Allocation,
    /// Bound backing baseline leaves.
    pub leaf_bound: LeafBound,
    /// Tail sidedness (the paper's tables use one-sided).
    pub tail: Tail,
    /// Pattern 1 knobs.
    pub pattern1: Pattern1Options,
    /// Pattern 2 knobs.
    pub pattern2: Pattern2Options,
    /// Whether estimation consults the shared caches: leaf inversions
    /// go through [`crate::BoundsCache`] and whole plan-search results
    /// through [`crate::PlanCache`] (both on by default;
    /// [`CachePolicy::Bypass`] recomputes everything at every layer).
    pub cache: CachePolicy,
    /// Bounded-difference sensitivities backing McDiarmid leaves for
    /// metric-qualified variables (`f1(...)`, `topk(...)`); ignored by
    /// metric-free formulas.
    pub metric: MetricSensitivity,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            strategy: EstimatorStrategy::Auto,
            allocation: Allocation::EqualSplit,
            leaf_bound: LeafBound::Hoeffding,
            tail: Tail::OneSided,
            pattern1: Pattern1Options::default(),
            pattern2: Pattern2Options::default(),
            cache: CachePolicy::Shared,
            metric: MetricSensitivity::default(),
        }
    }
}

/// The estimator's answer for a script.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSizeEstimate {
    /// Labelled examples the user must provide.
    pub labeled_samples: u64,
    /// Additional unlabeled examples (filter/probe phases).
    pub unlabeled_samples: u64,
    /// `ln δ` allocated to each individual test after adaptivity
    /// accounting.
    pub ln_delta_per_test: f64,
    /// Which path produced the estimate.
    pub provenance: EstimateProvenance,
    /// Per-clause breakdown when the baseline estimator ran.
    pub per_clause: Vec<ClauseEstimate>,
}

impl SampleSizeEstimate {
    /// Total examples (labelled + unlabeled) the user must provide.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.labeled_samples.saturating_add(self.unlabeled_samples)
    }
}

/// Canonicalized fingerprint of one plan-search query — the key of the
/// cross-layer [`PlanCache`].
///
/// Covers everything the estimate depends on: the formula's canonical
/// rendering (structure, thresholds, tolerances, coefficients — the
/// `Display` form is shortest-round-trip, hence injective on values, and
/// identical for differently-formatted source scripts that parse to the
/// same condition), `δ`, the step budget, adaptivity, decision mode, and
/// every estimator knob (strategy, allocation, leaf bound, tail, pattern
/// options). Two queries with equal fingerprints would run the exact
/// same plan search.
///
/// Mode does not influence today's sample-size arithmetic, but it is
/// part of the script's semantic identity and keying on it keeps the
/// cache trivially correct if a future mode-aware estimate lands.
#[must_use]
pub fn plan_fingerprint(script: &CiScript, config: &EstimatorConfig) -> PlanFingerprint {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(192);
    let _ = write!(
        s,
        "formula={};delta={};steps={};adaptivity={};mode={};",
        script.condition(),
        hex_f64(script.delta()),
        script.steps(),
        match script.adaptivity() {
            Adaptivity::None => 0,
            Adaptivity::Full => 1,
            Adaptivity::FirstChange => 2,
        },
        match script.mode() {
            Mode::FpFree => 0,
            Mode::FnFree => 1,
        },
    );
    let _ = write!(
        s,
        "strategy={};allocation={};leaf={};tail={};",
        match config.strategy {
            EstimatorStrategy::Auto => 0,
            EstimatorStrategy::BaselineOnly => 1,
        },
        match config.allocation {
            Allocation::EqualSplit => 0,
            Allocation::Proportional => 1,
        },
        match config.leaf_bound {
            LeafBound::Hoeffding => 0,
            LeafBound::ExactBinomial => 1,
        },
        config.tail.code(),
    );
    let _ = write!(
        s,
        "p1={},{};p2={},{},{};metric={},{}",
        u8::from(config.pattern1.conservative_variance),
        config.pattern1.tail.code(),
        hex_f64(config.pattern2.expected_difference),
        config
            .pattern2
            .known_variance_bound
            .map_or_else(|| "-".to_owned(), hex_f64),
        config.pattern2.tail.code(),
        hex_f64(config.metric.f1_positive_rate),
        hex_f64(config.metric.topk_mass),
    );
    PlanFingerprint::of(&s)
}

/// Which estimation path produced the final numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateProvenance {
    /// Baseline recursion (§3).
    Baseline,
    /// One of the §4 pattern plans (attached).
    Optimized(OptimizedPlan),
}

/// The sample-size estimator utility.
///
/// Stateless apart from its configuration; cheap to construct per query.
#[derive(Debug, Clone, Default)]
pub struct SampleSizeEstimator {
    config: EstimatorConfig,
}

impl SampleSizeEstimator {
    /// Estimator with the default configuration (auto strategy, paper
    /// tail conventions).
    #[must_use]
    pub fn new() -> Self {
        SampleSizeEstimator {
            config: EstimatorConfig::default(),
        }
    }

    /// Estimator with an explicit configuration.
    #[must_use]
    pub fn with_config(config: EstimatorConfig) -> Self {
        SampleSizeEstimator { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Estimate the testset size a script requires.
    ///
    /// Under [`CachePolicy::Shared`] (the default) the full plan-search
    /// result is memoized in the cross-layer [`PlanCache`], keyed by
    /// [`plan_fingerprint`]: repeated estimates of a known script —
    /// every `easeml-serve` re-registration, every engine construction
    /// against a popular script shape — collapse to a map lookup instead
    /// of re-running pattern matching and the bound inversions. A hit
    /// returns a clone of the stored estimate, so cached and freshly
    /// computed answers are identical down to the bit patterns.
    ///
    /// # Errors
    ///
    /// Returns an error when the condition is semantically invalid or a
    /// bound computation rejects its parameters. Errors are never
    /// cached.
    pub fn estimate(&self, script: &CiScript) -> Result<SampleSizeEstimate> {
        match self.config.cache {
            CachePolicy::Shared => PlanCache::global()
                .get_or_try_insert_with(plan_fingerprint(script, &self.config), || {
                    self.estimate_uncached(script)
                }),
            CachePolicy::Bypass => self.estimate_uncached(script),
        }
    }

    /// The actual plan search behind [`Self::estimate`] (pattern
    /// matching, then the baseline recursion).
    fn estimate_uncached(&self, script: &CiScript) -> Result<SampleSizeEstimate> {
        let delta = script.delta();
        let adaptivity = script.adaptivity();
        let steps = script.steps();
        let ln_delta = adaptivity.ln_effective_delta(delta, steps)?;

        if self.config.strategy == EstimatorStrategy::Auto {
            if let Some(plan) = match_patterns(
                script.condition(),
                delta,
                steps,
                adaptivity,
                self.config.pattern1,
                self.config.pattern2,
            )? {
                return Ok(SampleSizeEstimate {
                    labeled_samples: plan.labeled_samples(),
                    unlabeled_samples: plan.unlabeled_samples(),
                    ln_delta_per_test: ln_delta,
                    provenance: EstimateProvenance::Optimized(plan),
                    per_clause: Vec::new(),
                });
            }
        }

        let (samples, per_clause) = baseline::formula_sample_size_with_options(
            script.condition(),
            ln_delta,
            self.config.allocation,
            self.config.leaf_bound,
            self.config.tail,
            self.config.cache,
            self.config.metric,
        )?;
        let needs_labels = script.condition().needs_labels();
        Ok(SampleSizeEstimate {
            labeled_samples: if needs_labels { samples } else { 0 },
            unlabeled_samples: if needs_labels { 0 } else { samples },
            ln_delta_per_test: ln_delta,
            provenance: EstimateProvenance::Baseline,
            per_clause,
        })
    }

    /// Baseline-only estimate, regardless of the configured strategy
    /// (used by benches to compute the optimization's saving factor).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::estimate`].
    pub fn estimate_baseline(&self, script: &CiScript) -> Result<SampleSizeEstimate> {
        let mut cfg = self.config;
        cfg.strategy = EstimatorStrategy::BaselineOnly;
        SampleSizeEstimator::with_config(cfg).estimate(script)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Mode;
    use easeml_bounds::Adaptivity;

    fn script(condition: &str, reliability: f64, adaptivity: Adaptivity, steps: u32) -> CiScript {
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
    fn single_variable_baseline_matches_paper() {
        let s = script("n > 0.8 +/- 0.05", 0.9999, Adaptivity::Full, 32);
        let est = SampleSizeEstimator::new().estimate(&s).unwrap();
        assert_eq!(est.labeled_samples, 6_279);
        assert!(matches!(est.provenance, EstimateProvenance::Baseline));
    }

    #[test]
    fn pattern1_is_selected_automatically() {
        let s = script(
            "d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01",
            0.9999,
            Adaptivity::None,
            32,
        );
        let est = SampleSizeEstimator::new().estimate(&s).unwrap();
        assert!(matches!(
            est.provenance,
            EstimateProvenance::Optimized(OptimizedPlan::Hierarchical(_))
        ));
        assert_eq!(est.labeled_samples, 29_048);
        assert!(est.unlabeled_samples > 0);

        let baseline = SampleSizeEstimator::new().estimate_baseline(&s).unwrap();
        assert!(matches!(baseline.provenance, EstimateProvenance::Baseline));
        assert!(baseline.labeled_samples > 8 * est.labeled_samples);
    }

    #[test]
    fn unlabeled_only_condition_requires_no_labels() {
        let s = script("d < 0.1 +/- 0.01", 0.9999, Adaptivity::None, 32);
        let est = SampleSizeEstimator::new().estimate(&s).unwrap();
        assert_eq!(est.labeled_samples, 0);
        assert!(est.unlabeled_samples > 0);
        // Matches the Figure 2 F4 column.
        assert_eq!(est.unlabeled_samples, 63_381);
    }

    #[test]
    fn total_samples_adds_both_pools() {
        let s = script(
            "d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01",
            0.9999,
            Adaptivity::None,
            32,
        );
        let est = SampleSizeEstimator::new().estimate(&s).unwrap();
        assert_eq!(
            est.total_samples(),
            est.labeled_samples + est.unlabeled_samples
        );
    }

    /// Plan-cache-served estimates are indistinguishable from fresh
    /// computation, and `estimate()` populates the shared cache under
    /// the fingerprint key.
    #[test]
    fn estimate_is_identical_with_and_without_plan_cache() {
        use crate::cache::{CachePolicy, PlanCache};
        for condition in [
            "n > 0.8 +/- 0.05",
            "d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01",
            "n - o > 0.02 +/- 0.01",
            "n > 0.9 +/- 0.02",
        ] {
            // A reliability digit unique to this test keeps the
            // fingerprints disjoint from other tests sharing the global
            // cache.
            let s = script(condition, 0.99931, Adaptivity::Full, 12);
            let shared = SampleSizeEstimator::new();
            let bypass = SampleSizeEstimator::with_config(EstimatorConfig {
                cache: CachePolicy::Bypass,
                ..EstimatorConfig::default()
            });
            let cold = shared.estimate(&s).unwrap(); // miss: compute + store
            let warm = shared.estimate(&s).unwrap(); // hit: served from cache
            let fresh = bypass.estimate(&s).unwrap();
            assert_eq!(cold, warm, "{condition}");
            assert_eq!(warm, fresh, "{condition}");
            let fp = plan_fingerprint(&s, shared.config());
            assert_eq!(
                PlanCache::global().lookup(&fp),
                Some(fresh),
                "{condition}: estimate() must have stored the plan"
            );
        }
    }

    /// The fingerprint canonicalizes formatting but separates semantics:
    /// the same condition written differently shares a key; any knob
    /// change gets its own.
    #[test]
    fn plan_fingerprint_canonicalizes_and_separates() {
        let a = script("n - o > 0.02 +/- 0.01", 0.999, Adaptivity::Full, 32);
        let b = CiScript::builder()
            .condition_str("n-o>0.02+/-0.01")
            .unwrap()
            .reliability(0.999)
            .mode(Mode::FpFree)
            .adaptivity(Adaptivity::Full)
            .steps(32)
            .build()
            .unwrap();
        let config = EstimatorConfig::default();
        assert_eq!(plan_fingerprint(&a, &config), plan_fingerprint(&b, &config));

        let mut variants = vec![
            plan_fingerprint(
                &script("n - o > 0.02 +/- 0.011", 0.999, Adaptivity::Full, 32),
                &config,
            ),
            plan_fingerprint(
                &script("n - o > 0.02 +/- 0.01", 0.9991, Adaptivity::Full, 32),
                &config,
            ),
            plan_fingerprint(
                &script("n - o > 0.02 +/- 0.01", 0.999, Adaptivity::None, 32),
                &config,
            ),
            plan_fingerprint(
                &script("n - o > 0.02 +/- 0.01", 0.999, Adaptivity::Full, 33),
                &config,
            ),
            plan_fingerprint(
                &a,
                &EstimatorConfig {
                    tail: Tail::TwoSided,
                    ..config
                },
            ),
            plan_fingerprint(
                &a,
                &EstimatorConfig {
                    leaf_bound: LeafBound::ExactBinomial,
                    ..config
                },
            ),
            plan_fingerprint(
                &a,
                &EstimatorConfig {
                    strategy: EstimatorStrategy::BaselineOnly,
                    ..config
                },
            ),
            plan_fingerprint(
                &a,
                &EstimatorConfig {
                    metric: MetricSensitivity {
                        f1_positive_rate: 0.25,
                        topk_mass: 0.5,
                    },
                    ..config
                },
            ),
        ];
        variants.push(plan_fingerprint(&a, &config));
        variants.sort();
        variants.dedup();
        assert_eq!(variants.len(), 9, "every knob must change the key");
    }

    #[test]
    fn metric_scripts_route_to_mcdiarmid_baseline_and_round_trip() {
        // Metric conditions never match a §4 pattern: they go through the
        // baseline recursion with McDiarmid leaves and round-trip
        // through the plan cache bit for bit.
        for condition in [
            "f1(n) - f1(o) > -0.02 +/- 0.01",
            "topk(n, 5) - topk(o, 5) > -0.02 +/- 0.01",
            "f1(n) > 0.8 +/- 0.05 /\\ d < 0.1 +/- 0.01",
        ] {
            let s = script(condition, 0.9999, Adaptivity::Full, 32);
            let estimator = SampleSizeEstimator::new();
            let est = estimator.estimate(&s).unwrap();
            assert!(
                matches!(est.provenance, EstimateProvenance::Baseline),
                "{condition}"
            );
            assert!(est.labeled_samples > 0, "{condition}");
            // Cache round trip is bit-exact.
            let warm = estimator.estimate(&s).unwrap();
            assert_eq!(est, warm, "{condition}");
            // Tightening the sensitivity changes the answer (β = 2/π₊
            // shrinks as π₊ grows) — and the fingerprint keeps the two
            // cached plans separate.
            let tight = SampleSizeEstimator::with_config(EstimatorConfig {
                metric: MetricSensitivity {
                    f1_positive_rate: 1.0,
                    topk_mass: 1.0,
                },
                ..EstimatorConfig::default()
            })
            .estimate(&s)
            .unwrap();
            // (When a plain clause dominates the conjunction max, the
            // metric knob cannot shrink the total — only never grow it.)
            if condition.contains('d') {
                assert!(
                    tight.labeled_samples <= est.labeled_samples,
                    "{condition}: {} > {}",
                    tight.labeled_samples,
                    est.labeled_samples
                );
            } else {
                assert!(
                    tight.labeled_samples < est.labeled_samples,
                    "{condition}: {} !< {}",
                    tight.labeled_samples,
                    est.labeled_samples
                );
            }
        }
    }

    #[test]
    fn per_clause_breakdown_present_for_baseline() {
        let s = script(
            "n - o > 0.02 +/- 0.01 /\\ d < 0.1 +/- 0.01",
            0.999,
            Adaptivity::None,
            32,
        );
        let est = SampleSizeEstimator::new().estimate_baseline(&s).unwrap();
        assert_eq!(est.per_clause.len(), 2);
        assert!(est.per_clause[0].clause.contains("n - o"));
    }
}
