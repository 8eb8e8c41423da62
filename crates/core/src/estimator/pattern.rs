//! Pattern-based optimizations (§4.1, §4.2): hierarchical testing, active
//! labelling, and implicit variance bounds.
//!
//! The worst-case `O(1/ε²)` of Hoeffding cannot be beaten in general, so
//! ease.ml/ci improves the estimator for a *sub-family* of practically
//! important conditions:
//!
//! * **Pattern 1** — `d < A ± B ∧ n − o > C ± D`: the difference clause
//!   doubles as a variance bound. A cheap *filter* step on unlabeled data
//!   checks `d`, and conditioned on `d < p` the improvement clause is
//!   tested with Bennett's inequality at `O(1/(p·h(ε/p)))` samples. Only
//!   disagreeing points need labels, so labelling is *active*: `≈ p × n`
//!   labels per commit (§4.1.2).
//! * **Pattern 2** — `n − o > C ± D` alone: no explicit `d` clause, but
//!   consecutive commits rarely disagree much (§4.2's ImageNet-winners
//!   observation), so the system first probes `d` up to `2D` on a 16×
//!   smaller testset and, when the observed bound is small, applies the
//!   same Bennett machinery.
//! * **Pattern 3** — `n > A ± B` with a large floor `A`: a coarse
//!   estimate pins accuracy near 1, which bounds the Bernoulli variance
//!   and again enables Bennett.

use crate::dsl::{classify_clause, ClauseShape, Formula};
use crate::error::{CiError, Result};
use easeml_bounds::{
    bennett_sample_size_from_ln_delta, hoeffding_sample_size_from_ln_delta, Adaptivity, Tail,
};

/// One phase of an optimized test plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseEstimate {
    /// Samples this phase draws from the testset.
    pub samples: u64,
    /// Whether those samples need ground-truth labels.
    pub needs_labels: bool,
    /// Tolerance this phase verifies.
    pub epsilon: f64,
    /// `ln δ` share allocated to this phase (per test).
    pub ln_delta: f64,
}

/// The per-commit labelling schedule of active labelling (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveLabelingSchedule {
    /// Size of the unlabeled pool the user must provide up front.
    pub pool_size: u64,
    /// Expected labels requested per commit (only disagreements need
    /// labels): `≈ p ×` the Bennett testset size at a single-step budget.
    pub labels_per_commit: u64,
    /// Worst-case labels over the whole `H`-step process if every commit
    /// disagreed on a fresh `p`-fraction.
    pub worst_case_total_labels: u64,
}

/// An optimized plan produced by pattern matching a formula.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizedPlan {
    /// Pattern 1: explicit difference bound + improvement clause.
    Hierarchical(HierarchicalPlan),
    /// Pattern 2: improvement clause with an implicit variance probe.
    ImplicitVariance(ImplicitVariancePlan),
    /// Pattern 3: quality floor near 1 with a coarse-to-fine estimate.
    CoarseToFine(CoarseToFinePlan),
}

impl OptimizedPlan {
    /// Total labelled samples the plan requires up front (active
    /// labelling can amortize this; see the schedule).
    #[must_use]
    pub fn labeled_samples(&self) -> u64 {
        match self {
            OptimizedPlan::Hierarchical(p) => p.test.samples,
            OptimizedPlan::ImplicitVariance(p) => p.test_upper_bound.samples,
            OptimizedPlan::CoarseToFine(p) => p.coarse.samples + p.fine_upper_bound.samples,
        }
    }

    /// Total unlabeled samples the plan requires.
    #[must_use]
    pub fn unlabeled_samples(&self) -> u64 {
        match self {
            OptimizedPlan::Hierarchical(p) => p.filter.samples,
            OptimizedPlan::ImplicitVariance(p) => p.probe.samples,
            OptimizedPlan::CoarseToFine(_) => 0,
        }
    }
}

/// Pattern 1 plan: filter on `d`, then Bennett-test `n − o` (§4.1.1).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalPlan {
    /// Unlabeled filter phase: estimate `d̂` to `ε′` and reject when
    /// `d̂ > A + ε′`.
    pub filter: PhaseEstimate,
    /// Labelled Bennett phase for `n − o`, conditioned on the variance
    /// bound `p`.
    pub test: PhaseEstimate,
    /// The variance bound used: `p = A` (the paper's worked example) or
    /// `A + 2ε′` when [`Pattern1Options::conservative_variance`] is set.
    pub variance_bound: f64,
    /// Per-commit labelling schedule.
    pub active: ActiveLabelingSchedule,
}

/// Pattern 2 plan: probe `d` up to `2D` first, then Bennett-test `n − o`
/// sized by the *observed* difference (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ImplicitVariancePlan {
    /// The probe phase for `d` (unlabeled for binary tasks; difference of
    /// correctness on labelled data for multi-class).
    pub probe: PhaseEstimate,
    /// Bennett phase sized with the *a-priori* variance cap
    /// [`Pattern2Options::expected_difference`]; the true requirement is
    /// only known after the probe — use
    /// [`implicit_variance_test_phase`] with the observed `d̂`.
    pub test_upper_bound: PhaseEstimate,
    /// Improvement-clause tolerance `D`.
    pub tolerance: f64,
    /// `ln δ` share reserved for the test phase.
    pub test_ln_delta: f64,
}

/// Pattern 3 plan: coarse bound on `n`, then a variance-bounded fine pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseToFinePlan {
    /// Coarse Hoeffding phase at a loose tolerance.
    pub coarse: PhaseEstimate,
    /// Fine Bennett phase assuming the coarse lower bound holds.
    pub fine_upper_bound: PhaseEstimate,
    /// The accuracy floor `A` from the clause.
    pub floor: f64,
}

/// Tuning knobs for Pattern 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pattern1Options {
    /// Use `p = A + 2ε′` instead of the paper's `p = A` as the variance
    /// bound (accounts for filter estimation slack; costs ≈5–10 % more
    /// labels).
    pub conservative_variance: bool,
    /// Tail sidedness for both phases (the paper's worked numbers use
    /// one-sided).
    pub tail: Tail,
}

impl Default for Pattern1Options {
    fn default() -> Self {
        Pattern1Options {
            conservative_variance: false,
            tail: Tail::OneSided,
        }
    }
}

/// Tuning knobs for Pattern 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pattern2Options {
    /// A-priori cap on the expected prediction difference between
    /// consecutive commits, used to size the labelled pool before any
    /// probe runs (§4.2 argues ≤ 0.25 even across years of ImageNet
    /// progress; fine-tuning workflows sit near 0.1).
    pub expected_difference: f64,
    /// Treat the variance bound as *known a priori* (the paper's Figure 5
    /// setting: "exploiting the fact that between any two submission
    /// there is no more than 10 % difference in prediction"). The probe
    /// phase then costs no samples and the Bennett test receives the full
    /// per-step budget with this bound.
    pub known_variance_bound: Option<f64>,
    /// Tail sidedness.
    pub tail: Tail,
}

impl Default for Pattern2Options {
    fn default() -> Self {
        Pattern2Options {
            expected_difference: 0.1,
            known_variance_bound: None,
            tail: Tail::TwoSided,
        }
    }
}

/// Try to match a formula against the optimizable patterns, in the order
/// the system prefers them (Pattern 1, then 2, then 3).
///
/// Returns `None` when no pattern applies — the caller falls back to the
/// baseline estimator. Formulas with extra clauses beyond the recognised
/// shape are conservatively rejected.
///
/// # Errors
///
/// Returns an error only for invalid budget parameters.
pub fn match_patterns(
    formula: &Formula,
    delta: f64,
    steps: u32,
    adaptivity: Adaptivity,
    p1: Pattern1Options,
    p2: Pattern2Options,
) -> Result<Option<OptimizedPlan>> {
    let shapes: Vec<ClauseShape> = formula.clauses().iter().map(classify_clause).collect();
    // Pattern 1: exactly a difference bound + an improvement clause.
    if formula.len() == 2 {
        let diff = shapes.iter().find_map(|s| match s {
            ClauseShape::DifferenceBound { limit, tolerance } => Some((*limit, *tolerance)),
            _ => None,
        });
        let improv = shapes.iter().find_map(|s| match s {
            ClauseShape::AccuracyImprovement { margin, tolerance } => Some((*margin, *tolerance)),
            _ => None,
        });
        if let (Some((limit, d_tol)), Some((_, n_tol))) = (diff, improv) {
            let plan = hierarchical_plan(limit, d_tol, n_tol, delta, steps, adaptivity, p1)?;
            return Ok(Some(OptimizedPlan::Hierarchical(plan)));
        }
    }
    if formula.len() == 1 {
        match shapes[0] {
            ClauseShape::AccuracyImprovement {
                margin: _,
                tolerance,
            } => {
                let plan = implicit_variance_plan(tolerance, delta, steps, adaptivity, p2)?;
                return Ok(Some(OptimizedPlan::ImplicitVariance(plan)));
            }
            ClauseShape::QualityFloor { floor, tolerance } if floor >= 0.85 => {
                let plan =
                    coarse_to_fine_plan(floor, tolerance, delta, steps, adaptivity, p2.tail)?;
                return Ok(Some(OptimizedPlan::CoarseToFine(plan)));
            }
            _ => {}
        }
    }
    Ok(None)
}

/// Build the Pattern 1 plan (§4.1.1 + §4.1.2).
///
/// Budget split mirrors the paper's worked example: the filter gets
/// `δ/2`, the Bennett test gets `δ/4` (the remaining quarter absorbs the
/// conditioning step).
///
/// # Errors
///
/// Returns an error for invalid `delta` or degenerate tolerances.
pub fn hierarchical_plan(
    diff_limit: f64,
    diff_tolerance: f64,
    improv_tolerance: f64,
    delta: f64,
    steps: u32,
    adaptivity: Adaptivity,
    options: Pattern1Options,
) -> Result<HierarchicalPlan> {
    if !(diff_limit > 0.0 && diff_limit < 1.0) {
        return Err(CiError::Semantic(format!(
            "difference limit must be in (0, 1), got {diff_limit}"
        )));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(CiError::Semantic(format!(
            "delta must be in (0, 1), got {delta}"
        )));
    }
    let ln_mult = adaptivity.ln_multiplicity(steps);

    // Filter phase: unlabeled estimate of d to the clause tolerance, at
    // (δ/2) / multiplicity.
    let filter_ln_delta = delta.ln() - std::f64::consts::LN_2 - ln_mult;
    let filter_samples =
        hoeffding_sample_size_from_ln_delta(1.0, diff_tolerance, filter_ln_delta, options.tail)?;

    // Variance bound for the Bennett step.
    let variance_bound = if options.conservative_variance {
        (diff_limit + 2.0 * diff_tolerance).min(1.0)
    } else {
        diff_limit
    };

    // Test phase: Bennett for n − o at (δ/4) / multiplicity.
    let test_ln_delta = delta.ln() - 4f64.ln() - ln_mult;
    let test_samples = bennett_sample_size_from_ln_delta(
        variance_bound,
        1.0,
        improv_tolerance,
        test_ln_delta,
        options.tail,
    )?;

    // Active labelling: per-commit labels at the single-commit budget
    // (δ/4, no step multiplicity — §4.1.2's 2 188-label example).
    let single_ln_delta = delta.ln() - 4f64.ln();
    let single_n = bennett_sample_size_from_ln_delta(
        variance_bound,
        1.0,
        improv_tolerance,
        single_ln_delta,
        options.tail,
    )?;
    let labels_per_commit = ((single_n as f64) * variance_bound).ceil() as u64;
    let worst_case_total =
        ((test_samples as f64) * variance_bound).ceil() as u64 * u64::from(steps.max(1));

    Ok(HierarchicalPlan {
        filter: PhaseEstimate {
            samples: filter_samples,
            needs_labels: false,
            epsilon: diff_tolerance,
            ln_delta: filter_ln_delta,
        },
        test: PhaseEstimate {
            samples: test_samples,
            needs_labels: true,
            epsilon: improv_tolerance,
            ln_delta: test_ln_delta,
        },
        variance_bound,
        active: ActiveLabelingSchedule {
            pool_size: test_samples,
            labels_per_commit,
            worst_case_total_labels: worst_case_total,
        },
    })
}

/// Build the Pattern 2 plan (§4.2).
///
/// The probe estimates `d` to `2D` (4× tolerance saving) on a variable of
/// range 1 instead of 2 (another 4×) — 16× smaller than testing `n − o`
/// directly. Budget: probe `δ/2`, test `δ/2`.
///
/// # Errors
///
/// Returns an error for invalid `delta` or degenerate tolerances.
pub fn implicit_variance_plan(
    tolerance: f64,
    delta: f64,
    steps: u32,
    adaptivity: Adaptivity,
    options: Pattern2Options,
) -> Result<ImplicitVariancePlan> {
    if !(options.expected_difference > 0.0 && options.expected_difference <= 1.0) {
        return Err(CiError::Semantic(format!(
            "expected difference must be in (0, 1], got {}",
            options.expected_difference
        )));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(CiError::Semantic(format!(
            "delta must be in (0, 1), got {delta}"
        )));
    }
    let ln_mult = adaptivity.ln_multiplicity(steps);

    if let Some(p) = options.known_variance_bound {
        if !(p > 0.0 && p <= 1.0) {
            return Err(CiError::Semantic(format!(
                "known variance bound must be in (0, 1], got {p}"
            )));
        }
        // No probe: the whole per-step budget goes to the Bennett test.
        let test_ln_delta = delta.ln() - ln_mult;
        let test_samples =
            bennett_sample_size_from_ln_delta(p, 1.0, tolerance, test_ln_delta, options.tail)?;
        return Ok(ImplicitVariancePlan {
            probe: PhaseEstimate {
                samples: 0,
                needs_labels: false,
                epsilon: 0.0,
                ln_delta: f64::NEG_INFINITY,
            },
            test_upper_bound: PhaseEstimate {
                samples: test_samples,
                needs_labels: true,
                epsilon: tolerance,
                ln_delta: test_ln_delta,
            },
            tolerance,
            test_ln_delta,
        });
    }

    let probe_ln_delta = delta.ln() - std::f64::consts::LN_2 - ln_mult;
    let probe_eps = 2.0 * tolerance;
    let probe_samples =
        hoeffding_sample_size_from_ln_delta(1.0, probe_eps, probe_ln_delta, options.tail)?;

    let test_ln_delta = delta.ln() - std::f64::consts::LN_2 - ln_mult;
    let p_cap = effective_variance_bound(options.expected_difference, probe_eps);
    let test_samples =
        bennett_sample_size_from_ln_delta(p_cap, 1.0, tolerance, test_ln_delta, options.tail)?;

    Ok(ImplicitVariancePlan {
        probe: PhaseEstimate {
            samples: probe_samples,
            needs_labels: false,
            epsilon: probe_eps,
            ln_delta: probe_ln_delta,
        },
        test_upper_bound: PhaseEstimate {
            samples: test_samples,
            needs_labels: true,
            epsilon: tolerance,
            ln_delta: test_ln_delta,
        },
        tolerance,
        test_ln_delta,
    })
}

/// Size the Pattern 2 test phase once the probe has *observed* `d̂`: the
/// valid variance bound is `d̂ + 2D` (the probe's tolerance).
///
/// This is the incremental-growth step: as commits drift apart the
/// labelled pool must grow, and the engine requests the difference
/// (§4.2's "incrementally growing the labeled testset").
///
/// # Errors
///
/// Returns an error when the implied variance bound leaves `(0, 1]`.
pub fn implicit_variance_test_phase(
    plan: &ImplicitVariancePlan,
    observed_difference: f64,
    tail: Tail,
) -> Result<PhaseEstimate> {
    let p = effective_variance_bound(observed_difference, plan.probe.epsilon);
    let samples =
        bennett_sample_size_from_ln_delta(p, 1.0, plan.tolerance, plan.test_ln_delta, tail)?;
    Ok(PhaseEstimate {
        samples,
        needs_labels: true,
        epsilon: plan.tolerance,
        ln_delta: plan.test_ln_delta,
    })
}

/// Build the Pattern 3 plan: coarse Hoeffding bound on `n`, fine Bennett
/// pass with the implied error-rate variance bound.
///
/// # Errors
///
/// Returns an error for invalid parameters.
pub fn coarse_to_fine_plan(
    floor: f64,
    tolerance: f64,
    delta: f64,
    steps: u32,
    adaptivity: Adaptivity,
    tail: Tail,
) -> Result<CoarseToFinePlan> {
    if !(delta > 0.0 && delta < 1.0) {
        return Err(CiError::Semantic(format!(
            "delta must be in (0, 1), got {delta}"
        )));
    }
    let ln_mult = adaptivity.ln_multiplicity(steps);
    let coarse_ln_delta = delta.ln() - std::f64::consts::LN_2 - ln_mult;
    let fine_ln_delta = delta.ln() - std::f64::consts::LN_2 - ln_mult;
    // The coarse tolerance trades off the two phases: a looser coarse
    // estimate is cheap but weakens the variance bound of the fine phase
    // (p = 1 − floor + ε_c). Pick ε_c by scanning a log-spaced grid.
    let mut best: Option<(u64, u64, f64)> = None;
    let grid = 48;
    for i in 0..=grid {
        let t = i as f64 / grid as f64;
        // ε_c from `tolerance` up to 0.3, log-spaced.
        let coarse_eps = tolerance * (0.3f64 / tolerance).powf(t);
        if coarse_eps >= 1.0 {
            break;
        }
        let coarse = hoeffding_sample_size_from_ln_delta(1.0, coarse_eps, coarse_ln_delta, tail)?;
        // Conditioned on n ≥ floor − ε_c, the error indicator has mean
        // (and second moment) at most 1 − floor + ε_c.
        let p = (1.0 - floor + coarse_eps).min(1.0);
        let fine = bennett_sample_size_from_ln_delta(p, 1.0, tolerance, fine_ln_delta, tail)?;
        let total = coarse.saturating_add(fine);
        if best.is_none_or(|(c, f, _)| total < c + f) {
            best = Some((coarse, fine, coarse_eps));
        }
    }
    let Some((coarse_samples, fine_samples, coarse_eps)) = best else {
        return Err(CiError::Semantic(
            "coarse-to-fine grid produced no candidate".into(),
        ));
    };
    Ok(CoarseToFinePlan {
        coarse: PhaseEstimate {
            samples: coarse_samples,
            needs_labels: true,
            epsilon: coarse_eps,
            ln_delta: coarse_ln_delta,
        },
        fine_upper_bound: PhaseEstimate {
            samples: fine_samples,
            needs_labels: true,
            epsilon: tolerance,
            ln_delta: fine_ln_delta,
        },
        floor,
    })
}

/// The variance bound implied by an observed/assumed difference plus the
/// probe tolerance, clamped into (0, 1].
fn effective_variance_bound(difference: f64, probe_eps: f64) -> f64 {
    (difference + probe_eps).clamp(f64::MIN_POSITIVE, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_formula;

    /// §4.1.1: 29K labels for 32 non-adaptive steps, 67K fully adaptive
    /// (p = 0.1, ε = 0.01, 1 − δ = 0.9999).
    #[test]
    fn section411_sample_sizes() {
        let non_adaptive = hierarchical_plan(
            0.1,
            0.01,
            0.01,
            0.0001,
            32,
            Adaptivity::None,
            Pattern1Options::default(),
        )
        .unwrap();
        assert_eq!(non_adaptive.test.samples, 29_048);
        assert!(!non_adaptive.filter.needs_labels);
        assert!(non_adaptive.test.needs_labels);

        let fully_adaptive = hierarchical_plan(
            0.1,
            0.01,
            0.01,
            0.0001,
            32,
            Adaptivity::Full,
            Pattern1Options::default(),
        )
        .unwrap();
        assert_eq!(fully_adaptive.test.samples, 67_706);
    }

    /// §4.1.2: 2 188 labels per commit.
    #[test]
    fn section412_active_labels() {
        let plan = hierarchical_plan(
            0.1,
            0.01,
            0.01,
            0.0001,
            32,
            Adaptivity::Full,
            Pattern1Options::default(),
        )
        .unwrap();
        assert!(
            (plan.active.labels_per_commit as i64 - 2_188).abs() <= 1,
            "labels = {}",
            plan.active.labels_per_commit
        );
        assert_eq!(plan.active.pool_size, plan.test.samples);
    }

    /// Pattern 1 beats the baseline by roughly 10× (§4.1.1 headline).
    #[test]
    fn pattern1_saves_an_order_of_magnitude() {
        use crate::estimator::baseline::{formula_sample_size, Allocation, LeafBound};
        let formula = parse_formula("d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01").unwrap();
        let ln_delta = Adaptivity::None.ln_effective_delta(0.0001, 32).unwrap();
        let (baseline, _) = formula_sample_size(
            &formula,
            ln_delta,
            Allocation::EqualSplit,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        let plan = match_patterns(
            &formula,
            0.0001,
            32,
            Adaptivity::None,
            Pattern1Options::default(),
            Pattern2Options::default(),
        )
        .unwrap()
        .expect("pattern 1 must match");
        let labeled = plan.labeled_samples();
        assert!(
            (labeled as f64) < (baseline as f64) / 8.0,
            "labeled={labeled} baseline={baseline}"
        );
    }

    #[test]
    fn conservative_variance_costs_more() {
        let exact = hierarchical_plan(
            0.1,
            0.01,
            0.01,
            0.0001,
            32,
            Adaptivity::None,
            Pattern1Options::default(),
        )
        .unwrap();
        let conservative = hierarchical_plan(
            0.1,
            0.01,
            0.01,
            0.0001,
            32,
            Adaptivity::None,
            Pattern1Options {
                conservative_variance: true,
                tail: Tail::OneSided,
            },
        )
        .unwrap();
        assert!(conservative.test.samples > exact.test.samples);
        assert!((conservative.variance_bound - 0.12).abs() < 1e-12);
    }

    /// Figure 5: Pattern 2 with p = 0.1 gives 4 713 (non-adaptive) and
    /// 5 204 (adaptive, ε = 0.022) samples.
    #[test]
    fn figure5_sample_sizes_via_pattern2() {
        // The Figure 5 budget puts the whole δ on the Bennett test (the
        // probe is free: between-submission diffs are directly observable
        // on the published predictions), so test it via the raw bound with
        // the plan's variance-cap convention p = 0.1.
        let plan = implicit_variance_plan(
            0.02,
            0.002,
            7,
            Adaptivity::None,
            Pattern2Options {
                expected_difference: 0.06,
                ..Default::default()
            },
        )
        .unwrap();
        // probe eps = 0.04, p_cap = 0.06 + 0.04 = 0.1
        let ln_delta_direct = (0.002f64 / 7.0).ln();
        let n = easeml_bounds::bennett_sample_size_from_ln_delta(
            0.1,
            1.0,
            0.02,
            ln_delta_direct,
            Tail::TwoSided,
        )
        .unwrap();
        assert_eq!(n, 4_713);
        // The plan's own budget (δ/2 per phase) is slightly larger.
        assert!(plan.test_upper_bound.samples >= n);
        // Probe is 16× smaller than testing n−o directly to D = 0.02.
        let direct =
            hoeffding_sample_size_from_ln_delta(2.0, 0.02, plan.probe.ln_delta, Tail::TwoSided)
                .unwrap();
        let ratio = direct as f64 / plan.probe.samples as f64;
        assert!((ratio - 16.0).abs() < 0.1, "ratio = {ratio}");
    }

    /// Figure 5 with the variance bound assumed known (p = 0.1): the
    /// probe is free and the Bennett test gets the full per-step budget,
    /// reproducing the printed 4 713 / 5 204 sample sizes directly.
    #[test]
    fn figure5_known_variance_bound_plans() {
        let non_adaptive = implicit_variance_plan(
            0.02,
            0.002,
            7,
            Adaptivity::None,
            Pattern2Options {
                known_variance_bound: Some(0.1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(non_adaptive.probe.samples, 0);
        assert_eq!(non_adaptive.test_upper_bound.samples, 4_713);

        let adaptive = implicit_variance_plan(
            0.022,
            0.002,
            7,
            Adaptivity::Full,
            Pattern2Options {
                known_variance_bound: Some(0.1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(adaptive.test_upper_bound.samples, 5_204);

        // Both fit in the 5,509-item SemEval testset; the ε = 0.02
        // adaptive query does not (6,260 > 5,509).
        assert!(non_adaptive.test_upper_bound.samples <= 5_509);
        assert!(adaptive.test_upper_bound.samples <= 5_509);
        let too_tight = implicit_variance_plan(
            0.02,
            0.002,
            7,
            Adaptivity::Full,
            Pattern2Options {
                known_variance_bound: Some(0.1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(too_tight.test_upper_bound.samples, 6_260);
        assert!(too_tight.test_upper_bound.samples > 5_509);
    }

    #[test]
    fn known_variance_bound_rejects_bad_values() {
        for bad in [0.0, -0.5, 1.5] {
            assert!(implicit_variance_plan(
                0.02,
                0.002,
                7,
                Adaptivity::None,
                Pattern2Options {
                    known_variance_bound: Some(bad),
                    ..Default::default()
                },
            )
            .is_err());
        }
    }

    #[test]
    fn pattern2_test_phase_tracks_observed_difference() {
        let plan = implicit_variance_plan(
            0.01,
            0.0001,
            32,
            Adaptivity::Full,
            Pattern2Options::default(),
        )
        .unwrap();
        let small = implicit_variance_test_phase(&plan, 0.02, Tail::TwoSided).unwrap();
        let large = implicit_variance_test_phase(&plan, 0.3, Tail::TwoSided).unwrap();
        assert!(small.samples < large.samples);
        // Observing exactly the a-priori expected difference reproduces
        // the upper bound (both add the probe tolerance on top).
        let at_cap = implicit_variance_test_phase(&plan, 0.1, Tail::TwoSided).unwrap();
        assert_eq!(at_cap.samples, plan.test_upper_bound.samples);
    }

    #[test]
    fn pattern3_beats_baseline_for_high_floor() {
        let plan =
            coarse_to_fine_plan(0.95, 0.01, 0.001, 32, Adaptivity::None, Tail::OneSided).unwrap();
        let baseline = hoeffding_sample_size_from_ln_delta(
            1.0,
            0.01,
            Adaptivity::None.ln_effective_delta(0.001, 32).unwrap(),
            Tail::OneSided,
        )
        .unwrap();
        let total = plan.coarse.samples + plan.fine_upper_bound.samples;
        // Two-phase ≈ 2× cheaper here; the gain grows as the floor → 1.
        assert!(
            (total as f64) < (baseline as f64) * 0.6,
            "total={total} baseline={baseline}"
        );
        let tighter =
            coarse_to_fine_plan(0.99, 0.005, 0.001, 32, Adaptivity::None, Tail::OneSided).unwrap();
        let baseline_tight = hoeffding_sample_size_from_ln_delta(
            1.0,
            0.005,
            Adaptivity::None.ln_effective_delta(0.001, 32).unwrap(),
            Tail::OneSided,
        )
        .unwrap();
        let total_tight = tighter.coarse.samples + tighter.fine_upper_bound.samples;
        assert!(
            (total_tight as f64) < (baseline_tight as f64) / 5.0,
            "total={total_tight} baseline={baseline_tight}"
        );
    }

    #[test]
    fn matcher_recognises_each_pattern() {
        let p1 = parse_formula("d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01").unwrap();
        let p2 = parse_formula("n - o > 0.02 +/- 0.01").unwrap();
        let p3 = parse_formula("n > 0.95 +/- 0.01").unwrap();
        let none = parse_formula("o - n > 0.1 +/- 0.01").unwrap();
        let low_floor = parse_formula("n > 0.5 +/- 0.05").unwrap();
        let opts1 = Pattern1Options::default();
        let opts2 = Pattern2Options::default();
        let m = |f| match_patterns(f, 0.001, 32, Adaptivity::None, opts1, opts2).unwrap();
        assert!(matches!(m(&p1), Some(OptimizedPlan::Hierarchical(_))));
        assert!(matches!(m(&p2), Some(OptimizedPlan::ImplicitVariance(_))));
        assert!(matches!(m(&p3), Some(OptimizedPlan::CoarseToFine(_))));
        assert!(m(&none).is_none());
        assert!(m(&low_floor).is_none());
    }

    #[test]
    fn clause_order_does_not_matter_for_pattern1() {
        let a = parse_formula("d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01").unwrap();
        let b = parse_formula("n - o > 0.02 +/- 0.01 /\\ d < 0.1 +/- 0.01").unwrap();
        let opts1 = Pattern1Options::default();
        let opts2 = Pattern2Options::default();
        let pa = match_patterns(&a, 0.001, 32, Adaptivity::None, opts1, opts2).unwrap();
        let pb = match_patterns(&b, 0.001, 32, Adaptivity::None, opts1, opts2).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn rejects_bad_limits() {
        assert!(hierarchical_plan(
            0.0,
            0.01,
            0.01,
            0.001,
            32,
            Adaptivity::None,
            Pattern1Options::default()
        )
        .is_err());
        assert!(implicit_variance_plan(
            0.01,
            0.001,
            32,
            Adaptivity::None,
            Pattern2Options {
                expected_difference: 0.0,
                ..Default::default()
            }
        )
        .is_err());
    }
}
