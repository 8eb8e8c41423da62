//! Baseline sample-size estimation (§3.1): Hoeffding plus the clause /
//! formula recursion with ε- and δ-budget allocation.
//!
//! * single variable: `n(v, r, ε, δ) = r² (−ln δ) / 2ε²`;
//! * scaling: `n(c·v, ε, δ) = n(v, ε/|c|, δ)`;
//! * sums: `n(e₁ ± e₂, ε, δ) = max(n(e₁, ε₁, δ/2), n(e₂, ε₂, δ/2))`
//!   with `ε₁ + ε₂ = ε`;
//! * conjunction: `n(C₁ ∧ … ∧ C_k, δ) = maxᵢ n(Cᵢ, εᵢ, δ/k)`.
//!
//! Two allocation strategies are provided. [`Allocation::EqualSplit`]
//! follows the recursion literally (each binary node halves both budgets) —
//! this reproduces Figure 2. [`Allocation::Proportional`] flattens the
//! expression into its linear form, merges repeated variables, and assigns
//! `εᵢ ∝ |αᵢ|`, which solves the paper's §3.1 min-max optimization
//! exactly when every leaf uses the same bound.

use crate::cache::{BoundsCache, BoundsKey, CachePolicy};
use crate::dsl::{Clause, Expr, Formula, LinearForm, Var};
use crate::error::{CiError, Result};
use easeml_bounds::{
    exact_binomial_sample_size, hoeffding_sample_size_from_ln_delta,
    mcdiarmid_sample_size_from_ln_delta, Tail,
};

/// How the per-clause `ε` budget is divided among the variables of a
/// compound expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Allocation {
    /// Follow the paper's recursion with an even split at every `+`/`-`
    /// node (`ε/2`, `δ/2` each side). Reproduces Figure 2 exactly.
    EqualSplit,
    /// Flatten to the linear form, merge repeated variables, and allocate
    /// `εᵢ ∝ |αᵢ|` with an even `δ/m` split — the optimum of the §3.1
    /// min-max problem under a common bound.
    #[default]
    Proportional,
}

/// Which concentration bound backs each leaf estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LeafBound {
    /// Hoeffding's inequality — the paper's baseline.
    #[default]
    Hoeffding,
    /// Exact binomial tail inversion (§4.3). Only sound for leaves that
    /// are plain Bernoulli means (single unscaled variables); compound
    /// leaves silently fall back to Hoeffding.
    ExactBinomial,
}

/// Bounded-difference sensitivities for the metric-qualified variables,
/// used to size their McDiarmid leaves (§2.2 extensions).
///
/// Metric statistics are not sample means: changing one test point can
/// move them by more than `1/n`. McDiarmid's inequality needs the
/// per-point sensitivity bound `β/n`:
///
/// * binary F1 — `β = 2 / π₊` where `π₊` is the positive-class rate of
///   the testset (see [`crate::extensions::F1Sensitivity`]);
/// * top-k restricted accuracy — `β = 1 / ρ_k` where `ρ_k` is the
///   testset mass of the k most frequent classes (the statistic is a
///   mean over that `ρ_k` fraction of the points).
///
/// The defaults (`0.5` each) are the conservative knobs used when a
/// deployment registers a script before its testset composition is
/// known; the serve layer can tighten them from the actual testset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSensitivity {
    /// Positive-class rate `π₊ ∈ (0, 1]` backing the F1 sensitivity.
    pub f1_positive_rate: f64,
    /// Top-k testset mass `ρ_k ∈ (0, 1]` backing the top-k sensitivity.
    pub topk_mass: f64,
}

impl Default for MetricSensitivity {
    fn default() -> Self {
        MetricSensitivity {
            f1_positive_rate: 0.5,
            topk_mass: 0.5,
        }
    }
}

impl MetricSensitivity {
    /// The McDiarmid `β` for a metric variable; `None` for plain ones.
    ///
    /// # Errors
    ///
    /// Returns an error when the relevant rate is outside `(0, 1]`.
    pub fn beta(&self, var: Var) -> Result<Option<f64>> {
        let rate_check = |rate: f64, what: &str| {
            if rate > 0.0 && rate <= 1.0 {
                Ok(rate)
            } else {
                Err(CiError::Semantic(format!(
                    "{what} must be in (0, 1], got {rate}"
                )))
            }
        };
        match var {
            Var::N | Var::O | Var::D => Ok(None),
            Var::F1N | Var::F1O => Ok(Some(
                2.0 / rate_check(self.f1_positive_rate, "F1 positive-class rate")?,
            )),
            Var::TopKN(_) | Var::TopKO(_) => Ok(Some(
                1.0 / rate_check(self.topk_mass, "top-k testset mass")?,
            )),
        }
    }
}

/// Sample-size requirement for one variable inside one clause.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEstimate {
    /// The variable being estimated.
    pub var: Var,
    /// Absolute coefficient of the variable in the clause expression.
    pub coefficient: f64,
    /// Tolerance allocated to this variable.
    pub epsilon: f64,
    /// `ln δ` allocated to this variable.
    pub ln_delta: f64,
    /// Samples needed for this leaf alone.
    pub samples: u64,
}

/// Sample-size requirement for one clause.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseEstimate {
    /// Rendering of the clause (for reports).
    pub clause: String,
    /// Per-variable requirements; the clause requirement is their max.
    pub leaves: Vec<LeafEstimate>,
    /// Samples needed to evaluate this clause.
    pub samples: u64,
}

/// Estimate the samples needed for one clause at a per-test budget of
/// `ln_delta` (already adjusted for steps/adaptivity by the caller).
///
/// # Errors
///
/// Returns an error if the clause is semantically invalid (zero
/// expression, vacuous tolerance) or a bound computation fails.
pub fn clause_sample_size(
    clause: &Clause,
    ln_delta: f64,
    allocation: Allocation,
    leaf_bound: LeafBound,
    tail: Tail,
) -> Result<ClauseEstimate> {
    clause_sample_size_with_cache(
        clause,
        ln_delta,
        allocation,
        leaf_bound,
        tail,
        CachePolicy::Shared,
    )
}

/// [`clause_sample_size`] with explicit control over the shared
/// [`BoundsCache`] (benches and property tests use
/// [`CachePolicy::Bypass`] to measure/validate the uncached path).
///
/// # Errors
///
/// Same conditions as [`clause_sample_size`].
pub fn clause_sample_size_with_cache(
    clause: &Clause,
    ln_delta: f64,
    allocation: Allocation,
    leaf_bound: LeafBound,
    tail: Tail,
    cache: CachePolicy,
) -> Result<ClauseEstimate> {
    clause_sample_size_with_options(
        clause,
        ln_delta,
        allocation,
        leaf_bound,
        tail,
        cache,
        MetricSensitivity::default(),
    )
}

/// [`clause_sample_size_with_cache`] with explicit metric sensitivities
/// for McDiarmid leaves (metric-free clauses ignore them).
///
/// # Errors
///
/// Same conditions as [`clause_sample_size`], plus invalid sensitivities
/// on metric clauses.
pub fn clause_sample_size_with_options(
    clause: &Clause,
    ln_delta: f64,
    allocation: Allocation,
    leaf_bound: LeafBound,
    tail: Tail,
    cache: CachePolicy,
    metric: MetricSensitivity,
) -> Result<ClauseEstimate> {
    let leaves = match allocation {
        Allocation::EqualSplit => equal_split_leaves(&clause.expr, clause.tolerance, ln_delta)?,
        Allocation::Proportional => proportional_leaves(clause, ln_delta)?,
    };
    let mut out = Vec::with_capacity(leaves.len());
    let mut max_samples = 0u64;
    for (var, coefficient, epsilon, leaf_ln_delta) in leaves {
        let samples = leaf_samples(
            var,
            coefficient,
            epsilon,
            leaf_ln_delta,
            leaf_bound,
            tail,
            cache,
            metric,
        )?;
        max_samples = max_samples.max(samples);
        out.push(LeafEstimate {
            var,
            coefficient,
            epsilon,
            ln_delta: leaf_ln_delta,
            samples,
        });
    }
    Ok(ClauseEstimate {
        clause: clause.to_string(),
        leaves: out,
        samples: max_samples,
    })
}

/// Estimate the samples needed for a whole formula at a per-test budget of
/// `ln_delta`: the conjunction rule `maxᵢ n(Cᵢ, δ/k)`.
///
/// # Errors
///
/// Propagates the per-clause error conditions.
pub fn formula_sample_size(
    formula: &Formula,
    ln_delta: f64,
    allocation: Allocation,
    leaf_bound: LeafBound,
    tail: Tail,
) -> Result<(u64, Vec<ClauseEstimate>)> {
    formula_sample_size_with_cache(
        formula,
        ln_delta,
        allocation,
        leaf_bound,
        tail,
        CachePolicy::Shared,
    )
}

/// [`formula_sample_size`] with explicit control over the shared
/// [`BoundsCache`].
///
/// # Errors
///
/// Propagates the per-clause error conditions.
pub fn formula_sample_size_with_cache(
    formula: &Formula,
    ln_delta: f64,
    allocation: Allocation,
    leaf_bound: LeafBound,
    tail: Tail,
    cache: CachePolicy,
) -> Result<(u64, Vec<ClauseEstimate>)> {
    formula_sample_size_with_options(
        formula,
        ln_delta,
        allocation,
        leaf_bound,
        tail,
        cache,
        MetricSensitivity::default(),
    )
}

/// [`formula_sample_size_with_cache`] with explicit metric sensitivities
/// for McDiarmid leaves (metric-free formulas ignore them).
///
/// # Errors
///
/// Propagates the per-clause error conditions.
pub fn formula_sample_size_with_options(
    formula: &Formula,
    ln_delta: f64,
    allocation: Allocation,
    leaf_bound: LeafBound,
    tail: Tail,
    cache: CachePolicy,
    metric: MetricSensitivity,
) -> Result<(u64, Vec<ClauseEstimate>)> {
    if formula.is_empty() {
        return Err(CiError::Semantic("formula has no clauses".into()));
    }
    let k = formula.len() as f64;
    let per_clause_ln_delta = ln_delta - k.ln();
    let mut estimates = Vec::with_capacity(formula.len());
    let mut max_samples = 0u64;
    for clause in formula.clauses() {
        let est = clause_sample_size_with_options(
            clause,
            per_clause_ln_delta,
            allocation,
            leaf_bound,
            tail,
            cache,
            metric,
        )?;
        max_samples = max_samples.max(est.samples);
        estimates.push(est);
    }
    Ok((max_samples, estimates))
}

/// Samples to estimate one variable with coefficient `c` to tolerance
/// `eps` — the paper's rule 1: scale the tolerance down by `|c|`.
///
/// Metric-qualified variables always use McDiarmid with the
/// [`MetricSensitivity`] `β`, regardless of `leaf_bound`: both Hoeffding
/// (as written for range-1 means) and exact binomial inversion assume a
/// Bernoulli sample mean, which metric statistics are not.
#[allow(clippy::too_many_arguments)]
fn leaf_samples(
    var: Var,
    coefficient: f64,
    epsilon: f64,
    ln_delta: f64,
    leaf_bound: LeafBound,
    tail: Tail,
    cache: CachePolicy,
    metric: MetricSensitivity,
) -> Result<u64> {
    let effective_eps = epsilon / coefficient.abs();
    if let Some(beta) = metric.beta(var)? {
        return Ok(mcdiarmid_sample_size_from_ln_delta(
            beta,
            effective_eps,
            ln_delta,
            tail,
        )?);
    }
    match leaf_bound {
        LeafBound::Hoeffding => {
            // Closed-form and nanosecond-scale: cheaper than a cache probe.
            Ok(hoeffding_sample_size_from_ln_delta(
                var.range(),
                effective_eps,
                ln_delta,
                tail,
            )?)
        }
        LeafBound::ExactBinomial => {
            // Exact inversion needs a linear-space δ; fall back to
            // Hoeffding when the adaptive budget underflows.
            let delta = ln_delta.exp();
            if delta > 0.0 && effective_eps < 1.0 {
                let invert = || exact_binomial_sample_size(effective_eps, delta, tail);
                Ok(match cache {
                    CachePolicy::Shared => BoundsCache::global().get_or_try_insert_with(
                        BoundsKey::new(tail, effective_eps, ln_delta),
                        invert,
                    )?,
                    CachePolicy::Bypass => invert()?,
                })
            } else {
                Ok(hoeffding_sample_size_from_ln_delta(
                    var.range(),
                    effective_eps,
                    ln_delta,
                    tail,
                )?)
            }
        }
    }
}

type Leaf = (Var, f64, f64, f64); // var, |coef|, epsilon, ln_delta

/// Literal tree recursion: each `+`/`-` halves ε and δ; each scale node
/// multiplies the coefficient.
fn equal_split_leaves(expr: &Expr, eps: f64, ln_delta: f64) -> Result<Vec<Leaf>> {
    fn walk(expr: &Expr, coef: f64, eps: f64, ln_delta: f64, out: &mut Vec<Leaf>) -> Result<()> {
        match expr {
            Expr::Var(v) => {
                if coef == 0.0 {
                    return Err(CiError::Semantic(
                        "variable with zero coefficient in expression".into(),
                    ));
                }
                out.push((*v, coef.abs(), eps, ln_delta));
                Ok(())
            }
            Expr::Scale(c, e) => walk(e, coef * c, eps, ln_delta, out),
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                let half_ln_delta = ln_delta - std::f64::consts::LN_2;
                walk(a, coef, eps / 2.0, half_ln_delta, out)?;
                walk(b, coef, eps / 2.0, half_ln_delta, out)
            }
        }
    }
    let mut out = Vec::new();
    walk(expr, 1.0, eps, ln_delta, &mut out)?;
    Ok(out)
}

/// Flattened allocation: merge repeated variables via the linear form,
/// then `εᵢ = ε·|αᵢ|/Σ|α|` and `δᵢ = δ/m`.
fn proportional_leaves(clause: &Clause, ln_delta: f64) -> Result<Vec<Leaf>> {
    let form = LinearForm::from_expr(&clause.expr);
    let active = form.active_variables();
    if active.is_empty() {
        return Err(CiError::Semantic(format!(
            "clause `{clause}` has an identically-zero expression"
        )));
    }
    let m = active.len() as f64;
    let total_weight: f64 = active.iter().map(|&v| form.coefficient(v).abs()).sum();
    let leaf_ln_delta = ln_delta - m.ln();
    Ok(active
        .into_iter()
        .map(|v| {
            let coef = form.coefficient(v).abs();
            let eps = clause.tolerance * coef / total_weight;
            (v, coef, eps, leaf_ln_delta)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{parse_clause, parse_formula};
    use easeml_bounds::Adaptivity;

    fn ln_delta_for(delta: f64, steps: u32, adaptivity: Adaptivity) -> f64 {
        adaptivity.ln_effective_delta(delta, steps).unwrap()
    }

    /// Figure 2, F2/F3 columns (`n - o > c ± ε`, equal split, one-sided).
    #[test]
    fn figure2_f2_columns() {
        let cases = [
            // (delta, eps, adaptivity, expected)
            (0.01, 0.1, Adaptivity::None, 1_753u64),
            (0.01, 0.05, Adaptivity::None, 7_012),
            (0.01, 0.025, Adaptivity::None, 28_045),
            (0.01, 0.01, Adaptivity::None, 175_282),
            (0.01, 0.1, Adaptivity::Full, 5_496),
            (0.0001, 0.05, Adaptivity::Full, 25_668),
            (0.0001, 0.01, Adaptivity::None, 267_385),
            (0.0001, 0.01, Adaptivity::Full, 641_684),
            (0.00001, 0.01, Adaptivity::Full, 687_736),
        ];
        for (delta, eps, adaptivity, want) in cases {
            let clause_src = format!("n - o > 0.02 +/- {eps}");
            let clause = parse_clause(&clause_src).unwrap();
            let est = clause_sample_size(
                &clause,
                ln_delta_for(delta, 32, adaptivity),
                Allocation::EqualSplit,
                LeafBound::Hoeffding,
                Tail::OneSided,
            )
            .unwrap();
            assert_eq!(est.samples, want, "delta={delta} eps={eps} {adaptivity:?}");
        }
    }

    /// Figure 2, F1/F4 columns (single variable, no split).
    #[test]
    fn figure2_f1_via_clause_estimator() {
        let clause = parse_clause("n > 0.9 +/- 0.05").unwrap();
        let est = clause_sample_size(
            &clause,
            ln_delta_for(0.0001, 32, Adaptivity::Full),
            Allocation::EqualSplit,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        assert_eq!(est.samples, 6_279);
        assert_eq!(est.leaves.len(), 1);
    }

    /// Proportional and equal allocation agree for symmetric coefficients.
    #[test]
    fn allocations_agree_on_symmetric_difference() {
        let clause = parse_clause("n - o > 0.02 +/- 0.01").unwrap();
        let ln_delta = ln_delta_for(0.001, 32, Adaptivity::None);
        let equal = clause_sample_size(
            &clause,
            ln_delta,
            Allocation::EqualSplit,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        let prop = clause_sample_size(
            &clause,
            ln_delta,
            Allocation::Proportional,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        assert_eq!(equal.samples, prop.samples);
    }

    /// §3.1 example: proportional allocation beats the equal split for the
    /// asymmetric expression `n - 1.1 * o`.
    #[test]
    fn proportional_beats_equal_for_asymmetric_coefficients() {
        let clause = parse_clause("n - 1.1 * o > 0.01 +/- 0.01").unwrap();
        let ln_delta = (0.0001f64).ln();
        let equal = clause_sample_size(
            &clause,
            ln_delta,
            Allocation::EqualSplit,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        let prop = clause_sample_size(
            &clause,
            ln_delta,
            Allocation::Proportional,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        assert!(
            prop.samples < equal.samples,
            "{} !< {}",
            prop.samples,
            equal.samples
        );
        // Optimal max = (Σ|α|)² L / 2ε²  with Σ|α| = 2.1.
        let l = -(ln_delta - 2f64.ln()); // δ/2 per leaf
        let want = (2.1f64 * 2.1 * l / (2.0 * 0.01 * 0.01)).ceil() as u64;
        assert_eq!(prop.samples, want);
    }

    /// Repeated variables are merged by the proportional allocator but
    /// double-counted by the literal recursion.
    #[test]
    fn proportional_merges_repeated_variables() {
        let clause = parse_clause("n + n > 1.0 +/- 0.1").unwrap();
        let ln_delta = (0.001f64).ln();
        let prop = clause_sample_size(
            &clause,
            ln_delta,
            Allocation::Proportional,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        assert_eq!(prop.leaves.len(), 1);
        assert_eq!(prop.leaves[0].coefficient, 2.0);
        let equal = clause_sample_size(
            &clause,
            ln_delta,
            Allocation::EqualSplit,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        assert_eq!(equal.leaves.len(), 2);
        // Merging wins: one estimate at (ε/2 effective) and full δ beats
        // two estimates at ε/2 and δ/2.
        assert!(prop.samples <= equal.samples);
    }

    /// Formula conjunction takes the max over clauses at δ/k.
    #[test]
    fn formula_is_max_over_clauses() {
        let formula = parse_formula("n - o > 0.02 +/- 0.01 /\\ d < 0.1 +/- 0.01").unwrap();
        let ln_delta = (0.0001f64).ln();
        let (total, per_clause) = formula_sample_size(
            &formula,
            ln_delta,
            Allocation::EqualSplit,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        assert_eq!(per_clause.len(), 2);
        assert_eq!(total, per_clause.iter().map(|c| c.samples).max().unwrap());
        // The difference clause dominates: two variables at ε/2 each.
        assert!(per_clause[0].samples > per_clause[1].samples);
    }

    /// §3.1 worked example: the full optimization problem for
    /// `n - 1.1*o > 0.01 ± 0.01 ∧ d < 0.1 ± 0.01`.
    #[test]
    fn section31_example_structure() {
        let formula = parse_formula("n - 1.1 * o > 0.01 +/- 0.01 /\\ d < 0.1 +/- 0.01").unwrap();
        let delta: f64 = 0.001;
        let (total, per_clause) = formula_sample_size(
            &formula,
            delta.ln(),
            Allocation::Proportional,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .unwrap();
        // Clause 1 leaves get δ/4 (δ/2 for the clause, /2 for two vars);
        // clause 2 gets δ/2 with the full ε.
        let l4 = -(delta / 4.0).ln();
        let c1_opt = (2.1f64 * 2.1 * l4 / (2.0 * 0.0001)).ceil() as u64;
        let l2 = -(delta / 2.0).ln();
        let c2 = (l2 / (2.0 * 0.0001)).ceil() as u64;
        assert_eq!(per_clause[0].samples, c1_opt);
        assert_eq!(per_clause[1].samples, c2);
        assert_eq!(total, c1_opt.max(c2));
    }

    #[test]
    fn exact_binomial_leaf_beats_hoeffding_leaf() {
        let clause = parse_clause("n > 0.8 +/- 0.05").unwrap();
        let ln_delta = (0.001f64).ln();
        let hoeff = clause_sample_size(
            &clause,
            ln_delta,
            Allocation::Proportional,
            LeafBound::Hoeffding,
            Tail::TwoSided,
        )
        .unwrap();
        let exact = clause_sample_size(
            &clause,
            ln_delta,
            Allocation::Proportional,
            LeafBound::ExactBinomial,
            Tail::TwoSided,
        )
        .unwrap();
        assert!(exact.samples < hoeff.samples);
    }

    #[test]
    fn f1_leaf_matches_extensions_reference_bound() {
        // A bare `f1(n)` clause must reproduce `extensions::f1`'s
        // McDiarmid sizing exactly, at every sensitivity we expose.
        use crate::extensions::{f1_sample_size, F1Sensitivity};
        for (rate, eps, delta) in [
            (0.5f64, 0.05f64, 0.001f64),
            (0.1, 0.02, 0.0001),
            (0.25, 0.01, 0.01),
        ] {
            let clause = parse_clause(&format!("f1(n) > 0.5 +/- {eps}")).unwrap();
            let ln_delta = delta.ln();
            let metric = MetricSensitivity {
                f1_positive_rate: rate,
                ..MetricSensitivity::default()
            };
            for tail in [Tail::OneSided, Tail::TwoSided] {
                let est = clause_sample_size_with_options(
                    &clause,
                    ln_delta,
                    Allocation::Proportional,
                    LeafBound::Hoeffding,
                    tail,
                    CachePolicy::Shared,
                    metric,
                )
                .unwrap();
                let want = f1_sample_size(&F1Sensitivity::new(rate).unwrap(), eps, ln_delta, tail)
                    .unwrap();
                assert_eq!(est.samples, want, "rate={rate} eps={eps} {tail:?}");
            }
        }
    }

    #[test]
    fn metric_leaves_ignore_exact_binomial_bound() {
        // Exact binomial inversion is unsound for non-Bernoulli
        // statistics; metric leaves must size identically either way.
        let clause = parse_clause("f1(n) - f1(o) > -0.02 +/- 0.01").unwrap();
        let ln_delta = (0.001f64).ln();
        let run = |leaf_bound| {
            clause_sample_size_with_options(
                &clause,
                ln_delta,
                Allocation::Proportional,
                leaf_bound,
                Tail::OneSided,
                CachePolicy::Shared,
                MetricSensitivity::default(),
            )
            .unwrap()
        };
        assert_eq!(
            run(LeafBound::Hoeffding).samples,
            run(LeafBound::ExactBinomial).samples
        );
    }

    #[test]
    fn topk_leaf_scales_with_mass_and_beats_f1() {
        // β(topk) = 1/ρ vs β(f1) = 2/π: at equal rates the top-k leaf
        // needs 4× fewer samples (n ∝ β²).
        let ln_delta = (0.001f64).ln();
        let size = |src: &str, metric| {
            clause_sample_size_with_options(
                &parse_clause(src).unwrap(),
                ln_delta,
                Allocation::Proportional,
                LeafBound::Hoeffding,
                Tail::OneSided,
                CachePolicy::Shared,
                metric,
            )
            .unwrap()
            .samples
        };
        let m = MetricSensitivity::default();
        let f1 = size("f1(n) > 0.5 +/- 0.05", m);
        let topk = size("topk(n, 5) > 0.5 +/- 0.05", m);
        // β ratio 2 ⇒ sample ratio 4, up to the per-size ceil.
        assert!(f1.abs_diff(4 * topk) <= 4, "{f1} vs 4×{topk}");
        // Halving the mass doubles β; β = 4 then matches the F1 leaf.
        let thin = MetricSensitivity {
            topk_mass: 0.25,
            ..m
        };
        assert_eq!(size("topk(n, 5) > 0.5 +/- 0.05", thin), f1);
        // Degenerate sensitivities are loud errors.
        let bad = MetricSensitivity {
            f1_positive_rate: 0.0,
            ..m
        };
        assert!(clause_sample_size_with_options(
            &parse_clause("f1(n) > 0.5 +/- 0.05").unwrap(),
            ln_delta,
            Allocation::Proportional,
            LeafBound::Hoeffding,
            Tail::OneSided,
            CachePolicy::Shared,
            bad,
        )
        .is_err());
    }

    #[test]
    fn empty_formula_is_rejected() {
        let formula = Formula::new(vec![]);
        assert!(formula_sample_size(
            &formula,
            (0.01f64).ln(),
            Allocation::EqualSplit,
            LeafBound::Hoeffding,
            Tail::OneSided,
        )
        .is_err());
    }
}
