//! Property-based tests: parser round-trips, interval soundness,
//! estimator monotonicity, and evaluation consistency.

use easeml_bounds::{Adaptivity, Tail};
use easeml_ci_core::dsl::{parse_formula, Clause, CmpOp, Expr, Formula, LinearForm, Var};
use easeml_ci_core::estimator::{clause_sample_size, Allocation, LeafBound};
use easeml_ci_core::{
    evaluate_clause, evaluate_formula, CachePolicy, CiScript, EstimatorConfig, Interval, Mode,
    SampleSizeEstimator, Tribool, VariableEstimates,
};
use proptest::prelude::*;

/// Strategy: a random linear expression of bounded depth.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::Var(Var::N)),
        Just(Expr::Var(Var::O)),
        Just(Expr::Var(Var::D)),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (0.1f64..5.0, inner.clone())
                .prop_map(|(c, e)| Expr::scale((c * 100.0).round() / 100.0, e)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::add(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::sub(a, b)),
        ]
    })
}

fn clause_strategy() -> impl Strategy<Value = Clause> {
    (
        expr_strategy(),
        prop_oneof![Just(CmpOp::Gt), Just(CmpOp::Lt)],
        -0.9f64..0.9,
        0.001f64..0.2,
    )
        .prop_map(|(expr, cmp, threshold, tolerance)| {
            let threshold = (threshold * 1000.0).round() / 1000.0;
            let tolerance = (tolerance * 1000.0).round() / 1000.0;
            Clause::new(expr, cmp, threshold, tolerance)
        })
}

fn estimates_strategy() -> impl Strategy<Value = VariableEstimates> {
    (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(n, o, d)| VariableEstimates::new(n, o, d))
}

proptest! {
    /// Display → parse is the identity on formulas.
    #[test]
    fn formula_display_round_trips(clauses in prop::collection::vec(clause_strategy(), 1..4)) {
        let formula = Formula::new(clauses);
        let printed = formula.to_string();
        let reparsed = parse_formula(&printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        prop_assert_eq!(&formula, &reparsed, "source: {}", printed);
    }

    /// The linear form is invariant under display round-trips.
    #[test]
    fn linear_form_stable_under_round_trip(expr in expr_strategy()) {
        let clause = Clause::new(expr, CmpOp::Gt, 0.0, 0.01);
        let printed = clause.to_string();
        let reparsed = easeml_ci_core::dsl::parse_clause(&printed).unwrap();
        let before = LinearForm::from_expr(&clause.expr);
        let after = LinearForm::from_expr(&reparsed.expr);
        for v in Var::ALL {
            prop_assert!(
                (before.coefficient(v) - after.coefficient(v)).abs() < 1e-9,
                "{printed}: {v} {} vs {}",
                before.coefficient(v),
                after.coefficient(v)
            );
        }
    }

    /// Interval arithmetic is outward-sound: x ∈ A, y ∈ B ⟹ x+y ∈ A+B etc.
    #[test]
    fn interval_arithmetic_sound(
        a_lo in -2.0f64..2.0, a_w in 0.0f64..1.0,
        b_lo in -2.0f64..2.0, b_w in 0.0f64..1.0,
        ta in 0.0f64..=1.0, tb in 0.0f64..=1.0, c in -3.0f64..3.0,
    ) {
        let a = Interval::new(a_lo, a_lo + a_w);
        let b = Interval::new(b_lo, b_lo + b_w);
        let x = a.lo() + ta * a.width();
        let y = b.lo() + tb * b.width();
        prop_assert!((a + b).contains(x + y));
        prop_assert!((a - b).contains(x - y));
        prop_assert!((a * c).contains(x * c));
        prop_assert!((-a).contains(-x));
    }

    /// Evaluation soundness: if the point estimate is ε-close to truth,
    /// a `True` clause verdict implies the clause really holds and a
    /// `False` verdict implies it really fails.
    #[test]
    fn clause_verdicts_are_sound(clause in clause_strategy(),
                                 truth in estimates_strategy(),
                                 jn in -1.0f64..1.0, jo in -1.0f64..1.0, jd in -1.0f64..1.0) {
        let form = LinearForm::from_expr(&clause.expr);
        // Build an estimate whose LHS error is within the tolerance:
        // jitter each variable by at most ε/range.
        let range = form.range();
        prop_assume!(range > 1e-9);
        let scale = clause.tolerance / range;
        let est = VariableEstimates::new(
            (truth.n + jn * scale).clamp(0.0, 1.0),
            (truth.o + jo * scale).clamp(0.0, 1.0),
            (truth.d + jd * scale).clamp(0.0, 1.0),
        );
        let true_lhs = form.evaluate(truth.n, truth.o, truth.d);
        match evaluate_clause(&clause, &est) {
            Tribool::True => match clause.cmp {
                CmpOp::Gt => prop_assert!(true_lhs > clause.threshold - 1e-9),
                CmpOp::Lt => prop_assert!(true_lhs < clause.threshold + 1e-9),
            },
            Tribool::False => match clause.cmp {
                CmpOp::Gt => prop_assert!(true_lhs < clause.threshold + 1e-9),
                CmpOp::Lt => prop_assert!(true_lhs > clause.threshold - 1e-9),
            },
            Tribool::Unknown => {}
        }
    }

    /// fp-free never passes a formula that fn-free fails: fn-free is
    /// always at least as permissive.
    #[test]
    fn fn_free_is_more_permissive(clauses in prop::collection::vec(clause_strategy(), 1..3),
                                  est in estimates_strategy()) {
        let formula = Formula::new(clauses);
        let outcome = evaluate_formula(&formula, &est);
        let fp = Mode::FpFree.decide(outcome);
        let fnf = Mode::FnFree.decide(outcome);
        prop_assert!(!fp || fnf);
    }

    /// Baseline clause estimates are monotone: more adaptivity, tighter
    /// tolerance, or more steps never decreases the requirement.
    #[test]
    fn clause_estimate_monotonicity(tol in 0.01f64..0.2, delta in 1e-5f64..0.1,
                                    steps in 1u32..64) {
        let mk = |t: f64| Clause::new(
            Expr::sub(Expr::var(Var::N), Expr::var(Var::O)),
            CmpOp::Gt,
            0.0,
            t,
        );
        let ln_none = Adaptivity::None.ln_effective_delta(delta, steps).unwrap();
        let ln_full = Adaptivity::Full.ln_effective_delta(delta, steps).unwrap();
        let n_none = clause_sample_size(&mk(tol), ln_none, Allocation::EqualSplit,
                                        LeafBound::Hoeffding, Tail::OneSided).unwrap().samples;
        let n_full = clause_sample_size(&mk(tol), ln_full, Allocation::EqualSplit,
                                        LeafBound::Hoeffding, Tail::OneSided).unwrap().samples;
        prop_assert!(n_full >= n_none);
        let n_tighter = clause_sample_size(&mk(tol / 2.0), ln_none, Allocation::EqualSplit,
                                           LeafBound::Hoeffding, Tail::OneSided).unwrap().samples;
        prop_assert!(n_tighter >= n_none);
    }

    /// The shared bounds cache is invisible to results: estimators with
    /// [`CachePolicy::Shared`] and [`CachePolicy::Bypass`] return
    /// identical `SampleSizeEstimate`s — including the per-clause
    /// breakdown — across randomized tolerances, budgets, steps, and
    /// leaf bounds. Run twice so the second pass replays warm entries.
    #[test]
    fn cached_and_uncached_estimates_identical(
        tol in 0.02f64..0.2,
        reliability in prop_oneof![Just(0.99f64), Just(0.999), Just(0.9999)],
        steps in 1u32..32,
        leaf in prop_oneof![Just(LeafBound::Hoeffding), Just(LeafBound::ExactBinomial)],
        compound in prop_oneof![Just(false), Just(true)],
    ) {
        let tol = (tol * 100.0).round() / 100.0;
        let condition = if compound {
            format!("n - o > 0.02 +/- {tol} /\\ d < 0.2 +/- {tol}")
        } else {
            format!("n > 0.7 +/- {tol}")
        };
        let script = CiScript::builder()
            .condition_str(&condition)
            .unwrap()
            .reliability(reliability)
            .steps(steps)
            .build()
            .unwrap();
        let cached = SampleSizeEstimator::with_config(EstimatorConfig {
            leaf_bound: leaf,
            cache: CachePolicy::Shared,
            ..EstimatorConfig::default()
        });
        let uncached = SampleSizeEstimator::with_config(EstimatorConfig {
            leaf_bound: leaf,
            cache: CachePolicy::Bypass,
            ..EstimatorConfig::default()
        });
        for round in 0..2 {
            let a = cached.estimate(&script).unwrap();
            let b = uncached.estimate(&script).unwrap();
            prop_assert_eq!(&a, &b, "round {}: {} (leaf {:?})", round, condition, leaf);
        }
    }

    /// Proportional allocation never does worse than the equal split for
    /// two-variable difference clauses.
    #[test]
    fn proportional_never_worse(c in 0.1f64..3.0, tol in 0.01f64..0.2, delta in 1e-5f64..0.1) {
        let c = (c * 100.0).round() / 100.0;
        let clause = Clause::new(
            Expr::sub(Expr::var(Var::N), Expr::scale(c, Expr::var(Var::O))),
            CmpOp::Gt,
            0.0,
            tol,
        );
        let ln_delta = delta.ln();
        let equal = clause_sample_size(&clause, ln_delta, Allocation::EqualSplit,
                                       LeafBound::Hoeffding, Tail::OneSided).unwrap().samples;
        let prop_alloc = clause_sample_size(&clause, ln_delta, Allocation::Proportional,
                                            LeafBound::Hoeffding, Tail::OneSided).unwrap().samples;
        prop_assert!(prop_alloc <= equal, "prop={prop_alloc} equal={equal} c={c}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The `BoundsCache` entry budget holds under arbitrary overflowing
    /// insertion streams — the total never exceeds
    /// `BoundsCache::MAX_ENTRIES` — and a lookup of an evicted key falls
    /// back to recomputation (and re-stores the fresh value) instead of
    /// serving anything stale.
    #[test]
    fn bounds_cache_eviction_respects_global_cap(
        seed in 0u64..1_000_000,
        excess in 1usize..5_000,
    ) {
        use easeml_ci_core::{BoundsCache, BoundsKey};
        let key = |eps: f64, ln_delta: f64| BoundsKey::new(Tail::TwoSided, eps, ln_delta);
        let cache = BoundsCache::new();
        let base = 0.05f64.to_bits();
        // Distinct quantized keys: bits differ above the bottom-8
        // quantization grain, spread by the random seed.
        let eps_at = |i: usize| f64::from_bits(base + (((i as u64) << 8) ^ (seed << 28)));
        let ln_delta = -5.0 - (seed % 7) as f64;
        let total = BoundsCache::MAX_ENTRIES + excess;
        for i in 0..total {
            cache.store(key(eps_at(i), ln_delta), i as u64);
            if i % 4_096 == 0 {
                let entries = cache.stats().entries;
                prop_assert!(
                    entries <= BoundsCache::MAX_ENTRIES,
                    "cap exceeded mid-stream: {} entries after {} inserts", entries, i + 1
                );
            }
        }
        let entries = cache.stats().entries;
        prop_assert!(
            (1..=BoundsCache::MAX_ENTRIES).contains(&entries),
            "cap exceeded after overflow: {} entries", entries
        );
        // More keys were inserted than survive, so some key was evicted;
        // it must recompute (not resurrect) and be cached again after.
        let evicted = (0..total)
            .map(eps_at)
            .find(|&eps| cache.lookup(&key(eps, ln_delta)).is_none());
        let Some(eps) = evicted else {
            return Err(TestCaseError::fail("overflowing stream left no evicted key"));
        };
        let n = cache
            .get_or_try_insert_with(key(eps, ln_delta), || Ok::<_, ()>(777_777))
            .unwrap();
        prop_assert_eq!(n, 777_777, "evicted key must recompute");
        prop_assert_eq!(
            cache.lookup(&key(eps, ln_delta)),
            Some(777_777),
            "recomputed value must be re-stored"
        );
    }

    /// Exact-binomial leaf estimates over an `ε × δ` grid, fanned out
    /// cell by cell with `Pool::par_map`, read the same through the
    /// shared `BoundsCache` (concurrent fills and hits) as cache-bypassing
    /// sequential runs, at threads ∈ {1, 2, 8}.
    #[test]
    fn shared_cache_grid_matches_bypass_at_any_width(
        epsilons in prop::collection::vec(0.05f64..0.3, 1..3),
        deltas in prop::collection::vec(1e-3f64..0.1, 1..3),
    ) {
        use easeml_ci_core::estimator::{clause_sample_size_with_options, MetricSensitivity};
        use easeml_par::Pool;
        let cells: Vec<(f64, f64)> = epsilons
            .iter()
            .flat_map(|&eps| deltas.iter().map(move |&delta| (eps, delta)))
            .collect();
        let leaf = |&(eps, delta): &(f64, f64), cache: CachePolicy| {
            let clause = Clause::new(Expr::Var(Var::N), CmpOp::Gt, 0.5, eps);
            clause_sample_size_with_options(
                &clause,
                delta.ln(),
                Allocation::EqualSplit,
                LeafBound::ExactBinomial,
                Tail::TwoSided,
                cache,
                MetricSensitivity::default(),
            )
            .unwrap()
            .samples
        };
        let reference: Vec<u64> = cells.iter().map(|cell| leaf(cell, CachePolicy::Bypass)).collect();
        for threads in [1usize, 2, 8] {
            let got = Pool::new(threads).par_map(&cells, |cell| leaf(cell, CachePolicy::Shared));
            prop_assert_eq!(&reference, &got, "threads={}", threads);
        }
    }
}
