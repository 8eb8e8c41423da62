//! Property-based tests for the bound implementations.

use easeml_bounds::{
    bennett_epsilon, bennett_h, bennett_h_inv, bennett_sample_size, bernstein_sample_size,
    binomial, exact_binomial_sample_size, hoeffding_delta, hoeffding_epsilon,
    hoeffding_sample_size, mcdiarmid_sample_size, numeric, reference, split_delta_weighted,
    Adaptivity, Tail,
};
use proptest::prelude::*;

fn eps_strategy() -> impl Strategy<Value = f64> {
    (0.005f64..0.3).prop_map(|x| x)
}

fn delta_strategy() -> impl Strategy<Value = f64> {
    (1e-6f64..0.2).prop_map(|x| x)
}

proptest! {
    /// Sample size decreases (weakly) as the tolerance grows.
    #[test]
    fn hoeffding_monotone_in_eps(delta in delta_strategy(), e1 in eps_strategy(), e2 in eps_strategy()) {
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        let n_lo = hoeffding_sample_size(1.0, lo, delta, Tail::TwoSided).unwrap();
        let n_hi = hoeffding_sample_size(1.0, hi, delta, Tail::TwoSided).unwrap();
        prop_assert!(n_hi <= n_lo);
    }

    /// Sample size decreases (weakly) as the failure budget grows.
    #[test]
    fn hoeffding_monotone_in_delta(eps in eps_strategy(), d1 in delta_strategy(), d2 in delta_strategy()) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let n_lo = hoeffding_sample_size(1.0, eps, lo, Tail::TwoSided).unwrap();
        let n_hi = hoeffding_sample_size(1.0, eps, hi, Tail::TwoSided).unwrap();
        prop_assert!(n_hi <= n_lo);
    }

    /// The (ε, δ, n) triple is mutually consistent across the three solvers.
    #[test]
    fn hoeffding_roundtrip(eps in eps_strategy(), delta in delta_strategy()) {
        let n = hoeffding_sample_size(1.0, eps, delta, Tail::TwoSided).unwrap();
        let eps_back = hoeffding_epsilon(1.0, n, delta, Tail::TwoSided).unwrap();
        prop_assert!(eps_back <= eps + 1e-12);
        let delta_back = hoeffding_delta(1.0, n, eps, Tail::TwoSided).unwrap();
        prop_assert!(delta_back <= delta + 1e-12);
    }

    /// h is increasing and convex-ish: h(u)/u increasing.
    #[test]
    fn bennett_h_increasing(u1 in 1e-6f64..50.0, u2 in 1e-6f64..50.0) {
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(bennett_h(lo) <= bennett_h(hi) + 1e-15);
    }

    /// h_inv is a true inverse over a wide range.
    #[test]
    fn bennett_h_inv_roundtrip(u in 1e-6f64..100.0) {
        let y = bennett_h(u);
        let back = bennett_h_inv(y).unwrap();
        prop_assert!((back - u).abs() < 1e-6 * u.max(1.0), "u={u} back={back}");
    }

    /// Bennett with the worst-case second moment never beats Hoeffding by
    /// more than the slack of the inequality itself, and a small second
    /// moment always helps.
    #[test]
    fn bennett_monotone_in_variance(eps in 0.005f64..0.1, delta in delta_strategy(),
                                    p1 in 0.01f64..1.0, p2 in 0.01f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let n_lo = bennett_sample_size(lo, 1.0, eps, delta, Tail::TwoSided).unwrap();
        let n_hi = bennett_sample_size(hi, 1.0, eps, delta, Tail::TwoSided).unwrap();
        prop_assert!(n_lo <= n_hi, "p={lo}->{n_lo}, p={hi}->{n_hi}");
    }

    /// Bennett dominates Bernstein everywhere.
    #[test]
    fn bennett_dominates_bernstein(eps in 0.005f64..0.2, delta in delta_strategy(), p in 0.01f64..1.0) {
        let benn = bennett_sample_size(p, 1.0, eps, delta, Tail::TwoSided).unwrap();
        let bern = bernstein_sample_size(p, 1.0, eps, delta, Tail::TwoSided).unwrap();
        prop_assert!(benn <= bern);
    }

    /// Bennett's epsilon solver inverts its sample-size solver.
    #[test]
    fn bennett_roundtrip(eps in 0.005f64..0.1, delta in delta_strategy(), p in 0.02f64..1.0) {
        let n = bennett_sample_size(p, 1.0, eps, delta, Tail::TwoSided).unwrap();
        let back = bennett_epsilon(p, 1.0, n, delta, Tail::TwoSided).unwrap();
        prop_assert!(back <= eps + 1e-9, "eps={eps} back={back}");
    }

    /// McDiarmid with β=1 equals Hoeffding for every (ε, δ).
    #[test]
    fn mcdiarmid_beta1_is_hoeffding(eps in eps_strategy(), delta in delta_strategy()) {
        prop_assert_eq!(
            mcdiarmid_sample_size(1.0, eps, delta, Tail::TwoSided).unwrap(),
            hoeffding_sample_size(1.0, eps, delta, Tail::TwoSided).unwrap()
        );
    }

    /// Full adaptivity always requires at least the non-adaptive budget.
    #[test]
    fn adaptivity_ordering(delta in delta_strategy(), steps in 1u32..200) {
        let full = Adaptivity::Full.ln_effective_delta(delta, steps).unwrap();
        let none = Adaptivity::None.ln_effective_delta(delta, steps).unwrap();
        let hybrid = Adaptivity::FirstChange.ln_effective_delta(delta, steps).unwrap();
        prop_assert!(full <= none);
        prop_assert_eq!(none, hybrid);
    }

    /// Weighted delta splits always conserve the total budget.
    #[test]
    fn weighted_split_conserves(delta in delta_strategy(),
                                w in prop::collection::vec(0.01f64..10.0, 1..6)) {
        let parts = split_delta_weighted(delta, &w).unwrap();
        let total: f64 = parts.iter().map(|l| l.exp()).sum();
        prop_assert!((total - delta).abs() < 1e-9);
    }

    /// Binomial pmf is a valid log-probability and tails are proper.
    #[test]
    fn binomial_tail_bounds(n in 1u64..2_000, p in 0.0f64..=1.0, k in 0u64..2_000) {
        prop_assume!(k <= n);
        let pmf = binomial::ln_pmf(n, p, k);
        prop_assert!(pmf <= 1e-12, "pmf = {pmf}");
        let up = binomial::ln_upper_tail(n, p, k);
        prop_assert!(up <= 1e-9);
        prop_assert!(up >= pmf - 1e-9, "tail must contain the point mass");
    }

    /// The exact deviation probability is below the Hoeffding bound.
    #[test]
    fn exact_below_hoeffding(n in 10u64..5_000, p in 0.01f64..0.99, eps in 0.01f64..0.3) {
        let exact = binomial::deviation_probability(n, p, eps);
        let hoeff = (2.0 * (-2.0 * n as f64 * eps * eps).exp()).min(1.0);
        prop_assert!(exact <= hoeff + 1e-9, "exact={exact} hoeff={hoeff}");
    }

    /// The exact inversion never asks for more samples than Hoeffding,
    /// across randomized tolerances, budgets, and tail conventions.
    #[test]
    fn exact_inversion_at_most_hoeffding(eps in 0.03f64..0.25, delta in 1e-4f64..0.1,
                                         tail in prop_oneof![Just(Tail::OneSided), Just(Tail::TwoSided)]) {
        let exact = exact_binomial_sample_size(eps, delta, tail).unwrap();
        let hoeff = hoeffding_sample_size(1.0, eps, delta, tail).unwrap();
        prop_assert!(exact <= hoeff, "eps={eps} delta={delta} {tail}: {exact} > {hoeff}");
        // And the answer actually satisfies the constraint under the
        // breakpoint-exact worst case.
        let worst = binomial::worst_case_deviation_tail(exact, eps, tail);
        prop_assert!(worst <= delta * 1.0001, "eps={eps} delta={delta} {tail}: worst={worst}");
    }

    /// The shared log-factorial table agrees with the Lanczos ln_gamma
    /// evaluation everywhere, including across its growth boundaries and
    /// beyond its cap.
    #[test]
    fn ln_factorial_matches_ln_gamma(n in 0u64..2_000_000) {
        let table = numeric::ln_factorial(n);
        let gamma = numeric::ln_gamma(n as f64 + 1.0);
        prop_assert!(
            (table - gamma).abs() <= 1e-10 * gamma.abs().max(1.0),
            "n={n}: table={table} gamma={gamma}"
        );
    }

    /// The breakpoint-exact acceptance (both tail conventions) stays
    /// pinned to the seed's grid-scan inversion
    /// (`easeml_bounds::reference`): the two can differ only by the
    /// sawtooth teeth the 64-point grid missed.
    #[test]
    fn breakpoint_exact_inversion_pins_reference_grid_scan(
        eps in 0.04f64..0.25, delta in 1e-4f64..0.1,
        tail in prop_oneof![Just(Tail::OneSided), Just(Tail::TwoSided)],
    ) {
        let exact = exact_binomial_sample_size(eps, delta, tail).unwrap();
        let seed = reference::exact_binomial_sample_size(eps, delta, tail).unwrap();
        // The exact sup dominates the grid sup, so the exact answer can
        // only sit at or above the seed's — and never far above.
        prop_assert!(
            exact >= seed,
            "eps={eps} delta={delta} {tail}: exact {exact} below grid-accepted {seed}"
        );
        // Each missed tooth moves the accepted run by O(1/ε) samples;
        // 5% (or a handful of teeth) bounds the drift across this range.
        prop_assert!(
            exact.abs_diff(seed) as f64 <= (seed as f64 * 0.05).max(8.0),
            "eps={eps} delta={delta} {tail}: exact {exact} drifted from seed {seed}"
        );
    }

    /// The two-sided breakpoint scan dominates every grid sampling of
    /// the actual deviation function over random (n, ε) — the exact sup
    /// is a limit value a grid can only approach from below.
    #[test]
    fn two_sided_exact_dominates_grids(n in 20u64..3_000, eps in 0.02f64..0.3) {
        let exact = binomial::worst_case_deviation_two_sided_exact(n, eps);
        let mut grid_max = 0.0f64;
        for i in 0..=512 {
            let p = i as f64 / 512.0;
            grid_max = grid_max.max(binomial::deviation_probability(n, p, eps));
        }
        prop_assert!(
            exact >= grid_max * (1.0 - 1e-12),
            "n={n} eps={eps}: exact {exact} below grid {grid_max}"
        );
    }

    /// The per-family jump-index carry is pinned against the reference
    /// scan: a cold [`binomial::JumpHint`] reproduces the
    /// breakpoint-exact scan bit for bit (the carry changes only where
    /// climbs *start*, never the cold answer); an arbitrary warm start —
    /// wildly wrong carried fractions included — evaluates only genuine
    /// breakpoint candidates, so its result never exceeds the reference
    /// sup (it may undershoot from an adversarial start, which is why
    /// the minimal-`n` search only ever *accepts* candidates via the
    /// reference scan); and re-running from the returned hint (the warm
    /// path the search takes probe after probe) reproduces its own bits
    /// exactly.
    #[test]
    fn jump_hint_carry_is_pinned(
        n in 10u64..4_000, eps in 0.02f64..0.3,
        tail in prop_oneof![Just(Tail::OneSided), Just(Tail::TwoSided)],
        upper_frac in 0.0f64..=1.0, lower_frac in 0.0f64..=1.0, mask in 0u32..4,
    ) {
        let reference = binomial::worst_case_deviation_tail(n, eps, tail);
        let (cold, cold_p, _) =
            binomial::worst_case_deviation_jump(n, eps, tail, binomial::JumpHint::cold(), None);
        prop_assert_eq!(
            cold.to_bits(), reference.to_bits(),
            "n={} eps={} {}: cold {} vs reference {}", n, eps, tail, cold, reference
        );
        prop_assert!((0.0..=1.0).contains(&cold_p));

        let hint = binomial::JumpHint {
            upper: (mask & 1 != 0).then_some(upper_frac),
            lower: (mask & 2 != 0).then_some(lower_frac),
        };
        let (warm, p_star, next) = binomial::worst_case_deviation_jump(n, eps, tail, hint, None);
        prop_assert!(
            warm >= 0.0 && warm <= reference * (1.0 + 1e-12),
            "n={} eps={} {}: warm {} above reference {}", n, eps, tail, warm, reference
        );
        prop_assert!((0.0..=1.0).contains(&p_star));
        let (again, _, _) = binomial::worst_case_deviation_jump(n, eps, tail, next, None);
        prop_assert_eq!(again.to_bits(), warm.to_bits(), "n={} eps={} {}", n, eps, tail);
    }

    /// The acceptance reference scan carries its maximizing jump
    /// indices between probes at most 8 sizes apart (the
    /// `InversionContext::reference_worst` gate). Within that window
    /// the maximizer fraction drifts less than the climb's plateau
    /// sweep, so a warm-resumed scan must reproduce the cold
    /// breakpoint-exact scan **bit for bit** — the acceptance
    /// criterion is allowed to change cost, never bits.
    #[test]
    fn reference_scan_warm_carry_is_bit_identical(
        n0 in 16u64..4_000, eps in 0.02f64..0.3,
        tail in prop_oneof![Just(Tail::OneSided), Just(Tail::TwoSided)],
        steps in prop::collection::vec((0u64..=8, 0u32..2), 1..24),
    ) {
        let mut hint = binomial::JumpHint::cold();
        let mut n = n0;
        for &(step, up) in &steps {
            n = if up == 1 { n + step } else { n.saturating_sub(step).max(10) };
            let cold = binomial::worst_case_deviation_tail(n, eps, tail);
            let (warm, _, next) = binomial::worst_case_deviation_jump(n, eps, tail, hint, None);
            prop_assert_eq!(
                warm.to_bits(), cold.to_bits(),
                "n={} eps={} {}: warm {} vs cold {}", n, eps, tail, warm, cold
            );
            hint = next;
        }
    }

    /// ln_choose (table fast path) is symmetric and bounded by n·ln 2.
    #[test]
    fn ln_choose_symmetry(n in 1u64..100_000, t in 0.0f64..=1.0) {
        let k = ((n as f64) * t) as u64;
        let a = numeric::ln_choose(n, k);
        let b = numeric::ln_choose(n, n - k);
        prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "n={n} k={k}: {a} vs {b}");
        prop_assert!(a <= n as f64 * std::f64::consts::LN_2 + 1e-9);
        prop_assert!(a >= -1e-12);
    }
}

/// Deterministic spot check (outside proptest): tight bounds are between
/// half and all of the Hoeffding requirement across a realistic grid.
#[test]
fn exact_band_relative_to_hoeffding() {
    for (eps, delta) in [(0.1, 0.01), (0.05, 0.01), (0.05, 0.001)] {
        let exact = exact_binomial_sample_size(eps, delta, Tail::TwoSided).unwrap();
        let hoeff = hoeffding_sample_size(1.0, eps, delta, Tail::TwoSided).unwrap();
        assert!(exact <= hoeff);
        assert!(exact * 2 >= hoeff, "exact={exact} hoeff={hoeff}");
    }
}
