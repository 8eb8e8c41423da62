//! Exact binomial distribution computations in log space.
//!
//! These underpin the "tight numerical bounds" of §4.3: instead of a
//! closed-form concentration inequality, compute the exact probability that
//! a `Binomial(n, p)/n` estimate deviates from `p` by more than `ε`, and
//! search for the smallest `n` that controls the worst case over `p`.
//!
//! # Hot-path design
//!
//! A tail evaluation computes the *boundary* pmf once (three log-factorial
//! table loads via [`crate::numeric::ln_choose`]) and extends it with the
//! pmf ratio recurrence `pmf(k+1)/pmf(k) = (n−k)/(k+1) · p/(1−p)` in
//! **linear** space relative to the boundary term — one multiply-add per
//! term instead of the `ln`/`exp` pair a log-space accumulation needs.
//! Sums always run down the monotone side of the mode (terms strictly
//! decreasing, so nothing overflows) and stop once a term can no longer
//! move the double-precision total; a tail costs `O(√n)` multiply-adds.
//! Tails that straddle the mode are evaluated through the complement,
//! which is well-conditioned exactly when the direct sum is not.
//!
//! The worst case over the unknown true mean `p` is *breakpoint-exact*
//! for both tail conventions: the supremum is attained in the limit at
//! the sawtooth breakpoints `p_j = j/n ∓ ε` where the integer cut-offs
//! jump, so [`worst_case_deviation_tail`] (the reference used by tests
//! and final acceptance) and [`worst_case_deviation_hinted`] (the same
//! scan warm-started from the previous maximizer `p*`, with early exit,
//! used by the sample-size search in
//! [`crate::exact_binomial_sample_size`]) hill-climb over jump indices —
//! one breakpoint family for the one-sided case, both tails' families
//! for the two-sided case (see `crate::twosided`).

use crate::numeric::{ln_choose, log1m_exp, log_add_exp};
use crate::tail::Tail;

pub use crate::twosided::worst_case_deviation_two_sided_exact;

/// Natural log of the binomial probability mass `Pr[X = k]` for
/// `X ~ Binomial(n, p)`.
///
/// Handles the degenerate cases `p = 0` and `p = 1` exactly.
///
/// # Examples
///
/// ```
/// let ln_p = easeml_bounds::binomial::ln_pmf(10, 0.5, 5);
/// assert!((ln_p.exp() - 0.24609375).abs() < 1e-12);
/// ```
pub fn ln_pmf(n: u64, p: f64, k: u64) -> f64 {
    debug_assert!(k <= n);
    debug_assert!((0.0..=1.0).contains(&p));
    if p == 0.0 {
        return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
    }
    if p == 1.0 {
        return if k == n { 0.0 } else { f64::NEG_INFINITY };
    }
    // (-p).ln_1p() computes ln(1-p) without the cancellation that
    // (1.0 - p).ln() suffers for tiny p.
    ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p()
}

/// The mode `floor((n+1)p)` of `Binomial(n, p)`, clamped to `[0, n]`.
///
/// Used to pick the monotone side for tail summation: pmf terms are
/// non-increasing walking away from the mode in either direction.
fn mode(n: u64, p: f64) -> u64 {
    (((n + 1) as f64 * p) as u64).min(n)
}

/// Upper tail `Pr[X >= k]` summed directly downward from the boundary.
///
/// Requires `1 <= k <= n`, `0 < p < 1`, and `k` at or above the mode so
/// the term sequence is non-increasing (no overflow in the linear-space
/// relative sum).
fn ln_upper_tail_direct(n: u64, p: f64, k: u64) -> f64 {
    let ln_base = ln_pmf(n, p, k);
    let odds = p / (1.0 - p);
    let mut term = 1.0f64; // relative to the boundary pmf
    let mut sum = 1.0f64;
    let mut i = k;
    while i < n {
        term *= (n - i) as f64 / (i + 1) as f64 * odds;
        sum += term;
        // Past the mode the ratio is < 1 and decreasing: geometric decay.
        if term <= sum * 1e-17 {
            break;
        }
        i += 1;
    }
    (ln_base + sum.ln()).min(0.0)
}

/// Lower tail `Pr[X <= k]` summed directly downward from the boundary.
///
/// Requires `k < n`, `0 < p < 1`, and `k` at or below the mode.
fn ln_lower_tail_direct(n: u64, p: f64, k: u64) -> f64 {
    let ln_base = ln_pmf(n, p, k);
    let inv_odds = (1.0 - p) / p;
    let mut term = 1.0f64;
    let mut sum = 1.0f64;
    let mut i = k;
    while i > 0 {
        term *= i as f64 / (n - i + 1) as f64 * inv_odds;
        sum += term;
        if term <= sum * 1e-17 {
            break;
        }
        i -= 1;
    }
    (ln_base + sum.ln()).min(0.0)
}

/// Log of the upper tail `Pr[X >= k]` for `X ~ Binomial(n, p)`.
///
/// Boundaries at or above the mode sum directly; boundaries below the
/// mode (where the direct sum would grow through the mode) evaluate the
/// complement `1 − Pr[X <= k−1]`, which is well-conditioned there because
/// the result is large.
pub fn ln_upper_tail(n: u64, p: f64, k: u64) -> f64 {
    if k == 0 {
        return 0.0; // Pr[X >= 0] = 1
    }
    if k > n {
        return f64::NEG_INFINITY;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY; // k >= 1 but X = 0 a.s.
    }
    if p == 1.0 {
        return 0.0; // X = n >= k a.s.
    }
    if k > mode(n, p) {
        ln_upper_tail_direct(n, p, k)
    } else {
        // k >= 1 here, and k <= mode implies mode >= 1, so k-1 is a valid
        // lower-tail boundary strictly below the mode.
        log1m_exp(ln_lower_tail_direct(n, p, k - 1).min(0.0))
    }
}

/// Log of the lower tail `Pr[X <= k]` for `X ~ Binomial(n, p)`.
pub fn ln_lower_tail(n: u64, p: f64, k: u64) -> f64 {
    if k >= n {
        return 0.0;
    }
    if p == 0.0 {
        return 0.0; // X = 0 a.s.
    }
    if p == 1.0 {
        return f64::NEG_INFINITY; // X = n > k a.s.
    }
    if k < mode(n, p) {
        ln_lower_tail_direct(n, p, k)
    } else {
        // k >= mode and k < n, so k+1 is a valid upper boundary above the
        // mode.
        log1m_exp(ln_upper_tail_direct(n, p, k + 1).min(0.0))
    }
}

/// Relative slack under which `n·(p±ε)` is snapped to the nearest integer
/// before the tail cut-off is taken.
///
/// The products routinely land within a few ulp of an exact integer when
/// `p` and `ε` are "nice" fractions of `n`; without the snap, `floor`/
/// `ceil` then pick the cut-off on the wrong side of the strict
/// inequality and the deviation probability jumps by one whole pmf term.
///
/// The window must stay at rounding-error scale: computing `n·(p±ε)`
/// accrues at most a few ulp of relative error (~1e-15), so 1e-12 covers
/// every genuinely-integer product with three orders of magnitude to
/// spare, while a product that is *mathematically* non-integer by more
/// than that is left alone — snapping it would wrongly exclude a boundary
/// outcome that really does deviate and understate the tail.
const CUTOFF_SNAP: f64 = 1e-12;

/// Smallest integer `k` with `k > x`, treating values within
/// [`CUTOFF_SNAP`] (relative) of an integer as exactly that integer.
pub(crate) fn strict_upper_cutoff(x: f64) -> i128 {
    let r = x.round();
    if (x - r).abs() <= CUTOFF_SNAP * r.abs().max(1.0) {
        r as i128 + 1
    } else {
        x.floor() as i128 + 1
    }
}

/// Largest integer `k` with `k < x`, with the same integer snapping.
pub(crate) fn strict_lower_cutoff(x: f64) -> i128 {
    let r = x.round();
    if (x - r).abs() <= CUTOFF_SNAP * r.abs().max(1.0) {
        r as i128 - 1
    } else {
        x.ceil() as i128 - 1
    }
}

/// Exact two-sided deviation probability
/// `Pr[ |X/n − p| > ε ]` for `X ~ Binomial(n, p)`.
///
/// # Examples
///
/// ```
/// // With n = 100, p = 0.5, ε = 0.1: Pr[|X/100 - 0.5| > 0.1] ≈ 0.035
/// let pr = easeml_bounds::binomial::deviation_probability(100, 0.5, 0.1);
/// assert!(pr > 0.02 && pr < 0.06);
/// ```
pub fn deviation_probability(n: u64, p: f64, eps: f64) -> f64 {
    debug_assert!(n > 0);
    debug_assert!((0.0..=1.0).contains(&p));
    debug_assert!(eps > 0.0);
    let nf = n as f64;
    // Upper: X/n > p + eps  <=>  X >= strict_upper_cutoff(n(p+eps))
    let hi_cut = strict_upper_cutoff(nf * (p + eps));
    let upper = if hi_cut > n as i128 {
        f64::NEG_INFINITY
    } else {
        ln_upper_tail(n, p, hi_cut as u64)
    };
    // Lower: X/n < p - eps  <=>  X <= strict_lower_cutoff(n(p-eps))
    let lo_cut = strict_lower_cutoff(nf * (p - eps));
    let lower = if lo_cut < 0 {
        f64::NEG_INFINITY
    } else {
        ln_lower_tail(n, p, lo_cut as u64)
    };
    log_add_exp(upper, lower).exp().min(1.0)
}

/// One-sided deviation probability `Pr[X/n − p > ε]`.
pub fn deviation_probability_one_sided(n: u64, p: f64, eps: f64) -> f64 {
    let nf = n as f64;
    let hi_cut = strict_upper_cutoff(nf * (p + eps));
    if hi_cut > n as i128 {
        0.0
    } else {
        ln_upper_tail(n, p, hi_cut as u64).exp()
    }
}

/// Worst-case (over the unknown true mean `p`) deviation probability for
/// a given `n` and `ε`, for either tail convention.
///
/// Both tails are *breakpoint-exact*: the supremum is attained in the
/// limit at the sawtooth breakpoints `p_j = j/n ∓ ε` where the integer
/// cut-offs jump, so the scan enumerates jump indices — one family for
/// the one-sided case ([`worst_case_deviation_one_sided_exact`]), both
/// tails' families for the two-sided case
/// ([`worst_case_deviation_two_sided_exact`]) — instead of sampling a
/// grid. No grid, no resolution error; the seed's 64-point grid scan is
/// preserved in [`crate::reference`].
///
/// This is the *reference* search shared by
/// [`crate::exact_binomial_sample_size`]'s final acceptance,
/// [`crate::exact_binomial_epsilon`], and the test suite; the
/// `n`-search's bracketing probes use the hinted, early-exiting
/// [`worst_case_deviation_hinted`] form of the same scans.
pub fn worst_case_deviation_tail(n: u64, eps: f64, tail: Tail) -> f64 {
    match tail {
        Tail::TwoSided => worst_case_deviation_two_sided_exact(n, eps),
        Tail::OneSided => worst_case_deviation_one_sided_exact(n, eps),
    }
}

/// Breakpoint-exact one-sided worst case: `sup_p Pr[X/n − p > ε]`.
///
/// For fixed cut-off `k`, `Pr_p[X ≥ k]` is increasing in `p`, and the
/// strict cut-off `k(p) = min{k : k > n(p+ε)}` jumps exactly at
/// `p_j = j/n − ε`. The supremum over each constant-cut interval
/// `(p_{j−1}, p_j)` is therefore its right-end limit
/// `Pr_{p_j}[X ≥ j]`, and the global supremum is the maximum of those
/// finitely many candidates — no grid, no resolution error.
///
/// The candidate envelope `j ↦ Pr_{p_j}[X ≥ j]` inherits the
/// unimodality of the continuous worst-case envelope, so the maximum is
/// found by a hill-climb over the jump index (a handful of `O(√n)` tail
/// evaluations), hardened by a ±`JUMP_PLATEAU` window sweep against
/// small sawtooth ripples.
pub fn worst_case_deviation_one_sided_exact(n: u64, eps: f64) -> f64 {
    worst_case_one_sided_jump(n, eps, JumpHint::cold(), None).0
}

/// Escape window for the jump-index hill-climb: after a local maximum,
/// this many indices on each side are checked before accepting it.
pub(crate) const JUMP_PLATEAU: u64 = 4;

/// Per-family warm start for the breakpoint hill-climbs, carried across
/// bracketing probes of the minimal-`n` search.
///
/// Each field is the maximizing jump index of one breakpoint family,
/// stored as the fraction `j*/n` so a hint learned at one `n` seeds the
/// climb at a nearby `n'` (the maximizer fraction drifts only slightly
/// between neighbouring sizes). A single scalar `p*` hint cannot do
/// this for the two-sided scan: whichever family *lost* at the previous
/// probe would be re-seeded from the winner's breakpoint, a start that
/// can sit many teeth off its own argmax. With per-family carry each
/// climb resumes from its own previous argmax and typically settles
/// after a couple of tail evaluations.
///
/// `None` means cold: the climb seeds from the centre `p ≈ 0.5`
/// heuristic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JumpHint {
    /// Maximizing fraction `j*/n` of the upper-tail family
    /// (`p_j = j/n − ε`) — the only family of the one-sided scan.
    pub upper: Option<f64>,
    /// Maximizing fraction `i*/n` of the lower-tail family
    /// (`p_i = i/n + ε`); two-sided scans only.
    pub lower: Option<f64>,
}

impl JumpHint {
    /// Cold start: both climbs seed from the centre `p ≈ 0.5` heuristic.
    pub fn cold() -> JumpHint {
        JumpHint::default()
    }

    /// Start index for a family's climb: the carried argmax fraction
    /// rescaled to this `n`, or the cold-start fallback `frac0`.
    pub(crate) fn start_index(carried: Option<f64>, nf: f64, frac0: f64) -> i128 {
        match carried {
            Some(frac) => (frac * nf).round() as i128,
            None => (nf * frac0).round() as i128,
        }
    }
}

/// Hinted, early-exiting form of the one-sided breakpoint scan (the
/// one-sided backend of [`worst_case_deviation_jump`]). Returns
/// `(sup, p_star, next_hint)` where `p_star` is the maximizing
/// breakpoint and `next_hint` carries the maximizing jump index for the
/// next probe's climb.
pub(crate) fn worst_case_one_sided_jump(
    n: u64,
    eps: f64,
    hint: JumpHint,
    stop_above: Option<f64>,
) -> (f64, f64, JumpHint) {
    debug_assert!(n > 0);
    debug_assert!(eps > 0.0 && eps < 1.0);
    let nf = n as f64;
    // Smallest jump index with p_j = j/n − ε > 0. When n·ε is (near-)
    // integral the snap convention puts the first positive breakpoint
    // one index higher.
    let j_min = (strict_upper_cutoff(nf * eps).max(1) as u64).min(n);
    let p_at = |j: u64| (j as f64 / nf - eps).clamp(f64::MIN_POSITIVE, 1.0);
    let start = JumpHint::start_index(hint.upper, nf, 0.5 + eps);
    let (best, best_j) = climb_envelope(j_min, n, start, JUMP_PLATEAU, stop_above, |j| {
        ln_upper_tail(n, p_at(j), j).exp()
    });
    let next = JumpHint {
        upper: Some(best_j as f64 / nf),
        lower: hint.lower,
    };
    (best, p_at(best_j), next)
}

/// Hill-climb over a sawtooth candidate envelope `value(j)` on the
/// inclusive index range `[lo, hi]`, the search shared by the one-sided
/// jump scan and both families of the two-sided one
/// ([`crate::twosided`]).
///
/// Starts from `start` (clamped into range), carries neighbour values so
/// each climb step costs one new envelope evaluation, and — because the
/// envelope is only unimodal *up to* sawtooth ripples — sweeps a
/// ±`plateau` window around every local maximum, resuming the climb from
/// any strictly better index. When `stop_above` is set, returns as soon
/// as any probe exceeds it (the result is then only a lower bound on the
/// true maximum). Returns `(best_value, best_index)`.
pub(crate) fn climb_envelope(
    lo: u64,
    hi: u64,
    start: i128,
    plateau: u64,
    stop_above: Option<f64>,
    mut value: impl FnMut(u64) -> f64,
) -> (f64, u64) {
    debug_assert!(lo <= hi);
    let mut center = start.clamp(lo as i128, hi as i128) as u64;
    let mut cur = value(center);
    let mut best = cur;
    let mut best_j = center;
    if let Some(limit) = stop_above {
        if best > limit {
            return (best, best_j);
        }
    }
    // The cell the climb just left is one of the next step's neighbours,
    // so its value is carried over instead of re-evaluated.
    let mut from: Option<(u64, f64)> = None;
    loop {
        loop {
            let mut eval = |j: u64| match from {
                Some((f, v)) if f == j => v,
                _ => value(j),
            };
            let left = if center > lo {
                eval(center - 1)
            } else {
                f64::NEG_INFINITY
            };
            let right = if center < hi {
                eval(center + 1)
            } else {
                f64::NEG_INFINITY
            };
            if left <= cur && right <= cur {
                break;
            }
            from = Some((center, cur));
            if right > left {
                center += 1;
                cur = right;
            } else {
                center -= 1;
                cur = left;
            }
            if cur > best {
                best = cur;
                best_j = center;
                if let Some(limit) = stop_above {
                    if best > limit {
                        return (best, best_j);
                    }
                }
            }
        }
        // Plateau sweep: look a little further out on both sides; resume
        // climbing from any strictly better index.
        let mut improved = None;
        for d in 2..=plateau {
            for j in [center.saturating_sub(d).max(lo), (center + d).min(hi)] {
                let v = value(j);
                if v > best {
                    best = v;
                    best_j = j;
                    improved = Some((j, v));
                    if let Some(limit) = stop_above {
                        if best > limit {
                            return (best, best_j);
                        }
                    }
                }
            }
        }
        match improved {
            Some((j, v)) => {
                center = j;
                cur = v;
                from = None;
            }
            None => return (best, best_j),
        }
    }
}

/// Two-sided worst-case deviation probability (the historical public
/// entry point; see [`worst_case_deviation_tail`]).
pub fn worst_case_deviation(n: u64, eps: f64) -> f64 {
    worst_case_deviation_tail(n, eps, Tail::TwoSided)
}

/// Breakpoint-exact worst-case search with per-family warm-started
/// jump indices.
///
/// Delegates to the jump-index hill-climbs — the one-sided single-family
/// scan ([`worst_case_deviation_one_sided_exact`]) or the two-sided
/// two-family scan ([`worst_case_deviation_two_sided_exact`]) — each
/// family seeded from its own maximizing jump index found at a nearby
/// `n` (see [`JumpHint`]). Successive `n` probes move each argmax only
/// slightly, so a warm climb typically settles after ~2–3 tail
/// evaluations instead of walking in from a cold start.
///
/// Returns `(worst, p_star, next_hint)`. When `stop_above` is set and
/// any probe exceeds it, the search returns that probe immediately —
/// the result is then only a *lower bound* on the worst case, which is
/// exactly what a `worst(n) > delta` bracketing decision needs. Without
/// `stop_above`, a cold hint reproduces [`worst_case_deviation_tail`]
/// bit for bit; a warm hint evaluates only genuine breakpoint
/// candidates, so the result is always a valid *lower bound* on the sup
/// that matches it in practice but can settle short of it from a
/// far-off start — which is why the minimal-`n` search treats warm
/// probes as steering only and *accepts* candidates exclusively via the
/// reference scan.
pub fn worst_case_deviation_jump(
    n: u64,
    eps: f64,
    tail: Tail,
    hint: JumpHint,
    stop_above: Option<f64>,
) -> (f64, f64, JumpHint) {
    match tail {
        Tail::OneSided => worst_case_one_sided_jump(n, eps, hint, stop_above),
        Tail::TwoSided => crate::twosided::worst_case_two_sided_jump(n, eps, hint, stop_above),
    }
}

/// Breakpoint-exact worst-case search warm-started from a scalar
/// maximizer `p*` (the historical hint form; [`worst_case_deviation_jump`]
/// carries per-family jump indices instead and is what the minimal-`n`
/// search uses). The scalar hint seeds the upper family at
/// `j ≈ n(p* + ε)` and the lower family at `i ≈ n(p* − ε)`.
///
/// Returns `(worst, p_star)`; the `stop_above` contract is that of
/// [`worst_case_deviation_jump`].
pub fn worst_case_deviation_hinted(
    n: u64,
    eps: f64,
    tail: Tail,
    hint: f64,
    stop_above: Option<f64>,
) -> (f64, f64) {
    let jump = JumpHint {
        upper: Some(hint + eps),
        lower: Some(hint - eps),
    };
    let (worst, p_star, _) = worst_case_deviation_jump(n, eps, tail, jump, stop_above);
    (worst, p_star)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_pmf_brute(n: u64, p: f64, k: u64) -> f64 {
        // Direct product formulation for tiny n.
        let mut c = 1.0f64;
        for i in 0..k {
            c *= (n - i) as f64 / (i + 1) as f64;
        }
        c * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
    }

    fn tail_brute(n: u64, p: f64, k: u64) -> f64 {
        (k..=n).map(|i| exact_pmf_brute(n, p, i)).sum()
    }

    #[test]
    fn pmf_matches_brute_force() {
        for &(n, p) in &[(1u64, 0.3), (5, 0.5), (12, 0.9), (20, 0.01)] {
            for k in 0..=n {
                let got = ln_pmf(n, p, k).exp();
                let want = exact_pmf_brute(n, p, k);
                assert!(
                    (got - want).abs() < 1e-12 + want * 1e-10,
                    "n={n} p={p} k={k}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn pmf_degenerate_p() {
        assert_eq!(ln_pmf(10, 0.0, 0), 0.0);
        assert_eq!(ln_pmf(10, 0.0, 3), f64::NEG_INFINITY);
        assert_eq!(ln_pmf(10, 1.0, 10), 0.0);
        assert_eq!(ln_pmf(10, 1.0, 9), f64::NEG_INFINITY);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(50u64, 0.5), (100, 0.02), (100, 0.98)] {
            let mut total = f64::NEG_INFINITY;
            for k in 0..=n {
                total = log_add_exp(total, ln_pmf(n, p, k));
            }
            assert!(total.abs() < 1e-10, "n={n} p={p}: sum = {}", total.exp());
        }
    }

    #[test]
    fn tails_match_brute_force_on_both_sides_of_mode() {
        // Boundaries below, at, and above the mode all go through the
        // correct direct/complement branch.
        for &(n, p) in &[(60u64, 0.3), (60, 0.5), (60, 0.9), (35, 0.04)] {
            for k in 0..=n {
                let got = ln_upper_tail(n, p, k).exp();
                let want = tail_brute(n, p, k);
                assert!(
                    (got - want).abs() < 1e-11,
                    "upper n={n} p={p} k={k}: {got} vs {want}"
                );
                if k < n {
                    let got_lo = ln_lower_tail(n, p, k).exp();
                    let want_lo = 1.0 - tail_brute(n, p, k + 1);
                    assert!(
                        (got_lo - want_lo).abs() < 1e-11,
                        "lower n={n} p={p} k={k}: {got_lo} vs {want_lo}"
                    );
                }
            }
        }
    }

    #[test]
    fn tails_complement() {
        for &(n, p, k) in &[(100u64, 0.3, 25u64), (100, 0.5, 50), (1000, 0.98, 985)] {
            let up = ln_upper_tail(n, p, k).exp();
            let low = ln_lower_tail(n, p, k - 1).exp();
            assert!(
                (up + low - 1.0).abs() < 1e-9,
                "n={n} p={p} k={k}: {up} + {low}"
            );
        }
    }

    #[test]
    fn tail_edge_cases() {
        assert_eq!(ln_upper_tail(10, 0.5, 0), 0.0);
        assert_eq!(ln_upper_tail(10, 0.5, 11), f64::NEG_INFINITY);
        assert_eq!(ln_lower_tail(10, 0.5, 10), 0.0);
        assert_eq!(ln_upper_tail(10, 0.0, 1), f64::NEG_INFINITY);
        assert_eq!(ln_upper_tail(10, 1.0, 10), 0.0);
        assert_eq!(ln_lower_tail(10, 0.0, 3), 0.0);
        assert_eq!(ln_lower_tail(10, 1.0, 3), f64::NEG_INFINITY);
    }

    #[test]
    fn deviation_probability_sane() {
        // n=100, p=0.5: Pr[|X/n - 0.5| > 0.1] = 2 * Pr[X >= 61]
        let d = deviation_probability(100, 0.5, 0.1);
        let direct = 2.0 * ln_upper_tail(100, 0.5, 61).exp();
        assert!((d - direct).abs() < 1e-12);
    }

    #[test]
    fn deviation_shrinks_with_n() {
        let d_small = deviation_probability(100, 0.5, 0.05);
        let d_large = deviation_probability(10_000, 0.5, 0.05);
        assert!(d_large < d_small / 10.0);
    }

    #[test]
    fn deviation_hoeffding_dominates_exact() {
        // The exact deviation probability is always at most the Hoeffding
        // two-sided bound.
        for &n in &[50u64, 500, 5_000] {
            for &p in &[0.1, 0.5, 0.9] {
                for &eps in &[0.01, 0.05] {
                    let exact = deviation_probability(n, p, eps);
                    let hoeffding = 2.0 * (-2.0 * n as f64 * eps * eps).exp();
                    assert!(
                        exact <= hoeffding.min(1.0) + 1e-12,
                        "n={n} p={p} eps={eps}: {exact} > {hoeffding}"
                    );
                }
            }
        }
    }

    /// When `n(p+ε)` is mathematically an integer but floating-point
    /// arithmetic lands a few ulp below it, the naive `floor(x) + 1`
    /// cut-off includes the boundary outcome `X = n(p+ε)` — which does
    /// *not* satisfy the strict deviation `X/n > p+ε` — inflating the
    /// probability by a whole pmf term.
    #[test]
    fn cutoffs_snap_to_integers_at_the_boundary() {
        // 18 * (1/6 + 4/6) = 15 exactly, but the double-precision product
        // evaluates to 14.999999999999998: naive floor+1 admits X = 15,
        // whose deviation X/n = 5/6 equals p+ε and must be excluded.
        let n = 18u64;
        let p = 1.0 / 6.0;
        let eps = 4.0 / 6.0;
        assert!(
            (n as f64 * (p + eps)) < 15.0,
            "test premise: the product must land below the true integer"
        );
        let d = deviation_probability_one_sided(n, p, eps);
        // Strict inequality: only X >= 16 counts.
        let want = ln_upper_tail(n, p, 16).exp();
        assert!(
            (d - want).abs() < 1e-15,
            "cut-off failed to snap: got {d}, want {want} (X >= 16)"
        );
        // The wrong cut-off (X >= 15) is larger by pmf(15); make sure the
        // distinction is actually material at this scale.
        let wrong = ln_upper_tail(n, p, 15).exp();
        assert!(
            wrong > want * 1.5,
            "premise: boundary term must be material"
        );
    }

    /// Same hardening on the lower tail: 18 * (3/6 − 1/6) = 6 exactly,
    /// but evaluates to 6.000000000000001, so the naive `ceil − 1` admits
    /// the non-deviating outcome X = 6.
    #[test]
    fn lower_cutoff_snaps_at_the_boundary() {
        let n = 18u64;
        let p = 0.5;
        let eps = 1.0 / 6.0;
        let x = n as f64 * (p - eps);
        assert!(
            x > 6.0 && x - 6.0 < 1e-9,
            "premise: near-integer product, got {x}"
        );
        // Strict inequality X/n < p−ε admits only X <= 5.
        let d = deviation_probability(n, p, eps);
        let hi_cut = strict_upper_cutoff(n as f64 * (p + eps));
        let want = ln_upper_tail(n, p, hi_cut as u64).exp() + ln_lower_tail(n, p, 5).exp();
        assert!((d - want).abs() < 1e-15, "got {d}, want {want}");
        let wrong = ln_upper_tail(n, p, hi_cut as u64).exp() + ln_lower_tail(n, p, 6).exp();
        assert!(
            wrong > d,
            "premise: the extra boundary term must be material"
        );
    }

    /// An exactly representable integer product must behave identically
    /// to the snapped near-integer case.
    #[test]
    fn cutoffs_handle_exactly_representable_integers() {
        // n(p+eps) = 100 * 0.75 = 75 exactly in binary arithmetic.
        let d = deviation_probability_one_sided(100, 0.5, 0.25);
        let want = ln_upper_tail(100, 0.5, 76).exp();
        assert!((d - want).abs() < 1e-15);
    }

    #[test]
    fn worst_case_is_near_half() {
        let worst = worst_case_deviation(500, 0.05);
        let at_half = deviation_probability(500, 0.5, 0.05);
        assert!(worst >= at_half);
        assert!(worst <= at_half * 1.5, "worst={worst} at_half={at_half}");
    }

    #[test]
    fn hinted_search_matches_reference_scan() {
        for &n in &[200u64, 500, 1_371, 4_096] {
            for &eps in &[0.03, 0.05, 0.1] {
                for tail in [Tail::TwoSided, Tail::OneSided] {
                    let reference = worst_case_deviation_tail(n, eps, tail);
                    let (hinted, p_star) = worst_case_deviation_hinted(n, eps, tail, 0.5, None);
                    // Without early exit the hinted form runs the exact
                    // same breakpoint scan, so the values are identical.
                    assert_eq!(
                        hinted.to_bits(),
                        reference.to_bits(),
                        "n={n} eps={eps} {tail}: hinted {hinted} vs reference {reference}"
                    );
                    assert!((0.0..=1.0).contains(&p_star));
                }
            }
        }
    }

    /// The breakpoint scan dominates any grid scan (the grid samples the
    /// same function at a subset of points) and never exceeds the dense
    /// envelope by more than the teeth the grid provably missed.
    #[test]
    fn one_sided_exact_dominates_dense_grid() {
        for &n in &[37u64, 145, 500, 1_371, 4_096] {
            for &eps in &[0.03, 0.07, 0.1, 0.25] {
                let exact = worst_case_deviation_one_sided_exact(n, eps);
                // Dense reference: 8192 grid points of the actual
                // (snapped) one-sided deviation function.
                let grid = 8_192usize;
                let mut dense = 0.0f64;
                for i in 0..=grid {
                    let p = i as f64 / grid as f64;
                    dense = dense.max(deviation_probability_one_sided(n, p, eps));
                }
                assert!(
                    exact >= dense * (1.0 - 1e-12),
                    "n={n} eps={eps}: exact {exact} below dense grid {dense}"
                );
                assert!(
                    exact <= dense * 1.05 + 1e-15,
                    "n={n} eps={eps}: exact {exact} implausibly far above dense grid {dense}"
                );
            }
        }
    }

    /// The jump scan evaluated through the public reference entry point
    /// stays pinned to the seed's one-sided grid scan: same order of
    /// magnitude, never below it.
    #[test]
    fn one_sided_exact_pins_reference_grid_resolution() {
        for &(n, eps) in &[(143u64, 0.1), (600, 0.05), (2_000, 0.03)] {
            let exact = worst_case_deviation_tail(n, eps, Tail::OneSided);
            let mut grid64 = 0.0f64;
            for i in 0..=64 {
                let p = i as f64 / 64.0;
                grid64 = grid64.max(deviation_probability_one_sided(n, p, eps));
            }
            assert!(exact >= grid64 * (1.0 - 1e-12), "n={n} eps={eps}");
            assert!(
                exact <= grid64 * 1.10,
                "n={n} eps={eps}: {exact} vs {grid64}"
            );
        }
    }

    #[test]
    fn hinted_search_recovers_from_bad_hints() {
        let (from_left, _) = worst_case_deviation_hinted(700, 0.05, Tail::TwoSided, 0.05, None);
        let (from_right, _) = worst_case_deviation_hinted(700, 0.05, Tail::TwoSided, 0.95, None);
        let reference = worst_case_deviation_tail(700, 0.05, Tail::TwoSided);
        assert_eq!(from_left.to_bits(), reference.to_bits());
        assert_eq!(from_right.to_bits(), reference.to_bits());
    }

    #[test]
    fn hinted_search_early_exit_is_a_lower_bound() {
        let (full, _) = worst_case_deviation_hinted(300, 0.05, Tail::TwoSided, 0.5, None);
        let (bounded, _) =
            worst_case_deviation_hinted(300, 0.05, Tail::TwoSided, 0.5, Some(full / 10.0));
        assert!(
            bounded > full / 10.0,
            "early exit must certify the threshold crossing"
        );
        assert!(bounded <= full * (1.0 + 1e-12));
    }

    #[test]
    fn large_n_tail_is_fast_and_finite() {
        // 150K samples: the outward summation must terminate quickly and
        // produce a finite, tiny probability.
        let d = deviation_probability(150_000, 0.5, 0.01);
        assert!(d > 0.0 && d < 1e-8, "d = {d}");
    }
}
