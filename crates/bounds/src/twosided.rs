//! Breakpoint-exact two-sided worst-case deviation.
//!
//! The two-sided deviation probability at sample size `n` and tolerance
//! `ε` is `f(p) = Pr_p[X ≥ k(p)] + Pr_p[X ≤ m(p)]` with the strict
//! cut-offs `k(p) = min{k : k > n(p+ε)}` and `m(p) = max{m : m < n(p−ε)}`.
//! Between cut-off jumps both `k` and `m` are constant, and on such an
//! interval `f′(p)/n = pmf(n−1, p, k−1) − pmf(n−1, p, m)` changes sign at
//! most once, from negative to positive (the pmf ratio
//! `C·(p/(1−p))^{k−1−m}` is monotone and `k−1 ≥ m` whenever `ε > 0`), so
//! `f` is valley-shaped and its supremum over the interval sits at an
//! endpoint limit. The cut-offs jump exactly at the sawtooth breakpoints
//!
//! * `p_j = j/n − ε` — the **upper** tail loses the term `pmf(j)` as `p`
//!   crosses upward, so the relevant limit is from the **left**:
//!   `Pr_{p_j}[X ≥ j] + Pr_{p_j}[X ≤ m(p_j⁻)]`;
//! * `p_i = i/n + ε` — the **lower** tail gains the term `pmf(i)` as `p`
//!   crosses upward, so the relevant limit is from the **right**:
//!   `Pr_{p_i}[X ≥ k(p_i⁺)] + Pr_{p_i}[X ≤ i]`.
//!
//! The global supremum is therefore the maximum over these two finite
//! candidate families — no grid, no resolution error. Within a family the
//! *other* tail's cut-off shifts in lockstep with the family index
//! (`m(p_j⁻) = j − ⌈2nε⌉`-ish, constant offset), so each family's
//! candidate envelope inherits the same unimodal-up-to-sawtooth shape as
//! the one-sided envelope and is searched with the same hill-climb +
//! plateau sweep ([`crate::binomial::climb_envelope`]).
//!
//! This mirrors the one-sided treatment
//! ([`crate::binomial::worst_case_deviation_one_sided_exact`]) and
//! replaces the seed's 64-point grid scan (preserved in
//! [`crate::reference`]) in both the hinted bracketing probes and the
//! reference acceptance criterion of
//! [`crate::exact_binomial_sample_size`]. The exact supremum dominates
//! every grid sampling of the same function, so accepted sample sizes can
//! sit a few sawtooth teeth *above* the seed's — never below.

use crate::binomial::{
    above, climb_envelope, strict_lower_cutoff, strict_upper_cutoff, Candidate, JumpHint, Scan,
    JUMP_PLATEAU,
};

/// Breakpoint-exact two-sided worst case: `sup_p Pr[|X/n − p| > ε]`.
pub fn worst_case_deviation_two_sided_exact(n: u64, eps: f64) -> f64 {
    worst_case_two_sided_jump(n, eps, JumpHint::cold(), None).0
}

/// Candidate at the upper-family breakpoint `p_j = j/n − ε`: the limit of
/// the deviation probability as `p → p_j` from the left, where the upper
/// cut-off is still `j` and the lower cut-off is the in-interval constant
/// `strict_lower_cutoff(n(p_j − ε))` (the snap convention resolves a
/// near-integer product to the left-limit cut-off, which is exactly the
/// convention this limit needs).
fn upper_family(n: u64, eps: f64, j: u64, p: f64) -> Candidate {
    Candidate::two_sided(n, p, j as i128, strict_lower_cutoff(n as f64 * (p - eps)))
}

/// Candidate at the lower-family breakpoint `p_i = i/n + ε`: the limit
/// from the right, where the lower cut-off has become `i` and the upper
/// cut-off is `strict_upper_cutoff(n(p_i + ε))` (the snap again resolves
/// a coincident breakpoint to the right-limit cut-off).
fn lower_family(n: u64, eps: f64, i: u64, p: f64) -> Candidate {
    Candidate::two_sided(n, p, strict_upper_cutoff(n as f64 * (p + eps)), i as i128)
}

/// Hinted, early-exiting breakpoint scan over both candidate families
/// (the two-sided backend of
/// [`crate::binomial::worst_case_deviation_jump`]). Returns
/// `(sup, p_star, next_hint)` where `p_star` is the maximizing
/// breakpoint and `next_hint` carries each family's own maximizing jump
/// index for the next probe — the losing family's argmax too, so its
/// next climb does not have to walk over from the winner's breakpoint.
/// When `stop_above` is set, returns as soon as any candidate exceeds
/// it (the result is then only a lower bound — exactly what a
/// `worst(n) > δ` bracketing decision needs).
pub(crate) fn worst_case_two_sided_jump(
    n: u64,
    eps: f64,
    hint: JumpHint,
    stop_above: Option<f64>,
) -> (f64, f64, JumpHint) {
    two_sided_scan(n, eps, hint, stop_above).finish()
}

/// Both families' climbs, each family's best candidate left unfinished.
pub(crate) fn two_sided_scan(n: u64, eps: f64, hint: JumpHint, stop_above: Option<f64>) -> Scan {
    debug_assert!(n > 0);
    debug_assert!(eps > 0.0 && eps < 1.0);
    let nf = n as f64;
    let mut next = hint;

    // Upper family: j with 0 < p_j = j/n − ε (p_j ≤ 1 − ε < 1 always).
    let j_min = (strict_upper_cutoff(nf * eps).max(1) as u64).min(n);
    let p_upper = |j: u64| (j as f64 / nf - eps).clamp(f64::MIN_POSITIVE, 1.0);
    let j_start = JumpHint::start_index(hint.upper, nf, 0.5 + eps);
    let (mut best, best_j) = climb_envelope(j_min, n, j_start, JUMP_PLATEAU, stop_above, |j| {
        upper_family(n, eps, j, p_upper(j))
    });
    next.upper = Some(best_j as f64 / nf);
    let exceeded = stop_above.is_some_and(|limit| above(&mut best, limit));
    let mut scan = Scan {
        upper: (best, p_upper(best_j)),
        lower: None,
        next,
    };
    if exceeded {
        return scan;
    }

    // Lower family: i with p_i = i/n + ε < 1 (p_i ≥ ε > 0 always).
    let i_max = strict_lower_cutoff(nf * (1.0 - eps));
    if i_max >= 0 {
        let p_lower = |i: u64| (i as f64 / nf + eps).clamp(f64::MIN_POSITIVE, 1.0);
        let i_start = JumpHint::start_index(hint.lower, nf, 0.5 - eps);
        let (lo_best, lo_i) =
            climb_envelope(0, i_max as u64, i_start, JUMP_PLATEAU, stop_above, |i| {
                lower_family(n, eps, i, p_lower(i))
            });
        scan.next.lower = Some(lo_i as f64 / nf);
        scan.lower = Some((lo_best, p_lower(lo_i)));
    }
    scan
}

/// The eager two-sided scan the lazy one must match bit for bit: every
/// candidate summed to the end before it is compared.
#[cfg(test)]
pub(crate) fn worst_case_two_sided_jump_eager(
    n: u64,
    eps: f64,
    hint: JumpHint,
    stop_above: Option<f64>,
) -> (f64, f64, JumpHint) {
    use crate::binomial::climb_envelope_eager;
    let nf = n as f64;
    let mut next = hint;
    let j_min = (strict_upper_cutoff(nf * eps).max(1) as u64).min(n);
    let p_upper = |j: u64| (j as f64 / nf - eps).clamp(f64::MIN_POSITIVE, 1.0);
    let j_start = JumpHint::start_index(hint.upper, nf, 0.5 + eps);
    let (mut best, best_j) =
        climb_envelope_eager(j_min, n, j_start, JUMP_PLATEAU, stop_above, |j| {
            upper_family_candidate(n, eps, j, p_upper(j))
        });
    let mut best_p = p_upper(best_j);
    next.upper = Some(best_j as f64 / nf);
    if let Some(limit) = stop_above {
        if best > limit {
            return (best, best_p, next);
        }
    }
    let i_max = strict_lower_cutoff(nf * (1.0 - eps));
    if i_max >= 0 {
        let p_lower = |i: u64| (i as f64 / nf + eps).clamp(f64::MIN_POSITIVE, 1.0);
        let i_start = JumpHint::start_index(hint.lower, nf, 0.5 - eps);
        let (lo_best, lo_i) =
            climb_envelope_eager(0, i_max as u64, i_start, JUMP_PLATEAU, stop_above, |i| {
                lower_family_candidate(n, eps, i, p_lower(i))
            });
        next.lower = Some(lo_i as f64 / nf);
        if lo_best > best {
            best = lo_best;
            best_p = p_lower(lo_i);
        }
    }
    (best, best_p, next)
}

/// [`upper_family`] evaluated eagerly, as the scan did before its
/// candidates were summed lazily.
#[cfg(test)]
fn upper_family_candidate(n: u64, eps: f64, j: u64, p: f64) -> f64 {
    use crate::binomial::{ln_lower_tail, ln_upper_tail};
    use crate::numeric::log_add_exp;
    let upper = ln_upper_tail(n, p, j);
    let lo_cut = strict_lower_cutoff(n as f64 * (p - eps));
    let lower = if lo_cut < 0 {
        f64::NEG_INFINITY
    } else {
        ln_lower_tail(n, p, lo_cut as u64)
    };
    log_add_exp(upper, lower).exp().min(1.0)
}

/// [`lower_family`] evaluated eagerly.
#[cfg(test)]
fn lower_family_candidate(n: u64, eps: f64, i: u64, p: f64) -> f64 {
    use crate::binomial::{ln_lower_tail, ln_upper_tail};
    use crate::numeric::log_add_exp;
    let lower = ln_lower_tail(n, p, i);
    let hi_cut = strict_upper_cutoff(n as f64 * (p + eps));
    let upper = if hi_cut > n as i128 {
        f64::NEG_INFINITY
    } else {
        ln_upper_tail(n, p, hi_cut as u64)
    };
    log_add_exp(upper, lower).exp().min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::deviation_probability;

    /// The breakpoint scan dominates any grid sampling of the actual
    /// (snapped) deviation function — the exact sup is a limit value the
    /// grid can only approach — and never exceeds the dense envelope by
    /// more than the teeth the grid provably missed.
    #[test]
    fn two_sided_exact_dominates_dense_grid() {
        for &n in &[37u64, 145, 500, 1_371, 4_096] {
            for &eps in &[0.03, 0.07, 0.1, 0.25] {
                let exact = worst_case_deviation_two_sided_exact(n, eps);
                let grid = 8_192usize;
                let mut dense = 0.0f64;
                for i in 0..=grid {
                    let p = i as f64 / grid as f64;
                    dense = dense.max(deviation_probability(n, p, eps));
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

    /// Both families matter: the sup must match a brute-force enumeration
    /// of every breakpoint candidate (no hill-climb, no plateau window),
    /// so the climb provably never stalls short of the true maximum.
    #[test]
    fn climb_matches_exhaustive_breakpoint_enumeration() {
        for &n in &[23u64, 100, 333, 1_024] {
            for &eps in &[0.02, 0.05, 0.11, 0.3] {
                let nf = n as f64;
                let mut brute = 0.0f64;
                let j_min = (strict_upper_cutoff(nf * eps).max(1) as u64).min(n);
                for j in j_min..=n {
                    let p = (j as f64 / nf - eps).clamp(f64::MIN_POSITIVE, 1.0);
                    brute = brute.max(upper_family_candidate(n, eps, j, p));
                }
                let i_max = strict_lower_cutoff(nf * (1.0 - eps));
                for i in 0..=i_max.max(0) as u64 {
                    let p = (i as f64 / nf + eps).clamp(f64::MIN_POSITIVE, 1.0);
                    brute = brute.max(lower_family_candidate(n, eps, i, p));
                }
                let climbed = worst_case_deviation_two_sided_exact(n, eps);
                assert!(
                    (climbed - brute).abs() <= brute * 1e-12,
                    "n={n} eps={eps}: climb {climbed} vs brute {brute}"
                );
            }
        }
    }

    /// The two families are mirror images under `p ↔ 1 − p`, so a badly
    /// off-centre hint must still recover the global sup.
    #[test]
    fn recovers_from_bad_hints() {
        for &frac in &[0.02, 0.5, 0.98] {
            let hint = JumpHint {
                upper: Some(frac),
                lower: Some(frac),
            };
            let (v, p_star, next) = worst_case_two_sided_jump(700, 0.05, hint, None);
            let want = worst_case_deviation_two_sided_exact(700, 0.05);
            assert!(
                (v - want).abs() <= want * 1e-12,
                "hint={frac}: {v} vs {want}"
            );
            assert!((0.0..=1.0).contains(&p_star));
            assert!(next.upper.is_some() && next.lower.is_some());
        }
    }

    /// Early exit certifies the threshold crossing with a lower bound.
    #[test]
    fn early_exit_is_a_lower_bound() {
        let (full, _, _) = worst_case_two_sided_jump(300, 0.05, JumpHint::cold(), None);
        let (bounded, _, _) =
            worst_case_two_sided_jump(300, 0.05, JumpHint::cold(), Some(full / 10.0));
        assert!(bounded > full / 10.0);
        assert!(bounded <= full * (1.0 + 1e-12));
    }
}
