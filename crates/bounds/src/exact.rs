//! Tight numerical sample-size bounds (§4.3).
//!
//! Following Langford's "practical prediction theory" programme, when the
//! tested statistic is a mean of i.i.d. Bernoulli variables one can discard
//! closed-form inequalities entirely and invert the exact binomial tail:
//! the smallest `n` such that `max_p Pr[|Binom(n,p)/n − p| > ε] ≤ δ`.
//!
//! The paper leaves efficient approximations as future work; this module
//! implements the inversion as a three-stage search over `n`:
//!
//! 1. **Galloping bracket.** Empirically the exact answer is never below
//!    ~0.7× the Hoeffding sample size, so the search starts from a cheap
//!    lower bound at 0.55× Hoeffding and gallops upward with doubling
//!    steps until the constraint flips, yielding a bracket a fraction the
//!    width of the seed's `[1, Hoeffding]`.
//! 2. **Binary search with warm-started probes.** Each probe evaluates
//!    the worst case over `p` with
//!    [`crate::binomial::worst_case_deviation_hinted`]: a hill-climb that
//!    starts from the maximizer `p*` of the previous probe (the maximizer
//!    drifts only slightly between nearby `n`) and exits early as soon as
//!    the probe provably exceeds `δ`. The galloping probes only climb and
//!    every bisection midpoint lies strictly inside the open bracket, so
//!    no `n` is probed twice. Scans with nothing to carry — the Hoeffding
//!    bracket check, the first probe, the first acceptance scan, and
//!    the first step and final certification of
//!    [`exact_binomial_epsilon`]'s bisection — start cold: one-sided
//!    climbs at the Chernoff argmax `p ≈ ½ − ε/3` of the tail exponent
//!    `KL(p + ε ‖ p)` (a few jump indices from the sup), two-sided
//!    climbs at the centre `p ≈ ½`, where their symmetric two-tail
//!    candidates peak.
//! 3. **Sawtooth patch with reference acceptance.** The worst case is not
//!    perfectly monotone in `n` (integer cut-offs create a sawtooth), so
//!    the final answer must have a run of consecutive valid sizes. This
//!    acceptance uses the breakpoint-exact reference scan
//!    ([`crate::binomial::worst_case_deviation_tail`]) — the supremum
//!    over `p` enumerated at the cut-off jumps, for both tail
//!    conventions — so the fast bracketing can never loosen the returned
//!    guarantee. (The seed's 64-point grid criterion is preserved in
//!    [`crate::reference`]; the exact sup dominates every grid sampling,
//!    so accepted sizes can sit a few sawtooth teeth above the seed's,
//!    never below.)
//!
//! All search state lives in an [`InversionContext`], which serves
//! exactly one `(ε, δ, tail)` cell: a table is one inversion per cell.

use crate::binomial::{
    deviation_probability, worst_case_deviation_jump, worst_case_deviation_tail, JumpHint,
};
use crate::error::{check_positive, check_probability, BoundsError, Result};
use crate::hoeffding::hoeffding_sample_size;
use crate::numeric::bisect;
use crate::tail::Tail;
use std::cell::Cell;
use std::collections::HashMap;

/// State of one minimal-`n` inversion at a fixed `(ε, δ, tail)`: the
/// per-family maximizing jump indices threaded across probes and the
/// memoized reference acceptance scans.
struct InversionContext {
    eps: f64,
    delta: f64,
    tail: Tail,
    /// Per-family maximizing jump indices carried across successive
    /// probes, so each breakpoint climb starts from the previous
    /// probe's argmax of *its own* family (~2–3 tail evaluations)
    /// instead of a fresh walk-in.
    jump: JumpHint,
    /// Breakpoint-exact reference scans backing the sawtooth acceptance.
    reference: HashMap<u64, f64>,
    /// `(n, hint)` of the most recent reference scan, carried into the
    /// next one when it probes a nearby size. The acceptance window
    /// walks consecutive sizes, so the maximizer fraction barely drifts
    /// — but a far-off warm start can settle short of the sup, so the
    /// carry is gated to `|n − last_n| ≤ 8` and the scan starts cold
    /// otherwise.
    ref_jump: Option<(u64, JumpHint)>,
}

impl InversionContext {
    /// Validates `eps` and `delta` and builds an empty context.
    fn new(eps: f64, delta: f64, tail: Tail) -> Result<Self> {
        check_positive("eps", eps)?;
        if eps >= 1.0 {
            return Err(BoundsError::ToleranceExceedsRange {
                epsilon: eps,
                range: 1.0,
            });
        }
        check_probability("delta", delta)?;
        Ok(InversionContext {
            eps,
            delta,
            tail,
            jump: JumpHint::cold(),
            reference: HashMap::new(),
            ref_jump: None,
        })
    }

    /// Does the worst-case deviation at `n` exceed `δ`? The hinted
    /// search exits early once it does, so its value is only decisive
    /// against this `δ`.
    fn exceeds(&mut self, n: u64) -> bool {
        let (worst, _, next) =
            worst_case_deviation_jump(n, self.eps, self.tail, self.jump, Some(self.delta));
        self.jump = next;
        worst > self.delta
    }

    /// Memoized breakpoint-exact reference scan (the acceptance
    /// criterion), warm-started from the previous scan's maximizing
    /// jump indices when that scan probed a nearby size. Within the
    /// `≤ 8` carry window the climb resumes inside the plateau sweep
    /// of its own argmax, so it reaches the same supremum as a cold
    /// [`worst_case_deviation_tail`] — bit-identity the
    /// `reference_scan_warm_carry_is_bit_identical` proptest pins.
    fn reference_worst(&mut self, n: u64) -> f64 {
        if let Some(&worst) = self.reference.get(&n) {
            return worst;
        }
        let hint = match self.ref_jump {
            Some((last_n, hint)) if n.abs_diff(last_n) <= 8 => hint,
            _ => JumpHint::cold(),
        };
        let (worst, _, next) = worst_case_deviation_jump(n, self.eps, self.tail, hint, None);
        self.ref_jump = Some((n, next));
        self.reference.insert(n, worst);
        worst
    }

    /// Smallest `n` whose worst case (and that of the next few sizes)
    /// stays within `δ`.
    fn invert(&mut self) -> Result<u64> {
        // Upper bracket: Hoeffding is a valid (conservative) answer.
        let hoeffding = hoeffding_sample_size(1.0, self.eps, self.delta, self.tail)?;
        if self.reference_worst(hoeffding) > self.delta {
            // Sawtooth pushed the boundary past Hoeffding (extremely
            // rare); fall back to the conservative answer.
            return Ok(hoeffding);
        }

        // Galloping bracket: start from a cheap lower bound (the exact
        // answer sits above ~0.7x Hoeffding empirically; 0.55x leaves
        // margin) and double the step until the constraint flips.
        let mut lo = 1;
        let mut hi = hoeffding;
        let start = ((hoeffding as f64 * 0.55) as u64).clamp(1, hoeffding);
        if self.exceeds(start) {
            lo = start + 1;
            let mut step = (hoeffding / 64).max(16);
            let mut at = start;
            loop {
                let next = at.saturating_add(step).min(hoeffding);
                if next >= hoeffding {
                    break;
                }
                if self.exceeds(next) {
                    lo = next + 1;
                    at = next;
                    step = step.saturating_mul(2);
                } else {
                    hi = next;
                    break;
                }
            }
        } else {
            hi = start;
        }

        // Binary search on the bracket with warm-started probes.
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.exceeds(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(self.accept_from(lo))
    }

    /// Patch the sawtooth: step forward from `from` until a run of
    /// consecutive sizes all satisfy the constraint (so slightly larger
    /// testsets remain valid). Acceptance uses the breakpoint-exact
    /// reference scan, memoized so a window that reaches the Hoeffding
    /// bracket re-uses its scan.
    fn accept_from(&mut self, from: u64) -> u64 {
        let mut n = from;
        'outer: loop {
            for offset in 0..8u64 {
                if self.reference_worst(n + offset) > self.delta {
                    n += offset + 1;
                    continue 'outer;
                }
            }
            return n;
        }
    }
}

/// Smallest sample size `n` such that the *exact* binomial deviation
/// probability is at most `delta` for every possible true mean `p`.
///
/// Always at most the Hoeffding sample size (which caps the bracket of
/// the search); typically 10–30 % smaller.
///
/// The worst-case probability is not perfectly monotone in `n` (integer
/// cut-offs create a sawtooth), so after the bracketed binary search the
/// result is patched by a short linear scan to the first `n` whose *next
/// few* neighbours also satisfy the constraint — the patch re-checks with
/// the breakpoint-exact reference scan, so the warm-started fast probes
/// only ever decide *where to look*, never what to accept.
///
/// A whole `(ε, δ)` table is one call per cell; the cells share no
/// search state, so a caller may fan them out across threads freely.
///
/// # Errors
///
/// Returns an error for invalid `eps`/`delta` or if the search fails to
/// bracket (cannot happen while Hoeffding itself is finite).
///
/// # Examples
///
/// ```
/// use easeml_bounds::{exact_binomial_sample_size, hoeffding_sample_size, Tail};
///
/// # fn main() -> Result<(), easeml_bounds::BoundsError> {
/// let exact = exact_binomial_sample_size(0.05, 0.001, Tail::TwoSided)?;
/// let hoeff = hoeffding_sample_size(1.0, 0.05, 0.001, Tail::TwoSided)?;
/// assert!(exact < hoeff);
/// # Ok(())
/// # }
/// ```
pub fn exact_binomial_sample_size(eps: f64, delta: f64, tail: Tail) -> Result<u64> {
    InversionContext::new(eps, delta, tail)?.invert()
}

/// Exact Clopper–Pearson style confidence half-width: smallest `ε` such
/// that `n` samples give `Pr[|p̂ − p| > ε] ≤ δ` for every `p`.
///
/// This is the exact counterpart of [`crate::hoeffding_epsilon`].
///
/// # Errors
///
/// Returns an error for a zero sample size or invalid `delta`.
pub fn exact_binomial_epsilon(n: u64, delta: f64, tail: Tail) -> Result<f64> {
    check_probability("delta", delta)?;
    if n == 0 {
        return Err(BoundsError::ZeroSampleSize);
    }
    // worst(eps) decreases in eps; find the crossing with delta. The
    // maximizing jump indices move slowly with eps (n is fixed), so
    // each bisection iteration warm-starts each family's climb from the
    // previous iteration's argmax.
    let hint = Cell::new(JumpHint::cold());
    let eps = bisect(
        |e| {
            let (worst, _, next) = worst_case_deviation_jump(n, e, tail, hint.get(), None);
            hint.set(next);
            worst - delta
        },
        1e-9,
        1.0 - 1e-9,
        1e-9,
        200,
    )?;
    // Round outward so the returned tolerance is guaranteed valid, and
    // certify with the breakpoint-exact reference scan (the warm-started
    // probe inside the bisection can early-exit on a lower bound, so the
    // crossing it finds can sit marginally below the true one; the
    // doubling nudge terminates in at most ~60 scans and almost always
    // passes on the first).
    let mut out = (eps + 2e-9).min(1.0);
    let mut bump = 2e-9;
    while out < 1.0 && worst_case_deviation_tail(n, out, tail) > delta {
        out = (out + bump).min(1.0);
        bump *= 2.0;
    }
    Ok(out)
}

/// Exact deviation probability for a *known* true mean — used by the
/// Monte-Carlo validation harness to compare empirical quantiles with the
/// analytic prediction.
pub fn exact_deviation_at(n: u64, p: f64, eps: f64) -> f64 {
    deviation_probability(n, p, eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::worst_case_deviation;

    #[test]
    fn exact_beats_hoeffding() {
        for &(eps, delta) in &[(0.1, 0.01), (0.05, 0.001), (0.05, 0.0001)] {
            let exact = exact_binomial_sample_size(eps, delta, Tail::TwoSided).unwrap();
            let hoeff = hoeffding_sample_size(1.0, eps, delta, Tail::TwoSided).unwrap();
            assert!(
                exact <= hoeff,
                "eps={eps} delta={delta}: {exact} vs {hoeff}"
            );
            // Tight bounds save a visible margin.
            assert!(
                (exact as f64) < (hoeff as f64) * 0.95,
                "eps={eps} delta={delta}: {exact} vs {hoeff}"
            );
        }
    }

    #[test]
    fn exact_answer_is_actually_valid() {
        let eps = 0.1;
        let delta = 0.01;
        let n = exact_binomial_sample_size(eps, delta, Tail::TwoSided).unwrap();
        assert!(worst_case_deviation(n, eps) <= delta * 1.0001);
    }

    #[test]
    fn exact_answer_is_minimal_up_to_sawtooth() {
        let eps = 0.1;
        let delta = 0.01;
        let n = exact_binomial_sample_size(eps, delta, Tail::TwoSided).unwrap();
        // A clearly smaller testset must violate the constraint.
        assert!(worst_case_deviation(n / 2, eps) > delta);
    }

    #[test]
    fn answers_are_tight_not_just_valid() {
        // The galloping bracket and warm-started probes must not drift
        // the result upward: a modestly smaller n must already violate
        // the constraint (checked against the exact worst case).
        for &(eps, delta) in &[(0.1, 0.01), (0.05, 0.01), (0.08, 0.001)] {
            let n = exact_binomial_sample_size(eps, delta, Tail::TwoSided).unwrap();
            let shrunk = (n as f64 * 0.97) as u64;
            assert!(
                worst_case_deviation(shrunk, eps) > delta,
                "eps={eps} delta={delta}: n={n} is not tight (n*0.97 still valid)"
            );
        }
    }

    #[test]
    fn one_sided_needs_fewer_samples() {
        let one = exact_binomial_sample_size(0.1, 0.01, Tail::OneSided).unwrap();
        let two = exact_binomial_sample_size(0.1, 0.01, Tail::TwoSided).unwrap();
        assert!(one <= two);
    }

    #[test]
    fn one_sided_answer_is_valid_and_tight() {
        let eps = 0.07;
        let delta = 0.005;
        let n = exact_binomial_sample_size(eps, delta, Tail::OneSided).unwrap();
        // Validity is breakpoint-exact: the acceptance scan enumerates
        // cut-off jumps instead of a grid.
        assert!(worst_case_deviation_tail(n, eps, Tail::OneSided) <= delta);
        assert!(worst_case_deviation_tail(n / 2, eps, Tail::OneSided) > delta);
    }

    #[test]
    fn epsilon_inverts_sample_size() {
        let n = exact_binomial_sample_size(0.08, 0.01, Tail::TwoSided).unwrap();
        let eps = exact_binomial_epsilon(n, 0.01, Tail::TwoSided).unwrap();
        assert!(eps <= 0.08 + 5e-3, "eps = {eps}");
        assert!(eps >= 0.04, "eps = {eps}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(exact_binomial_sample_size(0.0, 0.01, Tail::TwoSided).is_err());
        assert!(exact_binomial_sample_size(1.0, 0.01, Tail::TwoSided).is_err());
        assert!(exact_binomial_sample_size(0.1, 0.0, Tail::TwoSided).is_err());
        assert!(exact_binomial_epsilon(0, 0.01, Tail::TwoSided).is_err());
    }
}
