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
//! Such a direct sum is resumable (`TailSum`): it can stop after any
//! term and go on later, with the same operations in the same order, so
//! a sum finished late has the bits of one summed at once. Part-way
//! through, the float it will finish at is bounded on both sides:
//!
//! * below by the partial sum — adding a non-negative float never lowers
//!   a float sum;
//! * above by the partial sum plus twice the geometric remainder
//!   `term·q/(1−q)` at the next term ratio `q` — past the mode the
//!   ratios only fall (and rounding keeps them falling), and a rounded
//!   addition overshoots its exact sum by at most the term it adds.
//!
//! The breakpoint climbs compare *candidates*, the probability of one or
//! two such tails, through these bounds: as `exp(lead)·Σ w·sum`, the
//! tails' sums weighted by their boundary pmfs, which needs no `ln` or
//! `exp` per check. The bounds are widened by a relative slack of 1e-12
//! for the rounding of the final `ln`/`exp` steps (a finished float
//! strays at most ~2.5e-13 from that form while it is below ¼ and in
//! `exp`'s normal range; outside that range a candidate is summed
//! further until its bounds show it inside, or to the end). A candidate
//! is summed further — its bound checked every 8 terms — only while its
//! comparison with the climb's current or best candidate, or with `δ`,
//! is undecided, and to the end only on a near-tie (a relative gap below
//! 1.6e-11) or when a caller reads its value ([`worst_case_deviation_tail`],
//! [`worst_case_deviation_jump`], [`crate::exact_binomial_epsilon`]).
//! Every decision is therefore the one the finished floats make: the
//! climbs visit the same candidates, carry the same [`JumpHint`]s and
//! return the same bits as summing every candidate to the end, while the
//! minimal-`n` search, which asks only whether a worst case exceeds `δ`,
//! sums about half the pmf terms (at `n` = 251,781 and `ε` = 0.01 a tail
//! needs 778 terms to finish but only 165/321/470 to settle to
//! 1e-3/1e-6/1e-9).
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
use std::cmp::Ordering;

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

/// Relative slack by which a candidate's bounds are widened on each side
/// of a comparison.
///
/// The bounds on a partial [`TailSum`] hold for the float it finishes at,
/// and a candidate is compared through the linear form
/// `exp(lead)·(w_u·S_u + w_l·S_l)` of its sums (see [`Candidate`]). The
/// finished probability puts those floats through `ln`, an addition to
/// the boundary log-pmf, [`log_add_exp`] and `exp`, each off by up to an
/// ulp; while the probability is below ¼ and in `exp`'s normal range
/// (log-domain values `|L| < 745`, an ulp ≤ 1.2e-13) that moves it at
/// most ~2.5e-13 (relative) from the exact form, and the weights, the
/// scale between two candidates and the form's own roundings add ~2e-13
/// more. 1e-12 covers the ~4.5e-13 twice over.
const VALUE_SLACK: f64 = 1e-12;

/// Relative precision below which a comparison is a near-tie and both
/// candidates are summed to the end: the bounds cannot separate values
/// closer than the slack on each side.
const FINISH_BELOW: f64 = 16.0 * VALUE_SLACK;

/// Terms a partial sum adds between two checks of its remainder bound.
const CHECK_EVERY: u32 = 8;

/// Inflation that keeps a bound computed in floating point on the safe
/// side of the exact quantity it bounds (a few roundings, 2⁻⁵³ each).
const ROUND_UP: f64 = 1.0 + 8.0 * f64::EPSILON;

/// A direct tail sum `Σ pmf(i)/pmf(k)` down the monotone side of the mode,
/// resumable term by term.
///
/// The ratio `(n−i)/(i+1)` (upper) or `i/(n−i+1)` (lower) is carried as
/// two integer counters, each converted to `f64` for every term: exact
/// for `n < 2⁵³`, so every term sees the same operands as one computed
/// from `i`. (`f64` counters stepped by ±1.0 give the same bits, but the
/// compiler may pack a counter's step with the sum's addition into one
/// vector add, which puts the next ratio's division behind the running
/// sum and makes the loop several times slower.) Summing in steps
/// ([`TailSum::refine`]) performs the same operations in the same order
/// as summing at once ([`TailSum::finish`]), so a tail finished late has
/// the same bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TailSum {
    /// Log-pmf of the boundary term, which the sum is relative to.
    ln_base: f64,
    /// `p/(1−p)` for an upper tail, `(1−p)/p` for a lower one.
    odds: f64,
    /// The last term added, relative to the boundary term.
    term: f64,
    /// The partial sum, relative to the boundary term.
    sum: f64,
    /// Numerator and denominator of the next term's ratio.
    num: i64,
    den: i64,
    /// The ratio of the last term added (before the first, of the first
    /// term to add): every later ratio is at most this.
    ratio: f64,
    /// The sum has stopped: it is the float the eager loop returns.
    done: bool,
    /// [`TailSum::sum_hi`] as of the last step.
    hi: f64,
}

impl TailSum {
    /// Upper tail `Pr[X >= k]`; requires `1 <= k <= n`, `0 < p < 1`, and
    /// `k` above the mode, so the terms are non-increasing.
    fn upper(n: u64, p: f64, k: u64) -> TailSum {
        TailSum::start(
            ln_pmf(n, p, k),
            p / (1.0 - p),
            (n - k) as i64,
            (k + 1) as i64,
        )
    }

    /// Lower tail `Pr[X <= k]`; requires `k < n`, `0 < p < 1`, and `k`
    /// below the mode.
    fn lower(n: u64, p: f64, k: u64) -> TailSum {
        TailSum::start(ln_pmf(n, p, k), (1.0 - p) / p, k as i64, (n - k + 1) as i64)
    }

    fn start(ln_base: f64, odds: f64, num: i64, den: i64) -> TailSum {
        let mut sum = TailSum {
            ln_base,
            odds,
            term: 1.0,
            sum: 1.0,
            num,
            den,
            ratio: num as f64 / den as f64 * odds,
            done: false,
            hi: f64::INFINITY,
        };
        sum.hi = sum.sum_hi();
        sum
    }

    /// Sums the rest of the tail and returns its log.
    fn finish(&mut self) -> f64 {
        if self.done {
            return self.ln_at(self.sum);
        }
        let TailSum {
            odds,
            mut term,
            mut sum,
            mut num,
            mut den,
            ..
        } = *self;
        #[cfg(test)]
        let before = num;
        while num > 0 {
            term *= num as f64 / den as f64 * odds;
            sum += term;
            // Past the mode the ratio is < 1 and decreasing: geometric decay.
            if term <= sum * 1e-17 {
                num -= 1;
                break;
            }
            num -= 1;
            den += 1;
        }
        #[cfg(test)]
        tests::count_terms((before - num) as u64);
        *self = TailSum {
            term,
            sum,
            num,
            den,
            done: true,
            hi: sum,
            ..*self
        };
        self.ln_at(sum)
    }

    /// Sums on until the upper bound on the finished sum is within `tol`
    /// (relative) of the partial sum, or the sum stops. Returns whether
    /// any term was added.
    fn refine(&mut self, tol: f64) -> bool {
        if self.done {
            return false;
        }
        let TailSum {
            odds,
            mut term,
            mut sum,
            mut num,
            mut den,
            ..
        } = *self;
        let before = num;
        let mut done = false;
        let mut ratio = self.ratio;
        'sum: loop {
            let q = ratio * ROUND_UP;
            if q < 1.0 && 2.0 * term * q <= tol * sum * (1.0 - q) {
                break;
            }
            for _ in 0..CHECK_EVERY {
                if num <= 0 {
                    done = true;
                    break 'sum;
                }
                ratio = num as f64 / den as f64 * odds;
                term *= ratio;
                sum += term;
                if term <= sum * 1e-17 {
                    num -= 1;
                    done = true;
                    break 'sum;
                }
                num -= 1;
                den += 1;
            }
        }
        #[cfg(test)]
        tests::count_terms((before - num) as u64);
        *self = TailSum {
            term,
            sum,
            num,
            den,
            ratio,
            done,
            ..*self
        };
        self.hi = self.sum_hi();
        num != before
    }

    /// The log-tail a finished sum `sum` stands for.
    fn ln_at(&self, sum: f64) -> f64 {
        (self.ln_base + sum.ln()).min(0.0)
    }

    /// Upper bound on the float the sum finishes at. Every later ratio is
    /// at most the last one (the exact ratios fall past the mode and
    /// rounding is monotone), so every later term is at most
    /// `term·qᵐ` with `q` that ratio rounded up, and their total at most
    /// `term·q/(1−q)`; a rounded addition overshoots its exact sum by at
    /// most the term it adds, hence the 2.
    fn sum_hi(&self) -> f64 {
        if self.done {
            return self.sum;
        }
        let q = self.ratio * ROUND_UP;
        if q >= 1.0 {
            return f64::INFINITY;
        }
        (self.sum + 2.0 * (self.term * q / (1.0 - q))) * ROUND_UP
    }
}

/// A log-tail that is either known or a direct sum still being summed.
#[derive(Debug, Clone, Copy)]
enum LnTail {
    Known(f64),
    Summing(TailSum),
}

impl LnTail {
    /// [`ln_upper_tail`]'s dispatch, with a direct sum left unsummed.
    fn upper(n: u64, p: f64, k: u64) -> LnTail {
        if k == 0 {
            LnTail::Known(0.0) // Pr[X >= 0] = 1
        } else if k > n || p == 0.0 {
            LnTail::Known(f64::NEG_INFINITY) // k > n, or k >= 1 but X = 0 a.s.
        } else if p == 1.0 {
            LnTail::Known(0.0) // X = n >= k a.s.
        } else if k > mode(n, p) {
            LnTail::Summing(TailSum::upper(n, p, k))
        } else {
            // k >= 1 here, and k <= mode implies mode >= 1, so k-1 is a
            // valid lower-tail boundary strictly below the mode.
            let lower = TailSum::lower(n, p, k - 1).finish();
            LnTail::Known(log1m_exp(lower.min(0.0)))
        }
    }

    /// [`ln_lower_tail`]'s dispatch, with a direct sum left unsummed.
    fn lower(n: u64, p: f64, k: u64) -> LnTail {
        if k >= n || p == 0.0 {
            LnTail::Known(0.0) // k >= n, or X = 0 a.s.
        } else if p == 1.0 {
            LnTail::Known(f64::NEG_INFINITY) // X = n > k a.s.
        } else if k < mode(n, p) {
            LnTail::Summing(TailSum::lower(n, p, k))
        } else {
            // k >= mode and k < n, so k+1 is a valid upper boundary above
            // the mode.
            let upper = TailSum::upper(n, p, k + 1).finish();
            LnTail::Known(log1m_exp(upper.min(0.0)))
        }
    }

    fn finish(&mut self) -> f64 {
        match self {
            LnTail::Known(ln) => *ln,
            LnTail::Summing(sum) => {
                let ln = sum.finish();
                *self = LnTail::Known(ln);
                ln
            }
        }
    }

    fn known(&self) -> Option<f64> {
        match *self {
            LnTail::Known(ln) => Some(ln),
            LnTail::Summing(sum) if sum.done => Some(sum.ln_at(sum.sum)),
            LnTail::Summing(_) => None,
        }
    }

    /// The log-pmf a sum is relative to; a known tail is its own base.
    fn ln_base(&self) -> f64 {
        match self {
            LnTail::Known(ln) => *ln,
            LnTail::Summing(sum) => sum.ln_base,
        }
    }

    /// Bounds on the finished sum relative to [`LnTail::ln_base`].
    fn sums(&self) -> (f64, f64) {
        match self {
            LnTail::Known(_) => (1.0, 1.0),
            LnTail::Summing(sum) => (sum.sum, sum.hi),
        }
    }
}

/// Log of the upper tail `Pr[X >= k]` for `X ~ Binomial(n, p)`.
///
/// Boundaries at or above the mode sum directly; boundaries below the
/// mode (where the direct sum would grow through the mode) evaluate the
/// complement `1 − Pr[X <= k−1]`, which is well-conditioned there because
/// the result is large.
pub fn ln_upper_tail(n: u64, p: f64, k: u64) -> f64 {
    LnTail::upper(n, p, k).finish()
}

/// Log of the lower tail `Pr[X <= k]` for `X ~ Binomial(n, p)`.
pub fn ln_lower_tail(n: u64, p: f64, k: u64) -> f64 {
    LnTail::lower(n, p, k).finish()
}

/// One breakpoint candidate of a worst-case climb: the probability
/// `min(1, exp(upper) + exp(lower))` of its two log-tails, summed only as
/// far as the comparisons it takes part in need. A one-sided candidate's
/// lower tail is `ln 0 = −∞`.
///
/// While a tail is summing, the candidate is compared through the linear
/// form `exp(lead) · (w_u·S_u + w_l·S_l)`: each tail's partial sum `S`
/// (or its upper bound) weighted by `w = exp(ln_base − lead)`, with
/// `lead` the larger boundary log-pmf. The form needs no `ln`/`exp` per
/// check, and it is within [`VALUE_SLACK`] of the finished float as long
/// as that float is neither clamped at 1 nor below `exp`'s normal range;
/// a candidate is decided this way only once its bounds show it is
/// [`Candidate::regular`], and is summed further otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    tails: [LnTail; 2],
    weights: [f64; 2],
    lead: f64,
    /// `exp(lead)`, which turns the linear form into a probability.
    scale: f64,
}

impl Candidate {
    fn new(upper: LnTail, lower: LnTail) -> Candidate {
        let lead = upper.ln_base().max(lower.ln_base());
        let weight = |tail: LnTail| match tail.ln_base() {
            base if base == lead => 1.0,
            base => (base - lead).exp(),
        };
        Candidate {
            tails: [upper, lower],
            weights: [weight(upper), weight(lower)],
            lead,
            scale: lead.exp(),
        }
    }

    /// The one-sided candidate `Pr_p[X ≥ k]`.
    pub(crate) fn one_sided(n: u64, p: f64, k: u64) -> Candidate {
        Candidate::new(LnTail::upper(n, p, k), LnTail::Known(f64::NEG_INFINITY))
    }

    /// The two-sided candidate `Pr_p[X ≥ hi_cut] + Pr_p[X ≤ lo_cut]`; a
    /// cut-off outside `[0, n]` contributes nothing.
    pub(crate) fn two_sided(n: u64, p: f64, hi_cut: i128, lo_cut: i128) -> Candidate {
        let upper = if hi_cut > n as i128 {
            LnTail::Known(f64::NEG_INFINITY)
        } else {
            LnTail::upper(n, p, hi_cut as u64)
        };
        let lower = if lo_cut < 0 {
            LnTail::Known(f64::NEG_INFINITY)
        } else {
            LnTail::lower(n, p, lo_cut as u64)
        };
        Candidate::new(upper, lower)
    }

    fn probability(upper: f64, lower: f64) -> f64 {
        log_add_exp(upper, lower).exp().min(1.0)
    }

    /// The candidate's probability, summed to the end.
    pub(crate) fn value(&mut self) -> f64 {
        let [upper, lower] = &mut self.tails;
        Candidate::probability(upper.finish(), lower.finish())
    }

    /// The probability, if both tails are summed.
    fn exact(&self) -> Option<f64> {
        let [upper, lower] = &self.tails;
        Some(Candidate::probability(upper.known()?, lower.known()?))
    }

    /// Bounds on the linear form's sum `w_u·S_u + w_l·S_l`.
    fn linear(&self) -> (f64, f64) {
        let (mut lo, mut hi) = (0.0, 0.0);
        for (tail, weight) in self.tails.iter().zip(self.weights) {
            let (sum_lo, sum_hi) = tail.sums();
            lo += weight * sum_lo;
            hi += weight * sum_hi;
        }
        (lo, hi)
    }

    /// Is the finished probability surely below 1/4 and in `exp`'s normal
    /// range, where the linear form is within [`VALUE_SLACK`] of it? (Its
    /// tails are then below 1/4 too, so no log-tail is clamped at 0.)
    fn regular(&self, (lo, hi): (f64, f64)) -> bool {
        self.scale * hi < 0.25 && self.scale * lo > 1e-290
    }

    /// Sums on until the linear form's relative width is about `tol`:
    /// each tail to its share of it. Below [`FINISH_BELOW`], or if no
    /// tail needs another term, sums both to the end.
    fn refine(&mut self, tol: f64) {
        if tol >= FINISH_BELOW {
            let (total, _) = self.linear();
            let mut moved = false;
            for (tail, weight) in self.tails.iter_mut().zip(self.weights) {
                if let LnTail::Summing(sum) = tail {
                    moved |= sum.refine(0.5 * tol * total / (weight * sum.sum));
                }
            }
            if moved {
                return;
            }
        }
        self.value();
    }
}

/// Relative width `(hi − lo)/lo` of a bound pair.
fn rel_width((lo, hi): (f64, f64)) -> f64 {
    (hi - lo) / lo
}

/// The tolerance a refinement round aims at: half the relative
/// gap it has to resolve, and at least a hundredfold narrowing per round.
/// A gap below [`FINISH_BELOW`] is a near-tie once the bounds are that
/// narrow too (0 asks for the sum to the end); until then it may be an
/// artefact of wide bounds, so they are narrowed first.
fn next_tol(width: f64, gap: f64) -> f64 {
    let narrow = width * 1e-2;
    let gap = if gap.is_finite() { gap * 0.5 } else { narrow };
    if gap >= FINISH_BELOW {
        gap.min(narrow).max(FINISH_BELOW)
    } else if narrow >= FINISH_BELOW {
        narrow
    } else {
        0.0
    }
}

/// How a candidate compares with a finished float `value`, decided as the
/// candidate's finished float would compare: it is summed further until
/// its bounds clear `value` by the slack, or to the end.
fn compare_to(a: &mut Candidate, value: f64) -> Ordering {
    // `value` on the scale of a's linear form.
    let scaled = value * (-a.lead).exp();
    loop {
        if let Some(own) = a.exact() {
            return own.partial_cmp(&value).expect("probabilities are not NaN");
        }
        let (lo, hi) = a.linear();
        let decided = if lo * (1.0 - VALUE_SLACK) > scaled {
            Some(Ordering::Greater)
        } else if hi * (1.0 + VALUE_SLACK) < scaled {
            Some(Ordering::Less)
        } else {
            None
        };
        let width = rel_width((lo, hi));
        match decided {
            Some(order) if a.regular((lo, hi)) => return order,
            // Narrow until the bounds show the form applies.
            Some(_) => a.refine(width * 1e-2),
            None => {
                let mid = 0.5 * (lo + hi);
                a.refine(next_tol(width, (mid - scaled).abs() / mid.max(scaled)));
            }
        }
    }
}

/// Is `a > b`? Decided as the finished floats decide it: the wider of the
/// two is summed further until their bounds separate by the slack, or
/// both are exact.
fn greater(a: &mut Candidate, b: &mut Candidate) -> bool {
    // b's linear form on the scale of a's.
    let scale = (b.lead - a.lead).exp();
    loop {
        match (a.exact(), b.exact()) {
            (Some(a), Some(b)) => return a > b,
            (Some(a), None) => return compare_to(b, a) == Ordering::Less,
            (None, Some(b)) => return compare_to(a, b) == Ordering::Greater,
            (None, None) => {}
        }
        let (a_lo, a_hi) = a.linear();
        let b_linear = b.linear();
        let (b_lo, b_hi) = (b_linear.0 * scale, b_linear.1 * scale);
        let decided = if a_lo * (1.0 - VALUE_SLACK) > b_hi * (1.0 + VALUE_SLACK) {
            Some(true)
        } else if a_hi * (1.0 + VALUE_SLACK) < b_lo * (1.0 - VALUE_SLACK) {
            Some(false)
        } else {
            None
        };
        let (a_width, b_width) = (rel_width((a_lo, a_hi)), rel_width((b_lo, b_hi)));
        let a_regular = a.regular((a_lo, a_hi));
        match decided {
            Some(greater) if a_regular && b.regular(b_linear) => return greater,
            // Narrow until the bounds show the form applies.
            Some(_) if !a_regular => a.refine(a_width * 1e-2),
            Some(_) => b.refine(b_width * 1e-2),
            None => {
                let (a_mid, b_mid) = (0.5 * (a_lo + a_hi), 0.5 * (b_lo + b_hi));
                let gap = (a_mid - b_mid).abs() / a_mid.max(b_mid);
                if a_width >= b_width {
                    a.refine(next_tol(a_width, gap));
                } else {
                    b.refine(next_tol(b_width, gap));
                }
            }
        }
    }
}

/// Is `a > limit`? Decided as the finished float decides it.
pub(crate) fn above(a: &mut Candidate, limit: f64) -> bool {
    compare_to(a, limit) == Ordering::Greater
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
/// found by a hill-climb over the jump index, hardened by a
/// ±`JUMP_PLATEAU` window sweep against small sawtooth ripples. The
/// climb seeds at the Chernoff argmax `p ≈ ½ − ε/3`
/// (`one_sided_cold_fraction`), a few jump indices from the sup, so
/// a cold scan costs ~10–20 `O(√n)` tail evaluations at serving sizes.
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
/// `None` means cold: the one-sided family seeds at the Chernoff
/// argmax (`one_sided_cold_fraction`); the two-sided families seed
/// at the centre `p ≈ 0.5`.
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
    /// Cold start: each climb seeds from its family's default — the
    /// Chernoff argmax `p ≈ ½ − ε/3` for the one-sided family
    /// (`one_sided_cold_fraction`), the centre `p ≈ 0.5` for both
    /// two-sided families (whose candidates sum both tails and are
    /// symmetric about ½).
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

/// Cold-start jump fraction `j/n = ½ + 2ε/3` of the one-sided
/// breakpoint climb, i.e. the breakpoint `p_j = j/n − ε = ½ − ε/3`.
///
/// By Chernoff, `Pr_p[X/n > p + ε] ≈ exp(−n·KL(p + ε ‖ p))`, so for the
/// sizes the inversions probe the candidate envelope peaks where
/// `g(p) = KL(p + ε ‖ p)` is smallest. Expanding,
/// `g(p) = ε²/(2p(1−p)) − ε³(1−2p)/(6p²(1−p)²) + O(ε⁴)`; with
/// `p = ½ + t` this is `2ε²(1 + 4t²) + (16/3)ε³t + …`, whose
/// minimum sits at `t* = −ε/3` to leading order. Numerically the exact
/// minimizer is `½ − 0.3333 ε` at `ε = 0.01` and `½ − 0.3358 ε` at
/// `ε = 0.2`. A centre seed `p = ½` would leave a cold climb ~`nε/3`
/// jump indices to walk, one tail evaluation each (hundreds at serving
/// sizes), and at large `ε` can start it on a plateau where every tail
/// underflows to zero, so the climb stops at once with a zero sup.
pub(crate) fn one_sided_cold_fraction(eps: f64) -> f64 {
    0.5 + 2.0 * eps / 3.0
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
    one_sided_scan(n, eps, hint, stop_above).finish()
}

/// The one-sided climb with its best candidate left unfinished.
fn one_sided_scan(n: u64, eps: f64, hint: JumpHint, stop_above: Option<f64>) -> Scan {
    debug_assert!(n > 0);
    debug_assert!(eps > 0.0 && eps < 1.0);
    let nf = n as f64;
    // Smallest jump index with p_j = j/n − ε > 0. When n·ε is (near-)
    // integral the snap convention puts the first positive breakpoint
    // one index higher.
    let j_min = (strict_upper_cutoff(nf * eps).max(1) as u64).min(n);
    let p_at = |j: u64| (j as f64 / nf - eps).clamp(f64::MIN_POSITIVE, 1.0);
    let start = JumpHint::start_index(hint.upper, nf, one_sided_cold_fraction(eps));
    let (best, best_j) = climb_envelope(j_min, n, start, JUMP_PLATEAU, stop_above, |j| {
        Candidate::one_sided(n, p_at(j), j)
    });
    Scan {
        upper: (best, p_at(best_j)),
        lower: None,
        next: JumpHint {
            upper: Some(best_j as f64 / nf),
            lower: hint.lower,
        },
    }
}

/// Outcome of one hinted breakpoint scan: each climbed family's best
/// candidate (not yet summed to the end) with its breakpoint, and the
/// hint for the next scan.
pub(crate) struct Scan {
    /// Best of the upper-tail family (the one-sided scan's only family).
    pub(crate) upper: (Candidate, f64),
    /// Best of the lower-tail family, when a two-sided scan climbed it.
    pub(crate) lower: Option<(Candidate, f64)>,
    pub(crate) next: JumpHint,
}

impl Scan {
    /// `(sup, p_star, next_hint)`: the larger family best, summed to the
    /// end.
    pub(crate) fn finish(self) -> (f64, f64, JumpHint) {
        let (mut best, mut p_star) = self.upper;
        if let Some((mut lower, p_lower)) = self.lower {
            if greater(&mut lower, &mut best) {
                best = lower;
                p_star = p_lower;
            }
        }
        (best.value(), p_star, self.next)
    }

    /// Does the scanned sup exceed `delta`? Each family best is summed
    /// only until its comparison with `delta` is decided.
    fn exceeds(&mut self, delta: f64) -> bool {
        above(&mut self.upper.0, delta)
            || self
                .lower
                .as_mut()
                .is_some_and(|(lower, _)| above(lower, delta))
    }
}

/// Dispatches a hinted breakpoint scan on the tail convention.
fn scan(n: u64, eps: f64, tail: Tail, hint: JumpHint, stop_above: Option<f64>) -> Scan {
    match tail {
        Tail::OneSided => one_sided_scan(n, eps, hint, stop_above),
        Tail::TwoSided => crate::twosided::two_sided_scan(n, eps, hint, stop_above),
    }
}

/// The minimal-`n` search's question about one size: does the worst case
/// at `n` exceed `delta`, and where did each family's climb peak? With
/// `early_exit` the climbs stop at the first candidate above `delta`
/// (the bracketing probes); without it they run to their maximum (the
/// acceptance scans). The verdict is the one
/// `worst_case_deviation_jump(..).0 > delta` gives, but no tail is summed
/// further than that comparison needs.
pub(crate) fn jump_verdict(
    n: u64,
    eps: f64,
    tail: Tail,
    hint: JumpHint,
    delta: f64,
    early_exit: bool,
) -> (bool, JumpHint) {
    let mut scan = scan(n, eps, tail, hint, early_exit.then_some(delta));
    (scan.exceeds(delta), scan.next)
}

/// Hill-climb over a sawtooth candidate envelope on the inclusive index
/// range `[lo, hi]`, the search shared by the one-sided jump scan and
/// both families of the two-sided one ([`crate::twosided`]).
///
/// Starts from `start` (clamped into range; callers seed a cold climb at
/// their family's expected argmax — the Chernoff argmax for the
/// one-sided family, the centre `p ≈ 0.5` for the two-sided ones — or
/// at a carried [`JumpHint`]), builds each index's candidate once (a
/// climb step builds one new neighbour), and — because the envelope is
/// only unimodal *up to* sawtooth ripples — sweeps a ±`plateau` window
/// around every local maximum, resuming the climb from any strictly
/// better index. When `stop_above` is set, returns as soon as any probe
/// exceeds it (the result is then only a lower bound on the true
/// maximum). Returns the best candidate and its index.
///
/// Every comparison is decided as the finished candidate values would
/// decide it ([`greater`], [`above`]), so the climb visits the same
/// indices and returns the same candidate as one that sums each
/// candidate to the end; a candidate visited twice is summed once.
pub(crate) fn climb_envelope(
    lo: u64,
    hi: u64,
    start: i128,
    plateau: u64,
    stop_above: Option<f64>,
    candidate: impl FnMut(u64) -> Candidate,
) -> (Candidate, u64) {
    debug_assert!(lo <= hi);
    let mut climb = Climb {
        visited: Vec::with_capacity(32),
        candidate,
    };
    let mut center = start.clamp(lo as i128, hi as i128) as u64;
    let mut cur = climb.visit(center);
    let mut best = cur;
    let mut best_j = center;
    if let Some(limit) = stop_above {
        if climb.above(best, limit) {
            return climb.take(best, best_j);
        }
    }
    loop {
        loop {
            // `None` stands for an out-of-range neighbour, valued −∞.
            let left = (center > lo).then(|| climb.visit(center - 1));
            let right = (center < hi).then(|| climb.visit(center + 1));
            let left_le = left.is_none_or(|l| !climb.greater(l, cur));
            if left_le && right.is_none_or(|r| !climb.greater(r, cur)) {
                break;
            }
            let go_right = match (right, left) {
                (Some(r), Some(l)) => climb.greater(r, l),
                (right, _) => right.is_some(),
            };
            if go_right {
                center += 1;
                cur = right.expect("a right neighbour beats the left one");
            } else {
                center -= 1;
                cur = left.expect("a left neighbour beats the right one");
            }
            if climb.greater(cur, best) {
                best = cur;
                best_j = center;
                if let Some(limit) = stop_above {
                    if climb.above(best, limit) {
                        return climb.take(best, best_j);
                    }
                }
            }
        }
        // Plateau sweep: look a little further out on both sides; resume
        // climbing from any strictly better index.
        let mut improved = None;
        for d in 2..=plateau {
            for j in [center.saturating_sub(d).max(lo), (center + d).min(hi)] {
                let v = climb.visit(j);
                if climb.greater(v, best) {
                    best = v;
                    best_j = j;
                    improved = Some((j, v));
                    if let Some(limit) = stop_above {
                        if climb.above(best, limit) {
                            return climb.take(best, best_j);
                        }
                    }
                }
            }
        }
        match improved {
            Some((j, v)) => {
                center = j;
                cur = v;
            }
            None => return climb.take(best, best_j),
        }
    }
}

/// The candidates one [`climb_envelope`] run has built, by index.
struct Climb<F> {
    visited: Vec<(u64, Candidate)>,
    candidate: F,
}

impl<F: FnMut(u64) -> Candidate> Climb<F> {
    /// The slot of the candidate at jump index `j`, built on first visit.
    fn visit(&mut self, j: u64) -> usize {
        match self.visited.iter().position(|&(at, _)| at == j) {
            Some(slot) => slot,
            None => {
                #[cfg(test)]
                tests::ENVELOPE_EVALS.with(|count| count.set(count.get() + 1));
                self.visited.push((j, (self.candidate)(j)));
                self.visited.len() - 1
            }
        }
    }

    /// Is candidate `a` greater than candidate `b`?
    fn greater(&mut self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let (first, second) = self.visited.split_at_mut(a.max(b));
        let (low, high) = (&mut first[a.min(b)].1, &mut second[0].1);
        if a < b {
            greater(low, high)
        } else {
            greater(high, low)
        }
    }

    fn above(&mut self, a: usize, limit: f64) -> bool {
        above(&mut self.visited[a].1, limit)
    }

    fn take(self, best: usize, best_j: u64) -> (Candidate, u64) {
        (self.visited[best].1, best_j)
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
    scan(n, eps, tail, hint, stop_above).finish()
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

/// The eager climb the lazy [`climb_envelope`] must match bit for bit:
/// the same search over candidate values summed to the end.
#[cfg(test)]
pub(crate) fn climb_envelope_eager(
    lo: u64,
    hi: u64,
    start: i128,
    plateau: u64,
    stop_above: Option<f64>,
    mut value: impl FnMut(u64) -> f64,
) -> (f64, u64) {
    debug_assert!(lo <= hi);
    let mut value = |j: u64| {
        tests::ENVELOPE_EVALS.with(|count| count.set(count.get() + 1));
        value(j)
    };
    let mut center = start.clamp(lo as i128, hi as i128) as u64;
    let mut cur = value(center);
    let mut best = cur;
    let mut best_j = center;
    if let Some(limit) = stop_above {
        if best > limit {
            return (best, best_j);
        }
    }
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

/// The eager one-sided scan: [`worst_case_one_sided_jump`] with every
/// candidate summed to the end before it is compared.
#[cfg(test)]
pub(crate) fn worst_case_one_sided_jump_eager(
    n: u64,
    eps: f64,
    hint: JumpHint,
    stop_above: Option<f64>,
) -> (f64, f64, JumpHint) {
    let nf = n as f64;
    let j_min = (strict_upper_cutoff(nf * eps).max(1) as u64).min(n);
    let p_at = |j: u64| (j as f64 / nf - eps).clamp(f64::MIN_POSITIVE, 1.0);
    let start = JumpHint::start_index(hint.upper, nf, one_sided_cold_fraction(eps));
    let (best, best_j) = climb_envelope_eager(j_min, n, start, JUMP_PLATEAU, stop_above, |j| {
        ln_upper_tail(n, p_at(j), j).exp()
    });
    let next = JumpHint {
        upper: Some(best_j as f64 / nf),
        lower: hint.lower,
    };
    (best, p_at(best_j), next)
}

/// The eager scans' verdict, the reference for [`jump_verdict`].
#[cfg(test)]
pub(crate) fn jump_verdict_eager(
    n: u64,
    eps: f64,
    tail: Tail,
    hint: JumpHint,
    delta: f64,
    early_exit: bool,
) -> (bool, JumpHint) {
    let stop_above = early_exit.then_some(delta);
    let (worst, _, next) = match tail {
        Tail::OneSided => worst_case_one_sided_jump_eager(n, eps, hint, stop_above),
        Tail::TwoSided => {
            crate::twosided::worst_case_two_sided_jump_eager(n, eps, hint, stop_above)
        }
    };
    (worst > delta, next)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Candidates [`climb_envelope`] built on this thread (each is one
        /// `O(√n)` tail evaluation), or values [`climb_envelope_eager`]
        /// computed.
        pub(super) static ENVELOPE_EVALS: Cell<u64> = const { Cell::new(0) };
        /// Pmf terms summed by [`TailSum`]s on this thread.
        static PMF_TERMS: Cell<u64> = const { Cell::new(0) };
    }

    /// Adds `terms` (a whole number, as the sums' `f64` counters carry it)
    /// to [`PMF_TERMS`].
    pub(super) fn count_terms(terms: u64) {
        PMF_TERMS.with(|count| count.set(count.get() + terms));
    }

    /// Runs `f` and returns its result with the pmf terms it summed.
    pub(crate) fn counting_terms<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = PMF_TERMS.with(Cell::get);
        let out = f();
        (out, PMF_TERMS.with(Cell::get) - before)
    }

    /// Runs `f` and returns its result with the envelope evaluations it
    /// made.
    fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = ENVELOPE_EVALS.with(Cell::get);
        let out = f();
        (out, ENVELOPE_EVALS.with(Cell::get) - before)
    }

    /// The one-sided scan as it was before the Chernoff seed: a cold
    /// climb from the centre breakpoint `p = ½` (`j/n = ½ + ε`). A
    /// carried fraction starts the climb at exactly the index the old
    /// cold fallback computed.
    fn centre_seeded_one_sided(n: u64, eps: f64) -> f64 {
        let centre = JumpHint {
            upper: Some(0.5 + eps),
            lower: None,
        };
        worst_case_one_sided_jump(n, eps, centre, None).0
    }

    /// The Chernoff seed changes where a cold one-sided climb starts,
    /// never what it finds: bit-identical to the centre-seeded climb
    /// wherever that one is a normal double, and never below it where
    /// it underflowed to zero (or a subnormal) on a plateau.
    fn assert_seed_keeps_bits(n: u64, eps: f64) {
        let new = worst_case_deviation_tail(n, eps, Tail::OneSided);
        let old = centre_seeded_one_sided(n, eps);
        if old.is_normal() {
            assert_eq!(
                new.to_bits(),
                old.to_bits(),
                "n={n} eps={eps}: {new} vs {old}"
            );
        } else {
            assert!(new >= old, "n={n} eps={eps}: {new} below {old}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chernoff_seed_keeps_one_sided_bits(n in 1u64..=100_000, eps in 1e-9f64..0.5) {
            assert_seed_keeps_bits(n, eps);
        }
    }

    /// Every `n ≤ 20,000` at several tolerances, both tails (release
    /// only: `cargo test --release -p easeml-bounds -- --ignored`). The
    /// one-sided scan keeps the centre-seeded bits; the two-sided scan
    /// keeps its bits when both families are seeded at the mirrored
    /// Chernoff argmaxes, so its centre seeds cost time, not accuracy.
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn chernoff_seed_sweep_every_n_up_to_20000() {
        for eps in [0.005, 0.01, 0.03, 0.05, 0.1, 0.2, 0.45] {
            let mirrored = JumpHint {
                upper: Some(one_sided_cold_fraction(eps)),
                lower: Some(1.0 - one_sided_cold_fraction(eps)),
            };
            for n in 1..=20_000 {
                assert_seed_keeps_bits(n, eps);
                let centre = worst_case_deviation_tail(n, eps, Tail::TwoSided);
                let (seeded, _, _) =
                    worst_case_deviation_jump(n, eps, Tail::TwoSided, mirrored, None);
                if centre.is_normal() {
                    assert_eq!(
                        seeded.to_bits(),
                        centre.to_bits(),
                        "two-sided n={n} eps={eps}"
                    );
                }
            }
        }
    }

    /// The centre seed sat on a plateau where every tail underflows, so
    /// the climb stopped at once and reported a zero sup; the Chernoff
    /// seed starts inside the representable range and finds a positive
    /// one. A larger sup can only make an inversion more conservative,
    /// and no served tolerance reaches this regime.
    #[test]
    fn one_sided_sup_does_not_underflow_at_large_eps() {
        assert_eq!(centre_seeded_one_sided(1513, 0.45), 0.0);
        let sup = worst_case_deviation_tail(1513, 0.45, Tail::OneSided);
        assert!(sup > 0.0, "sup = {sup}");
        assert_seed_keeps_bits(1513, 0.45);
    }

    /// Work guard, counted rather than timed: a cold one-sided scan at
    /// register-workload sizes settles within a couple of dozen tail
    /// evaluations; the centre-seeded reference walks ~nε/3 jump indices
    /// first.
    #[test]
    fn cold_one_sided_scan_evaluates_few_tails() {
        for (n, eps) in [(20_000u64, 0.01), (60_000, 0.05)] {
            let (_, evals) = counting(|| worst_case_deviation_tail(n, eps, Tail::OneSided));
            assert!(evals <= 24, "n={n} eps={eps}: {evals} tail evaluations");
            let (_, centre) = counting(|| centre_seeded_one_sided(n, eps));
            assert!(
                centre > 3 * evals,
                "n={n} eps={eps}: centre seed {centre} vs {evals}"
            );
        }
    }

    /// A hint for the lazy-vs-eager proptest: cold (`kind` 0), the cold
    /// climb's own argmaxes nudged by up to ±8 jump indices (1), up to
    /// ±64 (2), or arbitrary fractions where `n` is small enough for a
    /// climb to walk in from anywhere (3).
    fn proptest_hint(
        kind: u32,
        n: u64,
        cold_next: JumpHint,
        shift: [i32; 2],
        frac: [f64; 2],
    ) -> JumpHint {
        let nudge = |carried: Option<f64>, by: i32| {
            carried.map(|f| (f + f64::from(by) / n as f64).clamp(0.0, 1.0))
        };
        match kind {
            0 => JumpHint::cold(),
            1 => JumpHint {
                upper: nudge(cold_next.upper, shift[0] % 9),
                lower: nudge(cold_next.lower, shift[1] % 9),
            },
            2 => JumpHint {
                upper: nudge(cold_next.upper, shift[0]),
                lower: nudge(cold_next.lower, shift[1]),
            },
            _ if n <= 4_000 => JumpHint {
                upper: Some(frac[0]),
                lower: Some(frac[1]),
            },
            _ => cold_next,
        }
    }

    /// The eager scan for `tail`.
    fn eager_jump(
        n: u64,
        eps: f64,
        tail: Tail,
        hint: JumpHint,
        stop_above: Option<f64>,
    ) -> (f64, f64, JumpHint) {
        match tail {
            Tail::OneSided => worst_case_one_sided_jump_eager(n, eps, hint, stop_above),
            Tail::TwoSided => {
                crate::twosided::worst_case_two_sided_jump_eager(n, eps, hint, stop_above)
            }
        }
    }

    /// One case of the lazy-vs-eager check: the scan's bits and carried
    /// hint, then the inversion's bracketing and acceptance verdicts
    /// against `δ` at the sup itself (a tie), next to it, and far off.
    #[allow(clippy::too_many_arguments)]
    fn assert_lazy_matches_eager(
        n: u64,
        eps: f64,
        tail: Tail,
        kind: u32,
        shift: [i32; 2],
        frac: [f64; 2],
        stop: u32,
        rel: f64,
    ) {
        let (sup, _, cold_next) = eager_jump(n, eps, tail, JumpHint::cold(), None);
        let hint = proptest_hint(kind, n, cold_next, shift, frac);
        let stop_above = match stop {
            0 => None,
            1 => Some(sup),
            2 => Some(sup * (1.0 + rel)),
            _ => Some(sup * (1.0 - 1e-3)),
        };
        let want = eager_jump(n, eps, tail, hint, stop_above);
        let got = worst_case_deviation_jump(n, eps, tail, hint, stop_above);
        let case = format!("n={n} eps={eps} {tail} hint={hint:?} stop={stop_above:?}");
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "worst, {case}");
        assert_eq!(got.1.to_bits(), want.1.to_bits(), "p_star, {case}");
        assert_eq!(got.2, want.2, "next hint, {case}");
        for delta in [sup, sup * (1.0 + rel), sup * 0.5] {
            for early_exit in [true, false] {
                assert_eq!(
                    jump_verdict(n, eps, tail, hint, delta, early_exit),
                    jump_verdict_eager(n, eps, tail, hint, delta, early_exit),
                    "verdict delta={delta} early_exit={early_exit}, {case}"
                );
            }
        }
    }

    fn tail_strategy() -> impl Strategy<Value = Tail> {
        prop_oneof![Just(Tail::OneSided), Just(Tail::TwoSided)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The lazy climbs decide every comparison as the eager ones do:
        /// the same sup and maximizer bits, the same carried hint, and
        /// the same verdicts against `δ`, over both tails, `n` up to 10⁶
        /// (log-uniform), cold, warm and far-off hints, and early exits
        /// at, next to and just below the sup.
        #[test]
        fn lazy_climbs_match_the_eager_reference(
            log_n in 0.0f64..6.0, eps in 0.002f64..0.4, tail in tail_strategy(),
            kind in 0u32..4, shift in (-64i32..=64, -64i32..=64),
            frac in (0.0f64..=1.0, 0.0f64..=1.0), stop in 0u32..4, rel in -1e-6f64..1e-6,
        ) {
            let n = (10f64.powf(log_n).round() as u64).max(1);
            assert_lazy_matches_eager(n, eps, tail, kind, [shift.0, shift.1], [frac.0, frac.1], stop, rel);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        /// The same check over 100,000 cases (release only:
        /// `cargo test --release -p easeml-bounds -- --ignored`).
        #[test]
        #[ignore = "exhaustive; run in release with --ignored"]
        fn lazy_climbs_match_the_eager_reference_exhaustively(
            log_n in 0.0f64..6.0, eps in 0.002f64..0.4, tail in tail_strategy(),
            kind in 0u32..4, shift in (-64i32..=64, -64i32..=64),
            frac in (0.0f64..=1.0, 0.0f64..=1.0), stop in 0u32..4, rel in -1e-6f64..1e-6,
        ) {
            let n = (10f64.powf(log_n).round() as u64).max(1);
            assert_lazy_matches_eager(n, eps, tail, kind, [shift.0, shift.1], [frac.0, frac.1], stop, rel);
        }
    }

    /// [`ln_upper_tail_direct`] with both ratio factors converted from
    /// integers for every term: the reference its counters must match
    /// bit for bit.
    fn converting_upper_direct(n: u64, p: f64, k: u64) -> f64 {
        let ln_base = ln_pmf(n, p, k);
        let odds = p / (1.0 - p);
        let mut term = 1.0f64;
        let mut sum = 1.0f64;
        let mut i = k;
        while i < n {
            term *= (n - i) as f64 / (i + 1) as f64 * odds;
            sum += term;
            if term <= sum * 1e-17 {
                break;
            }
            i += 1;
        }
        (ln_base + sum.ln()).min(0.0)
    }

    /// [`ln_lower_tail_direct`] with integer-converted factors.
    fn converting_lower_direct(n: u64, p: f64, k: u64) -> f64 {
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

    /// [`ln_upper_tail`]'s dispatch over the converting loops, for
    /// `0 < p < 1` and `1 <= k <= n`.
    fn converting_upper_tail(n: u64, p: f64, k: u64) -> f64 {
        if k > mode(n, p) {
            converting_upper_direct(n, p, k)
        } else {
            log1m_exp(converting_lower_direct(n, p, k - 1).min(0.0))
        }
    }

    /// [`ln_lower_tail`]'s dispatch over the converting loops, for
    /// `0 < p < 1` and `k < n`.
    fn converting_lower_tail(n: u64, p: f64, k: u64) -> f64 {
        if k < mode(n, p) {
            converting_lower_direct(n, p, k)
        } else {
            log1m_exp(converting_upper_direct(n, p, k + 1).min(0.0))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ratio counters change no bit of either tail: same
        /// operands, operations and order as the converting loops for
        /// every `n < 2⁵³`. Boundaries sit within ±10σ of the mean,
        /// where the sums run longest and both dispatch arms are taken.
        #[test]
        fn ratio_counters_keep_tail_bits(n in 1u64..=1_000_000, p in 0.0f64..1.0, z in -10.0f64..10.0) {
            prop_assume!(p > 0.0);
            let mean = n as f64 * p;
            let k = (mean + z * (mean * (1.0 - p)).sqrt()).round().clamp(0.0, n as f64) as u64;
            if k >= 1 {
                let (got, want) = (ln_upper_tail(n, p, k), converting_upper_tail(n, p, k));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "upper n={} p={} k={}: {} vs {}", n, p, k, got, want);
            }
            if k < n {
                let (got, want) = (ln_lower_tail(n, p, k), converting_lower_tail(n, p, k));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "lower n={} p={} k={}: {} vs {}", n, p, k, got, want);
            }
        }
    }

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
