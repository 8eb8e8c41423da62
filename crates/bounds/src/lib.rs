//! Concentration inequalities and sample-size bounds for statistically
//! rigorous testing of machine-learning models.
//!
//! This crate is the mathematical substrate of the
//! [ease.ml/ci](https://arxiv.org/abs/1903.00278) reproduction. It answers
//! one question in several increasingly sharp ways: *how many i.i.d. test
//! samples are needed to estimate a statistic to tolerance `ε` with failure
//! probability at most `δ`?*
//!
//! | Bound | When it applies | Module |
//! |---|---|---|
//! | Hoeffding | any bounded variable — the paper's baseline (§3) | [`hoeffding_sample_size`] |
//! | Bennett | per-sample second moment bounded by `p` (§4.1) | [`bennett_sample_size`] |
//! | Bernstein | same, closed-form but slightly looser | [`bernstein_sample_size`] |
//! | Exact binomial | Bernoulli means, numerically tight (§4.3) | [`exact_binomial_sample_size`] |
//! | McDiarmid | bounded-difference statistics such as F1 (§2.2 ext.) | [`mcdiarmid_sample_size`] |
//!
//! Adaptivity accounting ([`Adaptivity`]) converts a whole-process failure
//! budget into the per-test budget demanded by the interaction model
//! (`δ/H` non-adaptive, `δ/2^H` fully adaptive, `δ/H` hybrid), and the
//! `union` module splits budgets across compound conditions. Everything
//! can run in log space so that `δ/2^H` never underflows.
//!
//! # Performance architecture
//!
//! The closed-form bounds are nanosecond-scale; the exact binomial
//! inversion is the crate's one genuinely expensive computation, and it
//! sits on the serving path of every estimator query that opts into §4.3
//! tightness. Three layers keep it fast:
//!
//! 1. **Shared log-factorial table** ([`numeric::ln_factorial`]): a
//!    thread-safe, lazily grown table of `ln k!` turns each binomial pmf
//!    evaluation into three table loads instead of three Lanczos
//!    `ln_gamma` evaluations. The table doubles on demand up to
//!    [`numeric::LN_FACTORIAL_TABLE_CAP`] and serves all threads behind a
//!    read-mostly `RwLock`.
//! 2. **Ratio-recurrence tails** ([`binomial`]): a tail evaluation
//!    computes the boundary pmf once and extends it in *linear* space via
//!    `pmf(k+1)/pmf(k) = (n−k)/(k+1)·p/(1−p)` — one multiply-add per term.
//!    Sums always run down the monotone side of the mode (straddling
//!    boundaries go through the complement), so nothing overflows and a
//!    tail costs `O(√n)` flops.
//! 3. **Warm-started worst-case search** ([`exact_binomial_sample_size`]):
//!    the minimal-`n` search brackets with a galloping scan from a cheap
//!    lower bound (~0.7× Hoeffding empirically), probes `worst(n)` with a
//!    hill-climb that warm-starts from the previous probe's maximizer
//!    `p*` and exits early once `δ` is exceeded, and memoizes every
//!    probe. Final acceptance re-checks candidates with the
//!    breakpoint-exact reference scan, so the fast probes only decide
//!    *where to look*, never what to accept.
//!
//! Measured on the paper's `(ε = 0.05, δ = 0.001)` two-sided inversion,
//! this stack is ~100× faster than the preserved seed implementation
//! ([`reference`](mod@reference)); see `results/BENCH_bounds.json` for the tracked
//! trajectory. One layer up, `easeml-ci-core`'s `BoundsCache` memoizes
//! whole inversions across commits and clauses, so steady-state serving
//! degenerates to a sub-microsecond map lookup.
//!
//! A fourth layer makes each worst-case probe exact as well as cheap:
//!
//! 4. **Breakpoint-exact worst-case scans**
//!    ([`binomial::worst_case_deviation_one_sided_exact`],
//!    [`binomial::worst_case_deviation_two_sided_exact`]): the worst case
//!    over `p` is attained in the limit at the cut-off jumps
//!    `p_j = j/n ∓ ε`, so a hill-climb over the *jump index* — one
//!    breakpoint family one-sided, both tails' families two-sided —
//!    replaces the grid scan entirely, cheaper and exact rather than
//!    grid-resolution approximate.
//!
//! Every inversion answers one `(ε, δ, tail)` cell. A Figure-2-style
//! table is one inversion per cell; callers that want the cells in
//! parallel fan them out themselves (the `repro_fig2` and
//! `repro_bounds_perf` binaries use `easeml_par::Pool::par_map`), so this
//! crate spawns no threads and depends on no other crate.
//!
//! # Examples
//!
//! The paper's §3.3 worked example — `n > 0.8 ± 0.05` at reliability
//! 0.9999 over 32 fully-adaptive steps needs 6 279 samples:
//!
//! ```
//! use easeml_bounds::{hoeffding_sample_size_from_ln_delta, Adaptivity, Tail};
//!
//! # fn main() -> Result<(), easeml_bounds::BoundsError> {
//! let ln_delta = Adaptivity::Full.ln_effective_delta(0.0001, 32)?;
//! let n = hoeffding_sample_size_from_ln_delta(1.0, 0.05, ln_delta, Tail::OneSided)?;
//! assert_eq!(n, 6_279);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// `!(x < 0.0)`-style guards intentionally reject NaN along with the
// out-of-domain sign; `partial_cmp` rewrites would obscure that.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Lanczos coefficients are quoted at full published precision.
#![allow(clippy::excessive_precision)]

mod adaptivity;
mod bennett;
mod bernstein;
pub mod binomial;
mod error;
mod exact;
mod hoeffding;
mod mcdiarmid;
pub mod numeric;
pub mod reference;
mod tail;
mod twosided;
mod union;

pub use adaptivity::{trivial_strategy_total, Adaptivity, ParseAdaptivityError};
pub use bennett::{
    active_labels_per_commit, bennett_delta, bennett_epsilon, bennett_epsilon_from_ln_delta,
    bennett_h, bennett_h_inv, bennett_h_prime, bennett_sample_size,
    bennett_sample_size_from_ln_delta,
};
pub use bernstein::{
    bernstein_epsilon, bernstein_sample_size, bernstein_sample_size_from_ln_delta,
};
pub use error::{BoundsError, Result};
pub use exact::{exact_binomial_epsilon, exact_binomial_sample_size, exact_deviation_at};
pub use hoeffding::{
    hoeffding_delta, hoeffding_epsilon, hoeffding_epsilon_from_ln_delta, hoeffding_sample_size,
    hoeffding_sample_size_from_ln_delta,
};
pub use mcdiarmid::{
    mcdiarmid_epsilon, mcdiarmid_sample_size, mcdiarmid_sample_size_from_ln_delta,
};
pub use tail::Tail;
pub use union::{
    split_delta_evenly, split_delta_weighted, split_epsilon, split_ln_delta_evenly,
    split_ln_delta_weighted,
};
