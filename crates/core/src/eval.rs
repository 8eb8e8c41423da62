//! Condition evaluation over confidence intervals (§3.5, Appendix A.2).
//!
//! Given point estimates of the three variables, each clause's left-hand
//! side becomes a confidence interval `x̂ ± ε` (with `ε` the clause's
//! tolerance). The clause evaluates to:
//!
//! * `True` when the whole interval clears the threshold,
//! * `False` when the whole interval misses it,
//! * `Unknown` when the interval straddles it.
//!
//! A formula is the Kleene conjunction of its clauses, and the script's
//! [`crate::Mode`] collapses the three-valued result into the final
//! pass/fail bit (the engine's [`crate::Gate`] does that collapse).

use crate::dsl::{Clause, CmpOp, Expr, Formula};
use crate::interval::Interval;
use crate::logic::Tribool;

/// Point estimates of the condition variables for one commit.
///
/// The three plain variables are always present; the metric statistics
/// (`f1(...)`, `topk(...)`) are `Option`s because only prediction-vector
/// measurement over a per-class testset can produce them. Evaluating a
/// metric expression without the matching estimate is a caller bug and
/// panics loudly — the serve layer validates the measurement shape
/// against the formula before calling [`evaluate_formula`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VariableEstimates {
    /// Estimated accuracy of the new model (`n̂`).
    pub n: f64,
    /// Estimated accuracy of the old model (`ô`).
    pub o: f64,
    /// Estimated fraction of changed predictions (`d̂`).
    pub d: f64,
    /// Estimated binary F1 of the new model, when measured.
    pub f1_n: Option<f64>,
    /// Estimated binary F1 of the old model, when measured.
    pub f1_o: Option<f64>,
    /// Estimated top-k accuracies of the new model as `(k, value)` pairs,
    /// when measured. At most `MAX_TOPK_ESTIMATES` distinct `k`s.
    pub topk_n: TopKEstimates,
    /// Estimated top-k accuracies of the old model, same shape.
    pub topk_o: TopKEstimates,
}

/// Maximum number of distinct `topk` class counts a formula may use.
///
/// Keeps [`VariableEstimates`] `Copy` (fixed-size storage); real formulas
/// use one or two `k`s.
pub const MAX_TOPK_ESTIMATES: usize = 4;

/// Fixed-capacity `(k, value)` map for top-k estimates.
pub type TopKEstimates = [Option<(u32, f64)>; MAX_TOPK_ESTIMATES];

impl VariableEstimates {
    /// Create a new set of estimates for the plain variables only.
    #[must_use]
    pub fn new(n: f64, o: f64, d: f64) -> Self {
        VariableEstimates {
            n,
            o,
            d,
            ..Default::default()
        }
    }

    /// Record a top-k estimate for the new (`is_new = true`) or old model.
    ///
    /// # Panics
    ///
    /// Panics when more than `MAX_TOPK_ESTIMATES` distinct `k`s are
    /// recorded for one model.
    pub fn set_topk(&mut self, is_new: bool, k: u32, value: f64) {
        let slots = if is_new {
            &mut self.topk_n
        } else {
            &mut self.topk_o
        };
        for slot in slots.iter_mut() {
            match slot {
                Some((existing, v)) if *existing == k => {
                    *v = value;
                    return;
                }
                None => {
                    *slot = Some((k, value));
                    return;
                }
                Some(_) => {}
            }
        }
        panic!("more than {MAX_TOPK_ESTIMATES} distinct topk class counts in one formula");
    }

    fn topk(&self, is_new: bool, k: u32) -> Option<f64> {
        let slots = if is_new { &self.topk_n } else { &self.topk_o };
        slots
            .iter()
            .flatten()
            .find(|&&(existing, _)| existing == k)
            .map(|&(_, v)| v)
    }

    /// Evaluate an expression at these point estimates.
    ///
    /// # Panics
    ///
    /// Panics when the expression references a metric variable whose
    /// estimate was not measured (see the type-level docs).
    #[must_use]
    pub fn evaluate_expr(&self, expr: &Expr) -> f64 {
        match expr {
            Expr::Var(crate::dsl::Var::N) => self.n,
            Expr::Var(crate::dsl::Var::O) => self.o,
            Expr::Var(crate::dsl::Var::D) => self.d,
            Expr::Var(crate::dsl::Var::F1N) => self
                .f1_n
                .expect("formula references f1(n) but no F1 estimate was measured"),
            Expr::Var(crate::dsl::Var::F1O) => self
                .f1_o
                .expect("formula references f1(o) but no F1 estimate was measured"),
            Expr::Var(crate::dsl::Var::TopKN(k)) => self.topk(true, *k).unwrap_or_else(|| {
                panic!("formula references topk(n, {k}) but no such estimate was measured")
            }),
            Expr::Var(crate::dsl::Var::TopKO(k)) => self.topk(false, *k).unwrap_or_else(|| {
                panic!("formula references topk(o, {k}) but no such estimate was measured")
            }),
            Expr::Scale(c, e) => c * self.evaluate_expr(e),
            Expr::Add(a, b) => self.evaluate_expr(a) + self.evaluate_expr(b),
            Expr::Sub(a, b) => self.evaluate_expr(a) - self.evaluate_expr(b),
        }
    }
}

/// The confidence interval of a clause's left-hand side: the point
/// estimate widened by the clause tolerance.
#[must_use]
pub fn clause_interval(clause: &Clause, est: &VariableEstimates) -> Interval {
    Interval::around(est.evaluate_expr(&clause.expr), clause.tolerance)
}

/// Evaluate one clause to a three-valued outcome.
///
/// # Examples
///
/// Appendix A.2's example `x < 0.1 +/- 0.01`:
///
/// ```
/// use easeml_ci_core::{evaluate_clause, Tribool, VariableEstimates};
/// use easeml_ci_core::dsl::parse_clause;
///
/// # fn main() -> Result<(), easeml_ci_core::CiError> {
/// let clause = parse_clause("d < 0.1 +/- 0.01")?;
/// let at = |d| VariableEstimates::new(0.0, 0.0, d);
/// assert_eq!(evaluate_clause(&clause, &at(0.085)), Tribool::True);   // d̂ < 0.09
/// assert_eq!(evaluate_clause(&clause, &at(0.115)), Tribool::False);  // d̂ > 0.11
/// assert_eq!(evaluate_clause(&clause, &at(0.100)), Tribool::Unknown);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn evaluate_clause(clause: &Clause, est: &VariableEstimates) -> Tribool {
    evaluate_clause_at(clause, est.evaluate_expr(&clause.expr))
}

/// Evaluate a clause given a pre-computed left-hand-side point estimate.
///
/// This is the primitive the engine uses when the LHS is measured by a
/// specialised estimator (e.g. the §4.1.2 difference trick measures
/// `n − o` directly without separate `n̂` and `ô`).
#[must_use]
pub fn evaluate_clause_at(clause: &Clause, lhs_estimate: f64) -> Tribool {
    let interval = Interval::around(lhs_estimate, clause.tolerance);
    match clause.cmp {
        CmpOp::Gt => {
            if interval.strictly_above(clause.threshold) {
                Tribool::True
            } else if interval.strictly_below(clause.threshold) {
                Tribool::False
            } else {
                Tribool::Unknown
            }
        }
        CmpOp::Lt => {
            if interval.strictly_below(clause.threshold) {
                Tribool::True
            } else if interval.strictly_above(clause.threshold) {
                Tribool::False
            } else {
                Tribool::Unknown
            }
        }
    }
}

/// Evaluate a formula: the Kleene conjunction of its clause outcomes.
#[must_use]
pub fn evaluate_formula(formula: &Formula, est: &VariableEstimates) -> Tribool {
    Tribool::all(formula.clauses().iter().map(|c| evaluate_clause(c, est)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{parse_clause, parse_formula};
    use crate::logic::Mode;

    fn est(n: f64, o: f64, d: f64) -> VariableEstimates {
        VariableEstimates::new(n, o, d)
    }

    #[test]
    fn improvement_clause_three_outcomes() {
        let c = parse_clause("n - o > 0.02 +/- 0.01").unwrap();
        // n - o = 0.05 > 0.03: certainly true.
        assert_eq!(evaluate_clause(&c, &est(0.90, 0.85, 0.0)), Tribool::True);
        // n - o = 0.005 < 0.01: certainly false.
        assert_eq!(evaluate_clause(&c, &est(0.855, 0.85, 0.0)), Tribool::False);
        // n - o = 0.025: straddles.
        assert_eq!(
            evaluate_clause(&c, &est(0.875, 0.85, 0.0)),
            Tribool::Unknown
        );
    }

    #[test]
    fn boundary_is_unknown() {
        // Exactly threshold + tolerance is NOT strictly above.
        let c = parse_clause("n > 0.8 +/- 0.05").unwrap();
        assert_eq!(evaluate_clause(&c, &est(0.85, 0.0, 0.0)), Tribool::Unknown);
        assert_eq!(evaluate_clause(&c, &est(0.850001, 0.0, 0.0)), Tribool::True);
        assert_eq!(evaluate_clause(&c, &est(0.75, 0.0, 0.0)), Tribool::Unknown);
        assert_eq!(
            evaluate_clause(&c, &est(0.749999, 0.0, 0.0)),
            Tribool::False
        );
    }

    #[test]
    fn formula_conjunction() {
        let f = parse_formula("n - o > 0.02 +/- 0.01 /\\ d < 0.1 +/- 0.01").unwrap();
        // Both certainly true.
        assert_eq!(evaluate_formula(&f, &est(0.9, 0.85, 0.05)), Tribool::True);
        // Improvement true, difference false -> False dominates.
        assert_eq!(evaluate_formula(&f, &est(0.9, 0.85, 0.3)), Tribool::False);
        // Improvement unknown, difference true -> Unknown.
        assert_eq!(
            evaluate_formula(&f, &est(0.875, 0.85, 0.05)),
            Tribool::Unknown
        );
        // Improvement unknown, difference false -> False (Kleene).
        assert_eq!(evaluate_formula(&f, &est(0.875, 0.85, 0.3)), Tribool::False);
    }

    #[test]
    fn decide_applies_mode() {
        let f = parse_formula("n - o > 0.02 +/- 0.01").unwrap();
        let straddling = est(0.875, 0.85, 0.0);
        let outcome = evaluate_formula(&f, &straddling);
        assert_eq!(outcome, Tribool::Unknown);
        assert!(!Mode::FpFree.decide(outcome), "fp-free must reject Unknown");
        assert!(Mode::FnFree.decide(outcome), "fn-free must accept Unknown");
    }

    #[test]
    fn scaled_expression_evaluation() {
        let c = parse_clause("n - 1.1 * o > 0.01 +/- 0.01").unwrap();
        // n - 1.1o = 0.9 - 0.88 = 0.02 -> straddles [0.00, 0.02].
        assert_eq!(evaluate_clause(&c, &est(0.9, 0.8, 0.0)), Tribool::Unknown);
        // n - 1.1o = 0.95 - 0.77 = 0.18 -> certainly true.
        assert_eq!(evaluate_clause(&c, &est(0.95, 0.7, 0.0)), Tribool::True);
    }

    #[test]
    fn metric_expressions_evaluate_from_measured_estimates() {
        let c = parse_clause("f1(n) - f1(o) > -0.02 +/- 0.01").unwrap();
        let mut e = est(0.0, 0.0, 0.0);
        e.f1_n = Some(0.91);
        e.f1_o = Some(0.90);
        // f1(n) - f1(o) = 0.01 > -0.01: certainly true.
        assert_eq!(evaluate_clause(&c, &e), Tribool::True);
        e.f1_n = Some(0.85);
        // 0.85 - 0.90 = -0.05 < -0.03: certainly false.
        assert_eq!(evaluate_clause(&c, &e), Tribool::False);

        let c = parse_clause("topk(n, 5) > 0.9 +/- 0.02").unwrap();
        let mut e = est(0.0, 0.0, 0.0);
        e.set_topk(true, 5, 0.95);
        assert_eq!(evaluate_clause(&c, &e), Tribool::True);
        e.set_topk(true, 5, 0.91);
        assert_eq!(evaluate_clause(&c, &e), Tribool::Unknown);
    }

    #[test]
    #[should_panic(expected = "no F1 estimate")]
    fn metric_expression_without_estimate_panics() {
        let c = parse_clause("f1(n) > 0.8 +/- 0.05").unwrap();
        let _ = evaluate_clause(&c, &est(0.9, 0.9, 0.1));
    }

    #[test]
    fn interval_width_is_twice_tolerance() {
        let c = parse_clause("n > 0.8 +/- 0.05").unwrap();
        let i = clause_interval(&c, &est(0.9, 0.0, 0.0));
        assert!((i.width() - 0.1).abs() < 1e-12);
        assert!((i.midpoint() - 0.9).abs() < 1e-12);
    }
}
