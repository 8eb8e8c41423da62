//! Abstract syntax tree for the condition language (Appendix A.1).
//!
//! ```text
//! c    :- floating point constant
//! k    :- positive integer constant
//! v    :- n | o | d | f1(n) | f1(o) | topk(n, k) | topk(o, k)
//! op1  :- + | -
//! op2  :- *
//! EXP  :- v | v op1 EXP | EXP op2 c
//! cmp  :- > | <
//! C    :- EXP cmp c +/- c
//! F    :- C | C /\ F
//! ```
//!
//! The metric-qualified variables (`f1(...)`, `topk(...)`) are the §2.2
//! extension point: they denote bounded-difference statistics of the
//! named model (new or old) rather than plain 0/1-loss accuracies, and
//! the estimator routes them to McDiarmid leaves instead of
//! Hoeffding/exact-binomial ones.

use std::fmt;

/// A random variable a condition may reference.
///
/// The three plain variables (`n`, `o`, `d`) are the paper's §3 grammar;
/// each is a mean of i.i.d. `[0, 1]` (in fact Bernoulli) per-sample
/// scores. The metric-qualified variables are non-binomial statistics of
/// the same prediction vectors: they still live in `[0, 1]` but are not
/// sample means, so tail bounds come from McDiarmid's bounded-difference
/// inequality rather than Hoeffding / exact binomial inversion.
///
/// The derived `Ord` (declaration order) is the canonical variable order
/// used by [`Expr::variables`] and the estimator's wire codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Var {
    /// `n` — accuracy of the newly committed model.
    N,
    /// `o` — accuracy of the old (currently accepted) model.
    O,
    /// `d` — fraction of test points whose prediction changed.
    D,
    /// `f1(n)` — binary F1 score of the new model (positive class 1).
    F1N,
    /// `f1(o)` — binary F1 score of the old model (positive class 1).
    F1O,
    /// `topk(n, k)` — accuracy of the new model restricted to test points
    /// whose true label is among the `k` most frequent testset classes.
    TopKN(u32),
    /// `topk(o, k)` — the same restriction for the old model.
    TopKO(u32),
}

impl Var {
    /// The three *plain* (binomial) variables, in canonical order.
    ///
    /// Metric-qualified variables are parameterized (`topk` carries its
    /// `k`) and therefore not enumerable; code that must handle every
    /// variable kind should match exhaustively instead of iterating this.
    pub const ALL: [Var; 3] = [Var::N, Var::O, Var::D];

    /// Dynamic range of the variable: every statistic lives in `[0, 1]`.
    #[must_use]
    pub fn range(self) -> f64 {
        1.0
    }

    /// Whether measuring this variable requires ground-truth labels.
    ///
    /// Accuracies (`n`, `o`) and all metric statistics need labels; only
    /// the prediction difference `d` can be measured on unlabeled data
    /// (Technical Observation 2, §4).
    #[must_use]
    pub fn needs_labels(self) -> bool {
        !matches!(self, Var::D)
    }

    /// Whether this is a metric-qualified (non-binomial) variable.
    ///
    /// Metric variables are not sample means, so the estimator must use
    /// McDiarmid leaves for them and measurement must derive per-class
    /// confusion counts rather than scalar correct-counts.
    #[must_use]
    pub fn is_metric(self) -> bool {
        matches!(self, Var::F1N | Var::F1O | Var::TopKN(_) | Var::TopKO(_))
    }

    /// The `k` of a `topk` variable, if this is one.
    #[must_use]
    pub fn topk_k(self) -> Option<u32> {
        match self {
            Var::TopKN(k) | Var::TopKO(k) => Some(k),
            _ => None,
        }
    }
}

impl fmt::Display for Var {
    /// Source syntax, so expression `Display` round-trips through the
    /// parser: `n`, `o`, `d`, `f1(n)`, `f1(o)`, `topk(n, 5)`, ...
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Var::N => write!(f, "n"),
            Var::O => write!(f, "o"),
            Var::D => write!(f, "d"),
            Var::F1N => write!(f, "f1(n)"),
            Var::F1O => write!(f, "f1(o)"),
            Var::TopKN(k) => write!(f, "topk(n, {k})"),
            Var::TopKO(k) => write!(f, "topk(o, {k})"),
        }
    }
}

/// An arithmetic expression over the variables.
///
/// The surface grammar is linear by construction: expressions combine
/// variables with `+`/`-` and scale by constants with `*`. The parser
/// additionally guarantees (and [`crate::dsl::LinearForm`] re-checks) that
/// no variable-by-variable products or stray constant terms appear.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A bare variable.
    Var(Var),
    /// A constant multiple `c * e`.
    Scale(f64, Box<Expr>),
    /// Sum `e1 + e2`.
    Add(Box<Expr>, Box<Expr>),
    /// Difference `e1 - e2`.
    Sub(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Shorthand constructor for a variable leaf.
    #[must_use]
    pub fn var(v: Var) -> Expr {
        Expr::Var(v)
    }

    /// Shorthand constructor for `c * e`.
    #[must_use]
    pub fn scale(c: f64, e: Expr) -> Expr {
        Expr::Scale(c, Box::new(e))
    }

    /// Shorthand constructor for `a + b`.
    ///
    /// A static builder (`Expr::add(a, b)`), deliberately not the
    /// `std::ops::Add` trait: expressions are AST nodes, not numbers.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// Shorthand constructor for `a - b`.
    ///
    /// A static builder, deliberately not the `std::ops::Sub` trait.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// Number of leaf (variable) occurrences.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        match self {
            Expr::Var(_) => 1,
            Expr::Scale(_, e) => e.leaf_count(),
            Expr::Add(a, b) | Expr::Sub(a, b) => a.leaf_count() + b.leaf_count(),
        }
    }

    /// Variables referenced by the expression, deduplicated, in canonical
    /// order.
    #[must_use]
    pub fn variables(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        self.collect_vars(&mut vars);
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Whether the expression references any metric-qualified variable.
    #[must_use]
    pub fn has_metric(&self) -> bool {
        match self {
            Expr::Var(v) => v.is_metric(),
            Expr::Scale(_, e) => e.has_metric(),
            Expr::Add(a, b) | Expr::Sub(a, b) => a.has_metric() || b.has_metric(),
        }
    }

    fn collect_vars(&self, vars: &mut Vec<Var>) {
        match self {
            Expr::Var(v) => vars.push(*v),
            Expr::Scale(_, e) => e.collect_vars(vars),
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                a.collect_vars(vars);
                b.collect_vars(vars);
            }
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        // precedence: Add/Sub = 1, Scale = 2, Var = 3
        let prec = match self {
            Expr::Var(_) => 3,
            Expr::Scale(..) => 2,
            Expr::Add(..) | Expr::Sub(..) => 1,
        };
        let need_parens = prec < parent_prec;
        if need_parens {
            write!(f, "(")?;
        }
        match self {
            Expr::Var(v) => write!(f, "{v}")?,
            Expr::Scale(c, e) => {
                write!(f, "{c} * ")?;
                e.fmt_prec(f, 3)?;
            }
            Expr::Add(a, b) => {
                a.fmt_prec(f, 1)?;
                write!(f, " + ")?;
                b.fmt_prec(f, 2)?;
            }
            Expr::Sub(a, b) => {
                a.fmt_prec(f, 1)?;
                write!(f, " - ")?;
                b.fmt_prec(f, 2)?;
            }
        }
        if need_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Self {
        Expr::Var(v)
    }
}

/// Comparison operator of a clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `>` — the expression must exceed the threshold.
    Gt,
    /// `<` — the expression must stay below the threshold.
    Lt,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmpOp::Gt => write!(f, ">"),
            CmpOp::Lt => write!(f, "<"),
        }
    }
}

/// A single clause `EXP cmp c +/- c`, e.g. `n - o > 0.02 +/- 0.01`.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// Left-hand-side expression.
    pub expr: Expr,
    /// Comparison operator.
    pub cmp: CmpOp,
    /// Right-hand-side threshold constant.
    pub threshold: f64,
    /// Error tolerance `ε` following `+/-`.
    pub tolerance: f64,
}

impl Clause {
    /// Create a clause; see the type-level docs for the semantics.
    #[must_use]
    pub fn new(expr: Expr, cmp: CmpOp, threshold: f64, tolerance: f64) -> Self {
        Clause {
            expr,
            cmp,
            threshold,
            tolerance,
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} +/- {}",
            self.expr, self.cmp, self.threshold, self.tolerance
        )
    }
}

/// A formula: a conjunction of clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    clauses: Vec<Clause>,
}

impl Formula {
    /// Build a formula from its clauses.
    ///
    /// An empty clause list is permitted here but rejected by semantic
    /// validation ([`crate::dsl::parse_formula`] never produces one).
    #[must_use]
    pub fn new(clauses: Vec<Clause>) -> Self {
        Formula { clauses }
    }

    /// The clauses of the conjunction, in source order.
    #[must_use]
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the formula has no clauses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// All variables referenced anywhere in the formula, deduplicated, in
    /// canonical order.
    #[must_use]
    pub fn variables(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for clause in &self.clauses {
            clause.expr.collect_vars(&mut vars);
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Whether any referenced variable requires ground-truth labels.
    #[must_use]
    pub fn needs_labels(&self) -> bool {
        self.variables().iter().any(|v| v.needs_labels())
    }

    /// Whether any clause references a metric-qualified variable.
    #[must_use]
    pub fn has_metric(&self) -> bool {
        self.clauses.iter().any(|c| c.expr.has_metric())
    }

    /// The distinct `k` values of all `topk` variables, ascending.
    #[must_use]
    pub fn topk_ks(&self) -> Vec<u32> {
        let mut ks: Vec<u32> = self
            .variables()
            .into_iter()
            .filter_map(Var::topk_k)
            .collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " /\\ ")?;
            }
            write!(f, "{clause}")?;
        }
        Ok(())
    }
}

impl FromIterator<Clause> for Formula {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> Self {
        Formula::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diff() -> Expr {
        Expr::sub(Expr::var(Var::N), Expr::var(Var::O))
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(diff().to_string(), "n - o");
        let e = Expr::sub(Expr::var(Var::N), Expr::scale(1.1, Expr::var(Var::O)));
        assert_eq!(e.to_string(), "n - 1.1 * o");
        let e = Expr::scale(2.0, diff());
        assert_eq!(e.to_string(), "2 * (n - o)");
        // Right-associated subtraction needs parens to keep its meaning.
        let e = Expr::sub(
            Expr::var(Var::N),
            Expr::add(Expr::var(Var::O), Expr::var(Var::D)),
        );
        assert_eq!(e.to_string(), "n - (o + d)");
        // Left-associated subtraction does not.
        let e = Expr::sub(
            Expr::sub(Expr::var(Var::N), Expr::var(Var::O)),
            Expr::var(Var::D),
        );
        assert_eq!(e.to_string(), "n - o - d");
    }

    #[test]
    fn clause_display_matches_paper_syntax() {
        let c = Clause::new(diff(), CmpOp::Gt, 0.02, 0.01);
        assert_eq!(c.to_string(), "n - o > 0.02 +/- 0.01");
    }

    #[test]
    fn formula_display() {
        let f = Formula::new(vec![
            Clause::new(diff(), CmpOp::Gt, 0.02, 0.01),
            Clause::new(Expr::var(Var::D), CmpOp::Lt, 0.1, 0.01),
        ]);
        assert_eq!(f.to_string(), "n - o > 0.02 +/- 0.01 /\\ d < 0.1 +/- 0.01");
    }

    #[test]
    fn variables_are_deduplicated_and_ordered() {
        let e = Expr::add(diff(), Expr::sub(Expr::var(Var::N), Expr::var(Var::D)));
        assert_eq!(e.variables(), vec![Var::N, Var::O, Var::D]);
        assert_eq!(e.leaf_count(), 4);
    }

    #[test]
    fn label_requirements() {
        assert!(Var::N.needs_labels());
        assert!(Var::O.needs_labels());
        assert!(!Var::D.needs_labels());
        let f = Formula::new(vec![Clause::new(Expr::var(Var::D), CmpOp::Lt, 0.1, 0.01)]);
        assert!(!f.needs_labels());
        let f = Formula::new(vec![Clause::new(diff(), CmpOp::Gt, 0.0, 0.01)]);
        assert!(f.needs_labels());
    }

    #[test]
    fn metric_var_display_and_tokens() {
        assert_eq!(Var::F1N.to_string(), "f1(n)");
        assert_eq!(Var::TopKO(5).to_string(), "topk(o, 5)");
        let e = Expr::sub(Expr::var(Var::F1N), Expr::var(Var::F1O));
        assert_eq!(e.to_string(), "f1(n) - f1(o)");
        assert!(e.has_metric());
        assert!(!diff().has_metric());
    }

    #[test]
    fn metric_vars_sort_after_plain_and_need_labels() {
        let e = Expr::add(
            Expr::sub(Expr::var(Var::TopKN(3)), Expr::var(Var::F1N)),
            Expr::var(Var::D),
        );
        assert_eq!(e.variables(), vec![Var::D, Var::F1N, Var::TopKN(3)]);
        assert!(Var::F1N.needs_labels());
        assert!(Var::TopKO(2).needs_labels());
        assert!(Var::F1N.is_metric());
        assert!(!Var::D.is_metric());
        assert_eq!(Var::TopKN(7).topk_k(), Some(7));
        assert_eq!(Var::N.topk_k(), None);
    }

    #[test]
    fn formula_topk_ks_deduplicated_ascending() {
        let f = Formula::new(vec![
            Clause::new(
                Expr::sub(Expr::var(Var::TopKN(5)), Expr::var(Var::TopKO(5))),
                CmpOp::Gt,
                -0.02,
                0.01,
            ),
            Clause::new(Expr::var(Var::TopKN(2)), CmpOp::Gt, 0.8, 0.05),
        ]);
        assert_eq!(f.topk_ks(), vec![2, 5]);
        assert!(f.has_metric());
        assert!(f.needs_labels());
    }

    #[test]
    fn collect_into_formula() {
        let f: Formula = vec![Clause::new(Expr::var(Var::N), CmpOp::Gt, 0.8, 0.05)]
            .into_iter()
            .collect();
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
    }
}
