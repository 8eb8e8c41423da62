//! The ease.ml/ci condition language (Appendix A).
//!
//! A condition is a conjunction of clauses, each comparing a linear
//! expression over the variables `n` (new-model accuracy), `o` (old-model
//! accuracy) and `d` (prediction difference) against a threshold with an
//! explicit error tolerance:
//!
//! ```text
//! n - o > 0.02 +/- 0.01 /\ d < 0.1 +/- 0.01
//! ```
//!
//! [`parse_formula`] parses, [`validate_formula`] checks semantic sanity,
//! [`LinearForm`] exposes the canonical linear view used by the sample-size
//! estimator, and [`classify_clause`] feeds the §4 pattern optimizer.

mod analysis;
mod ast;
mod parser;
mod token;

pub use analysis::{classify_clause, validate_formula, ClauseShape, LinearForm};
pub use ast::{Clause, CmpOp, Expr, Formula, Var};
pub use parser::{parse_clause, parse_expr, parse_formula};
pub use token::{tokenize, Spanned, Token, MAX_TOKENS};
