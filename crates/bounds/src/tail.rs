//! Tail sidedness shared by all concentration bounds.

use std::fmt;

/// Whether a deviation bound controls one tail or both tails of the
/// estimator's distribution.
///
/// The ease.ml/ci paper states its sample-size estimator in the *one-sided*
/// form `n = -r² ln δ / (2ε²)` (Figure 2 and the §3.3 worked examples are
/// reproduced with [`Tail::OneSided`]), while the Bennett-based optimized
/// estimators of §4 carry the two-sided factor `2` in front of the
/// exponential (the Figure 5 sample sizes 4 713 and 5 204 are reproduced
/// with [`Tail::TwoSided`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tail {
    /// Control a single tail: `Pr[estimate - truth > ε] ≤ δ`.
    OneSided,
    /// Control both tails: `Pr[|estimate - truth| > ε] ≤ δ`.
    #[default]
    TwoSided,
}

impl Tail {
    /// Multiplicity factor in front of the exponential term: 1 or 2.
    #[must_use]
    pub fn factor(self) -> f64 {
        match self {
            Tail::OneSided => 1.0,
            Tail::TwoSided => 2.0,
        }
    }

    /// `ln` of [`Tail::factor`], used by log-space computations.
    #[must_use]
    pub fn ln_factor(self) -> f64 {
        match self {
            Tail::OneSided => 0.0,
            Tail::TwoSided => std::f64::consts::LN_2,
        }
    }

    /// Stable single-byte code, the tail's part of the estimator's plan
    /// fingerprint. Distinct tails must keep distinct codes.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Tail::OneSided => 1,
            Tail::TwoSided => 2,
        }
    }
}

impl fmt::Display for Tail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tail::OneSided => write!(f, "one-sided"),
            Tail::TwoSided => write!(f, "two-sided"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors() {
        assert_eq!(Tail::OneSided.factor(), 1.0);
        assert_eq!(Tail::TwoSided.factor(), 2.0);
        assert_eq!(Tail::OneSided.ln_factor(), 0.0);
        assert!((Tail::TwoSided.ln_factor() - 2f64.ln()).abs() < 1e-15);
    }

    #[test]
    fn default_is_two_sided() {
        assert_eq!(Tail::default(), Tail::TwoSided);
    }

    #[test]
    fn codes_are_distinct() {
        assert_eq!(Tail::OneSided.code(), 1);
        assert_eq!(Tail::TwoSided.code(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(Tail::OneSided.to_string(), "one-sided");
        assert_eq!(Tail::TwoSided.to_string(), "two-sided");
    }
}
