//! Error type for the bounds crate.

use std::error::Error;
use std::fmt;

/// Error returned when a bound is queried with invalid parameters.
///
/// All bound computations validate their inputs: probabilities must lie in
/// `(0, 1)`, tolerances must be positive, ranges must be positive and finite.
/// Violations are reported through this type rather than through panics so
/// that callers (e.g. a CI engine fed with a user-written script) can surface
/// the problem to the user.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundsError {
    /// A parameter that must be a probability was outside `(0, 1)`.
    InvalidProbability {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A parameter that must be strictly positive and finite was not.
    NotPositive {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The requested error tolerance exceeds the variable's dynamic range,
    /// making the estimate trivially satisfiable (and the query meaningless).
    ToleranceExceedsRange {
        /// Requested tolerance.
        epsilon: f64,
        /// Dynamic range of the variable.
        range: f64,
    },
    /// A sample size of zero was supplied where at least one sample is needed.
    ZeroSampleSize,
    /// The computed sample size overflows the supported maximum.
    SampleSizeOverflow {
        /// The (unrounded) value that overflowed.
        raw: f64,
    },
    /// A numeric routine failed to converge.
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
    },
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsError::InvalidProbability { name, value } => {
                write!(
                    f,
                    "parameter `{name}` must lie strictly in (0, 1), got {value}"
                )
            }
            BoundsError::NotPositive { name, value } => {
                write!(
                    f,
                    "parameter `{name}` must be positive and finite, got {value}"
                )
            }
            BoundsError::ToleranceExceedsRange { epsilon, range } => {
                write!(
                    f,
                    "error tolerance {epsilon} is not smaller than the variable range {range}"
                )
            }
            BoundsError::ZeroSampleSize => write!(f, "sample size must be at least 1"),
            BoundsError::SampleSizeOverflow { raw } => {
                write!(
                    f,
                    "computed sample size {raw} overflows the supported maximum"
                )
            }
            BoundsError::NoConvergence { routine } => {
                write!(f, "numeric routine `{routine}` failed to converge")
            }
        }
    }
}

impl Error for BoundsError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, BoundsError>;

pub(crate) fn check_probability(name: &'static str, value: f64) -> Result<()> {
    if value.is_finite() && value > 0.0 && value < 1.0 {
        Ok(())
    } else {
        Err(BoundsError::InvalidProbability { name, value })
    }
}

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<()> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(BoundsError::NotPositive { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = BoundsError::InvalidProbability {
            name: "delta",
            value: 1.5,
        };
        let msg = err.to_string();
        assert!(msg.contains("delta"));
        assert!(msg.contains("1.5"));
    }

    #[test]
    fn probability_check_accepts_open_interval() {
        assert!(check_probability("p", 0.5).is_ok());
        assert!(check_probability("p", 1e-300).is_ok());
        assert!(check_probability("p", 0.0).is_err());
        assert!(check_probability("p", 1.0).is_err());
        assert!(check_probability("p", f64::NAN).is_err());
        assert!(check_probability("p", -0.1).is_err());
    }

    #[test]
    fn positive_check() {
        assert!(check_positive("r", 2.0).is_ok());
        assert!(check_positive("r", 0.0).is_err());
        assert!(check_positive("r", f64::INFINITY).is_err());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BoundsError>();
    }
}
