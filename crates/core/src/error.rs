//! Error types for the ease.ml/ci core crate.

use easeml_bounds::BoundsError;
use std::error::Error;
use std::fmt;

/// Top-level error type for the core crate.
///
/// Every public fallible operation returns this type, so that a CI driver
/// can report parse errors, estimation failures, and engine misuse
/// uniformly to the user.
#[derive(Debug, Clone, PartialEq)]
pub enum CiError {
    /// The condition text failed to tokenize or parse.
    Parse(ParseError),
    /// The script file (`.travis.yml` + `ml:` section) is malformed.
    Script(ScriptError),
    /// A semantic constraint on the parsed condition was violated
    /// (non-linear expression, bad tolerance, empty formula, ...).
    Semantic(String),
    /// A sample-size bound rejected its parameters.
    Bounds(BoundsError),
    /// The engine was driven outside its contract (commit after budget
    /// exhaustion, mismatched prediction lengths, ...).
    Engine(EngineError),
}

impl fmt::Display for CiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CiError::Parse(e) => write!(f, "condition parse error: {e}"),
            CiError::Script(e) => write!(f, "script error: {e}"),
            CiError::Semantic(msg) => write!(f, "semantic error: {msg}"),
            CiError::Bounds(e) => write!(f, "bound computation failed: {e}"),
            CiError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl Error for CiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CiError::Parse(e) => Some(e),
            CiError::Script(e) => Some(e),
            CiError::Bounds(e) => Some(e),
            CiError::Engine(e) => Some(e),
            CiError::Semantic(_) => None,
        }
    }
}

impl From<ParseError> for CiError {
    fn from(e: ParseError) -> Self {
        CiError::Parse(e)
    }
}

impl From<ScriptError> for CiError {
    fn from(e: ScriptError) -> Self {
        CiError::Script(e)
    }
}

impl From<BoundsError> for CiError {
    fn from(e: BoundsError) -> Self {
        CiError::Bounds(e)
    }
}

impl From<EngineError> for CiError {
    fn from(e: EngineError) -> Self {
        CiError::Engine(e)
    }
}

/// Error produced while tokenizing or parsing a condition string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the condition text where the error was detected.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl ParseError {
    /// Create a parse error at `offset` with the given message.
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at offset {})", self.message, self.offset)
    }
}

impl Error for ParseError {}

/// Error produced while reading the `ml:` section of a CI script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number in the script, when known.
    pub line: Option<usize>,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl ScriptError {
    /// Create a script error with no line attribution.
    pub fn new(message: impl Into<String>) -> Self {
        ScriptError {
            line: None,
            message: message.into(),
        }
    }

    /// Create a script error attributed to a 1-based line number.
    pub fn at_line(line: usize, message: impl Into<String>) -> Self {
        ScriptError {
            line: Some(line),
            message: message.into(),
        }
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "{} (line {line})", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl Error for ScriptError {}

/// Error produced by the CI engine at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A commit was submitted after the testset budget was exhausted (and
    /// no fresh testset was installed).
    BudgetExhausted {
        /// The configured number of steps the testset supports.
        steps: u32,
    },
    /// The commit's prediction vector length does not match the testset.
    PredictionLengthMismatch {
        /// Number of predictions supplied by the commit.
        got: usize,
        /// Number of examples in the testset.
        want: usize,
    },
    /// The supplied testset is smaller than the sample-size estimate
    /// demands for the configured condition.
    TestsetTooSmall {
        /// Number of examples supplied.
        got: usize,
        /// Number of examples required.
        want: u64,
    },
    /// A label oracle failed to produce a label for the given index.
    LabelUnavailable {
        /// Index of the testset item that could not be labelled.
        index: usize,
    },
    /// The engine has retired the current testset (hybrid adaptivity) and
    /// needs a fresh one before accepting more commits.
    TestsetRetired,
    /// A fresh testset would take the era counter past `u32::MAX`.
    EraOverflow,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BudgetExhausted { steps } => {
                write!(
                    f,
                    "testset budget of {steps} evaluations is exhausted; provide a fresh testset"
                )
            }
            EngineError::PredictionLengthMismatch { got, want } => {
                write!(
                    f,
                    "commit supplied {got} predictions but the testset has {want} examples"
                )
            }
            EngineError::TestsetTooSmall { got, want } => {
                write!(
                    f,
                    "testset has {got} examples but the condition requires {want}"
                )
            }
            EngineError::LabelUnavailable { index } => {
                write!(f, "no label available for testset item {index}")
            }
            EngineError::TestsetRetired => {
                write!(
                    f,
                    "the current testset is retired; install a fresh testset to continue"
                )
            }
            EngineError::EraOverflow => write!(f, "era counter overflow"),
        }
    }
}

impl Error for EngineError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains() {
        let err = CiError::from(ParseError::new(7, "unexpected token `/`"));
        assert!(err.to_string().contains("unexpected token"));
        assert!(err.to_string().contains("offset 7"));
        assert!(err.source().is_some());
    }

    #[test]
    fn script_error_line_attribution() {
        let err = ScriptError::at_line(3, "missing `condition` key");
        assert!(err.to_string().contains("line 3"));
        let err = ScriptError::new("empty script");
        assert_eq!(err.to_string(), "empty script");
    }

    #[test]
    fn engine_error_messages() {
        let e = EngineError::BudgetExhausted { steps: 32 };
        assert!(e.to_string().contains("32"));
        let e = EngineError::PredictionLengthMismatch { got: 10, want: 20 };
        assert!(e.to_string().contains("10") && e.to_string().contains("20"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CiError>();
    }
}
