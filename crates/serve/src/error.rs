//! Error type of the serving layer, with a stable HTTP status mapping.

use easeml_ci_core::EngineError;
use std::fmt;

/// Anything the serving layer can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// The client's request is invalid (bad JSON, bad script, impossible
    /// counts). Maps to 400.
    BadRequest(String),
    /// The addressed resource does not exist. Maps to 404.
    NotFound(String),
    /// The request conflicts with existing state (duplicate project
    /// name). Maps to 409.
    Conflict(String),
    /// The resource exists but can no longer serve the request (retired
    /// era, exhausted budget). Maps to 409 as well — the state is
    /// client-fixable by installing a fresh testset.
    Gone(String),
    /// Durable state on disk is damaged; refuse to serve rather than
    /// silently diverge. Maps to 500.
    Corrupt {
        /// Which file is damaged.
        path: std::path::PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// The server is temporarily unable to take the request — admission
    /// control shed it, or the service is in read-only degraded mode.
    /// Maps to 503 (the client should back off and retry).
    Unavailable(String),
    /// An underlying I/O failure. Maps to 500.
    Io(std::io::Error),
}

impl ServeError {
    /// The HTTP status code this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::Conflict(_) | ServeError::Gone(_) => 409,
            ServeError::Unavailable(_) => 503,
            ServeError::Corrupt { .. } | ServeError::Io(_) => 500,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(m)
            | ServeError::NotFound(m)
            | ServeError::Conflict(m)
            | ServeError::Gone(m)
            | ServeError::Unavailable(m) => write!(f, "{m}"),
            ServeError::Corrupt { path, reason } => {
                write!(f, "corrupt state file {}: {reason}", path.display())
            }
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The gate's refusals: a closed era is [`ServeError::Gone`], the era
/// counter's overflow a bad request.
impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::BudgetExhausted { steps } => ServeError::Gone(format!(
                "step budget H = {steps} exhausted; install a fresh testset"
            )),
            EngineError::TestsetRetired => {
                ServeError::Gone("testset era is retired; install a fresh testset".into())
            }
            other => ServeError::BadRequest(other.to_string()),
        }
    }
}
