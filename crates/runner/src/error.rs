//! Runner error type.

use std::fmt;

/// Anything that can go wrong while journaling or executing experiments.
/// The engine never panics on these: callers decide whether to fall back
/// to in-memory execution (the bench harness does) or abort (the CLI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// Filesystem-level failure (open/append/flush/truncate).
    Io(String),
    /// A journal segment that cannot be trusted (bad header, wrong
    /// schema, fingerprint mismatch that the caller asked to treat as
    /// fatal).
    Corrupt(String),
    /// Invalid caller input (unknown strategy label, bad CLI argument).
    Invalid(String),
    /// The run observed its session abort flag and stopped between
    /// trials. Nothing is corrupted: journaled trials stay valid and a
    /// later resume completes the experiment bitwise-identically.
    Canceled,
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Io(m) => write!(f, "journal I/O: {m}"),
            RunnerError::Corrupt(m) => write!(f, "journal corrupt: {m}"),
            RunnerError::Invalid(m) => write!(f, "invalid input: {m}"),
            RunnerError::Canceled => write!(f, "run canceled by session abort"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<std::io::Error> for RunnerError {
    fn from(e: std::io::Error) -> Self {
        RunnerError::Io(e.to_string())
    }
}

impl From<mtm_obs::ObsError> for RunnerError {
    fn from(e: mtm_obs::ObsError) -> Self {
        RunnerError::Io(e.0)
    }
}
