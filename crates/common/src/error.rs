//! Error type shared by the JISC crate family.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, JiscError>;

/// Errors surfaced by the engine and migration layers.
///
/// The engine is largely infallible once a plan is validated, so most
/// variants concern plan construction and transition requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JiscError {
    /// A plan specification is structurally invalid (e.g. fewer than two
    /// streams, duplicate stream names, unknown stream referenced).
    InvalidPlan(String),
    /// A transition was requested to a plan that is not equivalent to the
    /// running one (different stream set or join semantics).
    NotEquivalent(String),
    /// A tuple referenced a stream that the running plan does not contain.
    UnknownStream(String),
    /// A configuration value is out of range (e.g. zero window size).
    InvalidConfig(String),
    /// Internal invariant violation; indicates a bug, never expected input.
    Internal(String),
    /// A worker/engine thread died of a panic; carries the shard index and
    /// the stringified panic payload.
    WorkerPanic {
        /// Index of the shard.
        shard: usize,
        /// Stringified panic payload.
        payload: String,
    },
    /// A bounded send did not complete within its timeout (backpressure
    /// persisted for the whole window).
    SendTimeout {
        /// The timeout that elapsed, in milliseconds.
        millis: u64,
    },
}

impl fmt::Display for JiscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JiscError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            JiscError::NotEquivalent(m) => write!(f, "plans not equivalent: {m}"),
            JiscError::UnknownStream(m) => write!(f, "unknown stream: {m}"),
            JiscError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            JiscError::Internal(m) => write!(f, "internal invariant violated: {m}"),
            JiscError::WorkerPanic { shard, payload } => {
                write!(f, "worker for shard {shard} panicked: {payload}")
            }
            JiscError::SendTimeout { millis } => {
                write!(f, "send timed out after {millis} ms (queue full)")
            }
        }
    }
}

impl std::error::Error for JiscError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = JiscError::InvalidPlan("need two streams".into());
        assert_eq!(e.to_string(), "invalid plan: need two streams");
        let e = JiscError::Internal("oops".into());
        assert!(e.to_string().contains("oops"));
    }

    #[test]
    fn structured_fault_errors_display_context() {
        let e = JiscError::WorkerPanic {
            shard: 3,
            payload: "index out of bounds".into(),
        };
        assert_eq!(
            e.to_string(),
            "worker for shard 3 panicked: index out of bounds"
        );
        assert!(JiscError::SendTimeout { millis: 250 }
            .to_string()
            .contains("250 ms"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&JiscError::UnknownStream("X".into()));
    }
}
