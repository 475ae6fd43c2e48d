//! Error type of the allocation service.

use std::fmt;

use mfa_explore::wire::WireError;

/// Error returned by the serving layer (daemon, client, and protocol).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A transport-level I/O failure (connect, read, write, bind).
    Io(std::io::Error),
    /// A frame failed to encode or decode.
    Wire(WireError),
    /// The peer violated the session protocol (version skew, an unexpected
    /// frame, a reply for the wrong request id).
    Protocol(String),
    /// The daemon reported a request-level failure (invalid deadline,
    /// non-skippable solver error). Carries the daemon's message verbatim.
    Server(String),
    /// The warm-cache spill backend could not be opened at startup.
    Spill(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(err) => write!(f, "I/O error: {err}"),
            ServeError::Wire(err) => write!(f, "wire error: {err}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
            ServeError::Spill(msg) => write!(f, "cannot open spill backend: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(err) => Some(err),
            ServeError::Wire(err) => Some(err),
            ServeError::Protocol(_) | ServeError::Server(_) | ServeError::Spill(_) => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

impl From<WireError> for ServeError {
    fn from(err: WireError) -> Self {
        ServeError::Wire(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        assert!(ServeError::Protocol("hello before ready".into())
            .to_string()
            .contains("hello"));
        assert!(ServeError::Server("invalid deadline".into())
            .to_string()
            .contains("deadline"));
        assert!(ServeError::Wire(WireError::NonFinite("ii_ms"))
            .to_string()
            .contains("ii_ms"));
        assert!(ServeError::Spill("no such dir".into())
            .to_string()
            .contains("spill"));
    }
}
