//! Error type of the sharded dispatcher.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use mfa_explore::wire::WireError;
use mfa_explore::ExploreError;

/// Error returned by the dispatcher and the worker loop.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DispatchError {
    /// Planning or option validation failed (zero chunk size, bad grid).
    Explore(ExploreError),
    /// The grid or a result could not be encoded for the wire (NaN floats).
    Wire(WireError),
    /// A transport-level I/O failure outside any single worker's fault
    /// handling (worker-local I/O faults are absorbed by reassignment).
    Io(String),
    /// The peer violated the frame protocol in a way that is not
    /// recoverable by reassignment (version skew, unit before job, …).
    Protocol(String),
    /// `run_sweep_sharded` was called with an empty worker list.
    NoWorkers,
    /// A worker process could not be spawned.
    Spawn {
        /// The program that failed to start.
        program: String,
        /// The underlying OS error.
        message: String,
    },
    /// A TCP worker could not be reached.
    Connect {
        /// The address dialled.
        addr: String,
        /// The underlying OS error.
        message: String,
    },
    /// No `sweep-worker` binary next to the current executable.
    WorkerBinaryNotFound {
        /// The candidate paths that were checked.
        searched: Vec<PathBuf>,
    },
    /// A worker reported a deterministic solver failure for a unit — the
    /// sharded equivalent of [`ExploreError::Solver`]. Not retried, because
    /// every worker would fail the same way.
    Solver {
        /// Index of the failing unit in planned order.
        unit: usize,
        /// Display form of the worker-side [`ExploreError`].
        message: String,
    },
    /// A unit crashed every worker it was leased to.
    UnitExhausted {
        /// Index of the poisoned unit in planned order.
        unit: usize,
        /// How many leases were attempted.
        attempts: usize,
    },
    /// Every worker died (or timed out) with work still outstanding.
    AllWorkersLost {
        /// Units without a result when the last worker was lost.
        outstanding: usize,
        /// The most recent worker fault observed, if any (corrupt frame
        /// description, timeout note) — the best available diagnosis.
        last_fault: Option<String>,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Explore(err) => write!(f, "{err}"),
            DispatchError::Wire(err) => write!(f, "wire codec failure: {err}"),
            DispatchError::Io(msg) => write!(f, "dispatcher I/O failure: {msg}"),
            DispatchError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DispatchError::NoWorkers => write!(f, "a sharded sweep needs at least one worker"),
            DispatchError::Spawn { program, message } => {
                write!(f, "could not spawn worker '{program}': {message}")
            }
            DispatchError::Connect { addr, message } => {
                write!(f, "could not connect to worker at {addr}: {message}")
            }
            DispatchError::WorkerBinaryNotFound { searched } => {
                write!(
                    f,
                    "no sweep-worker binary found (searched: {}); \
                     build it with `cargo build --release -p mfa_dispatch`",
                    searched
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
            DispatchError::Solver { unit, message } => {
                write!(f, "work unit {unit} failed deterministically: {message}")
            }
            DispatchError::UnitExhausted { unit, attempts } => write!(
                f,
                "work unit {unit} crashed or timed out all {attempts} workers it was leased to"
            ),
            DispatchError::AllWorkersLost {
                outstanding,
                last_fault,
            } => {
                write!(
                    f,
                    "all workers were lost with {outstanding} work unit(s) outstanding"
                )?;
                if let Some(fault) = last_fault {
                    write!(f, " (last fault: {fault})")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for DispatchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DispatchError::Explore(err) => Some(err),
            DispatchError::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ExploreError> for DispatchError {
    fn from(err: ExploreError) -> Self {
        DispatchError::Explore(err)
    }
}

impl From<WireError> for DispatchError {
    fn from(err: WireError) -> Self {
        DispatchError::Wire(err)
    }
}

impl From<std::io::Error> for DispatchError {
    fn from(err: std::io::Error) -> Self {
        DispatchError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_piece() {
        assert!(DispatchError::NoWorkers.to_string().contains("worker"));
        assert!(DispatchError::Solver {
            unit: 3,
            message: "boom".into()
        }
        .to_string()
        .contains("unit 3"));
        assert!(DispatchError::UnitExhausted {
            unit: 2,
            attempts: 3
        }
        .to_string()
        .contains("3 workers"));
        let lost = DispatchError::AllWorkersLost {
            outstanding: 5,
            last_fault: Some("malformed JSON: …".into()),
        };
        assert!(lost.to_string().contains('5'));
        assert!(lost.to_string().contains("malformed"));
        assert!(DispatchError::WorkerBinaryNotFound {
            searched: vec![PathBuf::from("/tmp/x")]
        }
        .to_string()
        .contains("/tmp/x"));
        let wrapped = DispatchError::Explore(ExploreError::InvalidOptions("chunk".into()));
        assert!(Error::source(&wrapped).is_some());
        assert!(Error::source(&DispatchError::NoWorkers).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DispatchError>();
    }
}
