//! A blocking client of the allocation daemon.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use mfa_alloc::AllocationProblem;
use mfa_explore::wire;

use crate::error::ServeError;
use crate::protocol::{
    BackendKind, FromServe, SolveOutcome, StatsReport, ToServe, PROTOCOL_VERSION,
};

/// How the daemon answered one solve request (the non-error outcomes; a
/// daemon-side request failure surfaces as [`ServeError::Server`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SolveReply {
    /// The request was solved; here is the result.
    Report(SolveOutcome),
    /// The admission queue was full; retry after backing off.
    Rejected {
        /// Queue occupancy observed at rejection time.
        queue_depth: usize,
        /// The daemon's configured queue capacity.
        capacity: usize,
    },
    /// The problem has no solution at this point (infeasible constraint,
    /// unplaceable discretization).
    Skipped {
        /// Display form of the underlying solver error.
        reason: String,
    },
}

/// A connected, handshaken session with the allocation daemon. One request
/// is in flight at a time; [`solve`](Self::solve) blocks until the daemon
/// replies.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: usize,
}

impl ServeClient {
    /// Connects to the daemon at `addr` and performs the `hello`/`ready`
    /// handshake.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connection failure, [`ServeError::Protocol`] on
    /// version skew or an unexpected first frame.
    pub fn connect(addr: &str) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = ServeClient {
            reader: BufReader::new(stream),
            writer,
            next_id: 0,
        };
        client.send(&ToServe::Hello {
            protocol: PROTOCOL_VERSION,
        })?;
        match client.read_frame()? {
            FromServe::Ready { protocol } if protocol == PROTOCOL_VERSION => Ok(client),
            FromServe::Ready { protocol } => Err(ServeError::Protocol(format!(
                "version skew: daemon speaks {protocol}, this client speaks {PROTOCOL_VERSION}"
            ))),
            FromServe::Error { message, .. } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "expected ready, got {other:?}"
            ))),
        }
    }

    /// Sends one solve request and blocks for its reply.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when the daemon reports the request broken or
    /// failed; transport and protocol errors otherwise.
    pub fn solve(
        &mut self,
        problem: &AllocationProblem,
        backend: BackendKind,
        deadline_seconds: Option<f64>,
        warm: bool,
    ) -> Result<SolveReply, ServeError> {
        self.next_id += 1;
        let id = self.next_id;
        self.send(&ToServe::Solve {
            id,
            problem: problem.clone(),
            backend,
            deadline_seconds,
            warm,
        })?;
        match self.read_frame()? {
            FromServe::Report { id: got, outcome } if got == id => Ok(SolveReply::Report(outcome)),
            FromServe::Rejected {
                id: got,
                queue_depth,
                capacity,
            } if got == id => Ok(SolveReply::Rejected {
                queue_depth,
                capacity,
            }),
            FromServe::Skipped { id: got, reason } if got == id => {
                Ok(SolveReply::Skipped { reason })
            }
            FromServe::Error { message, .. } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "reply for the wrong request: expected id {id}, got {other:?}"
            ))),
        }
    }

    /// Fetches the daemon's serving and warm-cache counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when the daemon reports a failure; transport
    /// and protocol errors otherwise.
    pub fn stats(&mut self) -> Result<StatsReport, ServeError> {
        self.next_id += 1;
        let id = self.next_id;
        self.send(&ToServe::Stats { id })?;
        match self.read_frame()? {
            FromServe::Stats { id: got, stats } if got == id => Ok(stats),
            FromServe::Error { message, .. } => Err(ServeError::Server(message)),
            other => Err(ServeError::Protocol(format!(
                "reply for the wrong request: expected id {id}, got {other:?}"
            ))),
        }
    }

    /// Asks the daemon to shut down (all connections, not just this one) and
    /// closes the session.
    ///
    /// # Errors
    ///
    /// Transport errors while sending the frame.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.send(&ToServe::Shutdown)
    }

    fn send(&mut self, frame: &ToServe) -> Result<(), ServeError> {
        wire::write_frame(&mut self.writer, frame)
    }

    fn read_frame(&mut self) -> Result<FromServe, ServeError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ServeError::Protocol(
                "daemon closed the connection mid-session".into(),
            ));
        }
        Ok(FromServe::decode(line.trim_end())?)
    }
}
