//! The daemon skeleton the allocation daemon (`mfa_serve`) and the
//! store-server (`mfa_storenet`) both run on: bind, an accept loop with one
//! reader thread per connection, a line reader with a length cap
//! ([`MAX_FRAME_BYTES`]), the read timeout and the pending-reply hold-off, a
//! writer behind a mutex ([`Conn`]), and one [`StopSignal`] for both
//! `stop()` and a client's shutdown frame. A daemon supplies its
//! [`Handler`]: what a request does, and which error frame refuses a line.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mfa_explore::wire::{self, Frame, WireError};

use crate::DispatchError;

/// Longest inbound frame a daemon buffers, newline excluded: far above any
/// legitimate frame (a store `get` costs ~36 bytes per fingerprint, so this
/// admits ~1.8 M points per batch), and the bound on what a peer streaming
/// bytes without a newline can make a daemon hold.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Why a line cannot be served. The daemon answers with its error frame
/// ([`Handler::refuse`]) and drops the connection: a stream that lost its
/// framing once cannot be trusted to frame the next line either.
#[derive(Debug, Clone, PartialEq)]
pub enum LineFault {
    /// No complete frame within the read timeout while no reply was owed.
    Timeout(Duration),
    /// More than [`MAX_FRAME_BYTES`] arrived without a newline.
    Oversized,
    /// The line did not decode as a request frame.
    Malformed(WireError),
}

impl fmt::Display for LineFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineFault::Timeout(limit) => {
                write!(f, "read timed out: no complete frame within {limit:.0?}")
            }
            LineFault::Oversized => write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes"),
            LineFault::Malformed(err) => write!(f, "malformed frame: {err}"),
        }
    }
}

/// A daemon's stop signal. Raising it wakes the accept loop with a
/// throwaway connection, whoever raised it.
#[derive(Debug, Clone, Default)]
pub struct StopSignal(Arc<StopState>);

#[derive(Debug, Default)]
struct StopState {
    raised: AtomicBool,
    /// The listener's address, set when the daemon binds.
    wake: OnceLock<SocketAddr>,
}

impl StopSignal {
    /// Raises the signal and wakes the accept loop.
    pub fn raise(&self) {
        self.0.raised.store(true, Ordering::SeqCst);
        if let Some(addr) = self.0.wake.get() {
            let _ = TcpStream::connect(addr);
        }
    }

    /// `true` once [`raise`](Self::raise) was called.
    pub fn is_raised(&self) -> bool {
        self.0.raised.load(Ordering::SeqCst)
    }
}

/// The write side of one connection, shared by its reader thread and
/// whoever else answers its requests (serve's solver workers).
#[derive(Debug)]
pub struct Conn {
    writer: Mutex<TcpStream>,
    /// Replies owed: while non-zero the client is blocked on the daemon, not
    /// stalled, so the read timeout must not drop it.
    owed: AtomicUsize,
}

impl Conn {
    /// Writes one frame line.
    ///
    /// # Errors
    ///
    /// An unencodable frame or a closed connection.
    pub fn send(&self, frame: &impl Frame) -> Result<(), DispatchError> {
        wire::write_frame(&mut *self.writer.lock().expect("writer poisoned"), frame)
    }

    /// Records an owed reply, holding off the read timeout until
    /// [`send_owed`](Self::send_owed) delivers it.
    pub fn owe_reply(&self) {
        self.owed.fetch_add(1, Ordering::AcqRel);
    }

    /// Writes an owed reply.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send); the reply is settled either way.
    pub fn send_owed(&self, frame: &impl Frame) -> Result<(), DispatchError> {
        let sent = self.send(frame);
        self.owed.fetch_sub(1, Ordering::AcqRel);
        sent
    }
}

/// What a daemon does with its connections.
pub trait Handler: Send + Sync + 'static {
    /// Frames clients send.
    type Request: Frame;
    /// Frames the daemon answers with.
    type Reply: Frame;
    /// Per-connection state, fresh for every connection.
    type Session: Default;
    /// Prefix of the daemon's stderr reports.
    const NAME: &'static str;

    /// Serves one request; [`ControlFlow::Break`] closes the connection.
    fn handle(
        &self,
        session: &mut Self::Session,
        conn: &Arc<Conn>,
        request: Self::Request,
    ) -> ControlFlow<()>;

    /// The error frame refusing a line; the connection is dropped after it.
    fn refuse(&self, fault: &LineFault) -> Self::Reply;
}

/// A running daemon: the bound listener's accept thread.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    stop: StopSignal,
    accept: JoinHandle<()>,
}

impl Daemon {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and accepts connections for
    /// `handler`, each on its own reader thread with `read_timeout` (`None`
    /// waits indefinitely), until `stop` is raised.
    ///
    /// # Errors
    ///
    /// The I/O error when the address cannot be bound.
    pub fn spawn<H: Handler>(
        addr: &str,
        handler: Arc<H>,
        stop: StopSignal,
        read_timeout: Option<Duration>,
    ) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Set once: a stop signal belongs to one daemon.
        let _ = stop.0.wake.set(addr);
        let signal = stop.clone();
        let accept = thread::spawn(move || {
            for stream in listener.incoming() {
                if signal.is_raised() {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let (handler, stop) = (Arc::clone(&handler), signal.clone());
                        // Not joined: a reader exits at EOF or on the signal.
                        thread::spawn(move || {
                            serve_connection(stream, &*handler, &stop, read_timeout)
                        });
                    }
                    Err(err) => eprintln!("{}: accept failed: {err}", H::NAME),
                }
            }
        });
        Ok(Daemon { addr, stop, accept })
    }

    /// The bound address (with `:0` resolved to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the stop signal and joins the accept loop.
    pub fn stop(self) {
        self.stop.raise();
        let _ = self.accept.join();
    }
}

/// Reads, decodes and dispatches one connection's lines until EOF, the stop
/// signal, the handler's `Break`, or a fault the handler's error frame
/// answers.
fn serve_connection<H: Handler>(
    stream: TcpStream,
    handler: &H,
    stop: &StopSignal,
    limit: Option<Duration>,
) {
    let conn = match stream.try_clone().and_then(|writer| {
        stream.set_read_timeout(limit)?;
        Ok(writer)
    }) {
        Ok(writer) => Arc::new(Conn {
            writer: Mutex::new(writer),
            owed: AtomicUsize::new(0),
        }),
        Err(err) => {
            eprintln!("{}: cannot set up connection: {err}", H::NAME);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut session = H::Session::default();
    while !stop.is_raised() {
        let fault = match read_line(&mut reader, &mut line, &conn, stop, limit) {
            Ok(Ok(true)) => match decode_line(&line) {
                Ok(None) => continue,
                Ok(Some(request)) => {
                    if handler.handle(&mut session, &conn, request).is_break() {
                        return;
                    }
                    continue;
                }
                Err(fault) => fault,
            },
            Ok(Ok(false)) => return,
            Ok(Err(fault)) => fault,
            Err(err) => {
                eprintln!("{}: connection read failed: {err}", H::NAME);
                return;
            }
        };
        let _ = conn.send(&handler.refuse(&fault));
        return;
    }
}

/// Decodes one line; `None` for a blank line, which the protocols skip.
fn decode_line<F: Frame>(line: &[u8]) -> Result<Option<F>, LineFault> {
    let text = std::str::from_utf8(line)
        .map_err(|err| LineFault::Malformed(WireError::Parse(err.to_string())))?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    F::decode(text.trim_end())
        .map(Some)
        .map_err(LineFault::Malformed)
}

/// Reads the next line into `line`: `true` for a line (the last one may
/// lack its newline), `false` when the client is gone or the daemon stops,
/// or a fault to answer.
///
/// # Errors
///
/// A transport failure: there is nothing left to answer on.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
    conn: &Conn,
    stop: &StopSignal,
    limit: Option<Duration>,
) -> io::Result<Result<bool, LineFault>> {
    line.clear();
    loop {
        // Room for a frame of exactly the cap plus its newline.
        let room = (MAX_FRAME_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', line) {
            Ok(_) if line.len() > MAX_FRAME_BYTES && line.last() != Some(&b'\n') => {
                return Ok(Err(LineFault::Oversized))
            }
            Ok(read) => return Ok(Ok(read > 0)),
            // A timed-out read is WouldBlock or TimedOut depending on the
            // platform; a partial frame read so far stays in `line`.
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.is_raised() {
                    return Ok(Ok(false));
                }
                // A client blocked on its own reply (queue wait plus solve
                // can outlast any window) is waiting on us: keep listening.
                if conn.owed.load(Ordering::Acquire) == 0 {
                    let limit = limit.expect("a read only times out when a timeout is armed");
                    return Ok(Err(LineFault::Timeout(limit)));
                }
            }
            Err(err) => return Err(err),
        }
    }
}
