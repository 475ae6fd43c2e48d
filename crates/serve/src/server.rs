//! The allocation daemon: frame dispatch, bounded admission queue, solver
//! worker pool, and the deadline-aware degradation policy.
//!
//! The sockets are not handled here: the accept loop, the per-connection
//! reader (frame length cap, read timeout, pending-reply hold-off), the
//! shared writer and the stop signal are the daemon skeleton in
//! [`mfa_dispatch::daemon`], shared with the store-server, and the frame
//! codec is [`mfa_explore::wire`]'s. This module is the skeleton's
//! [`Handler`] for [`ToServe`] requests.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mfa_alloc::solver::{Backend, Deadline, SkipPolicy, SolveRequest, WarmStart};
use mfa_alloc::{AllocError, AllocationProblem};
use mfa_dispatch::daemon::{Conn, Daemon, Handler, LineFault, StopSignal};

use crate::cache::{family_fingerprint, ServeCache};
use crate::error::ServeError;
use crate::protocol::{
    BackendKind, FromServe, SolveOutcome, StatsReport, ToServe, PROTOCOL_VERSION,
};

/// Configuration of a [`ServeHandle`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bound on requests admitted but not yet solved. A `solve` frame
    /// arriving at a full queue is answered with [`FromServe::Rejected`]
    /// instead of being buffered without limit.
    pub queue_capacity: usize,
    /// Solver worker threads draining the queue. `0` is admission-only — no
    /// request is ever solved — which exists so tests can fill the queue
    /// deterministically and observe the rejection path.
    pub workers: usize,
    /// Requests a worker claims from the queue in one batch. Batching keeps
    /// queue-lock traffic low and lets neighbouring requests of one burst
    /// warm-start each other back to back.
    pub batch_size: usize,
    /// Remaining-deadline threshold below which a non-greedy request is
    /// degraded to [`Backend::greedy`] instead of being started (and then
    /// almost certainly dying to [`AllocError::DeadlineExceeded`]).
    pub degrade_margin: Duration,
    /// Whether solves consult and feed the fingerprint-keyed warm-start
    /// cache (individual requests can still opt out per frame).
    pub warm_start: bool,
    /// Bound on distinct request families the cache holds (FIFO eviction).
    pub family_capacity: usize,
    /// Bound on budget entries cached per family.
    pub budget_capacity: usize,
    /// Per-request read timeout of the connection reader: a connection that
    /// produces no complete frame within this window *while no reply is
    /// pending on it* is dropped (and counted), so a stalled client cannot
    /// pin a reader thread forever. While the connection has admitted
    /// requests still awaiting their reply the timeout never fires — the
    /// client is blocked on the daemon (queue wait plus solve), not stalled.
    /// `None` waits indefinitely.
    pub read_timeout: Option<Duration>,
    /// Warm-cache spill backend: a store directory path, or `tcp://host:port`
    /// to share a store-server with other daemons. `None` keeps the cache
    /// memory-only.
    pub spill: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_capacity: 64,
            workers: 2,
            batch_size: 4,
            degrade_margin: Duration::from_millis(50),
            warm_start: true,
            family_capacity: 32,
            budget_capacity: mfa_explore::DEFAULT_CACHE_CAPACITY,
            read_timeout: Some(Duration::from_secs(30)),
            spill: None,
        }
    }
}

/// A snapshot of the daemon's monotonic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered with a [`FromServe::Report`].
    pub served: usize,
    /// Served requests that ran on a downgraded backend.
    pub degraded: usize,
    /// Requests refused at admission because the queue was full.
    pub rejected: usize,
    /// Requests answered with [`FromServe::Skipped`] (no solution at this
    /// point under the lenient policy).
    pub skipped: usize,
    /// Client lines that failed to decode.
    pub decode_errors: usize,
    /// Connections dropped by the per-request read timeout.
    pub read_timeouts: usize,
}

/// One admitted request waiting for a solver worker.
struct Job {
    id: usize,
    problem: AllocationProblem,
    backend: BackendKind,
    deadline: Option<Deadline>,
    warm: bool,
    admitted: Instant,
    conn: Arc<Conn>,
}

/// State shared by the connection readers and the solver workers.
struct Shared {
    stop: StopSignal,
    options: ServeOptions,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    cache: Mutex<ServeCache>,
    served: AtomicUsize,
    degraded: AtomicUsize,
    rejected: AtomicUsize,
    skipped: AtomicUsize,
    decode_errors: AtomicUsize,
    read_timeouts: AtomicUsize,
}

/// A running allocation daemon bound to a TCP address.
///
/// [`spawn`](ServeHandle::spawn) binds the listener and starts the accept
/// loop plus the solver workers; [`stop`](ServeHandle::stop) shuts all of
/// them down and joins them. Each client connection is served by its own
/// reader thread, which exits when the client disconnects.
pub struct ServeHandle {
    daemon: Daemon,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the daemon.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the address cannot be bound.
    pub fn spawn(addr: &str, options: ServeOptions) -> Result<ServeHandle, ServeError> {
        let cache = match &options.spill {
            Some(spec) => ServeCache::with_spill(
                options.family_capacity,
                options.budget_capacity,
                open_spill(spec)?,
            ),
            None => ServeCache::new(options.family_capacity, options.budget_capacity),
        };
        let shared = Arc::new(Shared {
            stop: StopSignal::default(),
            cache: Mutex::new(cache),
            options,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            served: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            skipped: AtomicUsize::new(0),
            decode_errors: AtomicUsize::new(0),
            read_timeouts: AtomicUsize::new(0),
        });
        let daemon = Daemon::spawn(
            addr,
            Arc::clone(&shared),
            shared.stop.clone(),
            shared.options.read_timeout,
        )?;
        let workers = (0..shared.options.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(ServeHandle {
            daemon,
            shared,
            workers,
        })
    }

    /// The bound address (with `:0` resolved to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// `true` once the daemon has been asked to stop (by a client's
    /// shutdown frame or a concurrent [`stop`](Self::stop)); the `serve`
    /// binary polls this to know when to exit.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.is_raised()
    }

    /// A snapshot of the daemon's counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            served: self.shared.served.load(Ordering::Relaxed),
            degraded: self.shared.degraded.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            skipped: self.shared.skipped.load(Ordering::Relaxed),
            decode_errors: self.shared.decode_errors.load(Ordering::Relaxed),
            read_timeouts: self.shared.read_timeouts.load(Ordering::Relaxed),
        }
    }

    /// The full stats payload a `stats` frame answers with (serving
    /// counters plus warm-cache effectiveness).
    pub fn stats_report(&self) -> StatsReport {
        stats_report(&self.shared)
    }

    /// Stops the daemon: wakes the accept loop and the workers, then joins
    /// them. Jobs still queued are dropped unanswered; connection reader
    /// threads exit when their clients disconnect.
    pub fn stop(self) {
        self.daemon.stop();
        self.shared.wake_workers();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Bound on any single round trip to a remote spill store. Spill I/O runs
/// while the cache mutex is held, so a hung (not erroring) store-server
/// must cost a bounded stall — surfacing as a spill error the cache absorbs
/// (cold solve), never an indefinitely blocked worker pool.
const SPILL_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Opens the warm-cache spill backend a `--spill` spec names: a
/// `tcp://host:port` store-server session (namespace `serve-cache`, shared
/// by every daemon pointing at that server) or a local store directory.
fn open_spill(spec: &str) -> Result<Box<dyn mfa_explore::ResultStore + Send>, ServeError> {
    match mfa_storenet::store_url(spec) {
        Some(addr) => mfa_storenet::RemoteStore::connect_with_timeout(
            addr,
            "serve-cache",
            Some(SPILL_IO_TIMEOUT),
        )
        .map(|store| Box::new(store) as Box<dyn mfa_explore::ResultStore + Send>)
        .map_err(|err| ServeError::Spill(format!("{spec}: {err}"))),
        None => mfa_explore::SweepStore::open(spec)
            .map(|store| Box::new(store) as Box<dyn mfa_explore::ResultStore + Send>)
            .map_err(|err| ServeError::Spill(format!("{spec}: {err}"))),
    }
}

fn stats_report(shared: &Shared) -> StatsReport {
    let cache = shared.cache.lock().expect("cache mutex poisoned");
    StatsReport {
        served: shared.served.load(Ordering::Relaxed),
        degraded: shared.degraded.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        skipped: shared.skipped.load(Ordering::Relaxed),
        decode_errors: shared.decode_errors.load(Ordering::Relaxed),
        read_timeouts: shared.read_timeouts.load(Ordering::Relaxed),
        cache_families: cache.len(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_evictions: cache.evictions(),
        hit_rate: cache.hit_rate(),
    }
}

impl Shared {
    /// Wakes every idle solver worker so it sees the raised stop signal.
    /// The queue lock is taken first, so a worker between its stop check
    /// and its wait cannot miss the notification.
    fn wake_workers(&self) {
        let _queue = self.queue.lock().expect("queue mutex poisoned");
        self.queue_cv.notify_all();
    }
}

impl Handler for Shared {
    type Request = ToServe;
    type Reply = FromServe;
    type Session = ();
    const NAME: &'static str = "serve";

    /// Answers the handshake, admits solve requests into the bounded queue,
    /// reports stats, and honours shutdown.
    fn handle(&self, _: &mut (), conn: &Arc<Conn>, request: ToServe) -> ControlFlow<()> {
        let reply = match request {
            ToServe::Hello { protocol } if protocol != PROTOCOL_VERSION => {
                let _ = conn.send(&FromServe::Error {
                    id: 0,
                    message: format!(
                        "protocol version skew: daemon speaks {PROTOCOL_VERSION}, \
                         client sent {protocol}"
                    ),
                });
                return ControlFlow::Break(());
            }
            ToServe::Hello { .. } => FromServe::Ready {
                protocol: PROTOCOL_VERSION,
            },
            ToServe::Solve {
                id,
                problem,
                backend,
                deadline_seconds,
                warm,
            } => {
                admit(self, conn, id, problem, backend, deadline_seconds, warm);
                return ControlFlow::Continue(());
            }
            ToServe::Stats { id } => FromServe::Stats {
                id,
                stats: stats_report(self),
            },
            ToServe::Shutdown => {
                self.stop.raise();
                self.wake_workers();
                return ControlFlow::Break(());
            }
        };
        let _ = conn.send(&reply);
        ControlFlow::Continue(())
    }

    /// A stalled client counts as a read timeout; an oversized or
    /// undecodable line as a decode error.
    fn refuse(&self, fault: &LineFault) -> FromServe {
        let counter = match fault {
            LineFault::Timeout(_) => &self.read_timeouts,
            LineFault::Oversized | LineFault::Malformed(_) => &self.decode_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        FromServe::Error {
            id: 0,
            message: fault.to_string(),
        }
    }
}

/// Admission control: validates the deadline, then either enqueues the
/// request or answers [`FromServe::Rejected`] when the queue is full.
#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &Shared,
    conn: &Arc<Conn>,
    id: usize,
    problem: AllocationProblem,
    backend: BackendKind,
    deadline_seconds: Option<f64>,
    warm: bool,
) {
    // The deadline clock starts at admission: queue wait burns budget, which
    // is exactly what lets the degradation policy fire on queued requests.
    let deadline = match deadline_seconds.map(Deadline::within_seconds).transpose() {
        Ok(deadline) => deadline,
        Err(err) => {
            let _ = conn.send(&FromServe::Error {
                id,
                message: err.to_string(),
            });
            return;
        }
    };
    let job = Job {
        id,
        problem,
        backend,
        deadline,
        warm,
        admitted: Instant::now(),
        conn: Arc::clone(conn),
    };
    let rejected = {
        let mut queue = shared.queue.lock().expect("queue mutex poisoned");
        if queue.len() >= shared.options.queue_capacity {
            Some(queue.len())
        } else {
            // Raised under the queue lock, so the count is visibly non-zero
            // before any worker can claim (and answer) the job.
            conn.owe_reply();
            queue.push_back(job);
            shared.queue_cv.notify_one();
            None
        }
    };
    if let Some(queue_depth) = rejected {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        let _ = conn.send(&FromServe::Rejected {
            id,
            queue_depth,
            capacity: shared.options.queue_capacity,
        });
    }
}

/// One solver worker: claims batches off the queue and serves them.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("queue mutex poisoned");
            while queue.is_empty() && !shared.stop.is_raised() {
                queue = shared.queue_cv.wait(queue).expect("queue mutex poisoned");
            }
            if shared.stop.is_raised() {
                return;
            }
            let take = shared.options.batch_size.max(1).min(queue.len());
            queue.drain(..take).collect::<Vec<_>>()
        };
        for job in batch {
            let conn = Arc::clone(&job.conn);
            let reply = serve_one(shared, job);
            let _ = conn.send_owed(&reply);
        }
    }
}

/// Serves one admitted request end to end: degradation decision, cache
/// lookup, solve, cache update, reply construction.
fn serve_one(shared: &Arc<Shared>, job: Job) -> FromServe {
    let requested = job.backend.backend();
    let requested_label = requested.label().to_owned();

    // Deadline-aware graceful degradation: a request whose remaining budget
    // cannot plausibly fund the requested backend is downgraded to the
    // greedy fallback — run *without* the doomed deadline — instead of being
    // admitted into a solve that would only die to DeadlineExceeded. A
    // degraded result is still a real allocation; the substitution is
    // recorded in the report's provenance.
    let starved = job
        .deadline
        .map(|d| d.is_expired() || d.remaining() < shared.options.degrade_margin)
        .unwrap_or(false);
    let (served, deadline, degraded_from) = if starved {
        match requested {
            Backend::Greedy { .. } => (requested, None, None),
            _ => (Backend::greedy(), None, Some(requested_label.clone())),
        }
    } else {
        (requested, job.deadline, None)
    };

    match solve_with(shared, &job, &served, deadline, degraded_from) {
        Ok(reply) => reply,
        // Mid-flight exhaustion: the margin was optimistic and the requested
        // backend ran out of wall-clock anyway. Fall back to greedy with no
        // deadline so the daemon still returns an allocation.
        Err(AllocError::DeadlineExceeded { .. }) => {
            match solve_with(
                shared,
                &job,
                &Backend::greedy(),
                None,
                Some(requested_label),
            ) {
                Ok(reply) => reply,
                Err(err) => error_reply(shared, &job, &err),
            }
        }
        Err(err) => error_reply(shared, &job, &err),
    }
}

/// Runs one solve on `backend` and builds the reply frame. Returns `Err`
/// only for failures the caller may want to degrade on; skippable
/// no-solution outcomes become [`FromServe::Skipped`] directly.
fn solve_with(
    shared: &Arc<Shared>,
    job: &Job,
    backend: &Backend,
    deadline: Option<Deadline>,
    degraded_from: Option<String>,
) -> Result<FromServe, AllocError> {
    let family = family_fingerprint(&job.problem, backend.label())
        .map_err(|err| AllocError::InvalidArgument(err.to_string()))?;
    let warm_enabled = shared.options.warm_start && job.warm;
    let hint: Option<WarmStart> = if warm_enabled {
        shared
            .cache
            .lock()
            .expect("cache mutex poisoned")
            .lookup(family, job.problem.budget())
    } else {
        None
    };
    let cache_hit = hint.is_some();

    let mut request = SolveRequest::new(&job.problem)
        .backend(backend.clone())
        .skip_policy(SkipPolicy::Lenient);
    if let Some(hint) = hint {
        request = request.warm_start(hint);
    }
    if let Some(deadline) = deadline {
        request = request.deadline(deadline);
    }

    let started = Instant::now();
    match request.solve() {
        Ok(mut report) => {
            let solve_ms = started.elapsed().as_secs_f64() * 1e3;
            if warm_enabled {
                shared.cache.lock().expect("cache mutex poisoned").record(
                    family,
                    job.problem.budget(),
                    report.warm_start(),
                );
            }
            report.diagnostics.degraded_from = degraded_from;
            shared.served.fetch_add(1, Ordering::Relaxed);
            if report.diagnostics.degraded_from.is_some() {
                shared.degraded.fetch_add(1, Ordering::Relaxed);
            }
            let queue_ms = job.admitted.elapsed().as_secs_f64() * 1e3 - solve_ms;
            Ok(FromServe::Report {
                id: job.id,
                outcome: SolveOutcome {
                    ii_ms: report.initiation_interval_ms(&job.problem),
                    backend: report.backend.clone(),
                    degraded_from: report.diagnostics.degraded_from.clone(),
                    cu_counts: report.diagnostics.cu_counts.clone(),
                    warm_start: report.diagnostics.warm_start.provenance().to_owned(),
                    cache_hit,
                    fingerprint: family.to_hex(),
                    barrier_iterations: report.diagnostics.barrier_iterations,
                    bb_nodes: report.diagnostics.bb_nodes,
                    solve_ms,
                    queue_ms: queue_ms.max(0.0),
                },
            })
        }
        Err(err @ AllocError::DeadlineExceeded { .. }) => Err(err),
        Err(err) if SkipPolicy::Lenient.is_skippable(&err) => {
            shared.skipped.fetch_add(1, Ordering::Relaxed);
            Ok(FromServe::Skipped {
                id: job.id,
                reason: err.to_string(),
            })
        }
        Err(err) => Err(err),
    }
}

fn error_reply(shared: &Arc<Shared>, job: &Job, err: &AllocError) -> FromServe {
    // Skippable failures of the *fallback* solve still mean "no solution
    // here", not "broken request".
    if SkipPolicy::Lenient.is_skippable(err) {
        shared.skipped.fetch_add(1, Ordering::Relaxed);
        FromServe::Skipped {
            id: job.id,
            reason: err.to_string(),
        }
    } else {
        FromServe::Error {
            id: job.id,
            message: err.to_string(),
        }
    }
}
