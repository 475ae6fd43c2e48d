//! Multi-process sharded sweep dispatcher.
//!
//! [`mfa_explore::run_sweep`] parallelizes a [`mfa_explore::SweepGrid`]
//! across threads; this crate parallelizes it across OS *processes* — and,
//! over TCP, across hosts — without changing a single byte of the output.
//! The move mirrors how inter-node collectives are layered over a fixed
//! single-node algorithm: the executor's deterministic chunk decomposition
//! ([`mfa_explore::plan_units`]) and per-unit solve
//! ([`mfa_explore::compute_unit`]) stay exactly as they are, and this crate
//! adds only transport, scheduling and failure handling around them.
//!
//! * [`run_sweep_sharded`] — the dispatcher. Serializes the grid once,
//!   leases work units to workers (spawned over stdio or connected over
//!   TCP), reassigns leases on worker crash, corrupt frames, or lease
//!   timeout, and merges results by unit index so the output is
//!   byte-identical to a serial in-process run (timing fields aside)
//!   regardless of worker count, partition, or completion order.
//! * [`serve`] — the worker loop; the `sweep-worker` binary wraps it for
//!   stdio and TCP operation.
//! * [`protocol`] — the JSON-lines frame protocol, built on
//!   [`mfa_explore::wire`]'s frame layer and exact-round-trip codec.
//! * [`daemon`] — the daemon skeleton (accept loop, bounded line reader
//!   with read timeout and pending-reply hold-off, shared writer, stop
//!   signal) the allocation daemon and the store-server run on. It lives
//!   here, next to the [`protocol::PROTOCOL_VERSION`] every daemon speaks,
//!   because this is the lowest crate both depend on.
//! * [`FaultPlan`] — deterministic fault injection (crash mid-sweep,
//!   truncated frames) used by the integration tests to prove the
//!   reassignment paths preserve output bytes.
//!
//! # Example
//!
//! ```no_run
//! use mfa_dispatch::{default_worker_program, run_sweep_sharded, spawned_workers,
//!                    DispatchOptions};
//! use mfa_explore::figures;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let figure = figures::figure2(true)?;
//! let workers = spawned_workers(default_worker_program()?, 4);
//! let series = run_sweep_sharded(&figure.grid, &workers, &DispatchOptions::default())?;
//! assert_eq!(series.len(), figure.grid.num_series());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
mod dispatcher;
mod error;
pub mod protocol;
mod worker;

pub use dispatcher::{
    default_worker_program, run_sweep_sharded, run_sweep_sharded_stored, spawned_workers,
    DispatchOptions, WorkerSpec,
};
pub use error::DispatchError;
pub use worker::{serve, FaultPlan, INJECTED_CRASH_EXIT_CODE};
