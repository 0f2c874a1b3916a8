//! # df-service — the fault-tolerant scenario job service
//!
//! A long-running job server in front of the simulator: clients submit
//! [`df_workload::ScenarioSpec`] / [`df_workload::SweepSpec`] jobs over
//! a local Unix socket as newline-delimited JSON and read back a
//! structured [`JobEvent`] stream.
//!
//! The service exists to make the simulator *safe to share*: one job
//! table (queue, live jobs' cancel flags, open/closed state, drain
//! count) behind one lock, served by a fixed set of worker threads, with
//! admission control (a full queue rejects instead of growing),
//! per-job deadlines with cooperative cancellation (an
//! interrupted run leaves no partial output), retry with capped
//! exponential backoff for panicking attempts, per-attempt panic
//! isolation, graceful shutdown that drains in-flight jobs, and a
//! content-addressed result cache keyed by
//! `(spec hash, seeds, engine version)` — sound because the engine is
//! deterministic (docs/DETERMINISM.md): the same key always reproduces
//! the byte-identical result document, and every cached read is
//! digest-checked so bit rot is detected and recomputed rather than
//! served.
//!
//! With a `state_dir` configured the service is also *durable*: every
//! completed result spills to disk tempfile-then-rename and reloads
//! (digest-verified) after a restart, and in-flight sweeps checkpoint
//! each `(cell, seed)` unit so a crashed job resumes from the last
//! committed unit instead of starting over — with the recovered table
//! byte-identical to an uninterrupted run.
//!
//! Every robustness claim is exercised by the [`FaultSpec`] injection
//! harness: a worker panic at cycle N, an artificial stall past the
//! deadline, a corrupted cache entry, and the crash points (`abort`
//! after N checkpoint commits, a torn spill, a rotted checkpoint
//! line). See `docs/SERVICE.md` for the wire protocol and event
//! schema, and the `df-serve` / `df-submit` binaries in `df-bench` for
//! the CLI surface.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod fault;
pub mod job;
pub mod protocol;
pub mod server;
pub mod service;
pub mod store;

pub use cache::{CacheEntry, Lookup, ResultCache};
pub use fault::FaultSpec;
pub use job::{effective_seeds, JobPayload};
pub use protocol::{cache_key, digest_hex, fnv1a64, JobEvent, Request, SubmitOptions};
pub use server::serve;
pub use service::{EventSink, Service, ServiceConfig};
pub use store::{CheckpointLoad, LoadReport, StateDir};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a thread panicked while holding it.
/// Poison carries no information in this crate: no critical section
/// here can panic except by calling out to a caller's `EventSink` (the
/// `accepted` event, emitted under the job-table lock), and that call
/// comes after the table is complete again.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
