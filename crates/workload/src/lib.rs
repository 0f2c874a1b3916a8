//! # df-workload
//!
//! The workload subsystem: multi-job scenarios for the Dragonfly
//! simulator. The paper's central observation (§III) is that ADVc-like
//! unfairness arises *naturally* from a job allocated on consecutive
//! groups even when the job's own communication is uniform — which makes
//! workload structure, not just the global traffic pattern, the thing to
//! model. This crate provides:
//!
//! * [`InjectionSpec`] → [`InjectionProcess`] — *when* nodes generate
//!   packets, generalizing the seed simulator's single Bernoulli process
//!   with per-node RNG substreams: per-node Bernoulli draws,
//!   Markov-modulated on/off bursts, Poisson batches, or replay of a
//!   recorded `(cycle, src, dst)` event stream ([`TraceRecorder`] writes
//!   them);
//! * [`PlacementSpec`] — *where* a job runs: consecutive groups, explicit
//!   or random group lists (optionally restricted to a subset of node
//!   slots so jobs can share routers disjointly), round-robin over
//!   routers, or explicit node lists;
//! * [`JobSpec`] — a placement plus a [`PatternSpec`] remapped into the
//!   job's node set (by [`df_traffic::JobTraffic`], the same generator a
//!   whole-machine pattern uses), an injection process, a load, and
//!   start/stop cycles;
//! * [`ScenarioSpec`] — a serializable composition of jobs, mechanisms,
//!   and the measurement protocol (`scenarios/*.json`);
//! * [`SweepSpec`] — axes (offered load, placement variant, pattern,
//!   mechanism) over a base scenario, expanded into a deterministic grid
//!   of cells (`scenarios/sweep_*.json`) for the paper's
//!   load-×-placement unfairness grids.
//!
//! The scenario and sweep *runners* live in `dragonfly-core`
//! (`run_scenario`, `run_sweep`), which drive the simulator's per-node
//! injection path with these processes and report per-job results —
//! including **job churn**: jobs with `start_cycle`/`stop_cycle` arrive
//! and depart mid-run, and a departed job's node slots are reusable by
//! later arrivals.
//!
//! The complete JSON schema reference, with worked examples, is
//! `docs/SCENARIOS.md` at the repository root.
//!
//! [`PatternSpec`]: df_traffic::PatternSpec

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod injection;
mod job;
mod placement;
mod scenario;
mod sweep;
mod trace;

pub use injection::{Arrival, InjectionProcess, InjectionSpec};
pub(crate) use job::lifetimes_overlap;
pub use job::JobSpec;
pub use placement::{PlacementSpec, ResolvedPlacement};
pub use scenario::ScenarioSpec;
pub use sweep::{JobPlacement, PlacementVariant, SweepCell, SweepSpec, MAX_SWEEP_CELLS};
pub use trace::{load_trace, TraceEvent, TraceRecorder};
