//! # dragonfly-core
//!
//! A from-scratch, cycle-level Dragonfly network simulator reproducing
//! *"Throughput Unfairness in Dragonfly Networks under Realistic Traffic
//! Patterns"* (Fuentes, Vallejo, Camarero, Beivide, Valero — CLUSTER
//! 2015).
//!
//! The crate ties the substrates together:
//! * [`df_topology`] — canonical Dragonfly topology and arrangements,
//! * [`df_engine`] — routers, VCs, credits, links, allocators,
//! * [`df_routing`] — MIN / Valiant / PiggyBack / in-transit adaptive,
//! * [`df_traffic`] — UN, ADV+k, **ADVc** and extension patterns,
//! * [`df_stats`] — latency breakdown and fairness metrics,
//!
//! and exposes the experiment workflow of the paper's §IV: build a
//! [`SimConfig`], run warm-up + a 15,000-cycle measurement window, and
//! collect throughput, the five-component latency breakdown, per-router
//! injection counts, and the fairness metrics (Min inj, Max/Min, CoV).
//!
//! ```
//! use dragonfly_core::prelude::*;
//!
//! let mut cfg = SimConfig::small(
//!     MechanismSpec::InTransitMm,
//!     ArbiterPolicy::TransitPriority,
//!     PatternSpec::AdvConsecutive { spread: None },
//!     0.4,
//! );
//! cfg.params = DragonflyParams::figure1(); // 72 nodes for a fast doctest
//! cfg.warmup_cycles = 500;
//! cfg.measure_cycles = 1000;
//! let result = run_single(&cfg);
//! assert!(result.throughput > 0.0);
//! assert_eq!(result.mechanism, "In-Trns-MM");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod ctl;
mod error;
mod experiment;
mod scenario;
mod sim;
mod sink;
mod sweep;
mod timeline;

pub use config::SimConfig;
pub use ctl::RunCtl;
pub use error::ScenarioError;
pub use experiment::{run_grid, AveragedResult, DEFAULT_SEEDS};
pub use scenario::{
    run_cell, run_scenario, run_scenario_ctl, CellOptions, JobSummary, MechanismScenarioResult,
    MechanismSummary, ScenarioResult, ScenarioSummary,
};
pub use sim::{run_single, JobResult, RunResult, Simulator};
pub use sink::{JobAccumulator, MeasurementSink};
pub use sweep::{run_sweep, run_sweep_hooked, SweepRow, SweepTable, UnitHook};
pub use timeline::{JobWindow, TimelineSink, WindowRow};

/// Engine-version tag baked into `df-service` cache keys. Bump whenever
/// an engine change alters same-seed outputs (the same trigger that
/// re-records the golden digests — see `docs/DETERMINISM.md`): a stale
/// cache entry from an older engine must miss, not serve old bytes.
pub const ENGINE_VERSION: &str = concat!("v", env!("CARGO_PKG_VERSION"), "+pb8");

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use df_engine;
pub use df_routing;
pub use df_stats;
pub use df_topology;
pub use df_traffic;
pub use df_workload;

/// Everything needed for typical experiment scripts.
pub mod prelude {
    pub use crate::{
        run_cell, run_grid, run_scenario, run_scenario_ctl, run_single, run_sweep,
        run_sweep_hooked, AveragedResult, CellOptions, JobResult, JobWindow, MeasurementSink,
        RunCtl, RunResult, ScenarioError, ScenarioResult, SimConfig, Simulator, SweepRow,
        SweepTable, TimelineSink, UnitHook, WindowRow, DEFAULT_SEEDS, ENGINE_VERSION,
    };
    pub use df_engine::{ArbiterPolicy, EngineConfig, TelemetrySpec};
    pub use df_routing::MechanismSpec;
    pub use df_stats::{FairnessReport, Histogram, LatencyAccumulator};
    pub use df_topology::{
        Arrangement, DragonflyParams, GroupId, NodeId, Port, RouterId, Topology,
    };
    pub use df_traffic::PatternSpec;
    pub use df_workload::{
        InjectionSpec, JobSpec, PlacementSpec, PlacementVariant, ScenarioSpec, SweepSpec,
        TraceRecorder,
    };
}
