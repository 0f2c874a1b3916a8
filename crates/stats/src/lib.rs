//! # df-stats
//!
//! Performance and fairness metrics for the Dragonfly unfairness
//! reproduction (§IV-B of the paper):
//!
//! * [`OnlineStats`] — streaming mean (Welford's update) without storing
//!   samples; one per latency component,
//! * [`LatencyAccumulator`] — the five-component latency breakdown of
//!   Figure 3 (base, misrouting, local/global congestion, injection),
//! * [`FairnessReport`] — Min inj, Max/Min, CoV (and Jain's index),
//! * [`Histogram`] — latency distributions and quantiles,
//! * [`WindowSeries`] — per-window row accumulation for the timeline
//!   telemetry layer.
//!
//! The crate is deliberately engine-agnostic: it consumes plain numbers,
//! so every metric is unit-testable without running a simulation.

#![warn(missing_docs)]

mod fairness;
mod histogram;
mod latency;
mod online;
mod window;

pub use fairness::FairnessReport;
pub use histogram::Histogram;
pub use latency::LatencyAccumulator;
pub use online::OnlineStats;
pub use window::WindowSeries;
