//! # df-stats
//!
//! Performance and fairness metrics for the Dragonfly unfairness
//! reproduction (§IV-B of the paper):
//!
//! * [`LatencyAccumulator`] — the five-component latency breakdown of
//!   Figure 3 (base, misrouting, local/global congestion, injection): one
//!   packet count and a streaming mean (Welford's update) per component,
//!   without storing samples,
//! * [`FairnessReport`] — Min inj, Max/Min, CoV (and Jain's index),
//! * [`Histogram`] — latency distributions and quantiles.
//!
//! The crate is deliberately engine-agnostic: it consumes plain numbers,
//! so every metric is unit-testable without running a simulation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fairness;
mod histogram;
mod latency;

pub use fairness::FairnessReport;
pub use histogram::Histogram;
pub use latency::LatencyAccumulator;
