//! # df-topology
//!
//! Canonical Dragonfly topology (Kim et al., ISCA'08) with complete graphs
//! at both hierarchy levels, as used by Fuentes et al., *"Throughput
//! Unfairness in Dragonfly Networks under Realistic Traffic Patterns"*
//! (CLUSTER 2015).
//!
//! The crate provides:
//! * [`DragonflyParams`] — the `(p, a, h)` sizing triple and derived sizes,
//! * typed identifiers ([`GroupId`], [`RouterId`], [`NodeId`], [`Port`])
//!   and the router port layout,
//! * global-link [`Arrangement`]s (palmtree, consecutive, random),
//! * [`Topology`] — O(1) wiring queries, minimal-route primitives, and the
//!   ADVc bottleneck-router query used throughout the reproduction,
//! * [`channel_load`] — the load a [`RouterTraffic`] matrix puts on every
//!   channel under a [`PathClass`], and from it the saturation bound
//!   Θ = 1 / max γ ([`saturation_bound`]).
//!
//! ```
//! use df_topology::{Arrangement, DragonflyParams, GroupId, Topology};
//!
//! let topo = Topology::new(DragonflyParams::paper(), Arrangement::Palmtree);
//! // Under palmtree, all h groups following group 0 hang off router a-1.
//! let bottleneck = topo.advc_bottleneck(GroupId(0));
//! assert_eq!(bottleneck.local_index(topo.params()), 11);
//! assert!(topo.advc_overlap_is_total(GroupId(0)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arrangement;
mod ids;
mod load;
mod params;
mod shard;
#[allow(clippy::module_inception)]
mod topology;

pub use arrangement::Arrangement;
pub use ids::{GroupId, NodeId, Port, PortKind, RouterId};
pub use load::{channel_load, saturation_bound, PathClass, RouterTraffic};
pub use params::DragonflyParams;
pub use shard::ShardPlan;
pub use topology::{PortTarget, Topology};
