//! # df-engine
//!
//! Cycle-driven network-simulation substrate for the Dragonfly unfairness
//! reproduction (Fuentes et al., CLUSTER 2015). The engine models:
//!
//! * **packets** of `packet_size` phits under virtual cut-through,
//! * **input-output buffered routers** with a 5-cycle pipeline, virtual
//!   channels, and an **iterative separable batch allocator** running at
//!   2× internal speedup,
//! * **credit-based flow control** across pipelined links (10-cycle local,
//!   100-cycle global),
//! * pluggable **output arbitration**: round-robin, transit-over-injection
//!   priority, or age-based (the explicit fairness mechanism),
//! * pluggable **routing policies** (implemented in `df-routing`) and
//!   **stats sinks** (aggregated in `df-stats`).
//!
//! The per-packet latency accounting preserves the identity
//! `latency == traversal + waits.total()`, which the test-suite checks and
//! which yields the paper's Figure 3 breakdown directly.
//!
//! Its fast paths, each byte-identical to the plain scan or copy it
//! replaced (README, "Performance", has what each one measured):
//!
//! * one 64-byte arena record per packet, carried by `u32` handle, whose
//!   route state holds each routing fact once (an intermediate, two
//!   misroute flags, two hop counts) and which, like the packet header,
//!   stores no packet size;
//! * work-list bitsets of the nodes and routers that can make progress;
//! * per-router ready-VC, awake-port and ready-output masks — masks, not
//!   counts that restate them — over input VCs that are plain rings, and
//!   one request mask per output port in the allocator;
//! * one routing decision per router visit, with blocked heads parked
//!   until their output port changes;
//! * the routers whose global queues changed, handed to the policy;
//! * an event wheel of pooled chunks;
//! * a cache prefetch of the record of each packet that arrives into an
//!   empty input VC — a hint to the CPU, which never changes a value.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod arena;
mod buffer;
mod config;
mod events;
mod network;
mod packet;
mod policy;
mod router;
mod shard;

pub use arena::{PacketArena, PacketId};
pub use config::{
    validate_run_protocol, ArbiterPolicy, EngineConfig, TelemetrySpec, MAX_RUN_CYCLES,
};
pub use network::{Counters, Network, PhaseProfile};
pub use packet::{
    Decision, DeliveredRecord, Packet, PacketHeader, PacketSeq, RouteDep, RouteInfo, WaitBreakdown,
};
pub use policy::{CycleCtx, NullSink, RoutingPolicy, StatsSink};
pub use router::{vcs_for, RouterState};
pub use shard::{RecordQueue, ShardedNetwork};
