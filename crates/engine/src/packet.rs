//! Packets and their in-flight routing/accounting state.
//!
//! A packet inside the network is one [`Packet`] record in a 64-byte arena
//! slot: identity, route state and accounting, with `u32` cycle fields
//! under [`crate::MAX_RUN_CYCLES`]. The public types a policy or a stats
//! sink sees ([`PacketHeader`], [`WaitBreakdown`], [`DeliveredRecord`],
//! [`Decision`]) keep `u64` cycle fields and are built from the record
//! where they are needed. Every packet is `EngineConfig::packet_size`
//! phits long, so neither the record nor its header stores a size, and the
//! route state holds only what the policies decide on: a Valiant
//! intermediate, two misroute flags and two hop counts.

use df_topology::{NodeId, Port};
use serde::{Deserialize, Serialize};

/// Monotonic packet sequence number (unique per simulation). Not to be
/// confused with [`crate::arena::PacketId`], the reusable arena handle of
/// a live packet.
pub type PacketSeq = u64;

/// Routing state carried by every packet. The engine only stores it; all
/// interpretation happens in the routing policies (`df-routing`). A fresh
/// packet's state is the default: no intermediate, no misroute, no hops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteInfo {
    /// Valiant-style intermediate node while the packet heads for it;
    /// `None` once it has turned around there, or if it was never
    /// diverted, and the packet heads for its destination.
    pub intermediate: Option<NodeId>,
    /// Whether an in-transit global misroute has been committed.
    pub global_misrouted: bool,
    /// Whether an in-transit local misroute has been taken (at most one,
    /// in the destination group).
    pub local_misrouted: bool,
    /// Local hops taken so far (drives deadlock-free VC selection).
    pub local_hops: u8,
    /// Global hops taken so far (drives deadlock-free VC selection).
    pub global_hops: u8,
}

/// Immutable packet identity, copied out for routing decisions so the
/// policy never needs a borrow into router buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketHeader {
    /// Unique sequence number.
    pub id: PacketSeq,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle the packet was generated (entered the source queue).
    pub gen_cycle: u64,
}

/// Cycle-accounting buckets, matching the paper's Figure 3 breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitBreakdown {
    /// Waiting at the source queue and the injection-port input buffer.
    pub injection: u64,
    /// Waiting at local-port transit queues (input or output side).
    pub local: u64,
    /// Waiting at global-port transit queues (input or output side).
    pub global: u64,
}

impl WaitBreakdown {
    /// Total queued cycles.
    pub fn total(&self) -> u64 {
        self.injection + self.local + self.global
    }
}

/// A packet in flight: the record one [`crate::arena::PacketArena`] slot
/// holds from injection to delivery, and the value a packet travels as
/// when it crosses a shard boundary. It fits one 64-byte cache line.
///
/// Cycle fields are `u32`: every value stored is at most the current
/// cycle plus one event delay, which [`crate::MAX_RUN_CYCLES`] and
/// [`crate::EngineConfig::validate`] keep within `u32::MAX`. The size of
/// the packet is not stored (see the module doc), and neither is its
/// decided output: that lives in the router holding the packet
/// (`RouterState::decided_target`). The public [`PacketHeader`] and
/// [`WaitBreakdown`] are rebuilt from the record where a policy or a sink
/// needs them ([`Self::header`], [`Self::waits`]).
///
/// `repr(C)` pins the field order, so the offsets the arena asserts hold.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct Packet {
    /// Cycle the packet enters its next router's input VC, eligible for
    /// allocation (link arrival + pipeline). Stamped by the sender.
    pub eligible_at: u32,
    /// Cycle the packet was generated (entered the source queue).
    pub gen_cycle: u32,
    /// Unique sequence number.
    pub id: PacketSeq,
    /// Routing state (interpreted by `df-routing`). A head's decision is
    /// committed here when the head is routed: nothing reads it again
    /// before the grant.
    pub route: RouteInfo,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Accumulated queueing cycles.
    pub(crate) waits: Waits,
    /// Pure traversal cycles so far: links crossed and router pipelines,
    /// excluding all queueing. Compared against the minimal-path traversal
    /// to isolate the misrouting component.
    pub traversal: u32,
    /// The head's decision first diverted it onto a non-minimal global
    /// path; the grant counts it as an escape grant and clears it. Only a
    /// decided head carries it.
    pub(crate) escape_pending: bool,
}

/// The packet record's queueing buckets: [`WaitBreakdown`] at the
/// record's `u32` width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Waits {
    pub(crate) injection: u32,
    pub(crate) local: u32,
    pub(crate) global: u32,
}

/// What a routing [`Decision`] depended on. Only
/// [`crate::RoutingPolicy::route_with_deps`] names it, and the engine never
/// calls that method; the type stays because the benchmark under `perf/`
/// names it (see that method).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDep {
    /// The decision is not reusable beyond the visit that took it.
    Volatile,
}

/// A routing decision for the current hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Output port at the current router.
    pub out_port: Port,
    /// VC to use on the downstream input buffer (ignored for ejection).
    pub out_vc: u8,
    /// Updated routing state, committed to the packet when the head is
    /// routed.
    pub info: RouteInfo,
}

impl Packet {
    /// Create a freshly generated packet.
    pub fn new(id: PacketSeq, src: NodeId, dst: NodeId, gen_cycle: u32) -> Self {
        Self {
            eligible_at: gen_cycle,
            gen_cycle,
            id,
            route: RouteInfo::default(),
            src,
            dst,
            waits: Waits::default(),
            traversal: 0,
            escape_pending: false,
        }
    }

    /// The packet's public header.
    #[inline]
    pub fn header(&self) -> PacketHeader {
        let gen_cycle = self.gen_cycle.into();
        PacketHeader { id: self.id, src: self.src, dst: self.dst, gen_cycle }
    }

    /// Queueing cycles so far.
    #[inline]
    pub fn waits(&self) -> WaitBreakdown {
        let Waits { injection, local, global } = self.waits;
        WaitBreakdown { injection: injection.into(), local: local.into(), global: global.into() }
    }
}

/// Everything known about a packet at delivery; consumed by stats sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveredRecord {
    /// Identity and endpoints.
    pub header: PacketHeader,
    /// Delivery cycle (tail phit at the destination node).
    pub delivered_cycle: u64,
    /// Pure traversal cycles of the path actually taken (links, pipelines,
    /// serialization at delivery).
    pub traversal: u64,
    /// Pure traversal cycles of the minimal path (the "base latency").
    pub min_traversal: u64,
    /// Queueing breakdown.
    pub waits: WaitBreakdown,
    /// Local hops taken.
    pub local_hops: u8,
    /// Global hops taken.
    pub global_hops: u8,
}

impl DeliveredRecord {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.delivered_cycle - self.header.gen_cycle
    }

    /// Extra traversal cycles due to non-minimal routing.
    pub fn misroute_latency(&self) -> u64 {
        self.traversal - self.min_traversal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_packet_state() {
        let p = Packet::new(7, NodeId(0), NodeId(5), 100);
        let hdr = PacketHeader { id: 7, src: NodeId(0), dst: NodeId(5), gen_cycle: 100 };
        assert_eq!(p.header(), hdr);
        assert_eq!(p.route, RouteInfo::default());
        assert_eq!(p.waits().total(), 0);
        assert!(!p.escape_pending);
    }

    #[test]
    fn latency_identity_fields() {
        let rec = DeliveredRecord {
            header: PacketHeader { id: 1, src: NodeId(0), dst: NodeId(9), gen_cycle: 50 },
            delivered_cycle: 400,
            traversal: 250,
            min_traversal: 130,
            waits: WaitBreakdown { injection: 60, local: 30, global: 10 },
            local_hops: 3,
            global_hops: 2,
        };
        assert_eq!(rec.latency(), 350);
        assert_eq!(rec.misroute_latency(), 120);
        // total = traversal + waits must hold when the engine accounts
        // every cycle exactly once.
        assert_eq!(rec.latency(), rec.traversal + rec.waits.total());
    }
}
