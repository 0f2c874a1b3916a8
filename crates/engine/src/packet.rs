//! Packets and their in-flight routing/accounting state.

use df_topology::{GroupId, NodeId, Port};
use serde::{Deserialize, Serialize};

/// Monotonic packet sequence number (unique per simulation). Not to be
/// confused with [`crate::arena::PacketId`], the reusable arena handle of
/// a live packet.
pub type PacketSeq = u64;

/// Which leg of a (possibly non-minimal) route the packet is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Heading (minimally) towards the Valiant intermediate destination.
    ToIntermediate,
    /// Heading minimally towards the final destination.
    ToDestination,
}

/// Routing state carried by every packet. The engine only stores it; all
/// interpretation happens in the routing policies (`df-routing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteInfo {
    /// Current route leg.
    pub phase: Phase,
    /// Valiant-style intermediate node, if the packet was diverted.
    pub intermediate: Option<NodeId>,
    /// Whether the source-routing decision has been taken (source-adaptive
    /// and oblivious mechanisms decide exactly once, at injection).
    pub source_decided: bool,
    /// Whether an in-transit global misroute has been committed.
    pub global_misrouted: bool,
    /// Whether a local misroute has been taken in the current group (OLM
    /// allows at most one per group).
    pub local_misrouted: bool,
    /// Group of the router that last forwarded the packet, used to reset
    /// `local_misrouted` when the packet changes group.
    pub last_group: GroupId,
    /// Local hops taken so far (drives deadlock-free VC selection).
    pub local_hops: u8,
    /// Global hops taken so far (drives deadlock-free VC selection).
    pub global_hops: u8,
}

impl RouteInfo {
    /// Fresh state for a packet about to be injected at `src_group`.
    pub fn new(src_group: GroupId) -> Self {
        Self {
            phase: Phase::ToDestination,
            intermediate: None,
            source_decided: false,
            global_misrouted: false,
            local_misrouted: false,
            last_group: src_group,
            local_hops: 0,
            global_hops: 0,
        }
    }
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
    /// Size in phits.
    pub size: u32,
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
/// when it crosses a shard boundary.
///
/// `repr(C)` pins the field order to access frequency: what the switch
/// allocator reads when it routes or grants a head (`eligible_at`,
/// `decision`, `route`) comes first and, together with the slot's
/// [`RouteDep`], fills the first cache line of the slot; identity and
/// accounting, touched on grant, transmit and delivery, fill the second.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct Packet {
    /// Cycle the packet enters its next router's input VC, eligible for
    /// allocation (link arrival + pipeline). Stamped by the sender.
    pub eligible_at: u64,
    /// Decided output for the current hop, if any. Set by the routing
    /// policy; taken by the allocator at the grant.
    pub decision: Option<Decision>,
    /// Routing state (interpreted by `df-routing`).
    pub route: RouteInfo,
    /// Identity and endpoints.
    pub header: PacketHeader,
    /// Accumulated queueing cycles.
    pub waits: WaitBreakdown,
    /// Pure traversal cycles so far: links crossed and router pipelines,
    /// excluding all queueing. Compared against the minimal-path traversal
    /// to isolate the misrouting component.
    pub traversal: u64,
}

/// What a cached routing [`Decision`] depended on, recorded by the
/// engine's route-decision cache when the decision is computed (see
/// [`crate::RoutingPolicy::route_with_deps`]). The cache reuses an
/// adaptive policy's decision only while its dependency is unchanged, and
/// parks blocked heads whose decision is stable until the dependency's
/// port is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDep {
    /// The decision depended on state the engine cannot track — it
    /// consumed RNG or mutated policy state. Never reusable; blocked
    /// heads with a volatile adaptive decision re-probe every cycle.
    Volatile,
    /// The decision is independent of congestion (e.g. ejection at the
    /// destination router). Always reusable.
    Always,
    /// The decision read only the congestion of `port`, captured at
    /// `epoch` of that port's change counter
    /// ([`crate::RouterState::port_epoch`]): reusable while the router's
    /// current epoch for the port still equals `epoch`.
    Port {
        /// Output port whose congestion the decision read.
        port: u8,
        /// The port's change epoch at read time.
        epoch: u32,
    },
}

/// A routing decision for the current hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// Output port at the current router.
    pub out_port: Port,
    /// VC to use on the downstream input buffer (ignored for ejection).
    pub out_vc: u8,
    /// Updated routing state to commit on grant.
    pub info: RouteInfo,
}

impl Packet {
    /// Create a freshly generated packet.
    pub fn new(id: PacketSeq, src: NodeId, dst: NodeId, size: u32, gen_cycle: u64, src_group: GroupId) -> Self {
        Self {
            eligible_at: gen_cycle,
            decision: None,
            route: RouteInfo::new(src_group),
            header: PacketHeader { id, src, dst, size, gen_cycle },
            waits: WaitBreakdown::default(),
            traversal: 0,
        }
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
        let p = Packet::new(7, NodeId(0), NodeId(5), 8, 100, GroupId(0));
        assert_eq!(p.header.id, 7);
        assert_eq!(p.route.phase, Phase::ToDestination);
        assert!(!p.route.source_decided);
        assert_eq!(p.waits.total(), 0);
        assert!(p.decision.is_none());
    }

    #[test]
    fn latency_identity_fields() {
        let rec = DeliveredRecord {
            header: PacketHeader { id: 1, src: NodeId(0), dst: NodeId(9), size: 8, gen_cycle: 50 },
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
