//! Group-sharded parallel execution of one simulation.
//!
//! A [`ShardedNetwork`] splits a run across a [`ShardPlan`]'s contiguous
//! group ranges: each shard is a [`Network`] slice owning its routers,
//! nodes, event wheel, and packet arena, stepped **phase-major** — every
//! shard runs phase *k* before any shard runs phase *k+1*, preserving the
//! serial engine's deliver → policy → inject → allocate → transmit order
//! network-wide. The shard-local phases (deliver, inject, transmit) fan
//! out over the work-claiming `par_iter_mut`; the phases that touch the
//! single shared routing policy (its RNG and congestion tables) run
//! sequentially in ascending shard order, which is ascending router order
//! — exactly the serial schedule.
//!
//! Cross-shard traffic exists only on global links (groups are whole
//! within a shard): transiting flits and upstream credit returns. Both
//! are staged in per-shard [`ShardOutbox`]es during the parallel phases
//! and exchanged at the end-of-cycle barrier in deterministic ascending
//! (source shard, router, port) order — the order the sending phase
//! produced them. Every event class over one physical link has a single
//! fixed source router, so per-(destination, port, direction) FIFO order
//! matches the serial engine's event-wheel insertion order, and effects
//! across different ports commute; same-seed output is therefore
//! bit-identical for any shard count (see docs/DETERMINISM.md).
//!
//! Delivered-packet records are staged per shard in a [`RecordQueue`]
//! and drained into the real [`StatsSink`] at the same barrier, ascending
//! by shard. Ejection latency is uniform, so all records of one cycle
//! were scheduled in the same earlier cycle in ascending (router, port)
//! order — the concatenation of the shard queues *is* the serial sink
//! order, keeping float accumulation identical.

use crate::arena::PacketId;
use crate::config::EngineConfig;
use crate::network::{Counters, Network, PhaseProfile};
use crate::packet::{DeliveredRecord, Packet, PacketSeq};
use crate::policy::{RoutingPolicy, StatsSink};
use crate::router::RouterState;
use df_topology::{NodeId, Port, RouterId, ShardPlan, Topology};
use rayon::prelude::*;
use std::time::Instant;

/// A credit return crossing a shard boundary (global links only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RemoteCredit {
    /// Destination router (owned by another shard).
    pub router: RouterId,
    /// Destination port on that router.
    pub port: Port,
    /// Virtual channel the credit replenishes.
    pub vc: u8,
    /// Phits returned.
    pub phits: u32,
    /// Link latency — the delay the sender would have scheduled with.
    pub delay: u64,
}

/// A flit (whole packet, virtual cut-through) crossing a shard boundary.
#[derive(Debug, Clone)]
pub(crate) struct RemoteFlit {
    /// Destination router (owned by another shard).
    pub router: RouterId,
    /// Input port the packet arrives on.
    pub port: Port,
    /// Virtual channel it arrives on.
    pub vc: u8,
    /// Packet size in phits.
    pub size: u32,
    /// Link latency — the delay the sender would have scheduled with.
    pub delay: u64,
    /// The packet by value; the owner re-homes it into its arena.
    pub packet: Packet,
}

/// Per-shard staging area for cross-shard traffic, drained at the cycle
/// barrier. Push order within each vector is the sending phase's
/// deterministic ascending (router, port) order.
#[derive(Debug, Default)]
pub(crate) struct ShardOutbox {
    /// Credit returns from `commit_grant` (allocate phase).
    pub credits: Vec<RemoteCredit>,
    /// Transiting flits from `transmit_outputs` (transmit phase).
    pub flits: Vec<RemoteFlit>,
}

impl ShardOutbox {
    pub(crate) fn is_empty(&self) -> bool {
        self.credits.is_empty() && self.flits.is_empty()
    }
}

/// Per-shard stats sink: stages delivered records for the controller's
/// deterministic ascending-shard drain into the real sink.
#[derive(Debug, Default)]
pub struct RecordQueue {
    pub(crate) records: Vec<DeliveredRecord>,
}

impl StatsSink for RecordQueue {
    fn on_delivered(&mut self, rec: &DeliveredRecord) {
        self.records.push(*rec);
    }
}

/// One simulation, group-sharded across cores. Same-seed output is
/// bit-identical to the serial [`Network`] for any shard count.
pub struct ShardedNetwork<P: RoutingPolicy, S: StatsSink> {
    shards: Vec<Network<P, RecordQueue>>,
    /// The single shared routing policy (RNG + congestion tables),
    /// threaded through the sequential phases in ascending shard order.
    policy: P,
    /// The real stats sink, fed at the barrier in ascending shard order.
    sink: S,
    plan: ShardPlan,
    topo: Topology,
    cfg: EngineConfig,
    cycle: u64,
    /// Global packet sequence counter (consumed only on accepted offers,
    /// matching the serial engine byte-for-byte).
    next_packet_seq: PacketSeq,
}

impl<P: RoutingPolicy + Send, S: StatsSink> ShardedNetwork<P, S> {
    /// Build an idle sharded network with `shards` shards (clamped to the
    /// group count; callers wanting a serial engine at `shards == 1`
    /// should construct a [`Network`] instead, though a 1-shard
    /// `ShardedNetwork` is equally bit-identical).
    ///
    /// # Panics
    /// Panics if `cfg` fails validation.
    pub fn new(topo: Topology, cfg: EngineConfig, policy: P, sink: S, shards: u32) -> Self {
        let plan = ShardPlan::new(*topo.params(), shards);
        let shards: Vec<Network<P, RecordQueue>> = (0..plan.shards())
            .map(|s| {
                Network::new_shard(
                    topo.clone(),
                    cfg,
                    RecordQueue::default(),
                    plan.router_range(s),
                    plan.node_range(s),
                )
            })
            .collect();
        Self { shards, policy, sink, plan, topo, cfg, cycle: 0, next_packet_seq: 0 }
    }

    /// The shard plan in effect.
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards (after clamping).
    #[inline]
    pub fn shard_count(&self) -> u32 {
        self.plan.shards()
    }

    /// Current simulation cycle.
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The engine configuration.
    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The stats sink (for result extraction).
    #[inline]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the sink (e.g. to reset it after warm-up).
    #[inline]
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// The routing policy.
    #[inline]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Packets accepted but not yet delivered, across all shards.
    pub fn in_flight(&self) -> u64 {
        self.shards.iter().map(|sh| sh.in_flight()).sum()
    }

    /// Events currently traversing links, across all shards.
    pub fn events_pending(&self) -> usize {
        self.shards.iter().map(|sh| sh.events_pending()).sum()
    }

    /// Arena-resident packets across all shards (leak check).
    pub fn arena_live(&self) -> usize {
        self.shards.iter().map(|sh| sh.arena_live()).sum()
    }

    /// Arena slots ever allocated, summed across shards.
    pub fn arena_capacity(&self) -> usize {
        self.shards.iter().map(|sh| sh.arena_capacity()).sum()
    }

    /// Ready, unparked input-VC heads across all shards.
    pub fn probe_ready_total(&self) -> u64 {
        self.shards.iter().map(|sh| sh.probe_ready_total()).sum()
    }

    /// Sum of every output port's epoch counter across all shards.
    pub fn port_epoch_sum(&self) -> u64 {
        self.shards.iter().map(|sh| sh.port_epoch_sum()).sum()
    }

    /// Cycles since any packet anywhere won switch allocation.
    pub fn cycles_since_progress(&self) -> u64 {
        let latest = self.shards.iter().map(|sh| sh.last_progress()).max().unwrap_or(0);
        self.cycle - latest
    }

    /// Read access to a router's state (global id; routed to its shard).
    pub fn router(&self, id: RouterId) -> &RouterState {
        self.shards[self.plan.shard_of_router(id) as usize].router(id)
    }

    /// Resolve a packet handle *relative to the shard owning `router`*
    /// (handles are shard-local; pair them with the router they were read
    /// from, e.g. via [`RouterState::head`]).
    pub fn packet_at(&self, router: RouterId, id: PacketId) -> Packet {
        self.shards[self.plan.shard_of_router(router) as usize].packet(id)
    }

    /// Engine counters merged across shards: scalars sum, per-router and
    /// per-node vectors splice at the shards' base offsets, and `cycles`
    /// (which every shard advances identically) is taken from shard 0.
    pub fn counters(&self) -> Counters {
        let params = self.topo.params();
        let mut merged = Counters::new(params.routers() as usize, params.nodes() as usize);
        for (s, sh) in self.shards.iter().enumerate() {
            merged.merge_shard(
                sh.counters(),
                self.plan.router_range(s as u32).start as usize,
                self.plan.node_range(s as u32).start as usize,
            );
        }
        merged.cycles = self.shards[0].counters().cycles;
        merged
    }

    /// Zero the measurement counters on every shard.
    pub fn reset_counters(&mut self) {
        for sh in &mut self.shards {
            sh.reset_counters();
        }
    }

    /// Offer a packet for generation (same contract as [`Network::offer`];
    /// the global sequence number is consumed only on acceptance).
    pub fn offer(&mut self, src: NodeId, dst: NodeId) -> bool {
        let s = self.plan.shard_of_node(src) as usize;
        let seq = self.next_packet_seq;
        if self.shards[s].offer_with_seq(src, dst, seq) {
            self.next_packet_seq += 1;
            true
        } else {
            false
        }
    }

    /// Advance the simulation by one cycle, phase-major across shards.
    pub fn step(&mut self) {
        self.cycle += 1;
        self.shards.par_iter_mut().for_each(|sh| {
            sh.begin_cycle_bump();
            sh.phase_deliver();
        });
        // Policy phases: sequential, ascending shard order == ascending
        // router order, so policy RNG/state is consumed exactly as in the
        // serial engine.
        for sh in &mut self.shards {
            sh.run_policy_begin_with(&mut self.policy);
        }
        self.shards.par_iter_mut().for_each(|sh| sh.phase_inject());
        for sh in &mut self.shards {
            sh.allocate_all_with(&mut self.policy);
        }
        self.shards.par_iter_mut().for_each(|sh| sh.phase_transmit());
        self.barrier_exchange();
    }

    /// [`Self::step`] with per-phase wall-clock accumulation (the barrier
    /// exchange is folded into `transmit_ns`).
    pub fn step_timed(&mut self, profile: &mut PhaseProfile) {
        self.cycle += 1;
        let t0 = Instant::now();
        self.shards.par_iter_mut().for_each(|sh| {
            sh.begin_cycle_bump();
            sh.phase_deliver();
        });
        let t1 = Instant::now();
        for sh in &mut self.shards {
            sh.run_policy_begin_with(&mut self.policy);
        }
        let t2 = Instant::now();
        self.shards.par_iter_mut().for_each(|sh| sh.phase_inject());
        let t3 = Instant::now();
        for sh in &mut self.shards {
            sh.allocate_all_with(&mut self.policy);
        }
        let t4 = Instant::now();
        self.shards.par_iter_mut().for_each(|sh| sh.phase_transmit());
        self.barrier_exchange();
        let t5 = Instant::now();
        profile.deliver_ns += (t1 - t0).as_nanos() as u64;
        profile.policy_ns += (t2 - t1).as_nanos() as u64;
        profile.inject_ns += (t3 - t2).as_nanos() as u64;
        profile.allocate_ns += (t4 - t3).as_nanos() as u64;
        profile.transmit_ns += (t5 - t4).as_nanos() as u64;
        profile.cycles += 1;
    }

    /// Run `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run until every accepted packet has been delivered, up to `max`
    /// extra cycles. Returns `true` if the network drained.
    pub fn drain(&mut self, max: u64) -> bool {
        for _ in 0..max {
            if self.in_flight() == 0 {
                debug_assert_eq!(self.arena_live(), 0, "arena leak after drain");
                return true;
            }
            self.step();
        }
        self.in_flight() == 0
    }

    /// End-of-cycle barrier: exchange cross-shard traffic and drain the
    /// per-shard record queues, both in ascending source-shard order.
    /// Credits (allocate phase) are delivered before flits (transmit
    /// phase), matching the serial engine's within-cycle schedule order;
    /// within each vector the sending phase's ascending (router, port)
    /// push order is preserved.
    fn barrier_exchange(&mut self) {
        for s in 0..self.shards.len() {
            let ShardOutbox { credits, flits } = self.shards[s].take_outbox();
            for c in credits {
                let t = self.plan.shard_of_router(c.router) as usize;
                debug_assert_ne!(t, s, "outbox entry for a locally owned router");
                self.shards[t].accept_remote_credit(c);
            }
            for f in flits {
                let t = self.plan.shard_of_router(f.router) as usize;
                debug_assert_ne!(t, s, "outbox entry for a locally owned router");
                self.shards[t].accept_remote_flit(f);
            }
        }
        for sh in &mut self.shards {
            for rec in sh.sink_mut().records.drain(..) {
                self.sink.on_delivered(&rec);
            }
        }
    }

    /// Shadow check of the sharded execution's cross-cycle invariants,
    /// mirroring [`Network::assert_work_lists_match_full_scan`]. Call
    /// between steps. Asserts, per shard: the cycle counters are aligned
    /// with the controller; the cross-shard outbox and record queue were
    /// fully drained at the barrier; the live-packet count matches the
    /// arena's resident population plus the packets still in source
    /// queues (a packet gets its slot at injection, not at `offer`); and
    /// every scheduling work list matches a full scan of the underlying
    /// state. O(network); intended for tests.
    pub fn assert_shards_coherent(&self) {
        for (s, sh) in self.shards.iter().enumerate() {
            assert_eq!(sh.cycle(), self.cycle, "shard {s} cycle skew at barrier");
            assert!(
                sh.outbox_is_empty(),
                "cross-shard queue not drained at barrier (shard {s}, cycle {})",
                self.cycle
            );
            assert!(
                sh.sink().records.is_empty(),
                "delivery records not drained at barrier (shard {s}, cycle {})",
                self.cycle
            );
            assert_eq!(
                sh.in_flight(),
                (sh.arena_live() + sh.source_queued()) as u64,
                "live-packet count diverged from arena + source-queue population \
                 (shard {s}, cycle {})",
                self.cycle
            );
            sh.assert_work_lists_match_full_scan();
        }
    }

    /// Fan [`Network::assert_route_cache_coherent`] out across shards
    /// (shadow-verify builds), threading the shared policy through.
    pub fn assert_route_cache_coherent(&mut self) {
        for sh in &mut self.shards {
            sh.assert_route_cache_coherent_with(&mut self.policy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArbiterPolicy;
    use crate::packet::{Decision, PacketHeader, RouteInfo};
    use df_topology::{Arrangement, DragonflyParams, PortKind, PortLayout};

    /// Minimal-only routing (same as the serial engine's test policy).
    struct MinOnly {
        topo: Topology,
    }

    impl RoutingPolicy for MinOnly {
        fn route(
            &mut self,
            router: &RouterState,
            _in_port: Port,
            hdr: PacketHeader,
            mut info: RouteInfo,
        ) -> Decision {
            let params = self.topo.params();
            let me = router.id();
            let dst_router = hdr.dst.router(params);
            let (out_port, out_vc, is_global) = if dst_router == me {
                (params.injection_port(hdr.dst.slot(params)), 0, false)
            } else if dst_router.group(params) == me.group(params) {
                (
                    params.local_port(me.local_index(params), dst_router.local_index(params)),
                    info.local_hops,
                    false,
                )
            } else {
                let (exit, j) =
                    self.topo.exit_to_group(me.group(params), dst_router.group(params));
                if exit == me {
                    (params.global_port(j), info.global_hops, true)
                } else {
                    (
                        params.local_port(me.local_index(params), exit.local_index(params)),
                        info.local_hops,
                        false,
                    )
                }
            };
            if is_global {
                info.global_hops += 1;
            } else if params.port_kind(out_port) == PortKind::Local {
                info.local_hops += 1;
            }
            Decision { out_port, out_vc, info }
        }

        fn name(&self) -> &'static str {
            "test-min"
        }
    }

    fn serial() -> Network<MinOnly, RecordQueue> {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let policy = MinOnly { topo: topo.clone() };
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        Network::new(topo, cfg, policy, RecordQueue::default())
    }

    fn sharded(shards: u32) -> ShardedNetwork<MinOnly, RecordQueue> {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let policy = MinOnly { topo: topo.clone() };
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        ShardedNetwork::new(topo, cfg, policy, RecordQueue::default(), shards)
    }

    /// Deterministic mixed workload touching every group: the offers to
    /// make before stepping each round.
    fn round_offers(round: u32) -> Vec<(NodeId, NodeId)> {
        let nodes = DragonflyParams::figure1().nodes();
        let mut out = Vec::new();
        for n in 0..nodes {
            if (n + round).is_multiple_of(3) {
                let dst = (n * 31 + round * 7 + 1) % nodes;
                if dst != n {
                    out.push((NodeId(n), NodeId(dst)));
                }
            }
        }
        out
    }

    #[test]
    fn sharded_counters_match_serial_exactly() {
        let mut base = serial();
        for round in 0..30u32 {
            for (s, d) in round_offers(round) {
                base.offer(s, d);
            }
            base.step();
        }
        assert!(base.drain(50_000));
        let base_counters = base.counters().clone();
        let base_records = std::mem::take(&mut base.sink_mut().records);

        for shards in [1u32, 2, 3, 9] {
            let mut net = sharded(shards);
            for round in 0..30u32 {
                for (s, d) in round_offers(round) {
                    net.offer(s, d);
                }
                net.step();
            }
            assert!(net.drain(50_000), "sharded S={shards} failed to drain");
            net.assert_shards_coherent();
            let c = net.counters();
            assert_eq!(c.delivered_packets, base_counters.delivered_packets, "S={shards}");
            assert_eq!(c.accepted_packets, base_counters.accepted_packets, "S={shards}");
            assert_eq!(c.offered_packets, base_counters.offered_packets, "S={shards}");
            assert_eq!(c.delivered_phits, base_counters.delivered_phits, "S={shards}");
            assert_eq!(c.escape_grants, base_counters.escape_grants, "S={shards}");
            assert_eq!(c.global_phits, base_counters.global_phits, "S={shards}");
            assert_eq!(
                c.injected_per_router, base_counters.injected_per_router,
                "per-router injections diverged at S={shards}"
            );
            assert_eq!(
                c.injected_per_node, base_counters.injected_per_node,
                "per-node injections diverged at S={shards}"
            );
            // Record-for-record identity, including arrival order.
            let records = std::mem::take(&mut net.sink_mut().records);
            assert_eq!(records.len(), base_records.len(), "S={shards}");
            for (i, (a, b)) in records.iter().zip(&base_records).enumerate() {
                assert_eq!(a, b, "delivered record {i} diverged at S={shards}");
            }
        }
    }

    #[test]
    fn coherence_assert_holds_mid_run() {
        let mut net = sharded(3);
        let nodes = net.topology().params().nodes();
        for round in 0..60u32 {
            for n in (0..nodes).step_by(4) {
                net.offer(NodeId(n), NodeId((n * 13 + round * 5 + 1) % nodes));
            }
            net.step();
            net.assert_shards_coherent();
        }
        assert!(net.drain(50_000));
        net.assert_shards_coherent();
    }

    #[test]
    fn full_queue_consumes_no_sequence_number() {
        // Hammer one node far past its queue bound: rejected offers must
        // not advance the shared sequence counter (serial contract).
        let mut net = sharded(2);
        let mut accepted = 0u64;
        for _ in 0..1000 {
            if net.offer(NodeId(0), NodeId(70)) {
                accepted += 1;
            }
        }
        let c = net.counters();
        assert_eq!(c.offered_packets, 1000);
        assert_eq!(c.accepted_packets, accepted);
        assert!(accepted < 1000, "queue bound should have rejected some offers");
        assert!(net.drain(100_000));
        assert_eq!(net.counters().delivered_packets, accepted);
    }
}
