//! The assembled network: nodes, routers, links, and the per-cycle
//! simulation loop (event delivery → injection → allocation → output).
//!
//! Packets in the network live in a [`PacketArena`], one 64-byte record
//! each; every router queue and link event carries a `u32` [`PacketId`]
//! handle and nothing else of the packet — every packet is
//! `EngineConfig::packet_size` phits long — so the steady-state hot path
//! performs no per-packet heap allocation. A packet still waiting in its
//! source queue is a 16-byte stub and gets its arena slot when the node
//! wins an injection VC. Cycle stamps in both are `u32`, exact because a
//! run never steps past [`MAX_RUN_CYCLES`].
//! Scheduling is **work-list driven**: the engine maintains
//! bitsets of nodes with queued packets, routers with resident input
//! packets, and routers with staged output packets, so the inject /
//! allocate / transmit phases iterate only over entities that can make
//! progress this cycle instead of scanning the whole network (at paper
//! scale under ADVc most routers are idle most cycles). Inside a router
//! the allocator is **mask driven** the same way: it walks the set bits
//! of the awake-input-port mask, of each port's ready-VC mask, of the
//! mask of requested outputs, and of each output's request mask over the
//! input ports. All work lists and masks are iterated in ascending index
//! order (an output's requests from its arbiter pointer), which keeps
//! event-queue insertion order — and therefore same-seed results —
//! bit-identical to the full scans they replace. The engine also tracks
//! which routers' global-link queues changed each cycle so policies like
//! PiggyBack can refresh their congestion view incrementally (see
//! [`CycleCtx`]).

use crate::arena::{PacketArena, PacketId};
use crate::buffer::Staged;
use crate::config::{ArbiterPolicy, EngineConfig, MAX_RUN_CYCLES};
use crate::events::{Event, EventWheel};
use crate::packet::{DeliveredRecord, Packet, PacketSeq};
use crate::policy::{CycleCtx, RoutingPolicy, StatsSink};
use crate::router::{input_capacity_for, vcs_for, InPort, RouterState};
use crate::shard::{RemoteCredit, RemoteFlit, ShardOutbox};
use df_topology::{DragonflyParams, NodeId, Port, PortKind, PortTarget, RouterId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

// ----------------------------------------------------------------------
// Work-list bitsets (u64 words, ascending-order iteration)
// ----------------------------------------------------------------------

/// Words needed for an `n`-bit set.
#[inline]
fn bitset_words(n: usize) -> usize {
    n.div_ceil(64)
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1 << (i & 63));
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1 << (i & 63)) != 0
}

/// Wall-clock time spent in each phase of [`Network::step_timed`],
/// accumulated across cycles. The benchmark under `perf/` reads its
/// per-phase rows from it (`df-perf --trace 1`); the regular
/// [`Network::step`] takes no timing overhead.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Event-wheel drain: link arrivals and credit returns.
    pub deliver_ns: u64,
    /// Routing-policy `begin_cycle` (congestion-state exchange).
    pub policy_ns: u64,
    /// Node-side injection (source queue → injection-port input buffer).
    pub inject_ns: u64,
    /// Switch allocation across all active routers.
    pub allocate_ns: u64,
    /// Output-buffer → link transmissions.
    pub transmit_ns: u64,
    /// Cycles accumulated into this profile.
    pub cycles: u64,
}

impl PhaseProfile {
    /// Total nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.deliver_ns + self.policy_ns + self.inject_ns + self.allocate_ns + self.transmit_ns
    }

    /// `(label, ns)` pairs in phase order, for reporting.
    pub fn phases(&self) -> [(&'static str, u64); 5] {
        [
            ("deliver", self.deliver_ns),
            ("policy", self.policy_ns),
            ("inject", self.inject_ns),
            ("allocate", self.allocate_ns),
            ("transmit", self.transmit_ns),
        ]
    }

    /// Fold another profile into this one (accumulating chunk profiles
    /// into a run total).
    pub(crate) fn absorb(&mut self, other: &PhaseProfile) {
        self.deliver_ns += other.deliver_ns;
        self.policy_ns += other.policy_ns;
        self.inject_ns += other.inject_ns;
        self.allocate_ns += other.allocate_ns;
        self.transmit_ns += other.transmit_ns;
        self.cycles += other.cycles;
    }
}

/// The phase clock a step body is generic over: [`Untimed`] behind
/// `step`, [`WallClock`] behind `step_timed`. Monomorphized, so the
/// untimed step contains no clock reads.
pub(crate) trait PhaseClock {
    /// Whether laps read the wall clock.
    const TIMED: bool;
    /// Start timing now.
    fn start() -> Self;
    /// Nanoseconds since the previous lap (or `start`).
    fn lap(&mut self) -> u64;
    /// Like [`Self::lap`], up to a stamp taken on another thread (an
    /// earlier stamp charges nothing).
    fn lap_until(&mut self, at: Instant) -> u64;
}

/// Reads no clock; every lap is zero.
pub(crate) struct Untimed;

impl PhaseClock for Untimed {
    const TIMED: bool = false;
    #[inline]
    fn start() -> Self {
        Untimed
    }
    #[inline]
    fn lap(&mut self) -> u64 {
        0
    }
    #[inline]
    fn lap_until(&mut self, _at: Instant) -> u64 {
        0
    }
}

/// `Instant`-backed clock; holds the previous lap's end.
pub(crate) struct WallClock(Instant);

impl PhaseClock for WallClock {
    const TIMED: bool = true;
    fn start() -> Self {
        WallClock(Instant::now())
    }
    fn lap(&mut self) -> u64 {
        self.lap_until(Instant::now())
    }
    fn lap_until(&mut self, at: Instant) -> u64 {
        let ns = at.saturating_duration_since(self.0).as_nanos() as u64;
        self.0 = self.0.max(at);
        ns
    }
}

/// A generated packet waiting in its source queue: what `offer` fixes
/// (sequence number, destination, generation cycle). The [`Packet`] is
/// built from it — and enters the arena — when the node wins a VC.
#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    seq: PacketSeq,
    gen_cycle: u32,
    dst: NodeId,
}

const _: () = assert!(std::mem::size_of::<QueuedPacket>() == 16);

/// A cycle stamp narrowed to the packet record's width: exact, because a
/// run stops at [`MAX_RUN_CYCLES`] and `EngineConfig::validate` keeps that
/// horizon plus one event delay within `u32::MAX`.
#[inline]
fn stamp(cycle: u64) -> u32 {
    debug_assert!(cycle <= u64::from(u32::MAX), "cycle stamp {cycle} past the u32 horizon");
    cycle as u32
}

/// Cycles from stamp `since` to cycle `now`, for packet `pkt`'s wait
/// accounting. A stamp past `now` is a bookkeeping bug the `u32`
/// subtraction would wrap: it panics, naming the stamp, the cycle and the
/// packet, in every build.
#[inline]
fn cycles_since(now: u64, since: u32, pkt: PacketSeq) -> u32 {
    match stamp(now).checked_sub(since) {
        Some(cycles) => cycles,
        None => panic!("cycle stamp {since} of packet {pkt} is past the current cycle {now}"),
    }
}

/// Source-side state of a compute node.
#[derive(Debug)]
struct NodeState {
    /// Generated packets waiting to enter the router (bounded).
    queue: VecDeque<QueuedPacket>,
    /// Credits towards the router's injection-port input buffer, per VC.
    credits: Vec<u32>,
    /// Round-robin pointer over injection VCs.
    vc_rr: u32,
    /// The node→router link is serializing until this cycle.
    link_free_at: u64,
}

/// Aggregate counters maintained by the engine (cheap, always on).
/// Fine-grained per-packet data flows through the [`StatsSink`].
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Generation attempts, including those dropped at a full source queue.
    pub offered_packets: u64,
    /// Packets accepted into a source queue.
    pub accepted_packets: u64,
    /// Packets delivered to their destination node.
    pub delivered_packets: u64,
    /// Packets injected per router: granted from an injection-port input
    /// buffer into an output buffer. This is the paper's fairness signal.
    pub injected_per_router: Vec<u64>,
    /// Packets injected per *node* (same grant event attributed to the
    /// node behind the injection port). Finer-grained fairness signal for
    /// per-job breakdowns where several jobs share a router.
    pub injected_per_node: Vec<u64>,
    /// Escape-path grants: switch-allocation grants that first diverted a
    /// packet onto a non-minimal (misrouted) global path. Windowed deltas
    /// of this counter are the timeline's escape-grant rate.
    pub escape_grants: u64,
    /// Phits transmitted on every directed channel, indexed
    /// `router * radix + port` by the sending end, as
    /// [`df_topology::channel_load`] indexes its expected loads. Injection
    /// ports' entries count the ejection channels to the nodes.
    pub channel_phits: Vec<u64>,
    /// Cycles elapsed since the last counter reset.
    pub cycles: u64,
    /// Phits per packet (`EngineConfig::packet_size`), for throughput.
    packet_size: u32,
}

impl Counters {
    pub(crate) fn new(routers: usize, nodes: usize, radix: usize, packet_size: u32) -> Self {
        Self {
            packet_size,
            injected_per_router: vec![0; routers],
            injected_per_node: vec![0; nodes],
            channel_phits: vec![0; routers * radix],
            ..Self::default()
        }
    }

    /// Fold one shard's counters into this network-wide view. Scalar
    /// counters sum; the per-router / node / channel vectors splice in at
    /// the shard's base offsets (each shard owns a disjoint contiguous
    /// slice). `cycles` is deliberately *not* summed — every shard steps
    /// every cycle, so the caller copies it from any one shard.
    pub(crate) fn merge_shard(&mut self, shard: &Counters, router_base: usize, node_base: usize) {
        self.offered_packets += shard.offered_packets;
        self.accepted_packets += shard.accepted_packets;
        self.delivered_packets += shard.delivered_packets;
        self.escape_grants += shard.escape_grants;
        let splice = |to: &mut [u64], at: usize, from: &[u64]| {
            to[at..][..from.len()].copy_from_slice(from);
        };
        let radix = self.channel_phits.len() / self.injected_per_router.len();
        splice(&mut self.injected_per_router, router_base, &shard.injected_per_router);
        splice(&mut self.injected_per_node, node_base, &shard.injected_per_node);
        splice(&mut self.channel_phits, router_base * radix, &shard.channel_phits);
    }

    /// Phits transmitted onto global (inter-group) links: each router's
    /// last `h` channels. Windowed deltas over the `routers × h` global
    /// links give link utilization.
    pub fn global_phits(&self, params: &DragonflyParams) -> u64 {
        let (radix, h) = (params.radix() as usize, params.h as usize);
        self.channel_phits.chunks_exact(radix).flat_map(|ports| &ports[radix - h..]).sum()
    }

    /// Delivered throughput in phits per node per cycle.
    pub fn throughput(&self, nodes: u32) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let delivered_phits = self.delivered_packets * u64::from(self.packet_size);
        delivered_phits as f64 / (nodes as f64 * self.cycles as f64)
    }
}

/// Set bits of `mask` in round-robin order from bit `from`: the bits at
/// or above it ascending, then the ones below it.
#[inline]
fn bits_from(mask: u64, from: u32) -> impl Iterator<Item = usize> {
    let mut rotated = mask.rotate_right(from);
    std::iter::from_fn(move || {
        (rotated != 0).then(|| {
            let bit = rotated.trailing_zeros();
            rotated &= rotated - 1;
            ((bit + from) & 63) as usize
        })
    })
}

/// A full network simulation instance — or, in sharded mode, one
/// shard's contiguous slice of it.
///
/// A serial network owns every router and node (`router_base == 0`). A
/// shard built by `Network::new_shard` owns only the routers and nodes
/// of its group range: `routers[0]` is global router `router_base`, and
/// every per-router/per-node array (work lists, counters, wiring cache)
/// is indexed by the *local* offset. Events and wiring targets always
/// carry **global** ids; the boundary between the two spaces is the
/// `local_router` / `local_node` helpers. Traffic towards routers the
/// slice does not own is diverted into the crate-private `ShardOutbox`
/// and accepted by the owning slice past the sharded engine's cycle barrier.
pub struct Network<P: RoutingPolicy, S: StatsSink> {
    topo: Topology,
    cfg: EngineConfig,
    routers: Vec<RouterState>,
    nodes: Vec<NodeState>,
    wheel: EventWheel,
    cycle: u64,
    /// Global id of `routers[0]` (0 for a serial network).
    router_base: u32,
    /// Global id of `nodes[0]` (0 for a serial network; always
    /// `router_base * p` so local node index `r·p + slot` stays valid).
    node_base: u32,
    /// Cross-shard traffic staged for the sharded engine's cycle barrier.
    /// Always empty in serial mode (a serial network owns every router).
    outbox: ShardOutbox,
    /// Slab storing every packet inside the network (injected, not yet
    /// delivered or handed to another shard).
    arena: PacketArena,
    next_packet_seq: PacketSeq,
    /// The routing policy. `None` only for shard slices, whose policy is
    /// owned by the sharded controller and threaded through the
    /// `*_with` phase variants (serial entry points take/restore it).
    policy: Option<P>,
    sink: S,
    counters: Counters,
    /// Packets accepted but not yet delivered.
    live_packets: u64,
    /// The audit's time books: run-wide, never reset with the counters.
    books: TimeBooks,
    /// Wiring cache: target of every (router, port), row-major.
    peers: Vec<PortTarget>,
    /// Latency of the link behind every (router, port).
    latencies: Vec<u64>,
    /// Allocation scratch, persistent across cycles so the hot loop does
    /// not allocate: per output port, the mask of input ports requesting
    /// it in the current iteration (all zero between iterations).
    requests: Vec<u64>,
    /// Allocation scratch: per input port, the VC whose head it nominated
    /// in the current iteration (read only while the port requests).
    nominated: Vec<u8>,
    /// Allocation scratch: bitmask per input port of the VCs already
    /// granted this cycle.
    alloc_vc_granted: Vec<u32>,
    /// Routers whose global-link queues changed since the last
    /// `begin_cycle` (deduplicated via `global_dirty` flags).
    global_dirty_list: Vec<u32>,
    global_dirty: Vec<bool>,
    /// Work list: nodes with a non-empty source queue (bit set in
    /// `offer`, cleared when the injection phase drains the queue).
    node_active: Vec<u64>,
    /// Work list: routers with at least one resident input packet
    /// (maintained exactly on `push_input` / `pop_input`); the allocate
    /// phase visits only these.
    alloc_active: Vec<u64>,
    /// Work list: routers with at least one staged output packet; the
    /// transmit phase visits only these.
    tx_active: Vec<u64>,
    /// Route-decision cache switch: when on (the default), a blocked head
    /// is parked until its target output port changes. When off, every
    /// blocked head is re-probed every cycle — the schedule the
    /// equivalence tests compare against. Either way a head is routed once
    /// per router visit.
    route_cache: bool,
}

impl<P: RoutingPolicy, S: StatsSink> Network<P, S> {
    /// Build an idle network owning the whole topology.
    ///
    /// # Panics
    /// Panics if `cfg` fails validation.
    pub fn new(topo: Topology, cfg: EngineConfig, policy: P, sink: S) -> Self {
        let routers = 0..topo.params().routers();
        let nodes = 0..topo.params().nodes();
        Self::new_slice(topo, cfg, Some(policy), sink, routers, nodes)
    }

    /// Build a shard slice owning only `router_range` / `node_range`
    /// (contiguous, group-aligned). The policy stays with the sharded
    /// controller, which threads it through the `*_with` phase variants.
    pub(crate) fn new_shard(
        topo: Topology,
        cfg: EngineConfig,
        sink: S,
        router_range: Range<u32>,
        node_range: Range<u32>,
    ) -> Self {
        Self::new_slice(topo, cfg, None, sink, router_range, node_range)
    }

    fn new_slice(
        topo: Topology,
        cfg: EngineConfig,
        policy: Option<P>,
        sink: S,
        router_range: Range<u32>,
        node_range: Range<u32>,
    ) -> Self {
        cfg.validate().expect("invalid engine config");
        let params = *topo.params();
        let radix = params.radix();
        // Group-aligned slices keep the local `router·p + slot` node
        // indexing of the fairness counters valid.
        debug_assert_eq!(node_range.start, router_range.start * params.p);
        debug_assert_eq!(node_range.end, router_range.end * params.p);
        let routers: Vec<RouterState> =
            router_range.clone().map(|r| RouterState::new(RouterId(r), &params, &cfg)).collect();
        let nodes: Vec<NodeState> = node_range
            .clone()
            .map(|_| NodeState {
                queue: VecDeque::new(),
                credits: vec![cfg.injection_input_buffer; cfg.vcs_injection as usize],
                vc_rr: 0,
                link_free_at: 0,
            })
            .collect();
        let mut peers = Vec::with_capacity(routers.len() * radix as usize);
        let mut latencies = Vec::with_capacity(peers.capacity());
        for r in router_range.clone() {
            for q in 0..radix {
                let port = Port(q);
                peers.push(topo.port_target(RouterId(r), port));
                latencies.push(match params.port_kind(port) {
                    PortKind::Injection => cfg.injection_link_latency,
                    PortKind::Local => cfg.local_link_latency,
                    PortKind::Global => cfg.global_link_latency,
                });
            }
        }
        let wheel = EventWheel::new(cfg.max_event_delay());
        // A packet inside the network holds a buffer slot or is on an
        // ejection link, so the routers' slot count is (all but) a bound
        // on the arena's population.
        let buffer_slots = routers.iter().map(RouterState::buffer_slots).sum();
        let n_routers = routers.len();
        let n_nodes = nodes.len();
        Self {
            topo,
            cfg,
            routers,
            nodes,
            wheel,
            cycle: 0,
            router_base: router_range.start,
            node_base: node_range.start,
            outbox: ShardOutbox::default(),
            arena: PacketArena::with_capacity(buffer_slots),
            next_packet_seq: 0,
            policy,
            sink,
            counters: Counters::new(n_routers, n_nodes, radix as usize, cfg.packet_size),
            live_packets: 0,
            books: TimeBooks::default(),
            peers,
            latencies,
            requests: vec![0; radix as usize],
            nominated: vec![0; radix as usize],
            alloc_vc_granted: vec![0; radix as usize],
            global_dirty_list: Vec::new(),
            global_dirty: vec![false; n_routers],
            node_active: vec![0; bitset_words(n_nodes)],
            alloc_active: vec![0; bitset_words(n_routers)],
            tx_active: vec![0; bitset_words(n_routers)],
            route_cache: true,
        }
    }

    /// Toggle the route-decision cache. Both settings produce
    /// bit-identical simulations; disabling merely restores the
    /// probe-every-blocked-head-every-cycle schedule, for equivalence
    /// tests and debugging. Disabling unparks every head.
    pub fn set_route_cache(&mut self, on: bool) {
        self.route_cache = on;
        if !on {
            for r in &mut self.routers {
                r.unpark_all();
            }
        }
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

    /// Engine counters since the last [`Self::reset_counters`].
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
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
    ///
    /// # Panics
    /// Panics on a shard slice, whose policy lives with the controller.
    #[inline]
    pub fn policy(&self) -> &P {
        self.policy.as_ref().expect("policy detached (shard slice)")
    }

    /// Local index of a (globally identified) owned router.
    #[inline]
    fn local_router(&self, r: RouterId) -> usize {
        debug_assert!(self.owns_router(r), "router {} not owned by this slice", r.0);
        (r.0 - self.router_base) as usize
    }

    /// Local index of a (globally identified) owned node.
    #[inline]
    fn local_node(&self, n: NodeId) -> usize {
        let local = n.0.wrapping_sub(self.node_base) as usize;
        debug_assert!(local < self.nodes.len(), "node {} not owned by this slice", n.0);
        local
    }

    /// Whether this slice owns `r` (always true for a serial network).
    #[inline]
    fn owns_router(&self, r: RouterId) -> bool {
        (r.0.wrapping_sub(self.router_base) as usize) < self.routers.len()
    }

    /// Packets accepted but not yet delivered: those still waiting in a
    /// source queue ([`Self::source_queued`]) plus those inside the
    /// network ([`Self::arena_live`]).
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.live_packets
    }

    /// Packets waiting in source queues: accepted by [`Self::offer`], not
    /// yet injected, and therefore not yet in the arena. O(nodes);
    /// diagnostics and invariant checks.
    pub fn source_queued(&self) -> usize {
        self.nodes.iter().map(|n| n.queue.len()).sum()
    }

    /// Packets currently resident in the arena: injected and not yet
    /// delivered. `arena_live() + source_queued()` must equal
    /// [`Self::in_flight`]; zero after a full drain — the leak check.
    #[inline]
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Arena slots ever allocated (the peak *in-network* population;
    /// source-queued packets hold no slot).
    #[inline]
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Events (packets and credits) currently traversing links.
    #[inline]
    pub fn events_pending(&self) -> usize {
        self.wheel.pending()
    }

    /// Read access to a router's state (congestion probes, diagnostics).
    #[inline]
    pub fn router(&self, id: RouterId) -> &RouterState {
        &self.routers[self.local_router(id)]
    }

    /// Mutable access to a router, for tests that corrupt one on purpose.
    #[cfg(test)]
    pub(crate) fn router_mut(&mut self, id: RouterId) -> &mut RouterState {
        let r = self.local_router(id);
        &mut self.routers[r]
    }

    /// Zero the measurement counters (start of the measurement window).
    pub fn reset_counters(&mut self) {
        let radix = self.topo.params().radix() as usize;
        let packet_size = self.cfg.packet_size;
        self.counters = Counters::new(self.routers.len(), self.nodes.len(), radix, packet_size);
    }

    /// Ready, unparked input-VC heads across all routers — the allocator
    /// workload gauge, read off the masks. O(routers + awake ports);
    /// intended for per-window telemetry sampling, not the hot path.
    pub fn probe_ready_total(&self) -> u64 {
        self.routers.iter().map(|r| r.probe_ready() as u64).sum()
    }

    /// Sum of every output port's epoch counter across all routers.
    /// Windowed deltas of this sum count output-port state changes, each
    /// of which wakes the heads parked on the port (port-epoch bumps).
    /// O(routers × radix); telemetry sampling only.
    pub fn port_epoch_sum(&self) -> u64 {
        let radix = self.topo.params().radix() as usize;
        self.routers
            .iter()
            .map(|r| (0..radix).map(|p| r.port_epoch(Port(p as u32)) as u64).sum::<u64>())
            .sum()
    }

    /// Offer a packet for generation at `src` towards `dst`. Returns
    /// `false` (and drops it) if the source queue is full — the offer is
    /// still counted as offered load.
    pub fn offer(&mut self, src: NodeId, dst: NodeId) -> bool {
        let seq = self.next_packet_seq;
        if self.offer_with_seq(src, dst, seq) {
            self.next_packet_seq += 1;
            true
        } else {
            false
        }
    }

    /// [`Self::offer`] with an externally supplied packet sequence
    /// number. The sharded controller owns the global sequence counter
    /// (so packet ids match the serial engine byte-for-byte) and advances
    /// it only when the offer is accepted — exactly the serial contract,
    /// where a full source queue consumes no sequence number.
    pub(crate) fn offer_with_seq(&mut self, src: NodeId, dst: NodeId, seq: PacketSeq) -> bool {
        self.counters.offered_packets += 1;
        let n = self.local_node(src);
        if self.nodes[n].queue.len() >= self.cfg.max_node_queue {
            return false;
        }
        // The earliest the node can act on this packet is the next cycle,
        // so that is its generation timestamp.
        let gen_cycle = stamp(self.cycle + 1);
        self.nodes[n].queue.push_back(QueuedPacket { seq, gen_cycle, dst });
        set_bit(&mut self.node_active, n);
        self.counters.accepted_packets += 1;
        self.live_packets += 1;
        true
    }

    /// Advance the simulation by one cycle.
    pub fn step(&mut self) {
        self.step_clocked::<Untimed>();
    }

    /// Advance one cycle like [`Self::step`], accumulating per-phase
    /// wall-clock time into `profile` (diagnostics; the untimed `step`
    /// pays no instrumentation cost).
    pub fn step_timed(&mut self, profile: &mut PhaseProfile) {
        profile.absorb(&self.step_clocked::<WallClock>());
    }

    /// The one cycle body behind [`Self::step`] and [`Self::step_timed`]:
    /// `begin_cycle_bump; deliver; policy_begin; inject; allocate;
    /// transmit`, with a clock lap after each phase. No `#[inline]` hint:
    /// with one, the body lands inside `Simulator::step` and `paper_advc`
    /// measured 3–5 % slower over eight alternating runs.
    fn step_clocked<C: PhaseClock>(&mut self) -> PhaseProfile {
        assert!(self.cycle < MAX_RUN_CYCLES, "run stepped past MAX_RUN_CYCLES");
        let mut policy = self.policy.take().expect("policy detached (shard slice)");
        self.begin_cycle_bump();
        let mut clock = C::start();
        self.deliver_events();
        let deliver_ns = clock.lap();
        self.run_policy_begin_with(&mut policy);
        let policy_ns = clock.lap();
        self.inject_from_nodes();
        let inject_ns = clock.lap();
        self.allocate_all_with(&mut policy);
        let allocate_ns = clock.lap();
        self.transmit_all();
        let transmit_ns = clock.lap();
        self.policy = Some(policy);
        PhaseProfile { deliver_ns, policy_ns, inject_ns, allocate_ns, transmit_ns, cycles: 1 }
    }

    // ------------------------------------------------------------------
    // Shard-team phase surface: the sharded engine runs the same phases
    // on every slice (see `shard.rs` for the schedule), threading the
    // single policy through the `*_with` variants as a token.
    // ------------------------------------------------------------------

    /// Advance the local cycle counter (start of a cycle) and book the
    /// cycle's populations (see [`TimeBooks`]).
    pub(crate) fn begin_cycle_bump(&mut self) {
        self.cycle += 1;
        self.counters.cycles += 1;
        self.books.population += self.live_packets;
        self.books.queued += self.live_packets - self.arena.live() as u64;
    }

    /// The staged cross-shard traffic, for the team to publish at the
    /// cycle barrier. Always empty between steps, and always empty in
    /// serial mode.
    pub(crate) fn outbox_mut(&mut self) -> &mut ShardOutbox {
        &mut self.outbox
    }

    /// Whether no cross-shard traffic is staged.
    pub(crate) fn outbox_is_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    /// Deliver a credit return that crossed the shard boundary. Called
    /// after the cycle barrier, when the local wheel sits at the same
    /// cycle the sender's did when it would have scheduled the event — so
    /// the delay lands it in exactly the serial engine's slot.
    pub(crate) fn accept_remote_credit(&mut self, c: RemoteCredit) {
        debug_assert!(self.owns_router(c.router));
        self.wheel.schedule(c.delay, Event::Credit { router: c.router, port: c.port, vc: c.vc });
    }

    /// Deliver a flit that crossed the shard boundary: re-home the packet
    /// into the local arena and schedule its arrival. The arena insert
    /// preserves everything behavior-visible (header with its global
    /// sequence id, route state, waits, traversal, the eligibility cycle
    /// the sender stamped); only the `PacketId` handle is shard-local, and
    /// handles never appear in results.
    pub(crate) fn accept_remote_flit(&mut self, f: &RemoteFlit) {
        debug_assert!(self.owns_router(f.router));
        let id = self.arena.insert(f.packet);
        self.live_packets += 1;
        self.wheel.schedule(
            f.delay,
            Event::ArriveRouter { router: f.router, port: f.port, vc: f.vc, pkt: id },
        );
    }

    /// Run the policy's per-cycle hook and retire the dirty-router list.
    /// The context's router slice and dirty indices are both local to
    /// this slice; policies index their own tables by `RouterState::id`,
    /// which stays global, so partitioned calls across shards are
    /// equivalent to one whole-network call.
    pub(crate) fn run_policy_begin_with(&mut self, policy: &mut P) {
        policy.begin_cycle(&CycleCtx {
            routers: &self.routers,
            cycle: self.cycle,
            dirty_global: &self.global_dirty_list,
        });
        for &r in &self.global_dirty_list {
            self.global_dirty[r as usize] = false;
        }
        self.global_dirty_list.clear();
    }

    /// Allocate phase over the active-router work list (ascending order —
    /// identical side-effect order to a full `0..routers` scan, which
    /// only no-ops on the skipped routers).
    pub(crate) fn allocate_all_with(&mut self, policy: &mut P) {
        for w in 0..self.alloc_active.len() {
            // Snapshot the word: `commit_grant` may clear the current
            // router's bit (never a later router's), and allocation
            // cannot add input packets mid-phase.
            let mut word = self.alloc_active[w];
            while word != 0 {
                let r = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                // Every resident head parked: allocation would produce no
                // requests and no side effects, so skipping the router
                // entirely is exact. This is where blocked routers drop
                // from O(blocked heads) to O(changed ports) per cycle.
                if self.routers[r].awake_in == 0 {
                    continue;
                }
                self.allocate_router(r, policy);
            }
        }
    }

    /// Transmit phase over the staged-router work list (ascending order;
    /// cross-shard flits land in the outbox).
    pub(crate) fn transmit_all(&mut self) {
        for w in 0..self.tx_active.len() {
            let mut word = self.tx_active[w];
            while word != 0 {
                let r = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                self.transmit_outputs(r);
            }
        }
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
            if self.live_packets == 0 {
                debug_assert_eq!(self.arena.live(), 0, "arena leak after drain");
                return true;
            }
            self.step();
        }
        self.live_packets == 0
    }

    // ------------------------------------------------------------------
    // Cycle phases
    // ------------------------------------------------------------------

    /// Mark `router`'s global-link queues as changed for the next
    /// `begin_cycle` (deduplicated).
    #[inline]
    fn mark_global_dirty(&mut self, router: usize) {
        if !self.global_dirty[router] {
            self.global_dirty[router] = true;
            self.global_dirty_list.push(router as u32);
        }
    }

    /// Event-delivery phase (slice-local state only). No handler
    /// schedules, so the wheel steps aside while they borrow the network.
    pub(crate) fn deliver_events(&mut self) {
        let mut wheel = std::mem::take(&mut self.wheel);
        wheel.advance(|ev| self.deliver(ev));
        self.wheel = wheel;
        debug_assert_eq!(self.wheel.now(), self.cycle);
    }

    fn deliver(&mut self, ev: Event) {
        match ev {
            // Scheduled `link + pipeline` ahead by the sender, which
            // stamped `eligible_at` with this very cycle: the packet is
            // eligible the moment it is resident.
            Event::ArriveRouter { router, port, vc, pkt } => {
                let r = self.local_router(router);
                if self.routers[r].push_input(port as usize, vc as usize, pkt) {
                    // A new head: the allocator reads its record this very
                    // cycle, and the sender wrote it a whole link ago.
                    self.arena.prefetch(pkt);
                }
                set_bit(&mut self.alloc_active, r);
            }
            Event::ArriveNode { node, pkt } => {
                self.complete_delivery(node, pkt);
            }
            Event::Credit { router, port, vc } => {
                let r = self.local_router(router);
                self.routers[r].return_credit(port as usize, vc as usize);
                if self.topo.params().port_kind(Port(port.into())) == PortKind::Global {
                    self.mark_global_dirty(r);
                }
            }
            Event::NodeCredit { node, vc } => {
                let n = self.local_node(node);
                let c = &mut self.nodes[n].credits[vc as usize];
                *c += self.cfg.packet_size;
                debug_assert!(*c <= self.cfg.injection_input_buffer);
            }
        }
    }

    fn complete_delivery(&mut self, node: NodeId, id: PacketId) {
        let pkt = self.arena.get(id);
        debug_assert_eq!(pkt.dst, node);
        let (min_l, min_g) = self.topo.min_path_links(pkt.src, pkt.dst);
        let min_routers = (min_l + min_g + 1) as u64;
        let min_traversal = self.cfg.injection_link_latency          // node → router
            + min_routers * self.cfg.pipeline_latency                 // router pipelines
            + min_l as u64 * self.cfg.local_link_latency
            + min_g as u64 * self.cfg.global_link_latency
            + self.cfg.injection_link_latency                         // router → node
            + self.cfg.packet_size as u64; // serialization
        let rec = DeliveredRecord {
            header: pkt.header(),
            delivered_cycle: self.cycle,
            traversal: pkt.traversal.into(),
            min_traversal,
            waits: pkt.waits(),
            local_hops: pkt.route.local_hops,
            global_hops: pkt.route.global_hops,
        };
        self.counters.delivered_packets += 1;
        self.live_packets -= 1;
        self.arena.free(id);
        self.books.ages += rec.delivered_cycle + 1 - rec.header.gen_cycle;
        self.sink.on_delivered(&rec);
    }

    /// Node-side injection over the active-node work list: only nodes
    /// with a queued packet are visited (bit set in [`Self::offer`],
    /// cleared here once the queue drains). Ascending order keeps event
    /// scheduling identical to the full `0..nodes` scan. A node that wins
    /// an injection VC turns its queue head into a [`Packet`]: this is
    /// where a packet gets its arena slot. Touches node, arena and wheel
    /// state only — never a router — so the sharded engine may run it
    /// before the policy's `begin_cycle`.
    pub(crate) fn inject_from_nodes(&mut self) {
        let params = *self.topo.params();
        for w in 0..self.node_active.len() {
            let mut word = self.node_active[w];
            while word != 0 {
                let n = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let node = &mut self.nodes[n];
                debug_assert!(!node.queue.is_empty(), "idle node on work list");
                if node.link_free_at > self.cycle {
                    continue;
                }
                let size = self.cfg.packet_size;
                // Pick an injection VC with room, round-robin for fairness.
                let vcs = self.cfg.vcs_injection as u32;
                let mut chosen = None;
                for k in 0..vcs {
                    let vc = (node.vc_rr + k) % vcs;
                    if node.credits[vc as usize] >= size {
                        chosen = Some(vc);
                        break;
                    }
                }
                let Some(vc) = chosen else { continue };
                node.vc_rr = (vc + 1) % vcs;
                node.credits[vc as usize] -= size;
                node.link_free_at = self.cycle + size as u64;
                let queued = node.queue.pop_front().expect("checked non-empty");
                if node.queue.is_empty() {
                    clear_bit(&mut self.node_active, n);
                }
                let node_id = NodeId(self.node_base + n as u32);
                let mut pkt = Packet::new(queued.seq, node_id, queued.dst, queued.gen_cycle);
                // Source-queue time is injection wait.
                pkt.waits.injection = cycles_since(self.cycle, queued.gen_cycle, queued.seq);
                self.books.waits += u64::from(pkt.waits.injection) + 1;
                pkt.traversal = stamp(self.cfg.injection_link_latency);
                // Link plus router pipeline in one event: the packet
                // enters its input VC on the cycle it becomes eligible.
                let delay = self.cfg.injection_link_latency + self.cfg.pipeline_latency;
                pkt.eligible_at = stamp(self.cycle + delay);
                let id = self.arena.insert(pkt);
                let router = node_id.router(&params);
                let port = params.injection_port(node_id.slot(&params)).0 as u8;
                let arrive = Event::ArriveRouter { router, port, vc: vc as u8, pkt: id };
                self.wheel.schedule(delay, arrive);
            }
        }
    }

    /// Separable iterative batch allocation for router `r` (local index):
    /// up to `speedup` iterations, each of which lets every input port
    /// request one output for one VC head and every requested output
    /// grant one request. So an input port wins at most once per
    /// iteration and an output grants at most once: no port can exceed
    /// the speedup's grants, and none needs a budget.
    fn allocate_router(&mut self, r: usize, policy: &mut P) {
        // The work list only holds routers with resident input packets.
        debug_assert!(self.routers[r].input_count > 0, "idle router on alloc work list");
        // The VCs that already won this cycle: their new head has not
        // traversed the pipeline, so they cannot win again.
        self.alloc_vc_granted.fill(0);

        for _iter in 0..self.cfg.speedup {
            // --- Phase 1: each input port nominates one VC head. ---
            // Only ports with a ready, unparked VC can nominate.
            // Snapshot the mask: nominating only ever parks VCs of the
            // port being visited. Ascending bit order is the `0..radix`
            // order of the scan this replaces.
            let mut awake_ports = self.routers[r].awake_in;
            // Output ports with at least one request this iteration.
            let mut requested = 0u64;
            while awake_ports != 0 {
                let in_port = awake_ports.trailing_zeros() as usize;
                awake_ports &= awake_ports - 1;
                // Ready-VC mask minus parked VCs: a parked head's probe
                // outcome cannot change until its target port is touched
                // (which unparks it), so skipping it is exact.
                let port = self.routers[r].in_ports[in_port];
                let candidates = port.awake_vcs() & !self.alloc_vc_granted[in_port];
                // Round-robin from the port's pointer: the VCs at or
                // above it ascending, then the ones below it.
                let below_start = (1u32 << port.rr) - 1;
                'port: for mut vcs in [candidates & !below_start, candidates & below_start] {
                    while vcs != 0 {
                        let vc = vcs.trailing_zeros() as usize;
                        vcs &= vcs - 1;
                        let (out, out_vc) = if port.decided & (1 << vc) != 0 {
                            // A decision taken by an earlier probe: the
                            // router holds all this probe needs.
                            self.routers[r].decided_output(in_port, vc)
                        } else {
                            self.decide_head(r, in_port, vc, policy)
                        };
                        let out_port = out.idx();
                        if self.routers[r].can_accept(out, out_vc, self.cfg.packet_size) {
                            // Nominated: the port requests this head's
                            // output, and nothing else this iteration.
                            requested |= 1 << out_port;
                            self.requests[out_port] |= 1 << in_port;
                            self.nominated[in_port] = vc as u8;
                            break 'port;
                        }
                        // Blocked. The decision holds until the grant, so
                        // the probe's outcome cannot change before its
                        // target port does: park the head.
                        if self.route_cache {
                            self.routers[r].park(in_port, vc, out_port);
                        }
                    }
                }
            }
            if requested == 0 {
                break;
            }

            // --- Phase 2: each requested output grants one request. ---
            while requested != 0 {
                let out_port = requested.trailing_zeros() as usize;
                requested &= requested - 1;
                let requesters = std::mem::take(&mut self.requests[out_port]);
                let in_port = self.arbitrate_output(r, out_port, requesters);
                let vc = self.nominated[in_port];
                self.commit_grant(r, in_port, vc as usize, out_port);
                self.alloc_vc_granted[in_port] |= 1 << vc;
                // Advance the input port's RR pointer past the winner.
                let port = &mut self.routers[r].in_ports[in_port];
                port.rr = if vc + 1 == port.vcs { 0 } else { vc + 1 };
            }
        }
    }

    /// Route the undecided head of (`in_port`, `vc`): its output port and
    /// VC. This is the head's one routing decision at this router. Its
    /// output is recorded in the router, where later probes and the grant
    /// read it; its route state is committed to the packet now, since
    /// nothing reads that before the grant. A decision that first diverts
    /// the packet onto a non-minimal global path leaves the
    /// pending-escape flag, which the grant counts.
    fn decide_head(&mut self, r: usize, in_port: usize, vc: usize, policy: &mut P) -> (Port, u8) {
        let id = self.routers[r].input_front(in_port, vc).expect("ready bit set on empty VC");
        let pkt = self.arena.get_mut(id);
        debug_assert!(u64::from(pkt.eligible_at) <= self.cycle, "resident head not eligible");
        debug_assert!(!pkt.escape_pending, "undecided head holds a pending escape");
        let hdr = pkt.header();
        let d = policy.route(&self.routers[r], Port(in_port as u32), hdr, pkt.route);
        debug_assert!(d.out_port.0 < self.topo.params().radix());
        pkt.escape_pending = d.info.global_misrouted && !pkt.route.global_misrouted;
        pkt.route = d.info;
        self.routers[r].record_decision(in_port, vc, d.out_port, d.out_vc);
        (d.out_port, d.out_vc)
    }

    /// Pick the input port that wins `out_port` among `requesters` (a
    /// non-empty mask) under the configured arbiter, and advance the
    /// output's pointer past it. Each arbiter takes the minimum of a key
    /// unique per input port, so the order requests were made in does not
    /// matter: round-robin takes the distance from the pointer, transit
    /// priority (injection port?, distance), and age-based (the head's
    /// generation cycle, distance). Nothing is re-checked: nomination saw
    /// the head fit, and only a grant at this output could change that.
    fn arbitrate_output(&mut self, r: usize, out_port: usize, requesters: u64) -> usize {
        let router = &self.routers[r];
        let rr = router.out_ports[out_port].rr;
        let pick = match self.cfg.arbiter {
            ArbiterPolicy::RoundRobin => bits_from(requesters, rr).next(),
            ArbiterPolicy::TransitPriority => {
                // Injection ports are the ports below `p`.
                let transit = requesters & !((1 << self.topo.params().p) - 1);
                bits_from(if transit != 0 { transit } else { requesters }, rr).next()
            }
            // The one arbiter that needs the packet itself (its age). In
            // pointer order, the first minimum is the nearest one.
            ArbiterPolicy::AgeBased => bits_from(requesters, rr).min_by_key(|&q| {
                let vc = self.nominated[q] as usize;
                let id = router.input_front(q, vc).expect("a requested head is resident");
                self.arena.get(id).gen_cycle
            }),
        }
        .expect("an arbitrated output has a request");
        let next = pick as u32 + 1;
        self.routers[r].out_ports[out_port].rr =
            if next == self.topo.params().radix() { 0 } else { next };
        pick
    }

    /// Move the granted packet from its input VC to the output buffer,
    /// reserving downstream credit and returning upstream credit.
    fn commit_grant(&mut self, r: usize, in_port: usize, vc: usize, out_port: usize) {
        let params = *self.topo.params();
        let in_kind = params.port_kind(Port(in_port as u32));
        let (out, out_vc) = self.routers[r].decided_output(in_port, vc);
        debug_assert_eq!(out.idx(), out_port);
        debug_assert!(
            self.routers[r].can_accept(out, out_vc, self.cfg.packet_size),
            "a granted request no longer fits"
        );
        let id = self.routers[r].pop_input(in_port, vc);
        if self.routers[r].input_count == 0 {
            clear_bit(&mut self.alloc_active, r);
        }
        // Wait accounting (a resident packet is eligible: `eligible_at <=
        // cycle`); the route state was committed by the decision.
        let pkt = self.arena.get_mut(id);
        let wait = cycles_since(self.cycle, pkt.eligible_at, pkt.id);
        match in_kind {
            PortKind::Injection => pkt.waits.injection += wait,
            PortKind::Local => pkt.waits.local += wait,
            PortKind::Global => pkt.waits.global += wait,
        }
        pkt.traversal += stamp(self.cfg.pipeline_latency);
        // An escape-path grant is the false→true transition of the
        // misrouting flag: this grant first diverted the packet onto a
        // non-minimal global path.
        self.counters.escape_grants += u64::from(std::mem::take(&mut pkt.escape_pending));

        // Fairness counters: packets leaving an injection input. The input
        // port of an injection grant *is* the node's slot on its router.
        if in_kind == PortKind::Injection {
            self.counters.injected_per_router[r] += 1;
            self.counters.injected_per_node[r * params.p as usize + in_port] += 1;
        }

        // Reserve downstream credit (transit outputs only).
        if self.routers[r].has_credits(out_port) {
            self.routers[r].reserve_credit(out_port, out_vc as usize);
        }
        // The queue feeding a global link just grew (staged packet +
        // reserved credit): PiggyBack's view of this router is stale.
        if params.port_kind(Port(out_port as u32)) == PortKind::Global {
            self.mark_global_dirty(r);
        }

        // Return credit upstream for the input space just freed. An
        // upstream router outside this slice gets its credit through the
        // outbox (cross-shard interception point #1); only global-link
        // ports can cross a group — and therefore shard — boundary.
        let flat = r * params.radix() as usize + in_port;
        let latency = self.latencies[flat];
        match self.peers[flat] {
            PortTarget::Node(node) => {
                self.wheel.schedule(latency, Event::NodeCredit { node, vc: vc as u8 });
            }
            PortTarget::Router { router, port } => {
                let (port, vc) = (port.0 as u8, vc as u8);
                if self.owns_router(router) {
                    self.wheel.schedule(latency, Event::Credit { router, port, vc });
                } else {
                    self.outbox.credits.push(RemoteCredit { router, port, vc, delay: latency });
                }
            }
        }

        self.routers[r]
            .stage_output(out_port, Staged { pkt: id, enq_at: stamp(self.cycle), out_vc });
        set_bit(&mut self.tx_active, r);
    }

    /// Start link transmissions from this router's staged output ports,
    /// walking the ready-output bitmask instead of scanning all `radix`
    /// buffers (ascending port order, as before).
    fn transmit_outputs(&mut self, r: usize) {
        debug_assert!(self.routers[r].out_ready != 0, "idle router on tx work list");
        let params = *self.topo.params();
        let radix = params.radix() as usize;
        // Snapshot: `pop_output` may clear a bit of this mask, but only
        // for the port just processed.
        let mut ready = self.routers[r].out_ready;
        while ready != 0 {
            let out_port = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            if self.routers[r].link_free_at(out_port) > self.cycle {
                continue;
            }
            let staged = self.routers[r].pop_output(out_port);
            let size = self.cfg.packet_size as u64;
            let flat = r * radix + out_port;
            let out_kind = params.port_kind(Port(out_port as u32));
            let latency = self.latencies[flat];
            self.routers[r].release_output(out_port, self.cycle + size);
            self.counters.channel_phits[flat] += size;
            if out_kind == PortKind::Global {
                self.mark_global_dirty(r);
            }
            // Output-side waiting, attributed by output-port kind
            // (ejection counts as local — it is intra-"last-hop" HoL).
            let pkt = self.arena.get_mut(staged.pkt);
            let wait = cycles_since(self.cycle, staged.enq_at, pkt.id);
            match out_kind {
                PortKind::Injection | PortKind::Local => pkt.waits.local += wait,
                PortKind::Global => pkt.waits.global += wait,
            }
            match self.peers[flat] {
                PortTarget::Node(node) => {
                    pkt.traversal += stamp(latency + size);
                    let arrive = Event::ArriveNode { node, pkt: staged.pkt };
                    self.wheel.schedule(latency + size, arrive);
                }
                PortTarget::Router { router, port } => {
                    // The next router's pipeline rides on the link event:
                    // the packet enters its input VC on the cycle it
                    // becomes eligible, stamped here (the pipeline cycles
                    // are charged to `traversal` at the grant, as before).
                    let delay = latency + self.cfg.pipeline_latency;
                    pkt.traversal += stamp(latency);
                    pkt.eligible_at = stamp(self.cycle + delay);
                    let (port, vc) = (port.0 as u8, staged.out_vc);
                    if self.owns_router(router) {
                        self.wheel.schedule(
                            delay,
                            Event::ArriveRouter { router, port, vc, pkt: staged.pkt },
                        );
                    } else {
                        // Cross-shard interception point #2: the packet
                        // leaves this slice's arena and travels to the
                        // owner as a value; the owner re-homes it past
                        // the cycle barrier. Traversal and eligibility
                        // were written above, exactly as for a local hop.
                        let packet = *self.arena.get(staged.pkt);
                        self.arena.free(staged.pkt);
                        self.live_packets -= 1;
                        self.outbox.flits.push(RemoteFlit { router, port, vc, delay, packet });
                    }
                }
            }
        }
        if self.routers[r].out_ready == 0 {
            clear_bit(&mut self.tx_active, r);
        }
    }

    // ------------------------------------------------------------------
    // The audit
    // ------------------------------------------------------------------

    /// The engine's one invariant check (docs/DETERMINISM.md, "The
    /// audit"): every scheduling work list and mask against a full scan,
    /// route-cache coherence, packet conservation, credit conservation on
    /// every link, per-router against per-node injection counts, Little's
    /// law for the packets in flight and for the source queues, and the
    /// policy's own [`RoutingPolicy::audit`]. Panics with a diagnostic
    /// naming the first violation. Call between steps; O(network), no
    /// effect on the simulation.
    ///
    /// # Panics
    /// Panics on a shard slice, whose policy lives with the controller.
    pub fn audit(&self) {
        let policy = self.policy.as_ref().expect("policy detached (shard slice)");
        let mut ledger = CreditLedger::new(&self.topo, &self.cfg);
        let mut time = TimeBooks::default();
        self.audit_slice(policy, &mut ledger, &mut time);
        ledger.assert_balanced(self.cycle);
        time.assert_balanced(self.cycle);
    }

    /// Every audit step that needs only this slice's state, with the
    /// policy supplied by the caller; what the slice holds of each link's
    /// credit window goes into `ledger`, and its time books into `time`,
    /// which the caller balances once every slice has contributed (a
    /// global link's two ends may sit in different shards, and a packet
    /// counted live in one shard may be delivered in another).
    pub(crate) fn audit_slice(&self, policy: &P, ledger: &mut CreditLedger, time: &mut TimeBooks) {
        self.audit_work_lists();
        // Population first: the steps after it read the arena record of
        // every queued handle, which must therefore name a live slot.
        self.audit_population();
        self.audit_route_cache();
        self.audit_credits(ledger);
        self.audit_injection_counters();
        self.audit_time(time);
        policy.audit(&CycleCtx {
            routers: &self.routers,
            cycle: self.cycle,
            dirty_global: &self.global_dirty_list,
        });
    }

    /// Audit step (work lists): verify every scheduling work list against
    /// a full `0..routers` / `0..nodes` scan of the underlying state.
    /// Visiting exactly the flagged entities is equivalent to the full
    /// scan iff every unflagged entity has nothing to do — this asserts
    /// that invariant.
    fn audit_work_lists(&self) {
        for (r, router) in self.routers.iter().enumerate() {
            assert_eq!(
                get_bit(&self.alloc_active, r),
                router.input_packets() > 0,
                "alloc work list diverged from input_count at router {r}, cycle {}",
                self.cycle
            );
            assert_eq!(
                get_bit(&self.tx_active, r),
                router.out_ready != 0,
                "tx work list diverged from out_ready at router {r}, cycle {}",
                self.cycle
            );
            for q in 0..self.topo.params().radix() as usize {
                assert_eq!(
                    router.out_ready & (1 << q) != 0,
                    router.output_staged(q) != 0,
                    "ready-output mask diverged at router {r} port {q}, cycle {}",
                    self.cycle
                );
            }
        }
        for (n, node) in self.nodes.iter().enumerate() {
            assert_eq!(
                get_bit(&self.node_active, n),
                !node.queue.is_empty(),
                "node work list diverged at node {n}, cycle {}",
                self.cycle
            );
        }
    }

    /// Audit step (route cache): verify every route-cache invariant
    /// against the underlying state. Specifically, per router:
    ///
    /// * the ready-VC masks, the awake-port mask and the resident-packet
    ///   count equal what a full scan of the input rings derives;
    /// * every decided VC is ready (non-empty): the grant clears the bit;
    /// * every parked VC is decided, and registered in the waiter mask of
    ///   the port its router record names; that (port, VC) still cannot
    ///   accept the head — a parked head that *could* proceed is a lost
    ///   wakeup;
    /// * only a decided head carries the pending-escape flag;
    /// * every packet the router holds is eligible: it entered its input
    ///   VC on the cycle its sender stamped.
    fn audit_route_cache(&self) {
        let radix = self.topo.params().radix() as usize;
        for r in 0..self.routers.len() {
            let router = &self.routers[r];
            router.audit_input_masks(self.cycle);
            // Pending-escape flags on decided heads (allowed) versus on
            // every packet the router holds.
            let mut escapes_on_decided = 0;
            for in_port in 0..radix {
                let InPort { ready, parked, decided, .. } = router.in_ports[in_port];
                assert_eq!(
                    decided & !ready,
                    0,
                    "decided VC without resident packet at router {r} port {in_port}, cycle {}",
                    self.cycle
                );
                assert_eq!(
                    parked & !decided,
                    0,
                    "parked VC without a decision at router {r} port {in_port}, cycle {}",
                    self.cycle
                );
                let mut dmask = decided;
                while dmask != 0 {
                    let vc = dmask.trailing_zeros() as usize;
                    dmask &= dmask - 1;
                    let head = router.input_front(in_port, vc).expect("decided VC is ready");
                    escapes_on_decided += u32::from(self.arena.get(head).escape_pending);
                }
                let mut mask = parked;
                while mask != 0 {
                    let vc = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let (target, out_vc) = router
                        .decided_target(Port(in_port as u32), vc as u8)
                        .expect("parked VC is decided");
                    assert!(
                        router.out_ports[target.idx()].waiters & (1u64 << in_port) != 0,
                        "parked head not in waiter mask of its target port at \
                         router {r} in(port={in_port},vc={vc}) -> out {}, cycle {}",
                        target.0,
                        self.cycle
                    );
                    assert!(
                        !router.can_accept(target, out_vc, self.cfg.packet_size),
                        "lost wakeup: parked head could proceed at router {r} \
                         in(port={in_port},vc={vc}) -> out {}, cycle {}",
                        target.0,
                        self.cycle
                    );
                }
            }
            let mut escapes = 0;
            for id in router.resident_packets() {
                let pkt = self.arena.get(id);
                escapes += u32::from(pkt.escape_pending);
                assert!(
                    u64::from(pkt.eligible_at) <= self.cycle,
                    "packet {} resident at router {r} before its eligibility cycle {} \
                     (pushed ahead of the router pipeline), cycle {}",
                    pkt.id,
                    pkt.eligible_at,
                    self.cycle
                );
            }
            assert_eq!(
                escapes, escapes_on_decided,
                "pending-escape flag on a packet that is not a decided head at router {r}, \
                 cycle {}",
                self.cycle
            );
        }
    }

    /// Audit step (population): no accepted packet is lost or counted
    /// twice. `in_flight` equals the packets still in source queues plus
    /// the arena's live slots, and every live slot is reachable exactly
    /// once — from an input VC, an output buffer, or an arrival event on
    /// a link. (A flit crossing shards travels by value and is re-homed
    /// inside the step, so between steps no packet is anywhere else.)
    fn audit_population(&self) {
        assert_eq!(
            self.live_packets,
            (self.arena.live() + self.source_queued()) as u64,
            "live-packet count diverged from arena + source-queue population \
             (slice at router {}, cycle {})",
            self.router_base,
            self.cycle
        );
        self.arena.audit_references(self.referenced_packets(), self.cycle);
    }

    /// Every packet handle the slice holds: in a router, or on a link.
    fn referenced_packets(&self) -> impl Iterator<Item = PacketId> + '_ {
        let on_links = self.wheel.iter().filter_map(|ev| match *ev {
            Event::ArriveRouter { pkt, .. } | Event::ArriveNode { pkt, .. } => Some(pkt),
            _ => None,
        });
        self.routers.iter().flat_map(RouterState::resident_packets).chain(on_links)
    }

    /// Audit step (injection counters): each router's injections are its
    /// nodes' — one grant adds to both.
    fn audit_injection_counters(&self) {
        let p = self.topo.params().p as usize;
        let c = &self.counters;
        for (r, (&router, nodes)) in
            c.injected_per_router.iter().zip(c.injected_per_node.chunks(p)).enumerate()
        {
            let of_nodes: u64 = nodes.iter().sum();
            assert_eq!(
                router,
                of_nodes,
                "router {} injected {router} packets, its nodes {of_nodes} (cycle {})",
                self.router_base as usize + r,
                self.cycle
            );
        }
    }

    /// Audit step (time, this slice's share): the slice's books, plus
    /// what each packet still live here has been live for so far (see
    /// [`TimeBooks`]). Runs after the population step, which proved that
    /// the referenced handles are exactly the arena's live slots.
    fn audit_time(&self, time: &mut TimeBooks) {
        let next = self.cycle + 1;
        // Cycle starts a live packet was counted at: `now + 1 − gen`.
        let starts = |gen_cycle: u32| {
            let gen_cycle = u64::from(gen_cycle);
            assert!(
                gen_cycle <= next,
                "live packet generated at cycle {gen_cycle}, after the next cycle {next}"
            );
            next - gen_cycle
        };
        let queued: u64 =
            self.nodes.iter().flat_map(|n| &n.queue).map(|q| starts(q.gen_cycle)).sum();
        let in_network: u64 =
            self.referenced_packets().map(|id| starts(self.arena.get(id).gen_cycle)).sum();
        time.population += self.books.population;
        time.ages += self.books.ages + in_network + queued;
        time.queued += self.books.queued;
        time.waits += self.books.waits + queued;
    }

    /// Audit step (credits, this slice's share): add up, per receiving
    /// input VC, every phit of its buffer this slice can account for —
    /// resident packets and arrivals on the wire at the receiving end;
    /// unspent credits, staged packets whose credit is already reserved
    /// and credit returns on the wire at the sending end.
    fn audit_credits(&self, ledger: &mut CreditLedger) {
        let params = *self.topo.params();
        let radix = params.radix() as usize;
        let size = self.cfg.packet_size;
        for (r, router) in self.routers.iter().enumerate() {
            router.audit_credit_counters(self.cycle);
            let id = router.id();
            for q in 0..radix {
                let port = Port(q as u32);
                for vc in 0..router.in_ports[q].vcs {
                    ledger.add(id, port, vc, router.input_occupancy(port, vc));
                }
                let PortTarget::Router { router: peer, port: peer_port } =
                    self.peers[r * radix + q]
                else {
                    continue; // ejection: the node sinks without credits
                };
                let down_vcs = vcs_for(&self.cfg, params.port_kind(port));
                for vc in 0..down_vcs {
                    ledger.add(peer, peer_port, vc, router.credits(port, vc));
                }
                for staged in router.staged(q) {
                    ledger.add(peer, peer_port, staged.out_vc, size);
                }
            }
        }
        let injection_vc =
            |node: NodeId| (node.router(&params), params.injection_port(node.slot(&params)));
        for (n, node) in self.nodes.iter().enumerate() {
            let (router, port) = injection_vc(NodeId(self.node_base + n as u32));
            for (vc, &credits) in node.credits.iter().enumerate() {
                ledger.add(router, port, vc as u8, credits);
            }
        }
        for ev in self.wheel.iter() {
            match *ev {
                Event::ArriveRouter { router, port, vc, .. } => {
                    ledger.add(router, Port(port.into()), vc, size);
                }
                Event::Credit { router, port, vc } => {
                    let flat = self.local_router(router) * radix + port as usize;
                    let PortTarget::Router { router: peer, port: peer_port } = self.peers[flat]
                    else {
                        panic!("credit return towards ejection port {port} of {router:?}");
                    };
                    ledger.add(peer, peer_port, vc, size);
                }
                Event::NodeCredit { node, vc } => {
                    let (router, port) = injection_vc(node);
                    ledger.add(router, port, vc, size);
                }
                Event::ArriveNode { .. } => {}
            }
        }
    }
}

/// The time half of the audit: two books for each of two populations,
/// kept run-wide (never reset with the counters). For the packets in
/// flight, Little's law in its sample-path form (J. D. C. Little,
/// *Operations Research* 9(3), 1961; S. Stidham, *Operations Research*
/// 22(2), 1974) holds exactly over any horizon: the population summed
/// over cycles equals the time each packet has been live, summed over
/// packets. The left book counts the population; the right one is built
/// from the stamps the result is built from (`gen_cycle`,
/// `delivered_cycle`, `waits.injection`), so a wrong stamp moves one book
/// and not the other.
///
/// `population` adds `live_packets` at every cycle start
/// (`begin_cycle_bump`). A packet offered between steps at cycle `g − 1`
/// carries `gen_cycle = g` and is first counted at the start of cycle
/// `g`; delivered during cycle `d`, it was counted at the starts of
/// `g..=d`, `d − g + 1` times, which `ages` adds from the
/// [`DeliveredRecord`] handed to the sink. A packet still live at cycle
/// `now` was counted `now + 1 − g` times (0 for one offered since the
/// last step). So, exactly, as integers:
///
/// `population = ages + Σ_live (now + 1 − gen_cycle)`
///
/// The source queues the same way: `queued` adds the queued count at
/// every cycle start; a packet injected during cycle `i` was queued at
/// the starts of `g..=i`, `waits.injection + 1` times (`waits.injection
/// = i − g` is the source-queue wait written at injection, before the
/// injection port adds its own), which `waits` adds:
///
/// `queued = waits + Σ_queued (now + 1 − gen_cycle)`
///
/// As a ledger, the audit adds every slice's books and live residuals
/// into one instance and balances it once: between steps every packet
/// lives in exactly one slice, but the slice that counted it live need
/// not be the one that delivers it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TimeBooks {
    /// Σ over cycle starts of the packets live (queued or in the network).
    population: u64,
    /// Σ over delivered packets of `delivered_cycle + 1 − gen_cycle`.
    ages: u64,
    /// Σ over cycle starts of the packets in source queues.
    queued: u64,
    /// Σ over injected packets of the source-queue wait plus one.
    waits: u64,
}

impl TimeBooks {
    /// Panic unless both identities hold.
    pub(crate) fn assert_balanced(&self, cycle: u64) {
        assert_eq!(
            self.population, self.ages,
            "Little's law violated for the packets in flight: {} packet-cycles counted live, \
             the generation and delivery stamps account for {} (cycle {cycle})",
            self.population, self.ages
        );
        assert_eq!(
            self.queued, self.waits,
            "Little's law violated for the source queues: {} packet-cycles counted queued, \
             the generation and injection stamps account for {} (cycle {cycle})",
            self.queued, self.waits
        );
    }
}

/// The credit half of the audit: for every input VC of every router, the
/// phits of its buffer accounted for anywhere in the network. Credit-based
/// flow control moves a buffer's phits between five places — the sender's
/// credit counter, its output buffer (credit reserved at the grant), the
/// wire, the buffer itself, and the credit return on the wire back — and
/// never creates or destroys one, so each sum must equal the buffer's
/// capacity. Indexed by **global** router id, so the slices of a sharded
/// network add into one ledger.
pub(crate) struct CreditLedger {
    /// `[(router * radix + port) * vc_stride + vc]`, in phits.
    held: Vec<u32>,
    /// Capacity of one VC of input port `q`, `[q]`, and its VC count.
    capacity: Vec<(u32, u8)>,
    vc_stride: usize,
}

impl CreditLedger {
    pub(crate) fn new(topo: &Topology, cfg: &EngineConfig) -> Self {
        let params = topo.params();
        let capacity: Vec<(u32, u8)> = (0..params.radix())
            .map(|q| {
                let kind = params.port_kind(Port(q));
                (input_capacity_for(cfg, kind), vcs_for(cfg, kind))
            })
            .collect();
        let vc_stride = capacity.iter().map(|&(_, vcs)| vcs as usize).max().unwrap_or(0);
        let held = vec![0; params.routers() as usize * capacity.len() * vc_stride];
        Self { held, capacity, vc_stride }
    }

    fn add(&mut self, router: RouterId, port: Port, vc: u8, phits: u32) {
        let (_, vcs) = self.capacity[port.idx()];
        assert!(vc < vcs, "phits accounted to VC {vc} of port {}, which has {vcs}", port.0);
        let radix = self.capacity.len();
        self.held[(router.idx() * radix + port.idx()) * self.vc_stride + vc as usize] += phits;
    }

    /// Panic on the first input VC whose phits do not add up to its
    /// capacity.
    pub(crate) fn assert_balanced(&self, cycle: u64) {
        let radix = self.capacity.len();
        for (i, held) in self.held.chunks(self.vc_stride).enumerate() {
            let (capacity, vcs) = self.capacity[i % radix];
            for (vc, &held) in held[..vcs as usize].iter().enumerate() {
                assert_eq!(
                    held,
                    capacity,
                    "credit conservation violated on the link into router {} port {} vc {vc}: \
                     credits + staged + on the wire + resident = {held} phits, capacity \
                     {capacity} (cycle {cycle})",
                    i / radix,
                    i % radix
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Decision, PacketHeader, RouteInfo};
    use df_topology::{Arrangement, DragonflyParams};

    /// Minimal-only test policy: local hop to exit router, global hop,
    /// local hop to destination router, ejection.
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
                let (exit, j) = self.topo.exit_to_group(me.group(params), dst_router.group(params));
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

    fn small_net() -> Network<MinOnly, crate::policy::NullSink> {
        net_with(EngineConfig::paper(ArbiterPolicy::RoundRobin, 3), crate::policy::NullSink)
    }

    /// The figure1 machine under `cfg`, minimally routed, feeding `sink`.
    fn net_with<S: StatsSink>(cfg: EngineConfig, sink: S) -> Network<MinOnly, S> {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let policy = MinOnly { topo: topo.clone() };
        Network::new(topo, cfg, policy, sink)
    }

    /// Run `offers` (all made before the first cycle) to a full drain under
    /// `cfg`, auditing after every cycle, and hand back the delivered
    /// records in delivery order.
    fn deliver_all(cfg: EngineConfig, offers: &[(u32, u32)]) -> Vec<DeliveredRecord> {
        let records = std::cell::RefCell::new(Vec::new());
        let sink = |rec: &DeliveredRecord| records.borrow_mut().push(*rec);
        let mut net = net_with(cfg, sink);
        for &(src, dst) in offers {
            assert!(net.offer(NodeId(src), NodeId(dst)));
        }
        while net.in_flight() > 0 {
            assert!(net.cycle() < 10_000, "network failed to drain");
            net.step();
            net.audit();
        }
        drop(net);
        records.into_inner()
    }

    /// Table I with another router pipeline depth.
    fn with_pipeline(pipeline_latency: u64) -> EngineConfig {
        EngineConfig { pipeline_latency, ..EngineConfig::paper(ArbiterPolicy::RoundRobin, 3) }
    }

    #[test]
    fn single_packet_same_group_delivered() {
        let mut net = small_net();
        // Node 0 (router 0) to a node on router 1, same group.
        let dst = NodeId(2); // router 1, slot 0 (p=2)
        assert!(net.offer(NodeId(0), dst));
        assert!(net.drain(2000), "packet should be delivered");
        assert_eq!(net.counters().delivered_packets, 1);
    }

    #[test]
    fn single_packet_cross_group_delivered() {
        let mut net = small_net();
        let nodes = net.topology().params().nodes();
        assert!(net.offer(NodeId(0), NodeId(nodes - 1)));
        assert!(net.drain(5000));
        assert_eq!(net.counters().delivered_packets, 1);
    }

    // The router pipeline rides on the link event. That changes no
    // packet's timing, and the tests below say so from the timing itself
    // (for pipelines of 0, 1 and Table I's 5 cycles), not from a digest.

    #[test]
    fn latency_identity_holds() {
        let offers: Vec<(u32, u32)> = (0..10).map(|i| (i % 72, (i * 7 + 13) % 72)).collect();
        for pipeline in [0, 1, 5] {
            let records = deliver_all(with_pipeline(pipeline), &offers);
            assert_eq!(records.len(), 10);
            for rec in &records {
                assert_eq!(
                    rec.latency(),
                    rec.traversal + rec.waits.total(),
                    "every cycle of a packet's life must be accounted exactly once \
                     (pipeline {pipeline}): {rec:?}"
                );
                // Minimal routing ⇒ no misrouting latency.
                assert_eq!(rec.misroute_latency(), 0);
            }
        }
    }

    #[test]
    fn unloaded_latency_matches_min_traversal() {
        for pipeline in [0, 1, 5] {
            // Cross-group: two local hops and a global one, four pipelines.
            let rec = deliver_all(with_pipeline(pipeline), &[(0, 70)])[0];
            // A single packet in an empty network: zero queueing.
            assert_eq!(rec.waits.total(), 0, "pipeline {pipeline}");
            assert_eq!(rec.latency(), rec.min_traversal, "pipeline {pipeline}");
            let links = 2 + (rec.local_hops as u64) * 10 + (rec.global_hops as u64) * 100 + 8;
            let routers = (rec.local_hops + rec.global_hops + 1) as u64;
            assert_eq!(rec.latency(), links + routers * pipeline, "pipeline {pipeline}");
        }
    }

    /// Two packets down one input VC with a pipeline (12) deeper than a
    /// packet is long (8): the second is on the link, then inside the
    /// pipeline, while the first is granted. It must be granted on exactly
    /// its own `link arrival + pipeline` cycle, and in between the VC is
    /// empty — there is no resident-but-ineligible state to probe.
    #[test]
    fn second_packet_of_a_vc_is_granted_on_its_eligibility_cycle() {
        let cfg = EngineConfig { vcs_injection: 1, ..with_pipeline(12) };
        let mut net = net_with(cfg, crate::policy::NullSink);
        // Node 0 to node 1, both on router 0. The node puts the packets
        // on its link at cycles 1 and 9 (8 phits each); one cycle of link
        // and twelve of pipeline later each is eligible: cycles 14 and 22.
        assert!(net.offer(NodeId(0), NodeId(1)) && net.offer(NodeId(0), NodeId(1)));
        for cycle in 1..=30 {
            net.step();
            net.audit();
            let granted = match cycle {
                ..=13 => 0,
                14..=21 => 1,
                _ => 2,
            };
            assert_eq!(net.counters().injected_per_router[0], granted, "cycle {cycle}");
            let router = net.router(RouterId(0));
            assert_eq!((router.probe_ready(), router.input_packets()), (0, 0), "cycle {cycle}");
        }
        assert!(net.drain(100));
    }

    /// A pipeline deep enough that `global link + pipeline` overruns the
    /// 128-slot wheel the link latencies alone would size.
    #[test]
    fn deep_pipeline_fits_the_wheel() {
        let rec = deliver_all(with_pipeline(40), &[(0, 70)])[0];
        assert_eq!(rec.global_hops, 1);
        assert_eq!(rec.latency(), rec.min_traversal);
    }

    /// A run stops at the horizon that keeps the packet record's `u32`
    /// cycle stamps exact.
    #[test]
    #[should_panic(expected = "run stepped past MAX_RUN_CYCLES")]
    fn stepping_at_the_run_horizon_panics() {
        let mut net = small_net();
        net.cycle = MAX_RUN_CYCLES;
        net.step();
    }

    /// A generation stamp one cycle in the future would wrap the injection
    /// wait; it panics by name instead, in every build.
    #[test]
    #[should_panic(expected = "cycle stamp 2 of packet 0 is past the current cycle 1")]
    fn a_generation_stamp_past_the_cycle_panics_at_injection() {
        let mut net = small_net();
        assert!(net.offer(NodeId(0), NodeId(40)));
        net.nodes[0].queue.back_mut().unwrap().gen_cycle += 1;
        net.step();
    }

    /// Likewise for the output-buffer stamp: a staged packet stamped in
    /// the future would wrap its output wait at transmission.
    #[test]
    #[should_panic(expected = "cycle stamp 7 of packet 9 is past the current cycle 6")]
    fn a_staging_stamp_past_the_cycle_panics_at_transmission() {
        let mut net = small_net();
        net.run(5);
        let pkt = net.arena.insert(Packet::new(9, NodeId(0), NodeId(1), 0));
        net.live_packets += 1;
        net.routers[0].stage_output(1, Staged { pkt, enq_at: stamp(net.cycle + 2), out_vc: 0 });
        set_bit(&mut net.tx_active, 0);
        net.step();
    }

    #[test]
    #[should_panic(expected = "local_link_latency must be at least 1 cycle")]
    fn zero_latency_link_fails_at_construction() {
        let cfg = EngineConfig { local_link_latency: 0, ..with_pipeline(5) };
        net_with(cfg, crate::policy::NullSink);
    }

    #[test]
    fn injection_counters_attribute_to_source_router() {
        let mut net = small_net();
        net.offer(NodeId(0), NodeId(6)); // source router 0
        net.offer(NodeId(5), NodeId(0)); // source router 2 (p=2)
        assert!(net.drain(5000));
        assert_eq!(net.counters().injected_per_router[0], 1);
        assert_eq!(net.counters().injected_per_router[2], 1);
        // Per-node attribution: node 0 = router 0 slot 0, node 5 = router 2
        // slot 1 (p = 2).
        assert_eq!(net.counters().injected_per_node[0], 1);
        assert_eq!(net.counters().injected_per_node[5], 1);
        assert_eq!(net.counters().injected_per_node.iter().sum::<u64>(), 2);
    }

    #[test]
    fn many_packets_all_delivered() {
        let mut net = small_net();
        let nodes = net.topology().params().nodes();
        let mut offered = 0;
        for round in 0..20u32 {
            for n in 0..nodes {
                if (n + round) % 3 == 0 {
                    let dst = (n * 31 + round * 7 + 1) % nodes;
                    if dst != n && net.offer(NodeId(n), NodeId(dst)) {
                        offered += 1;
                    }
                }
            }
            net.step();
        }
        assert!(net.drain(50_000), "network must drain");
        assert_eq!(net.counters().delivered_packets, offered);
    }

    #[test]
    fn credits_fully_restored_after_drain() {
        // Credit conservation: once the network drains and the straggler
        // credit returns land, nothing is in a buffer or on a wire, so the
        // audit's balanced ledger means every credit counter is back at
        // its capacity.
        let mut net = small_net();
        let nodes = net.topology().params().nodes();
        for round in 0..10u32 {
            for n in 0..nodes {
                let dst = (n * 7 + round * 13 + 1) % nodes;
                if dst != n {
                    net.offer(NodeId(n), NodeId(dst));
                }
            }
            net.step();
        }
        assert!(net.drain(100_000));
        net.run(300);
        assert_eq!(net.events_pending(), 0);
        assert_eq!(net.source_queued(), 0);
        assert_eq!(net.arena_live(), 0, "arena leaked packets");
        assert!(net.routers.iter().all(|r| r.input_packets() == 0 && r.output_packets() == 0));
        assert!(net.arena_capacity() > 0);
        net.audit();
    }

    #[test]
    fn arena_capacity_stabilizes_in_steady_state() {
        // Once warm, offer/deliver cycles must reuse freed slots instead
        // of growing the slab: no per-packet allocation in steady state.
        let mut net = small_net();
        let nodes = net.topology().params().nodes();
        for round in 0..40u32 {
            for n in (0..nodes).step_by(3) {
                net.offer(NodeId(n), NodeId((n + 7 + round) % nodes));
            }
            net.step();
        }
        assert!(net.drain(50_000));
        let warm_capacity = net.arena_capacity();
        // Same workload again: the arena must not grow.
        for round in 0..40u32 {
            for n in (0..nodes).step_by(3) {
                net.offer(NodeId(n), NodeId((n + 7 + round) % nodes));
            }
            net.step();
        }
        assert!(net.drain(50_000));
        assert_eq!(
            net.arena_capacity(),
            warm_capacity,
            "steady-state run grew the arena (per-packet allocation)"
        );
        assert_eq!(net.arena_live(), 0);
    }

    #[test]
    fn speedup_bounds_grants_per_output() {
        // With speedup 2, an output can accept at most 2 packets per
        // cycle; the output buffer (4 packets) can therefore never
        // overflow even under a burst from many inputs — push a dense
        // burst through one ejection port and rely on the buffer::push
        // overflow panic to catch violations.
        let mut net = small_net();
        // 16 packets from different sources to the same destination node.
        for i in 0..16u32 {
            net.offer(NodeId(2 * i % 72), NodeId(1));
        }
        assert!(net.drain(50_000));
        assert_eq!(net.counters().delivered_packets, 16);
    }

    #[test]
    fn counters_reset_clears_window() {
        let mut net = small_net();
        net.offer(NodeId(0), NodeId(6));
        net.drain(5000);
        assert_eq!(net.counters().delivered_packets, 1);
        net.reset_counters();
        assert_eq!(net.counters().delivered_packets, 0);
        assert_eq!(net.counters().cycles, 0);
        assert!(net.counters().injected_per_router.iter().all(|&c| c == 0));
    }

    // ------------------------------------------------------------------
    // The audit has teeth: corrupt a loaded network one invariant at a
    // time and expect `audit()` to name the violation.
    // ------------------------------------------------------------------

    type TestNet = Network<MinOnly, crate::policy::NullSink>;

    /// A hotspot (every node sends to node 1) on top of a spread load, cut
    /// off mid-flight: packets in source queues, in input VCs, staged at
    /// outputs, on a link's wire and past it inside the next router's
    /// pipeline, credit returns on the wire, heads decided and heads
    /// parked on the hotspot's ejection port.
    fn loaded_net() -> TestNet {
        let mut net = small_net();
        let nodes = net.topology().params().nodes();
        // (The nodes inject in lockstep, a packet every 8 cycles, so what
        // is in flight beats with that period: after 50 cycles there are
        // arrival events on both sides of the wire / pipeline line and
        // heads both awake and parked.)
        for round in 0..50u32 {
            for n in 0..nodes {
                net.offer(NodeId(n), NodeId(1));
                net.offer(NodeId(n), NodeId((n * 31 + round * 7 + 5) % nodes));
            }
            net.step();
        }
        net
    }

    /// `(router, input port, vc)` of the input VCs whose masks satisfy `pick`.
    fn find_vc(net: &TestNet, pick: impl Fn(&InPort, u32) -> bool) -> (usize, usize, usize) {
        for (r, router) in net.routers.iter().enumerate() {
            for (q, input) in router.in_ports.iter().enumerate() {
                if let Some(vc) = (0..input.vcs as u32).find(|&vc| pick(input, 1 << vc)) {
                    return (r, q, vc as usize);
                }
            }
        }
        panic!("loaded_net holds no such VC");
    }

    /// An awake head (granting it is legal) of a router holding more
    /// packets than that one.
    fn find_awake(net: &TestNet) -> (usize, usize, usize) {
        let (r, q, vc) = find_vc(net, |input, bit| input.awake_vcs() & bit != 0);
        assert!(net.routers[r].input_count > 1);
        (r, q, vc)
    }

    #[test]
    fn loaded_net_is_sound_and_exercises_every_place_a_packet_can_be() {
        let net = loaded_net();
        net.audit();
        assert!(net.source_queued() > 0);
        assert!(net.routers.iter().any(|r| r.output_packets() > 0));
        assert!(net.wheel.iter().any(|ev| matches!(ev, Event::Credit { .. })));
        // An arrival event covers the wire, then the pipeline: the packet
        // is past the wire once what is left of its delay fits the pipeline.
        let in_pipeline = |ev: &Event| match *ev {
            Event::ArriveRouter { pkt, .. } => {
                let eligible_at = u64::from(net.arena.get(pkt).eligible_at);
                Some(eligible_at - net.cycle <= net.cfg.pipeline_latency)
            }
            _ => None,
        };
        assert!(net.wheel.iter().any(|ev| in_pipeline(ev) == Some(false)), "none on a wire");
        assert!(net.wheel.iter().any(|ev| in_pipeline(ev) == Some(true)), "none in a pipeline");
        find_vc(&net, |input, bit| input.parked & bit != 0);
        find_vc(&net, |input, bit| input.decided & !input.parked & bit != 0);
        find_awake(&net);
    }

    macro_rules! audit_catches {
        ($($name:ident: $expected:literal => $corrupt:expr;)*) => {$(
            #[test]
            #[should_panic(expected = $expected)]
            fn $name() {
                let mut net = loaded_net();
                let corrupt: fn(&mut TestNet) = $corrupt;
                corrupt(&mut net);
                net.audit();
            }
        )*};
    }

    audit_catches! {
        audit_catches_a_cleared_alloc_active_bit: "alloc work list diverged" => |net| {
            let (r, _, _) = find_awake(net);
            clear_bit(&mut net.alloc_active, r);
        };
        audit_catches_a_cleared_waiter_bit: "parked head not in waiter mask" => |net| {
            let (r, q, vc) = find_vc(net, |input, bit| input.parked & bit != 0);
            let (target, _) = net.routers[r].decided_target(Port(q as u32), vc as u8).unwrap();
            net.routers[r].out_ports[target.idx()].waiters &= !(1 << q);
        };
        audit_catches_a_parked_head_without_a_decision: "parked VC without a decision" => |net| {
            let (r, q, vc) = find_vc(net, |input, bit| input.parked & bit != 0);
            net.routers[r].in_ports[q].decided &= !(1 << vc);
        };
        audit_catches_a_resident_packet_still_in_the_pipeline: "before its eligibility cycle" => |net| {
            let (r, q, vc) = find_awake(net);
            let id = net.routers[r].input_front(q, vc).unwrap();
            net.arena.get_mut(id).eligible_at = stamp(net.cycle + 1);
        };
        audit_catches_a_decided_bit_on_an_empty_vc: "decided VC without resident packet" => |net| {
            let (r, q, vc) = find_vc(net, |input, bit| input.ready & bit == 0);
            net.routers[r].in_ports[q].decided |= 1 << vc;
        };
        audit_catches_a_pending_escape_on_a_staged_packet: "pending-escape flag on a packet" => |net| {
            let radix = net.topo.params().radix() as usize;
            let (r, q) = (0..net.routers.len())
                .flat_map(|r| (0..radix).map(move |q| (r, q)))
                .find(|&(r, q)| net.routers[r].output_staged(q) > 0)
                .expect("a staged packet");
            let id = net.routers[r].staged(q).next().unwrap().pkt;
            net.arena.get_mut(id).escape_pending = true;
        };
        audit_catches_a_miscounted_packet: "live-packet count diverged" => |net| {
            net.live_packets -= 1;
        };
        audit_catches_a_leaked_arena_slot: "leaked: live, but in no ring and on no link" => |net| {
            let stray = Packet::new(u64::MAX, NodeId(0), NodeId(1), 0);
            net.arena.insert(stray);
            net.live_packets += 1;
        };
        audit_catches_a_packet_dropped_from_a_ring: "leaked: live, but in no ring" => |net| {
            let (r, q, vc) = find_awake(net);
            net.routers[r].pop_input(q, vc);
        };
        audit_catches_a_freed_slot_still_queued: "vacant arena slot" => |net| {
            let (r, q, vc) = find_awake(net);
            let id = net.routers[r].input_front(q, vc).unwrap();
            net.arena.free(id);
            net.live_packets -= 1;
        };
        audit_catches_a_packet_in_two_places: "referenced twice" => |net| {
            // Stage a copy of a resident head where its credit would be
            // reserved: on a port with room, so only the handle is wrong.
            let (r, q, vc) = find_awake(net);
            let pkt = net.routers[r].input_front(q, vc).unwrap();
            let out = (0..net.topo.params().p as usize)
                .find(|&out| net.routers[r].can_accept(Port(out as u32), 0, 8))
                .expect("an ejection port with room");
            net.routers[r].stage_output(out, Staged { pkt, enq_at: stamp(net.cycle), out_vc: 0 });
            set_bit(&mut net.tx_active, r);
        };
        audit_catches_a_stolen_credit: "credit conservation violated on the link into" => |net| {
            // Consume downstream credit without staging the packet it is for.
            let params = *net.topo.params();
            let (r, port) = (0..net.routers.len())
                .flat_map(|r| (params.p..params.radix()).map(move |q| (r, Port(q))))
                .find(|&(r, port)| net.routers[r].credits(port, 0) >= 8)
                .expect("a transit port with credit left");
            net.routers[r].reserve_credit(port.idx(), 0);
        };
        audit_catches_a_stolen_injection_credit: "credit conservation violated" => |net| {
            let node = net.nodes.iter_mut().find(|n| n.credits[0] >= 8);
            node.expect("a node with credit").credits[0] -= 8;
        };
        audit_catches_an_injection_no_node_made: "router 2 injected" => |net| {
            net.counters.injected_per_router[2] += 1;
        };
        audit_catches_a_missed_population_count: "Little's law violated for the packets in flight" =>
            |net| net.books.population -= 1;
        audit_catches_a_missed_queue_count: "Little's law violated for the source queues" =>
            |net| net.books.queued -= 1;
        audit_catches_an_early_generation_stamp_in_the_network:
            "Little's law violated for the packets in flight" => |net| {
            let (r, q, vc) = find_awake(net);
            let id = net.routers[r].input_front(q, vc).unwrap();
            net.arena.get_mut(id).gen_cycle -= 1;
        };
        audit_catches_a_generation_stamp_past_the_next_cycle: "after the next cycle" => |net| {
            let next = stamp(net.cycle + 2);
            net.nodes.iter_mut().find_map(|n| n.queue.back_mut()).unwrap().gen_cycle = next;
        };
    }
}
