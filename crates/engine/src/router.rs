//! Per-router state: input VCs, output buffers, downstream credits, and
//! the congestion views consumed by adaptive routing policies.
//!
//! Everything a router owns is sized once in [`RouterState::new`] and
//! laid out for the way a cycle walks it. What the allocator reads of an
//! input port when it probes it (the ready / parked / decided VC masks
//! and the round-robin pointer) is one 16-byte [`InPort`] record; what a
//! grant, a transmission or a credit return touches of an output port
//! (buffer occupancy, link timer, cached downstream occupancy, change
//! epoch, waiter mask, arbiter pointer) is one cache-line [`OutPort`]
//! record. The input-VC and output queues are fixed-capacity rings over
//! two per-router slabs, and the per-VC tables (`in_rings`, `credits`,
//! `head_out`) are flat arrays indexed `[port * vc_stride + vc]`, so a
//! VC's head entry or credit counter is one index computation away
//! instead of a walk through a `Vec<Vec<_>>` into a lazily grown deque.
//!
//! All buffer and credit mutations go through the `push_input` /
//! `pop_input` / `stage_output` / `pop_output` / `release_output` /
//! `reserve_credit` / `return_credit` methods, which keep the derived
//! structures in sync (masks, and no count that restates one):
//!
//! * `InPort::ready` — a bitmask of non-empty VCs per input port, so the
//!   switch allocator only visits occupied VCs;
//! * `input_count` / `out_ready` — resident input packets and the output
//!   ports with a staged packet, so idle routers leave the work lists;
//! * `OutPort::downstream_used` — cached consumed-credit phits per output
//!   port, making every congestion probe O(1) instead of O(VCs);
//! * `InPort::parked` / `OutPort::waiters` — blocked-head parking: every
//!   mutation of an output port's allocator-visible state wakes the heads
//!   parked on it, so a blocked router pays O(changed ports) per cycle
//!   instead of O(blocked heads); the same mutation bumps
//!   `OutPort::epoch`, a change counter telemetry samples;
//! * `awake_in` — a bitmask of input ports with at least one ready,
//!   unparked VC, so the allocator walks only the ports it could
//!   nominate from (ascending bit order is ascending port order);
//! * `InPort::decided` / `head_out` — the output a VC head was routed to
//!   (once per router visit), so re-probing a head that was blocked or lost
//!   arbitration reads router-local state only, never the input ring or
//!   the packet's arena record. It is the only home of that output: the
//!   grant reads it here too.

use crate::arena::PacketId;
use crate::buffer::{OutRing, Ring, Staged};
use crate::config::EngineConfig;
use df_topology::{DragonflyParams, Port, PortKind, RouterId};

/// Allocator-side state of one input port: everything a probe of the
/// port reads, in 16 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InPort {
    /// Bitmask of non-empty VCs (the ready-VC list).
    pub(crate) ready: u32,
    /// Bitmask of *parked* VCs: heads whose routing decision is stable
    /// but whose target output cannot accept them. The allocator skips
    /// them until the target port is touched.
    pub(crate) parked: u32,
    /// Bitmask of *decided* VCs: heads whose `(out_port, out_vc)` is
    /// recorded in `head_out`. Cleared by the grant.
    pub(crate) decided: u32,
    /// Round-robin pointer over the port's VCs.
    pub(crate) rr: u8,
    /// Number of VCs.
    pub(crate) vcs: u8,
}

impl InPort {
    /// Bitmask of the VCs whose head the allocator could probe now:
    /// non-empty and not parked.
    #[inline]
    pub(crate) fn awake_vcs(&self) -> u32 {
        self.ready & !self.parked
    }
}

/// State of one output port, one cache line: a grant, a transmission, a
/// credit return and a congestion probe each find what they need of the
/// port here (the per-VC credit counters are the one thing outside).
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub(crate) struct OutPort {
    /// The output buffer (occupancy, link timer, staged-packet ring).
    ring: OutRing,
    /// Cached consumed downstream phits (sum over VCs of `cap - credits`),
    /// maintained by `reserve_credit`/`return_credit`.
    downstream_used: u32,
    /// Capacity behind each of the port's credit counters.
    credit_cap: u32,
    /// Change epoch, bumped by every mutation of the port's
    /// allocator-visible state (credit reserve/return, staging,
    /// output-buffer release). Read only by telemetry's
    /// `port_epoch_bumps` gauge.
    epoch: u32,
    /// Bitmask of input ports with at least one VC parked on this port —
    /// the wake list `touch_port` consults.
    pub(crate) waiters: u64,
    /// Round-robin pointer of the port's arbiter (over input ports).
    pub(crate) rr: u32,
    /// Downstream VCs behind the port: the VC count of the peer input
    /// port, 0 for ejection ports (nodes are infinite sinks).
    down_vcs: u8,
}

const _: () = assert!(std::mem::size_of::<InPort>() == 16);
const _: () = assert!(std::mem::size_of::<OutPort>() == 64);

/// All state of one router.
#[derive(Debug)]
pub struct RouterState {
    id: RouterId,
    /// Widest VC count of any port class: the stride of every
    /// `[port * vc_stride + vc]` table below.
    vc_stride: usize,
    /// Allocator-side state of the input ports, `[port]`.
    pub(crate) in_ports: Vec<InPort>,
    /// Input VC rings, `[port * vc_stride + vc]` (entries past a port's
    /// VC count are zero-capacity fillers).
    in_rings: Vec<Ring>,
    /// Slot slab behind `in_rings`.
    in_slots: Vec<PacketId>,
    /// The output ports, `[port]`.
    pub(crate) out_ports: Vec<OutPort>,
    /// Slot slab behind the output ports' rings.
    out_slots: Vec<Staged>,
    /// Credits towards the downstream input buffer of each output port,
    /// `[port * vc_stride + downstream vc]`, in phits.
    credits: Vec<u32>,
    /// `[out_port, out_vc]` of each head, `[port * vc_stride + vc]`: the
    /// output of a decided head (while its decided bit is set), and so
    /// the port a parked head waits on. The packet record holds no copy.
    head_out: Vec<[u8; 2]>,
    /// Bitmask of output ports with at least one staged packet (the
    /// ready-output list): `transmit_outputs` visits only set bits
    /// instead of scanning all `radix` output buffers.
    pub(crate) out_ready: u64,
    /// Bitmask of input ports with at least one ready, unparked VC
    /// (`ready & !parked != 0`) — the ports the allocator's nomination
    /// phase walks.
    pub(crate) awake_in: u64,
    /// Packets resident across all input VCs.
    pub(crate) input_count: u32,
    /// `EngineConfig::packet_size`: what every queued packet occupies of
    /// a buffer and of a credit window.
    packet_size: u32,
}

/// Number of VCs for a port of the given kind under `cfg`.
pub fn vcs_for(cfg: &EngineConfig, kind: PortKind) -> u8 {
    match kind {
        PortKind::Injection => cfg.vcs_injection,
        PortKind::Local => cfg.vcs_local,
        PortKind::Global => cfg.vcs_global,
    }
}

/// Input-buffer capacity per VC for a port of the given kind.
pub(crate) fn input_capacity_for(cfg: &EngineConfig, kind: PortKind) -> u32 {
    match kind {
        PortKind::Injection => cfg.injection_input_buffer,
        PortKind::Local => cfg.local_input_buffer,
        PortKind::Global => cfg.global_input_buffer,
    }
}

impl RouterState {
    /// Build an idle router.
    ///
    /// Credit counters at each local/global output port mirror the input
    /// buffer of the *peer* port, which has the same kind (local links
    /// join two local ports, global links two global ports). Ejection
    /// ports get no credit counters.
    pub fn new(id: RouterId, params: &DragonflyParams, cfg: &EngineConfig) -> Self {
        let radix = params.radix() as usize;
        let max = DragonflyParams::MAX_RADIX as usize;
        assert!(radix <= max, "port bitmasks support at most {max} ports");
        let vc_stride = cfg.vcs_injection.max(cfg.vcs_local).max(cfg.vcs_global) as usize;
        let mut in_ports = Vec::with_capacity(radix);
        let mut in_rings = Vec::with_capacity(radix * vc_stride);
        let mut in_slot_count = 0;
        let mut out_ports = Vec::with_capacity(radix);
        let mut out_slot_count = 0;
        let mut credits = vec![0; radix * vc_stride];
        for q in 0..radix {
            let kind = params.port_kind(Port(q as u32));
            let vcs = vcs_for(cfg, kind);
            in_ports.push(InPort { ready: 0, parked: 0, decided: 0, rr: 0, vcs });
            for vc in 0..vc_stride {
                let cap = if vc < vcs as usize { input_capacity_for(cfg, kind) } else { 0 };
                let slots = (cap / cfg.packet_size) as usize;
                in_rings.push(Ring::new(in_slot_count, slots));
                in_slot_count += slots;
            }
            let (ring, slots) = OutRing::new(out_slot_count, cfg.output_buffer, cfg.packet_size);
            out_slot_count += slots;
            let (down_vcs, credit_cap) = match kind {
                // Ejection side of an injection port: node sinks packets.
                PortKind::Injection => (0, 0),
                PortKind::Local => (cfg.vcs_local, cfg.local_input_buffer),
                PortKind::Global => (cfg.vcs_global, cfg.global_input_buffer),
            };
            credits[q * vc_stride..][..down_vcs as usize].fill(credit_cap);
            out_ports.push(OutPort {
                ring,
                downstream_used: 0,
                credit_cap,
                epoch: 0,
                waiters: 0,
                rr: 0,
                down_vcs,
            });
        }
        Self {
            id,
            vc_stride,
            in_ports,
            in_rings,
            in_slots: vec![PacketId(0); in_slot_count],
            out_ports,
            out_slots: vec![Staged::VACANT; out_slot_count],
            credits,
            head_out: vec![[0; 2]; radix * vc_stride],
            out_ready: 0,
            awake_in: 0,
            input_count: 0,
            packet_size: cfg.packet_size,
        }
    }

    /// This router's id.
    #[inline]
    pub fn id(&self) -> RouterId {
        self.id
    }

    // ------------------------------------------------------------------
    // Buffer / credit mutations (keep the derived state in sync)
    // ------------------------------------------------------------------

    /// Flat index of (`port`, `vc`) in the `[port * vc_stride + vc]` tables.
    #[inline]
    fn flat(&self, port: usize, vc: usize) -> usize {
        debug_assert!(vc < self.vc_stride);
        port * self.vc_stride + vc
    }

    /// Re-derive `port`'s bit of `awake_in` from its VC masks.
    #[inline]
    fn refresh_awake(&mut self, port: usize) {
        let awake = self.in_ports[port].awake_vcs() != 0;
        self.awake_in = (self.awake_in & !(1 << port)) | (u64::from(awake) << port);
    }

    /// Head packet of input `port`, VC `vc`, if any.
    #[inline]
    pub(crate) fn input_front(&self, port: usize, vc: usize) -> Option<PacketId> {
        self.in_rings[self.flat(port, vc)].front(&self.in_slots)
    }

    /// Enqueue an arriving packet on `port`, VC `vc`. Returns whether it
    /// is the VC's head (the VC was empty).
    ///
    /// # Panics
    /// Panics if the VC is full: credit accounting is broken.
    #[inline]
    pub(crate) fn push_input(&mut self, port: usize, vc: usize, id: PacketId) -> bool {
        let flat = self.flat(port, vc);
        let ring = &mut self.in_rings[flat];
        let router = self.id.0;
        assert!(
            !ring.is_full(),
            "VC buffer overflow at router {router} port {port} vc {vc}: credit accounting violated"
        );
        let newly_occupied = ring.is_empty();
        ring.push(&mut self.in_slots, id);
        let input = &mut self.in_ports[port];
        input.ready |= 1 << vc;
        if newly_occupied {
            debug_assert!(input.parked & (1 << vc) == 0, "empty VC cannot be parked");
            debug_assert!(input.decided & (1 << vc) == 0, "empty VC cannot be decided");
            self.awake_in |= 1 << port;
        }
        self.input_count += 1;
        newly_occupied
    }

    /// Dequeue the head packet of `port`, VC `vc`, returning its handle.
    /// The VC's next head, if any, is undecided.
    ///
    /// # Panics
    /// Panics if the VC is empty.
    #[inline]
    pub(crate) fn pop_input(&mut self, port: usize, vc: usize) -> PacketId {
        debug_assert!(self.in_ports[port].parked & (1 << vc) == 0, "granted a parked head");
        let flat = self.flat(port, vc);
        let entry = self.in_rings[flat].pop(&self.in_slots).expect("pop from empty input VC");
        self.in_ports[port].decided &= !(1 << vc);
        if self.in_rings[flat].is_empty() {
            self.in_ports[port].ready &= !(1 << vc);
            self.refresh_awake(port);
        }
        self.input_count -= 1;
        entry
    }

    /// Whether output `port` has a downstream credit window (every port
    /// but the ejection ports).
    #[inline]
    pub(crate) fn has_credits(&self, port: usize) -> bool {
        self.out_ports[port].down_vcs != 0
    }

    /// Consume one packet's downstream credit on `port`, VC `vc` (grant
    /// committed).
    #[inline]
    pub(crate) fn reserve_credit(&mut self, port: usize, vc: usize) {
        debug_assert!(vc < self.out_ports[port].down_vcs as usize);
        let size = self.packet_size;
        let c = &mut self.credits[port * self.vc_stride + vc];
        debug_assert!(*c >= size, "allocator granted without credit");
        *c -= size;
        self.out_ports[port].downstream_used += size;
        self.touch_port(port);
    }

    /// Return one packet's downstream credit on `port`, VC `vc` (space
    /// freed below).
    #[inline]
    pub(crate) fn return_credit(&mut self, port: usize, vc: usize) {
        debug_assert!(vc < self.out_ports[port].down_vcs as usize);
        let flat = port * self.vc_stride + vc;
        self.credits[flat] += self.packet_size;
        debug_assert!(self.credits[flat] <= self.out_ports[port].credit_cap, "credit overflow");
        self.out_ports[port].downstream_used -= self.packet_size;
        self.touch_port(port);
    }

    /// Stage a granted packet at output `port`.
    #[inline]
    pub(crate) fn stage_output(&mut self, port: usize, staged: Staged) {
        self.out_ports[port].ring.push(&mut self.out_slots, staged, self.packet_size);
        self.out_ready |= 1 << port;
        self.touch_port(port);
    }

    /// Free output-buffer space at `port` once the head packet starts
    /// serializing onto the link — the link stays busy until
    /// `link_free_at` — and wake heads parked on the port.
    #[inline]
    pub(crate) fn release_output(&mut self, port: usize, link_free_at: u64) {
        let out = &mut self.out_ports[port].ring;
        out.release(self.packet_size);
        out.link_free_at = link_free_at;
        self.touch_port(port);
    }

    /// Cycle from which output `port`'s link accepts a new packet.
    #[inline]
    pub(crate) fn link_free_at(&self, port: usize) -> u64 {
        self.out_ports[port].ring.link_free_at
    }

    /// Dequeue the head of output `port` for transmission.
    ///
    /// # Panics
    /// Panics if the output buffer is empty.
    #[inline]
    pub(crate) fn pop_output(&mut self, port: usize) -> Staged {
        let out = &mut self.out_ports[port].ring;
        let staged = out.pop_for_tx(&self.out_slots).expect("pop from empty output");
        if out.is_empty() {
            self.out_ready &= !(1 << port);
        }
        staged
        // No `touch_port`: occupancy only changes on `release_output`.
    }

    // ------------------------------------------------------------------
    // Route-decision cache: blocked-head parking (and port epochs)
    // ------------------------------------------------------------------

    /// Bump `port`'s change epoch and unpark every head waiting on it.
    #[inline]
    pub(crate) fn touch_port(&mut self, port: usize) {
        let out = &mut self.out_ports[port];
        out.epoch = out.epoch.wrapping_add(1);
        let mut wake = std::mem::take(&mut out.waiters);
        while wake != 0 {
            let q = wake.trailing_zeros() as usize;
            wake &= wake - 1;
            let mut parked = self.in_ports[q].parked;
            while parked != 0 {
                let vc = parked.trailing_zeros() as usize;
                parked &= parked - 1;
                if self.head_out[q * self.vc_stride + vc][0] as usize == port {
                    self.in_ports[q].parked &= !(1 << vc);
                    // A parked VC is ready.
                    self.awake_in |= 1 << q;
                }
            }
        }
    }

    /// Park the decided head of (`in_port`, `vc`): its recorded output
    /// `out_port` cannot accept it, and the decision holds until the grant
    /// — so the allocator skips the VC until `touch_port(out_port)` wakes
    /// it.
    #[inline]
    pub(crate) fn park(&mut self, in_port: usize, vc: usize, out_port: usize) {
        debug_assert_eq!(
            self.decided_target(Port(in_port as u32), vc as u8).map(|(out, _)| out.idx()),
            Some(out_port),
            "parking a head not decided for its port"
        );
        let input = &mut self.in_ports[in_port];
        debug_assert!(input.parked & (1 << vc) == 0, "double park");
        input.parked |= 1 << vc;
        self.out_ports[out_port].waiters |= 1 << in_port;
        self.refresh_awake(in_port);
    }

    /// Forget all parking state (route cache toggled off mid-run). The
    /// decided records stay: a head keeps its decision until its grant.
    pub(crate) fn unpark_all(&mut self) {
        for q in 0..self.in_ports.len() {
            self.in_ports[q].parked = 0;
            self.refresh_awake(q);
            self.out_ports[q].waiters = 0;
        }
    }

    /// Record the output the head of (`in_port`, `vc`) was routed to: the
    /// only copy of it, read back by later probes and by the grant.
    #[inline]
    pub(crate) fn record_decision(
        &mut self,
        in_port: usize,
        vc: usize,
        out_port: Port,
        out_vc: u8,
    ) {
        debug_assert!(self.in_ports[in_port].ready & (1 << vc) != 0, "deciding an empty VC");
        self.in_ports[in_port].decided |= 1 << vc;
        let flat = self.flat(in_port, vc);
        self.head_out[flat] = [out_port.0 as u8, out_vc];
    }

    /// The recorded `(out_port, out_vc)` of a decided head.
    #[inline]
    pub(crate) fn decided_output(&self, in_port: usize, vc: usize) -> (Port, u8) {
        debug_assert!(self.in_ports[in_port].decided & (1 << vc) != 0, "head not decided");
        let [out_port, out_vc] = self.head_out[self.flat(in_port, vc)];
        (Port(out_port as u32), out_vc)
    }

    // ------------------------------------------------------------------
    // Congestion views (all O(1))
    // ------------------------------------------------------------------
    //
    // `df-routing` calls these on every `route`, from another crate of a
    // workspace built without LTO: `#[inline]` is what lets them inline
    // there.

    /// Credits (phits of downstream space) available on `port`, VC `vc`.
    ///
    /// # Panics
    /// Panics if `port` has no downstream VC `vc`.
    #[inline]
    pub(crate) fn credits(&self, port: Port, vc: u8) -> u32 {
        let down_vcs = self.out_ports[port.idx()].down_vcs;
        assert!(vc < down_vcs, "port {} has {down_vcs} downstream VCs, not VC {vc}", port.0);
        self.credits[port.idx() * self.vc_stride + vc as usize]
    }

    /// Total downstream space consumed across all VCs of `port`, in phits.
    /// This is the "credit count" congestion signal the paper's adaptive
    /// mechanisms consult.
    #[inline]
    pub(crate) fn downstream_occupied(&self, port: Port) -> u32 {
        self.out_ports[port.idx()].downstream_used
    }

    /// Queue length feeding `port` in phits (output buffer + consumed
    /// downstream space). The PiggyBack saturation estimate uses this.
    #[inline]
    pub fn output_queue_phits(&self, port: Port) -> u32 {
        self.out_ports[port.idx()].ring.occupancy() + self.downstream_occupied(port)
    }

    /// Fraction of the downstream credit window consumed on `port` for
    /// the specific `vc` (1.0 = no credits left). Ejection ports have no
    /// credit window and read 0.0. This mirrors a per-VC "number of
    /// credits of the output port" congestion estimate.
    #[inline]
    pub fn vc_credit_fill(&self, port: Port, vc: u8) -> f64 {
        let out = &self.out_ports[port.idx()];
        if vc >= out.down_vcs {
            return 0.0;
        }
        let avail = self.credits[port.idx() * self.vc_stride + vc as usize];
        (out.credit_cap - avail) as f64 / out.credit_cap as f64
    }

    /// Whether a packet of `size` phits could be granted to `port`/`vc`
    /// right now (space in the output buffer and downstream credit).
    #[inline]
    pub(crate) fn can_accept(&self, port: Port, vc: u8, size: u32) -> bool {
        let out = &self.out_ports[port.idx()];
        if out.ring.free() < size {
            return false;
        }
        // No such downstream VC — an ejection port: the node always sinks.
        vc >= out.down_vcs || self.credits[port.idx() * self.vc_stride + vc as usize] >= size
    }

    /// Resident packets across all input VCs (diagnostics / drain checks).
    pub(crate) fn input_packets(&self) -> usize {
        self.input_count as usize
    }

    /// Staged packets across all output buffers.
    #[cfg(test)]
    pub(crate) fn output_packets(&self) -> usize {
        self.out_ports.iter().map(|out| out.ring.len()).sum()
    }

    /// Input-VC occupancy in phits for `port`, VC `vc` (resident packets).
    pub(crate) fn input_occupancy(&self, port: Port, vc: u8) -> u32 {
        self.in_rings[self.flat(port.idx(), vc as usize)].len() as u32 * self.packet_size
    }

    /// Change epoch of output `port`: bumped by every credit
    /// reserve/return, staging, and output-buffer release on the port.
    /// Telemetry's `port_epoch_bumps` gauge is the growth of its sum over
    /// all ports ([`crate::Network::port_epoch_sum`]); nothing routes on
    /// it.
    #[inline]
    pub(crate) fn port_epoch(&self, port: Port) -> u32 {
        self.out_ports[port.idx()].epoch
    }

    /// The recorded `(out_port, out_vc)` of the head of (`port`, `vc`), if
    /// that head has been routed at this router. This record is the one
    /// home of a head's decided output; a parked head is a decided head
    /// waiting on `out_port`.
    pub(crate) fn decided_target(&self, port: Port, vc: u8) -> Option<(Port, u8)> {
        let (port, vc) = (port.idx(), vc as usize);
        (self.in_ports[port].decided & (1 << vc) != 0).then(|| self.decided_output(port, vc))
    }

    /// Number of non-empty, unparked input VCs (the heads the switch
    /// allocator could probe this cycle), read off the awake ports' VC
    /// masks. O(awake ports); telemetry sampling and tests only.
    pub(crate) fn probe_ready(&self) -> u32 {
        let mut awake = self.awake_in;
        let mut heads = 0;
        while awake != 0 {
            heads += self.in_ports[awake.trailing_zeros() as usize].awake_vcs().count_ones();
            awake &= awake - 1;
        }
        heads
    }

    /// Packets this router's input and output buffers can hold together.
    pub(crate) fn buffer_slots(&self) -> usize {
        self.in_slots.len() + self.out_slots.len()
    }

    /// Packets staged at output `port` (excluding one already popped for
    /// transmission).
    #[inline]
    pub(crate) fn output_staged(&self, port: usize) -> usize {
        self.out_ports[port].ring.len()
    }

    /// Packets staged at output `port`, head first, each with the
    /// downstream VC its credit was reserved on.
    pub(crate) fn staged(&self, port: usize) -> impl Iterator<Item = Staged> + '_ {
        self.out_ports[port].ring.iter(&self.out_slots)
    }

    /// Handle of every packet this router holds, in an input VC or staged
    /// at an output port.
    pub(crate) fn resident_packets(&self) -> impl Iterator<Item = PacketId> + '_ {
        let resident = self.in_rings.iter().flat_map(|ring| ring.iter(&self.in_slots));
        let staged = (0..self.out_ports.len()).flat_map(|port| self.staged(port));
        resident.chain(staged.map(|s| s.pkt))
    }

    /// Audit step (credit counters): no counter exceeds the capacity
    /// behind it, and each port's cached downstream occupancy equals what
    /// its counters say is consumed.
    pub(crate) fn audit_credit_counters(&self, cycle: u64) {
        let id = self.id.0;
        for (port, out) in self.out_ports.iter().enumerate() {
            let credits = &self.credits[port * self.vc_stride..][..out.down_vcs as usize];
            let mut used = 0;
            for (vc, &c) in credits.iter().enumerate() {
                assert!(
                    c <= out.credit_cap,
                    "credit overflow: {c} > {} at router {id} port {port} vc {vc}, cycle {cycle}",
                    out.credit_cap
                );
                used += out.credit_cap - c;
            }
            assert_eq!(
                out.downstream_used, used,
                "cached downstream occupancy out of sync with the credit counters at \
                 router {id} port {port}, cycle {cycle}"
            );
        }
    }

    /// Audit step (input masks): re-derive the ready-VC masks, `awake_in`
    /// and `input_count` from a full scan of the input rings and the
    /// parked masks, and panic on the first divergence.
    /// O(radix × VCs).
    pub(crate) fn audit_input_masks(&self, cycle: u64) {
        let id = self.id.0;
        let (mut awake, mut resident) = (0u64, 0usize);
        for (port, input) in self.in_ports.iter().enumerate() {
            let mut ready = 0u32;
            for vc in 0..self.vc_stride {
                let ring = &self.in_rings[self.flat(port, vc)];
                assert!(
                    vc < input.vcs as usize || ring.is_empty(),
                    "packet in a VC port {port} does not have, router {id}, cycle {cycle}"
                );
                ready |= u32::from(!ring.is_empty()) << vc;
                resident += ring.len();
            }
            assert_eq!(
                input.ready, ready,
                "ready mask diverged from the rings at port {port}, router {id}, cycle {cycle}"
            );
            awake |= u64::from(ready & !input.parked != 0) << port;
        }
        assert_eq!(
            self.awake_in, awake,
            "awake_in diverged from the VC masks, router {id}, cycle {cycle}"
        );
        assert_eq!(
            self.input_count as usize, resident,
            "input_count diverged from the rings, router {id}, cycle {cycle}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArbiterPolicy;

    fn setup() -> (DragonflyParams, EngineConfig, RouterState) {
        let params = DragonflyParams::paper();
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        let r = RouterState::new(RouterId(0), &params, &cfg);
        (params, cfg, r)
    }

    fn staged(i: u32) -> Staged {
        Staged { pkt: PacketId(i), enq_at: 0, out_vc: 0 }
    }

    #[test]
    fn port_structure_matches_params() {
        let (params, cfg, r) = setup();
        assert_eq!(r.in_ports.len(), params.radix() as usize);
        let credits =
            |port: usize| &r.credits[port * r.vc_stride..][..r.out_ports[port].down_vcs as usize];
        // Injection ports: 3 VCs, no downstream credits.
        assert_eq!(r.in_ports[0].vcs, cfg.vcs_injection);
        assert!(!r.has_credits(0));
        // Local port: 3 VCs with 32-phit credit each.
        let lp = params.p as usize;
        assert_eq!(r.in_ports[lp].vcs, cfg.vcs_local);
        assert_eq!(credits(lp), [32; 3]);
        // Global port: 2 VCs with 256-phit credit each.
        let gp = (params.p + params.a - 1) as usize;
        assert_eq!(r.in_ports[gp].vcs, cfg.vcs_global);
        assert_eq!(credits(gp), [256; 2]);
        assert_eq!(r.credits(Port(gp as u32), 1), 256);
    }

    #[test]
    fn slabs_hold_exactly_the_configured_capacity() {
        // One slot per packet the buffers can hold: 6 injection + 11 local
        // ports × 3 VCs × 32/8, 6 global ports × 2 VCs × 256/8; 23 output
        // buffers × 32/8.
        let (_, _, r) = setup();
        assert_eq!(r.in_slots.len(), 6 * 3 * 4 + 11 * 3 * 4 + 6 * 2 * 32);
        assert_eq!(r.out_slots.len(), 23 * 4);
    }

    #[test]
    #[should_panic(expected = "VC buffer overflow")]
    fn input_overflow_is_a_bug() {
        let (_, _, mut r) = setup();
        for i in 0..5 {
            r.push_input(0, 0, PacketId(i));
        }
    }

    #[test]
    fn neighbouring_vcs_do_not_share_slots() {
        // Fill VC 0 of a port, wrap it, and check VC 1's entries survive.
        let (_, _, mut r) = setup();
        r.push_input(0, 1, PacketId(100));
        for i in 0..12 {
            r.push_input(0, 0, PacketId(i));
            if i >= 3 {
                assert_eq!(r.pop_input(0, 0), PacketId(i - 3));
            }
        }
        assert_eq!(r.input_occupancy(Port(0), 0), 24);
        assert_eq!(r.input_front(0, 1), Some(PacketId(100)));
        r.audit_input_masks(0);
    }

    #[test]
    fn awake_mask_follows_park_and_touch() {
        let (_, _, mut r) = setup();
        r.push_input(2, 0, PacketId(1));
        r.push_input(2, 1, PacketId(2));
        assert_eq!(r.awake_in, 1 << 2);
        r.record_decision(2, 0, Port(9), 0);
        r.record_decision(2, 1, Port(7), 0);
        r.park(2, 0, 9);
        assert_eq!(r.awake_in, 1 << 2, "VC 1 still awake");
        r.park(2, 1, 7);
        assert_eq!(r.awake_in, 0);
        assert_eq!(r.probe_ready(), 0);
        r.touch_port(7);
        assert_eq!(r.awake_in, 1 << 2);
        r.pop_input(2, 1);
        assert_eq!(r.awake_in, 0, "only the VC parked on port 9 is left");
        r.touch_port(9);
        assert_eq!(r.awake_in, 1 << 2);
        r.park(2, 0, 9);
        r.unpark_all();
        assert_eq!(r.awake_in, 1 << 2);
        r.audit_input_masks(0);
    }

    #[test]
    fn decided_output_lasts_exactly_as_long_as_its_head() {
        let (_, _, mut r) = setup();
        r.push_input(2, 1, PacketId(1));
        r.push_input(2, 1, PacketId(2));
        r.record_decision(2, 1, Port(7), 2);
        // Parking and waking the head keeps the record whole.
        r.park(2, 1, 7);
        assert_eq!(r.decided_target(Port(2), 1), Some((Port(7), 2)));
        assert_eq!(r.decided_target(Port(2), 0), None);
        r.touch_port(7);
        assert_eq!(r.decided_output(2, 1), (Port(7), 2));
        // The grant takes the record with it: the next head is undecided.
        r.pop_input(2, 1);
        assert_eq!(r.in_ports[2].decided, 0);
        assert_eq!(r.decided_target(Port(2), 1), None);
        assert_eq!(r.in_ports[2].ready, 0b10);
    }

    #[test]
    #[should_panic(expected = "cached downstream occupancy out of sync")]
    fn audit_catches_a_stale_downstream_cache() {
        let (params, _, mut r) = setup();
        let gp = (params.p + params.a - 1) as usize;
        r.reserve_credit(gp, 0);
        r.audit_credit_counters(0);
        r.out_ports[gp].downstream_used -= 8;
        r.audit_credit_counters(0);
    }

    #[test]
    fn idle_router_uncongested() {
        let (params, _, r) = setup();
        for q in 0..params.radix() {
            assert_eq!(r.downstream_occupied(Port(q)), 0);
            assert_eq!(r.output_queue_phits(Port(q)), 0);
        }
        assert_eq!(r.input_count, 0);
        assert_eq!(r.output_packets(), 0);
    }

    #[test]
    fn can_accept_respects_credits() {
        let (params, _, mut r) = setup();
        let gp = Port(params.p + params.a - 1);
        assert!(r.can_accept(gp, 0, 8));
        for _ in 0..256 / 8 {
            r.reserve_credit(gp.idx(), 0);
        }
        assert!(!r.can_accept(gp, 0, 8));
        assert!(r.can_accept(gp, 1, 8));
    }

    #[test]
    fn ejection_always_sinks_when_buffer_free() {
        let (_, _, r) = setup();
        // Injection/ejection port 0, any VC index: no credit constraint.
        assert!(r.can_accept(Port(0), 0, 8));
        assert!(r.can_accept(Port(0), 9, 8));
    }

    #[test]
    fn downstream_occupancy_tracks_credits() {
        let (params, _, mut r) = setup();
        let gp = Port(params.p + params.a - 1);
        assert_eq!(r.downstream_occupied(gp), 0);
        r.reserve_credit(gp.idx(), 0);
        r.reserve_credit(gp.idx(), 1);
        r.reserve_credit(gp.idx(), 1);
        assert_eq!(r.downstream_occupied(gp), 24);
        // What the counters hold plus what is consumed is the whole window.
        assert_eq!(r.credits(gp, 0) + r.credits(gp, 1) + r.downstream_occupied(gp), 2 * 256);
        // Nothing staged: the queue feeding the port is the reserved space.
        assert_eq!(r.output_queue_phits(gp), 24);
        r.return_credit(gp.idx(), 0);
        assert_eq!(r.downstream_occupied(gp), 16);
    }

    #[test]
    fn ready_mask_follows_push_pop() {
        let (_, _, mut r) = setup();
        assert_eq!(r.in_ports[0].ready, 0);
        r.push_input(0, 1, PacketId(0));
        r.push_input(0, 1, PacketId(1));
        r.push_input(0, 2, PacketId(2));
        assert_eq!(r.in_ports[0].ready, 0b110);
        assert_eq!(r.input_packets(), 3);
        assert_eq!(r.pop_input(0, 1), PacketId(0));
        // VC 1 still occupied: bit stays set.
        assert_eq!(r.in_ports[0].ready, 0b110);
        r.pop_input(0, 1);
        assert_eq!(r.in_ports[0].ready, 0b100);
        r.pop_input(0, 2);
        assert_eq!(r.in_ports[0].ready, 0);
        assert_eq!(r.input_packets(), 0);
    }

    #[test]
    fn staged_packets_follow_outputs() {
        let (_, _, mut r) = setup();
        r.stage_output(3, staged(9));
        assert_eq!(r.output_packets(), 1);
        let s = r.pop_output(3);
        assert_eq!(s.pkt, PacketId(9));
        assert_eq!(r.output_packets(), 0);
    }

    #[test]
    fn out_ready_mask_follows_stage_pop() {
        let (_, _, mut r) = setup();
        assert_eq!(r.out_ready, 0);
        r.stage_output(3, staged(1));
        r.stage_output(3, staged(2));
        r.stage_output(5, staged(3));
        assert_eq!(r.out_ready, (1 << 3) | (1 << 5));
        r.pop_output(3);
        // Port 3 still has a staged packet: bit stays set.
        assert_eq!(r.out_ready, (1 << 3) | (1 << 5));
        r.pop_output(3);
        assert_eq!(r.out_ready, 1 << 5);
        r.pop_output(5);
        assert_eq!(r.out_ready, 0);
        assert_eq!(r.output_packets(), 0);
    }
}
