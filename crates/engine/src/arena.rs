//! Slab storage for in-flight packets: one record per packet.
//!
//! A packet lives in one [`PacketArena`] slot from the cycle it wins an
//! injection VC until delivery; router buffers and link events carry the
//! `u32` [`PacketId`] handle instead of a `Box<Packet>`. (Packets still
//! waiting in a source queue are 16-byte stubs in the node, not slots.)
//! A slot is the 64-byte [`Packet`] itself, aligned to a cache line, so
//! every touch of a packet costs exactly one line. The record holds no
//! routing decision: a head is routed once per router visit, its decided
//! route state is committed to the record there and then, and its decided
//! output lives only in the router (`router.rs`). One record rather than
//! a lane per field: a hop touches the record when the head is routed,
//! when it is granted and when it is transmitted, each time reading
//! several fields of *one* packet; arrival, arbitration and the re-probe
//! of a blocked head run on router-local state and do not touch it at
//! all.
//!
//! The first of those touches is announced when it can be: a packet that
//! arrives into an empty input VC is routed in the same cycle, and its
//! record was last written a whole link earlier, so the arrival issues
//! [`PacketArena::prefetch`] for it while the rest of the cycle's
//! arrivals are delivered. (Prefetching at every arrival, and at the
//! grant that moves a queued packet up to the head, measured no better.)
//! A prefetch is a hint to the CPU (`prefetcht0` on x86_64, nothing
//! elsewhere) and changes no value.
//!
//! Vacant slots form an **intrusive free list**: the next-free link is
//! stored in the vacant slot's `eligible_at` field, so freeing and
//! reusing a slot costs two scalar writes and no side-car `Vec` traffic.
//! Slots are reused in LIFO order and steady-state simulation performs no
//! per-packet heap allocation: the network reserves address space for as
//! many packets as its routers can buffer, the slab's length creeps up
//! to the peak in-network population inside that reservation — only
//! slots that have held a packet are ever touched — and then stays
//! fixed. (Growing by reallocation would move the slab, and for a
//! cache-line-aligned element type a move is a copy: measured at Table I
//! scale, 8–12 MB of peak RSS for the transient and the holes it leaves.)

use crate::packet::Packet;

/// Ask the CPU to start loading the cache line that holds `r` into L1, so
/// that a later read finds it there. It is a hint only: it changes no
/// value and, if the line is evicted again before it is read, costs only
/// the fetch.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint. It never faults and reads nothing
    // into program state, and the pointer comes from a live reference
    // anyway. `_mm_prefetch` needs SSE, which every x86_64 CPU has
    // (it is part of the target's baseline).
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Handle of a live packet in the [`PacketArena`] (slab slot index).
///
/// Handles are reused after delivery; the stable per-simulation identity
/// of a packet is its monotonic sequence number [`id`].
///
/// [`id`]: crate::packet::Packet::id
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u32);

/// Free-list terminator stored in a vacant slot's `eligible_at` field.
const FREE_NONE: u32 = u32::MAX;

/// One slab slot: one cache line holding one [`Packet`].
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Slot {
    /// The packet. For a vacant slot `pkt.eligible_at` holds the
    /// next-free link.
    pkt: Packet,
}

// One cache line per packet: the two `u32` cycle stamps and the sequence
// number, then the route state, endpoints, queueing buckets, traversal
// and the pending-escape flag.
const _: () = assert!(std::mem::size_of::<Slot>() == 64);
const _: () = assert!(std::mem::offset_of!(Packet, id) == 8);
const _: () = assert!(std::mem::offset_of!(Packet, route) == 16);
const _: () = assert!(std::mem::offset_of!(Packet, waits) == 36);
const _: () = assert!(std::mem::offset_of!(Packet, escape_pending) == 52);

/// Slab of in-flight packets with intrusive free-list reuse.
#[derive(Debug)]
pub struct PacketArena {
    slots: Vec<Slot>,
    /// Head of the intrusive free list (`FREE_NONE` when full).
    free_head: u32,
    /// Number of vacant slots.
    free_len: u32,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Empty arena with address space reserved for `slots` packets, so
    /// that growing to that population never moves the slab. Only slots
    /// that have held a packet are ever touched, so the reservation costs
    /// no resident memory; a larger population still grows the slab.
    pub fn with_capacity(slots: usize) -> Self {
        Self { slots: Vec::with_capacity(slots), free_head: FREE_NONE, free_len: 0 }
    }

    /// Store `pkt` and return its handle, reusing a freed slot if any.
    pub fn insert(&mut self, pkt: Packet) -> PacketId {
        let slot = Slot { pkt };
        if self.free_head != FREE_NONE {
            let at = self.free_head;
            self.free_head = self.slots[at as usize].pkt.eligible_at;
            self.free_len -= 1;
            self.slots[at as usize] = slot;
            PacketId(at)
        } else {
            let at = u32::try_from(self.slots.len()).expect("arena overflow");
            assert!(at != FREE_NONE, "arena overflow");
            self.slots.push(slot);
            PacketId(at)
        }
    }

    /// Release the slot behind `id` for reuse. The caller must not use
    /// the handle afterwards (the slot's contents stay readable until
    /// the next [`PacketArena::insert`], but mean nothing).
    pub fn free(&mut self, id: PacketId) {
        debug_assert!(
            (id.0 as usize) < self.slots.len() && !self.free_contains(id),
            "double free of packet slot {}",
            id.0
        );
        self.slots[id.0 as usize].pkt.eligible_at = self.free_head;
        self.free_head = id.0;
        self.free_len += 1;
    }

    /// Whether `id` is already on the free list (debug-only leak check;
    /// walks the intrusive chain).
    fn free_contains(&self, id: PacketId) -> bool {
        let mut cursor = self.free_head;
        while cursor != FREE_NONE {
            if cursor == id.0 {
                return true;
            }
            cursor = self.slots[cursor as usize].pkt.eligible_at;
        }
        false
    }

    /// Packets currently live (inserted and not freed).
    pub fn live(&self) -> usize {
        self.slots.len() - self.free_len as usize
    }

    /// Audit step (population): `refs` — every handle the network holds
    /// in a ring or on a link — must name each live slot exactly once
    /// and no vacant slot at all. Panics on the first violation.
    pub(crate) fn audit_references(&self, refs: impl Iterator<Item = PacketId>, cycle: u64) {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Unreached,
            Reached,
            Vacant,
        }
        let mut state = vec![Mark::Unreached; self.slots.len()];
        let (mut cursor, mut vacant) = (self.free_head, 0u32);
        while cursor != FREE_NONE {
            assert!(
                vacant < self.free_len,
                "arena free list is longer than its {} vacant slots (cycle {cycle})",
                self.free_len
            );
            state[cursor as usize] = Mark::Vacant;
            vacant += 1;
            cursor = self.slots[cursor as usize].pkt.eligible_at;
        }
        assert_eq!(
            vacant, self.free_len,
            "arena free list is shorter than its vacant-slot count (cycle {cycle})"
        );
        for id in refs {
            let slot = state.get_mut(id.0 as usize).unwrap_or_else(|| {
                let slots = self.slots.len();
                panic!("handle {} points past the arena's {slots} slots (cycle {cycle})", id.0)
            });
            match *slot {
                Mark::Unreached => *slot = Mark::Reached,
                Mark::Reached => panic!(
                    "arena slot {} (packet {}) is referenced twice (cycle {cycle})",
                    id.0,
                    self.get(id).id
                ),
                Mark::Vacant => {
                    panic!("vacant arena slot {} is still referenced (cycle {cycle})", id.0)
                }
            }
        }
        if let Some(leaked) = state.iter().position(|&s| s == Mark::Unreached) {
            panic!(
                "arena slot {leaked} (packet {}) leaked: live, but in no ring and on no link \
                 (cycle {cycle})",
                self.slots[leaked].pkt.id
            );
        }
    }

    /// Total slots ever allocated (the peak live population).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The live packet behind `id`.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        &self.slots[id.0 as usize].pkt
    }

    /// Start loading the record behind `id` into cache ahead of its use.
    /// An out-of-range handle panics, as for [`Self::get`].
    #[inline]
    pub(crate) fn prefetch(&self, id: PacketId) {
        prefetch(&self.slots[id.0 as usize]);
    }

    /// Mutable access to the live packet behind `id` (wait/traversal
    /// accounting, route commit, eligibility).
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        &mut self.slots[id.0 as usize].pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::NodeId;

    fn pkt(seq: u64) -> Packet {
        Packet::new(seq, NodeId(0), NodeId(1), 0)
    }

    #[test]
    fn insert_read_free_reuse() {
        let mut arena = PacketArena::new();
        let a = arena.insert(pkt(1));
        let b = arena.insert(pkt(2));
        assert_ne!(a, b);
        assert_eq!(arena.get(a).id, 1);
        assert_eq!(arena.get(b).id, 2);
        assert_eq!(arena.live(), 2);
        arena.free(a);
        assert_eq!(arena.live(), 1);
        // LIFO reuse: the freed slot is handed back first.
        let c = arena.insert(pkt(3));
        assert_eq!(c, a);
        assert_eq!(arena.get(c).id, 3);
        assert_eq!(arena.capacity(), 2, "no growth while a free slot exists");
    }

    #[test]
    fn capacity_tracks_peak_live() {
        let mut arena = PacketArena::new();
        let ids: Vec<PacketId> = (0..10).map(|i| arena.insert(pkt(i))).collect();
        for id in &ids {
            arena.free(*id);
        }
        assert_eq!(arena.live(), 0);
        for i in 0..10 {
            arena.insert(pkt(100 + i));
        }
        assert_eq!(arena.capacity(), 10, "drain-and-refill must not grow the slab");
    }

    #[test]
    fn mutation_through_handle() {
        let mut arena = PacketArena::new();
        let id = arena.insert(pkt(7));
        arena.get_mut(id).waits.injection = 42;
        arena.get_mut(id).eligible_at = 9;
        assert_eq!(arena.get(id).waits.injection, 42);
        assert_eq!(arena.get(id).eligible_at, 9);
    }

    #[test]
    fn intrusive_free_list_is_lifo_across_interleaving() {
        let mut arena = PacketArena::new();
        let ids: Vec<PacketId> = (0..4).map(|i| arena.insert(pkt(i))).collect();
        arena.free(ids[1]);
        arena.free(ids[3]);
        // LIFO: slot 3 first, then slot 1, then growth.
        assert_eq!(arena.insert(pkt(10)), ids[3]);
        assert_eq!(arena.insert(pkt(11)), ids[1]);
        assert_eq!(arena.insert(pkt(12)), PacketId(4));
        assert_eq!(arena.capacity(), 5);
    }

    /// What a decision leaves in the record — its route state and the
    /// pending-escape flag — stays until the grant takes the flag, and a
    /// reused slot starts clean, whatever the last occupant left behind.
    #[test]
    fn decision_lasts_until_taken_or_freed() {
        let mut arena = PacketArena::new();
        let id = arena.insert(pkt(3));
        assert!(!arena.get(id).escape_pending);
        let pkt_ref = arena.get_mut(id);
        pkt_ref.route.global_misrouted = true;
        pkt_ref.escape_pending = true;
        assert!(arena.get(id).escape_pending);
        assert!(std::mem::take(&mut arena.get_mut(id).escape_pending));
        assert!(!arena.get(id).escape_pending);
        assert!(arena.get(id).route.global_misrouted, "the grant keeps the route state");
        arena.get_mut(id).escape_pending = true;
        arena.free(id);
        let again = arena.insert(pkt(4));
        assert_eq!(again, id);
        assert!(!arena.get(again).escape_pending);
        assert!(!arena.get(again).route.global_misrouted);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_is_a_bug() {
        let mut arena = PacketArena::new();
        let id = arena.insert(pkt(1));
        arena.free(id);
        arena.free(id);
    }
}
