//! Fixed-capacity FIFO rings for input virtual channels and output ports.
//!
//! A router's queues never grow: an input VC holds at most
//! `capacity_phits / packet_size` packets (the upstream credit counter is
//! the free-space authority) and an output port at most
//! `output_buffer / packet_size`. Each queue is therefore a [`Ring`] — a
//! head/length pair over a fixed span of one per-router slab that
//! [`crate::router::RouterState::new`] sizes once — instead of a heap
//! block of its own. Rings store [`PacketId`] arena handles, not packets:
//! enqueue/dequeue moves a few bytes and never touches the allocator.
//! Every packet is `packet_size` phits long, so no entry records a length.

use crate::arena::PacketId;

/// Head/length bookkeeping of one fixed-capacity FIFO whose slots are the
/// span `base .. base + slots` of a slab owned by the router.
#[derive(Debug, Clone, Copy)]
struct Ring {
    base: u32,
    slots: u32,
    head: u32,
    len: u32,
}

impl Ring {
    fn new(base: usize, slots: usize) -> Self {
        Self {
            base: u32::try_from(base).expect("ring slab offset fits u32"),
            slots: u32::try_from(slots).expect("ring capacity fits u32"),
            head: 0,
            len: 0,
        }
    }

    /// Slab index of the first vacant slot (`len < slots`).
    #[inline]
    fn tail(&self) -> usize {
        let mut i = self.head + self.len;
        if i >= self.slots {
            i -= self.slots;
        }
        self.base as usize + i as usize
    }

    #[inline]
    fn front<T: Copy>(&self, slab: &[T]) -> Option<T> {
        (self.len != 0).then(|| slab[self.base as usize + self.head as usize])
    }

    /// # Panics
    /// Panics when every slot is taken: a packet smaller than the
    /// `packet_size` the ring was sized for has been enqueued.
    #[inline]
    fn push<T>(&mut self, slab: &mut [T], entry: T) {
        assert!(
            self.len < self.slots,
            "ring slot overflow: {} slots — sized for packet_size-phit packets",
            self.slots
        );
        slab[self.tail()] = entry;
        self.len += 1;
    }

    #[inline]
    fn pop<T: Copy>(&mut self, slab: &[T]) -> Option<T> {
        let entry = self.front(slab)?;
        self.head = if self.head + 1 == self.slots { 0 } else { self.head + 1 };
        self.len -= 1;
        Some(entry)
    }

    /// The queued entries, head first (the engine's audit reads them).
    fn iter<'a, T: Copy>(&self, slab: &'a [T]) -> impl Iterator<Item = T> + 'a {
        let Ring { base, slots, head, len } = *self;
        (head..head + len).map(move |i| {
            let wrapped = if i >= slots { i - slots } else { i };
            slab[(base + wrapped) as usize]
        })
    }
}

/// One virtual-channel FIFO of an input port.
///
/// A VC of `capacity` phits holds `capacity / packet_size` packets. A
/// packet's slot is reserved from the moment the upstream sender takes
/// the credit until the packet is granted to an output buffer here; the
/// *free-space authority* is that upstream credit counter, so an arrival
/// always finds a free slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VcRing {
    ring: Ring,
}

impl VcRing {
    /// Empty VC of `capacity` phits over `slab[base ..]`; returns the
    /// number of slab slots it claims (`capacity / packet_size`).
    pub(crate) fn new(base: usize, capacity: u32, packet_size: u32) -> (Self, usize) {
        let slots = (capacity / packet_size) as usize;
        (Self { ring: Ring::new(base, slots) }, slots)
    }

    /// Enqueue an arriving packet.
    ///
    /// # Panics
    /// Panics if the packet overflows the buffer — that would mean the
    /// upstream credit accounting is broken, which is a simulator bug.
    #[inline]
    pub(crate) fn push(&mut self, slab: &mut [PacketId], id: PacketId) {
        assert!(
            self.ring.len < self.ring.slots,
            "VC buffer overflow: all {} packet slots taken — credit accounting violated",
            self.ring.slots
        );
        self.ring.push(slab, id);
    }

    /// The head packet's handle, if any.
    #[inline]
    pub(crate) fn front(&self, slab: &[PacketId]) -> Option<PacketId> {
        self.ring.front(slab)
    }

    /// Remove and return the head packet's handle.
    #[inline]
    pub(crate) fn pop(&mut self, slab: &[PacketId]) -> Option<PacketId> {
        self.ring.pop(slab)
    }

    /// Number of resident packets.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ring.len as usize
    }

    /// Whether no packet is resident.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// The resident packets, head first.
    pub(crate) fn iter<'a>(&self, slab: &'a [PacketId]) -> impl Iterator<Item = PacketId> + 'a {
        self.ring.iter(slab)
    }
}

/// A packet staged at an output port together with its downstream VC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Staged {
    /// Arena handle of the packet.
    pub pkt: PacketId,
    /// Cycle the packet entered this output buffer (output-side wait
    /// accounting, read when the packet is popped for transmission).
    pub enq_at: u64,
    /// Downstream input VC (credit was reserved at grant time).
    pub out_vc: u8,
}

impl Staged {
    /// Filler for vacant slab slots.
    pub(crate) const VACANT: Staged = Staged { pkt: PacketId(0), enq_at: 0, out_vc: 0 };
}

const _: () = assert!(std::mem::size_of::<Staged>() == 16);

/// Per-port output buffer: a FIFO of packets whose downstream space is
/// already reserved, draining onto the link at one phit per cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutRing {
    ring: Ring,
    /// Occupied phits, *including* a packet currently serializing onto the
    /// link (space is freed when its tail leaves).
    occupancy: u32,
    capacity: u32,
    /// The link accepts a new packet when `cycle >= link_free_at`.
    pub(crate) link_free_at: u64,
}

impl OutRing {
    /// Empty buffer of `capacity` phits over `slab[base ..]`; returns the
    /// number of slab slots it claims (`capacity / packet_size`).
    pub(crate) fn new(base: usize, capacity: u32, packet_size: u32) -> (Self, usize) {
        let slots = (capacity / packet_size) as usize;
        (Self { ring: Ring::new(base, slots), occupancy: 0, capacity, link_free_at: 0 }, slots)
    }

    /// Free space in phits.
    #[inline]
    pub(crate) fn free(&self) -> u32 {
        self.capacity - self.occupancy
    }

    /// Occupied phits.
    #[inline]
    pub(crate) fn occupancy(&self) -> u32 {
        self.occupancy
    }

    /// Capacity in phits.
    #[inline]
    pub(crate) fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Reserve `size` phits and enqueue a granted packet.
    ///
    /// # Panics
    /// Panics on overflow — the allocator must check [`Self::free`] first.
    #[inline]
    pub(crate) fn push(&mut self, slab: &mut [Staged], staged: Staged, size: u32) {
        self.occupancy += size;
        assert!(
            self.occupancy <= self.capacity,
            "output buffer overflow: {}/{}",
            self.occupancy,
            self.capacity
        );
        self.ring.push(slab, staged);
    }

    /// Dequeue the head for transmission. Space is *not* freed here; call
    /// [`Self::release`] when the tail has left the port.
    #[inline]
    pub(crate) fn pop_for_tx(&mut self, slab: &[Staged]) -> Option<Staged> {
        self.ring.pop(slab)
    }

    /// Free the space of a packet whose tail has been transmitted.
    #[inline]
    pub(crate) fn release(&mut self, size: u32) {
        debug_assert!(self.occupancy >= size);
        self.occupancy -= size;
    }

    /// Number of staged packets (excluding any already popped for tx).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ring.len as usize
    }

    /// Whether no packet is staged.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// The staged packets, head first.
    pub(crate) fn iter<'a>(&self, slab: &'a [Staged]) -> impl Iterator<Item = Staged> + 'a {
        self.ring.iter(slab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn staged(i: u32) -> Staged {
        Staged { pkt: PacketId(i), enq_at: i as u64, out_vc: 0 }
    }

    #[test]
    fn vc_fifo_order_and_occupancy() {
        let (mut vc, slots) = VcRing::new(0, 32, 8);
        assert_eq!(slots, 4);
        let mut slab = vec![PacketId(0); slots];
        vc.push(&mut slab, PacketId(1));
        vc.push(&mut slab, PacketId(2));
        assert_eq!(vc.len(), 2);
        assert_eq!(vc.pop(&slab), Some(PacketId(1)));
        assert_eq!(vc.len(), 1);
        assert_eq!(vc.front(&slab), Some(PacketId(2)));
    }

    #[test]
    #[should_panic(expected = "VC buffer overflow")]
    fn vc_overflow_is_a_bug() {
        let (mut vc, slots) = VcRing::new(0, 16, 8);
        let mut slab = vec![PacketId(0); slots];
        vc.push(&mut slab, PacketId(1));
        vc.push(&mut slab, PacketId(2));
        vc.push(&mut slab, PacketId(3));
    }

    #[test]
    fn output_buffer_space_freed_on_release_only() {
        let (mut ob, slots) = OutRing::new(0, 32, 8);
        let mut slab = vec![Staged::VACANT; slots];
        ob.push(&mut slab, staged(1), 8);
        assert_eq!(ob.free(), 24);
        ob.pop_for_tx(&slab).unwrap();
        // Space still held while serializing.
        assert_eq!(ob.free(), 24);
        ob.release(8);
        assert_eq!(ob.free(), 32);
    }

    #[test]
    fn output_buffer_holds_exactly_capacity() {
        let (mut ob, slots) = OutRing::new(0, 32, 8);
        let mut slab = vec![Staged::VACANT; slots];
        for i in 0..4 {
            ob.push(&mut slab, staged(i), 8);
        }
        assert_eq!(ob.free(), 0);
        assert_eq!(ob.len(), 4);
    }

    #[test]
    #[should_panic(expected = "output buffer overflow")]
    fn output_overflow_is_a_bug() {
        let (mut ob, slots) = OutRing::new(0, 16, 8);
        let mut slab = vec![Staged::VACANT; slots];
        for i in 0..3 {
            ob.push(&mut slab, staged(i), 8);
        }
    }

    // Both rings against a `VecDeque` model over random push/pop streams.
    // Streams are many times longer than the rings, so head and tail wrap
    // repeatedly; two rings share one slab to catch a ring writing outside
    // its own span.
    proptest! {
        #[test]
        fn vc_rings_match_a_vecdeque_model(
            slots in 1usize..6,
            ops in proptest::collection::vec((any::<bool>(), 0usize..2), 1..200),
        ) {
            let size = 8u32;
            let mut slab = vec![PacketId(u32::MAX); 2 * slots];
            let mut rings = [
                VcRing::new(0, slots as u32 * size, size).0,
                VcRing::new(slots, slots as u32 * size, size).0,
            ];
            let mut models = [VecDeque::new(), VecDeque::new()];
            for (seq, (push, which)) in ops.into_iter().enumerate() {
                let (ring, model) = (&mut rings[which], &mut models[which]);
                if push && model.len() < slots {
                    ring.push(&mut slab, PacketId(seq as u32));
                    model.push_back(PacketId(seq as u32));
                } else {
                    prop_assert_eq!(ring.pop(&slab), model.pop_front());
                }
                prop_assert_eq!(ring.front(&slab), model.front().copied());
                prop_assert!(ring.iter(&slab).eq(model.iter().copied()));
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
            }
        }

        #[test]
        fn out_rings_match_a_vecdeque_model(
            slots in 1usize..6,
            ops in proptest::collection::vec((any::<bool>(), 0usize..2), 1..200),
        ) {
            let size = 8u32;
            let mut slab = vec![Staged::VACANT; 2 * slots];
            let mut rings = [
                OutRing::new(0, slots as u32 * size, size).0,
                OutRing::new(slots, slots as u32 * size, size).0,
            ];
            let mut models: [VecDeque<u32>; 2] = [VecDeque::new(), VecDeque::new()];
            for (seq, (push, which)) in ops.into_iter().enumerate() {
                let (ring, model) = (&mut rings[which], &mut models[which]);
                if push && model.len() < slots {
                    ring.push(&mut slab, staged(seq as u32), size);
                    model.push_back(seq as u32);
                } else {
                    // Released at once: the model has no serializing packet.
                    let head = ring.pop_for_tx(&slab);
                    if head.is_some() {
                        ring.release(size);
                    }
                    prop_assert_eq!(
                        head.map(|s| (s.pkt.0, s.enq_at)),
                        model.pop_front().map(|i| (i, i as u64))
                    );
                }
                prop_assert!(ring.iter(&slab).map(|s| s.pkt.0).eq(model.iter().copied()));
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                prop_assert_eq!(ring.occupancy(), model.len() as u32 * size);
                prop_assert_eq!(ring.free(), ring.capacity() - ring.occupancy());
            }
        }
    }
}
