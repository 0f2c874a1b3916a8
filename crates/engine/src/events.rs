//! A fixed-horizon event wheel for link arrivals and credit returns.
//!
//! All engine events have a bounded delay (at most one global-link latency
//! plus the router pipeline or serialization), so a circular calendar
//! indexed by `cycle % slots` gives O(1) schedule and drain.
//!
//! A slot is a FIFO list of fixed chunks of [`CHUNK`] events, drawn from
//! one pool that every slot shares: `schedule` appends to the due slot's
//! last chunk, and the drain hands each chunk back to a LIFO free list as
//! soon as it has been walked — so the chunks a cycle just drained, still
//! in cache, are the ones its own schedules fill next. The pool holds what
//! is in flight: ⌈pending / `CHUNK`⌉ full chunks plus at most one partly
//! filled chunk per slot, not the slot count times the busiest cycle's
//! event count that one growable vector per slot would each keep.
//!
//! There is no event for the router pipeline: an [`Event::ArriveRouter`]
//! is scheduled `link latency + pipeline_latency` ahead and fires on the
//! cycle the packet becomes eligible for allocation, so a hop costs one
//! arrival event and one credit return.

use crate::arena::PacketId;
use df_topology::{NodeId, RouterId};

/// A scheduled event. Events are small `Copy` values: packets travel by
/// arena handle, so the wheel never owns packet data, and no event carries
/// a packet length or a credit amount — every packet is
/// `EngineConfig::packet_size` phits long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Packet enters a router input VC, link and router pipeline both
    /// behind it: eligible for allocation from this cycle on.
    ArriveRouter {
        /// Receiving router.
        router: RouterId,
        /// Input port (a radix is at most 64 ports).
        port: u8,
        /// Input VC.
        vc: u8,
        /// The packet.
        pkt: PacketId,
    },
    /// Packet tail delivered to its destination node.
    ArriveNode {
        /// Destination node.
        node: NodeId,
        /// The packet.
        pkt: PacketId,
    },
    /// One packet's worth of credit returned to a router's output port
    /// (downstream space freed).
    Credit {
        /// Router owning the output port.
        router: RouterId,
        /// The output port.
        port: u8,
        /// Downstream VC the credit belongs to.
        vc: u8,
    },
    /// One packet's worth of credit returned to a node's injection link.
    NodeCredit {
        /// The node.
        node: NodeId,
        /// Injection VC the credit belongs to.
        vc: u8,
    },
}

const _: () = assert!(std::mem::size_of::<Event>() == 12);

/// Events per pool chunk.
const CHUNK: usize = 64;

/// End of a chunk list, and of the free list.
const NONE: u32 = u32::MAX;

/// A pool chunk: events of one slot in push order, and the link to the
/// slot's next chunk (to the next free chunk while on the free list).
#[derive(Debug, Clone)]
struct Chunk {
    next: u32,
    events: [Event; CHUNK],
}

impl Chunk {
    /// Filler of slots no event has been written to.
    const VACANT: Event = Event::NodeCredit { node: NodeId(0), vc: 0 };
}

/// One slot's chunk list: every chunk but `last` is full, `last` holds
/// `last_len` events. An empty list claims to have a full last chunk, so
/// `schedule` decides on a fresh chunk with one comparison.
#[derive(Debug, Clone, Copy)]
struct List {
    first: u32,
    last: u32,
    last_len: u32,
}

impl List {
    const EMPTY: List = List { first: NONE, last: NONE, last_len: CHUNK as u32 };

    /// Events in chunk `c` of this list.
    fn len_of(&self, c: u32) -> usize {
        if c == self.last {
            self.last_len as usize
        } else {
            CHUNK
        }
    }
}

/// Circular event calendar over one chunk pool.
#[derive(Debug)]
pub struct EventWheel {
    pool: Vec<Chunk>,
    /// Head of the LIFO free list threaded through `Chunk::next`.
    free: u32,
    /// `horizon + 1` rounded up to a power of two.
    slots: Vec<List>,
    /// Longest delay `schedule` accepts.
    horizon: u64,
    now: u64,
    pending: usize,
}

impl Default for EventWheel {
    /// A wheel with no slots: it can schedule nothing. It stands in for a
    /// network's wheel while the drain borrows the rest of the network.
    fn default() -> Self {
        Self { pool: Vec::new(), free: NONE, slots: Vec::new(), horizon: 0, now: 0, pending: 0 }
    }
}

impl EventWheel {
    /// Wheel able to schedule up to `horizon` cycles ahead.
    pub fn new(horizon: u64) -> Self {
        let size = (horizon + 1).next_power_of_two() as usize;
        Self { slots: vec![List::EMPTY; size], horizon, ..Self::default() }
    }

    /// Schedule `ev` to fire `delay` cycles from now (`delay >= 1`).
    ///
    /// # Panics
    /// Panics if `delay` is zero or exceeds the horizon.
    pub fn schedule(&mut self, delay: u64, ev: Event) {
        assert!(delay >= 1, "events must be scheduled in the future");
        assert!(
            delay <= self.horizon,
            "delay {delay} exceeds the wheel horizon {} (a {}-slot wheel)",
            self.horizon,
            self.slots.len()
        );
        let idx = ((self.now + delay) as usize) & (self.slots.len() - 1);
        let mut list = self.slots[idx];
        if list.last_len as usize == CHUNK {
            let fresh = self.take_chunk();
            if list.first == NONE {
                list.first = fresh;
            } else {
                self.pool[list.last as usize].next = fresh;
            }
            list.last = fresh;
            list.last_len = 0;
        }
        self.pool[list.last as usize].events[list.last_len as usize] = ev;
        list.last_len += 1;
        self.slots[idx] = list;
        self.pending += 1;
    }

    /// An empty chunk: the most recently freed one, else a new one.
    fn take_chunk(&mut self) -> u32 {
        if self.free != NONE {
            let c = self.free;
            let chunk = &mut self.pool[c as usize];
            self.free = chunk.next;
            chunk.next = NONE;
            c
        } else {
            let c = u32::try_from(self.pool.len()).expect("event pool overflow");
            self.pool.push(Chunk { next: NONE, events: [Chunk::VACANT; CHUNK] });
            c
        }
    }

    /// Advance to the next cycle and hand every event due then to
    /// `deliver`, in the order they were scheduled. Each chunk returns to
    /// the free list once walked (`deliver` cannot schedule: the wheel is
    /// borrowed).
    pub fn advance(&mut self, mut deliver: impl FnMut(Event)) {
        self.now += 1;
        let idx = (self.now as usize) & (self.slots.len() - 1);
        let list = std::mem::replace(&mut self.slots[idx], List::EMPTY);
        let mut c = list.first;
        while c != NONE {
            let len = list.len_of(c);
            let chunk = &mut self.pool[c as usize];
            for &ev in &chunk.events[..len] {
                deliver(ev);
            }
            self.pending -= len;
            let next = std::mem::replace(&mut chunk.next, self.free);
            self.free = c;
            c = next;
        }
    }

    /// Current cycle of the wheel.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events still scheduled (packets/credits in flight on links).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Every scheduled event, in no particular order. Read-only: the
    /// engine's audit walks what is on the links with it.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.slots.iter().flat_map(move |list| {
            let mut c = list.first;
            std::iter::from_fn(move || {
                (c != NONE).then(|| {
                    let chunk = &self.pool[c as usize];
                    let events = &chunk.events[..list.len_of(c)];
                    c = chunk.next;
                    events
                })
            })
            .flatten()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn credit_ev(vc: u8) -> Event {
        Event::Credit { router: RouterId(0), port: 0, vc }
    }

    /// Advance one cycle and collect what fired.
    fn step(w: &mut EventWheel) -> Vec<Event> {
        let mut out = Vec::new();
        w.advance(|ev| out.push(ev));
        out
    }

    #[test]
    fn events_fire_at_exact_delay() {
        let mut w = EventWheel::new(115);
        w.schedule(3, credit_ev(1));
        w.schedule(1, credit_ev(2));
        assert_eq!(step(&mut w), [credit_ev(2)]); // cycle 1
        assert!(step(&mut w).is_empty()); // cycle 2
        assert_eq!(step(&mut w), [credit_ev(1)]); // cycle 3
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn wraparound_preserves_events() {
        let mut w = EventWheel::new(7);
        for round in 0..100u32 {
            w.schedule(5, credit_ev(round as u8));
            for s in 0..5 {
                let evs = step(&mut w);
                if s == 4 {
                    assert_eq!(evs, [credit_ev(round as u8)], "round {round}");
                } else {
                    assert!(evs.is_empty());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "future")]
    fn zero_delay_rejected() {
        let mut w = EventWheel::new(8);
        w.schedule(0, credit_ev(0));
    }

    /// The horizon is the configured one, not the slot count it rounds up
    /// to: 115 cycles is a 128-slot wheel, and 116 must not pass.
    #[test]
    fn the_horizon_is_exact() {
        let mut w = EventWheel::new(115);
        w.schedule(115, credit_ev(7));
        for _ in 0..114 {
            assert!(step(&mut w).is_empty());
        }
        assert_eq!(step(&mut w), [credit_ev(7)]);
        let past = std::panic::catch_unwind(move || w.schedule(116, credit_ev(8)))
            .expect_err("a delay past the horizon must panic");
        let msg = past.downcast_ref::<String>().expect("panic carries a message");
        assert!(msg.contains("delay 116") && msg.contains("horizon 115"), "{msg}");
        assert!(msg.contains("128-slot"), "{msg}");
    }

    #[test]
    fn pending_counts_in_flight() {
        let mut w = EventWheel::new(16);
        w.schedule(2, credit_ev(0));
        w.schedule(2, credit_ev(1));
        w.schedule(4, credit_ev(2));
        assert_eq!(w.pending(), 3);
        step(&mut w);
        assert_eq!(step(&mut w).len(), 2);
        assert_eq!(w.pending(), 1);
    }

    #[test]
    fn iter_sees_exactly_the_pending_events() {
        let mut w = EventWheel::new(16);
        w.schedule(2, credit_ev(1));
        w.schedule(9, credit_ev(2));
        w.schedule(9, credit_ev(4));
        let vcs = |w: &EventWheel| -> u32 {
            w.iter().map(|ev| if let Event::Credit { vc, .. } = ev { *vc as u32 } else { 0 }).sum()
        };
        assert_eq!((w.iter().count(), vcs(&w)), (3, 7));
        for _ in 0..2 {
            step(&mut w);
        }
        assert_eq!((w.iter().count(), vcs(&w)), (w.pending(), 6));
    }

    /// The wheel this one replaced, one growable vector per slot: the
    /// reference for the drain order.
    struct VecWheel {
        slots: Vec<Vec<Event>>,
        now: u64,
    }

    impl VecWheel {
        fn new(horizon: u64) -> Self {
            let size = (horizon + 1).next_power_of_two() as usize;
            Self { slots: vec![Vec::new(); size], now: 0 }
        }

        fn schedule(&mut self, delay: u64, ev: Event) {
            let idx = ((self.now + delay) as usize) & (self.slots.len() - 1);
            self.slots[idx].push(ev);
        }

        fn advance(&mut self) -> Vec<Event> {
            self.now += 1;
            let idx = (self.now as usize) & (self.slots.len() - 1);
            std::mem::take(&mut self.slots[idx])
        }

        fn pending(&self) -> usize {
            self.slots.iter().map(Vec::len).sum()
        }

        fn iter(&self) -> impl Iterator<Item = &Event> {
            self.slots.iter().flatten()
        }
    }

    const HORIZON: u64 = 115;
    /// Table I's delays: injection credit, injection arrival, ejection,
    /// local credit, local arrival, global credit, global arrival.
    const TABLE_I_DELAYS: [u64; 7] = [1, 6, 9, 10, 15, 100, 105];

    #[derive(Debug, Clone)]
    enum Op {
        /// `burst` events, all `delay` cycles ahead.
        Schedule { delay: u64, burst: u32 },
        /// Step this many cycles.
        Advance(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        let delay =
            prop_oneof![1..=HORIZON, (0..TABLE_I_DELAYS.len()).prop_map(|i| TABLE_I_DELAYS[i]),];
        let schedule = (delay, prop_oneof![1u32..4, 1u32..200])
            .prop_map(|(delay, burst)| Op::Schedule { delay, burst });
        prop_oneof![schedule, (1u64..5).prop_map(Op::Advance)]
    }

    /// Events in a canonical order, for multiset comparison.
    fn sorted<'a>(events: impl Iterator<Item = &'a Event>) -> Vec<String> {
        let mut v: Vec<String> = events.map(|ev| format!("{ev:?}")).collect();
        v.sort();
        v
    }

    // Random interleavings of `schedule` and `advance`: every cycle drains
    // exactly what the vector wheel drains, in the same order, and the two
    // agree on `pending` and on the `iter` multiset.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn drain_order_matches_the_vector_wheel(ops in prop::collection::vec(op(), 1..250)) {
            let mut wheel = EventWheel::new(HORIZON);
            let mut reference = VecWheel::new(HORIZON);
            let mut seq = 0u32;
            // Run the ops, then long enough for everything to fire.
            let drain = Op::Advance(HORIZON + 1);
            for op in ops.iter().chain(std::iter::once(&drain)) {
                match *op {
                    Op::Schedule { delay, burst } => {
                        for _ in 0..burst {
                            seq += 1;
                            let ev = Event::ArriveNode { node: NodeId(seq), pkt: PacketId(seq) };
                            wheel.schedule(delay, ev);
                            reference.schedule(delay, ev);
                        }
                    }
                    Op::Advance(n) => {
                        for _ in 0..n {
                            prop_assert_eq!(step(&mut wheel), reference.advance());
                        }
                    }
                }
                prop_assert_eq!(wheel.pending(), reference.pending());
                prop_assert_eq!(sorted(wheel.iter()), sorted(reference.iter()));
            }
            prop_assert_eq!(wheel.pending(), 0);
        }
    }

    /// Memory follows what is in flight: a burst grows the pool, and once
    /// it has drained, steady scheduling reuses those chunks. At no point
    /// does the pool exceed ⌈most ever pending / CHUNK⌉ plus one chunk per
    /// slot.
    #[test]
    fn the_pool_is_bounded_by_what_is_in_flight() {
        let mut w = EventWheel::new(HORIZON);
        let slots = w.slots.len();
        let mut most_pending = 0;
        let mut check = |w: &EventWheel| {
            most_pending = most_pending.max(w.pending());
            let bound = most_pending.div_ceil(CHUNK) + slots;
            assert!(w.pool.len() <= bound, "{} chunks for {most_pending} events", w.pool.len());
        };
        // A burst of 20,000 events spread over every Table I delay.
        for i in 0..20_000 {
            w.schedule(TABLE_I_DELAYS[i % TABLE_I_DELAYS.len()], credit_ev(0));
            check(&w);
        }
        for _ in 0..=HORIZON {
            step(&mut w);
            check(&w);
        }
        assert_eq!(w.pending(), 0);
        let after_burst = w.pool.len();
        assert!(after_burst >= 20_000 / CHUNK);
        // Steady state: 40 events a cycle over the same delays, about
        // 2,000 pending — fewer chunks than the burst left behind.
        for cycle in 0..2_000 {
            for i in 0..40 {
                w.schedule(TABLE_I_DELAYS[(cycle + i) % TABLE_I_DELAYS.len()], credit_ev(1));
            }
            step(&mut w);
            check(&w);
            assert_eq!(w.pool.len(), after_burst, "steady scheduling grew the pool");
        }
    }
}
