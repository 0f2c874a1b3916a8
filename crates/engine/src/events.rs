//! A fixed-horizon event wheel for link arrivals and credit returns.
//!
//! All engine events have a bounded delay (at most one global-link latency
//! plus the router pipeline or serialization), so a circular calendar
//! indexed by `cycle % size` gives O(1) schedule/drain with no heap
//! allocation churn: slot vectors are recycled.
//!
//! There is no event for the router pipeline: an [`Event::ArriveRouter`]
//! is scheduled `link latency + pipeline_latency` ahead and fires on the
//! cycle the packet becomes eligible for allocation, so a hop costs one
//! arrival event and one credit return.

use crate::arena::PacketId;
use df_topology::{NodeId, Port, RouterId};

/// A scheduled event. Events are small `Copy` values: packets travel by
/// arena handle, so the wheel never owns packet data.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Packet enters a router input VC, link and router pipeline both
    /// behind it: eligible for allocation from this cycle on.
    ArriveRouter {
        /// Receiving router.
        router: RouterId,
        /// Input port.
        port: Port,
        /// Input VC.
        vc: u8,
        /// The packet.
        pkt: PacketId,
        /// Packet size in phits, carried in the event so the arrival
        /// handler never reads the packet's cold arena slot.
        size: u32,
    },
    /// Packet tail delivered to its destination node.
    ArriveNode {
        /// Destination node.
        node: NodeId,
        /// The packet.
        pkt: PacketId,
    },
    /// Credits returned to a router's output port (downstream space freed).
    Credit {
        /// Router owning the output port.
        router: RouterId,
        /// The output port.
        port: Port,
        /// Downstream VC the credits belong to.
        vc: u8,
        /// Phits freed.
        phits: u32,
    },
    /// Credits returned to a node's injection link.
    NodeCredit {
        /// The node.
        node: NodeId,
        /// Injection VC the credits belong to.
        vc: u8,
        /// Phits freed.
        phits: u32,
    },
}

/// Circular event calendar.
#[derive(Debug)]
pub struct EventWheel {
    slots: Vec<Vec<Event>>,
    /// Scratch vector recycled between drains.
    scratch: Vec<Event>,
    now: u64,
    pending: usize,
}

impl EventWheel {
    /// Wheel able to schedule up to `horizon` cycles ahead.
    pub fn new(horizon: u64) -> Self {
        let size = (horizon + 1).next_power_of_two() as usize;
        Self {
            slots: (0..size).map(|_| Vec::new()).collect(),
            scratch: Vec::new(),
            now: 0,
            pending: 0,
        }
    }

    /// Schedule `ev` to fire `delay` cycles from now (`delay >= 1`).
    ///
    /// # Panics
    /// Panics if `delay` is zero or exceeds the horizon.
    pub fn schedule(&mut self, delay: u64, ev: Event) {
        assert!(delay >= 1, "events must be scheduled in the future");
        assert!(
            (delay as usize) < self.slots.len(),
            "delay {delay} exceeds wheel horizon {}",
            self.slots.len()
        );
        let idx = ((self.now + delay) as usize) & (self.slots.len() - 1);
        self.slots[idx].push(ev);
        self.pending += 1;
    }

    /// Advance to the next cycle and take every event due then. The
    /// returned vector must be handed back via [`Self::recycle`].
    pub fn advance(&mut self) -> Vec<Event> {
        self.now += 1;
        let idx = (self.now as usize) & (self.slots.len() - 1);
        let mut out = std::mem::take(&mut self.scratch);
        debug_assert!(out.is_empty());
        std::mem::swap(&mut out, &mut self.slots[idx]);
        self.pending -= out.len();
        out
    }

    /// Return a drained vector for reuse.
    pub fn recycle(&mut self, mut v: Vec<Event>) {
        v.clear();
        self.scratch = v;
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
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn credit_ev(phits: u32) -> Event {
        Event::Credit { router: RouterId(0), port: Port(0), vc: 0, phits }
    }

    #[test]
    fn events_fire_at_exact_delay() {
        let mut w = EventWheel::new(115);
        w.schedule(3, credit_ev(1));
        w.schedule(1, credit_ev(2));
        let e1 = w.advance(); // cycle 1
        assert_eq!(e1.len(), 1);
        assert!(matches!(e1[0], Event::Credit { phits: 2, .. }));
        w.recycle(e1);
        let e2 = w.advance(); // cycle 2
        assert!(e2.is_empty());
        w.recycle(e2);
        let e3 = w.advance(); // cycle 3
        assert_eq!(e3.len(), 1);
        assert!(matches!(e3[0], Event::Credit { phits: 1, .. }));
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn wraparound_preserves_events() {
        let mut w = EventWheel::new(7);
        for round in 0..100u32 {
            w.schedule(5, credit_ev(round));
            for step in 0..5 {
                let evs = w.advance();
                if step == 4 {
                    assert_eq!(evs.len(), 1, "round {round}");
                } else {
                    assert!(evs.is_empty());
                }
                w.recycle(evs);
            }
        }
    }

    #[test]
    #[should_panic(expected = "future")]
    fn zero_delay_rejected() {
        let mut w = EventWheel::new(8);
        w.schedule(0, credit_ev(0));
    }

    #[test]
    fn pending_counts_in_flight() {
        let mut w = EventWheel::new(16);
        w.schedule(2, credit_ev(0));
        w.schedule(2, credit_ev(1));
        w.schedule(4, credit_ev(2));
        assert_eq!(w.pending(), 3);
        let evs = w.advance();
        w.recycle(evs);
        let evs = w.advance();
        assert_eq!(evs.len(), 2);
        w.recycle(evs);
        assert_eq!(w.pending(), 1);
    }

    #[test]
    fn iter_sees_exactly_the_pending_events() {
        let mut w = EventWheel::new(16);
        w.schedule(2, credit_ev(1));
        w.schedule(9, credit_ev(2));
        w.schedule(9, credit_ev(4));
        let phits = |w: &EventWheel| -> u32 {
            w.iter().map(|ev| if let Event::Credit { phits, .. } = ev { *phits } else { 0 }).sum()
        };
        assert_eq!((w.iter().count(), phits(&w)), (3, 7));
        for _ in 0..2 {
            let evs = w.advance();
            w.recycle(evs);
        }
        assert_eq!((w.iter().count(), phits(&w)), (w.pending(), 6));
    }
}
