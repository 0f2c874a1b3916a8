//! Extension points: routing policies and statistics sinks.

use crate::packet::{Decision, DeliveredRecord, PacketHeader, RouteDep, RouteInfo};
use crate::router::RouterState;
use df_topology::Port;

/// Per-cycle context handed to [`RoutingPolicy::begin_cycle`] (and, with
/// the changes still pending, to [`RoutingPolicy::audit`]).
///
/// Besides the router slice, it carries the engine's change-tracking for
/// global-link queues: policies that maintain a derived congestion view
/// (e.g. PiggyBack's saturation flags) only need to refresh the routers
/// in [`CycleCtx::dirty_global`] instead of rescanning the network.
pub struct CycleCtx<'a> {
    /// All routers, indexed by router id (congestion probes are O(1)).
    pub routers: &'a [RouterState],
    /// The cycle about to be simulated.
    pub cycle: u64,
    /// Indices of routers whose global-link output queues (staged phits
    /// or consumed downstream credits) changed since the previous cycle's
    /// `begin_cycle`, deduplicated, in first-change order. Routers absent
    /// from this list have bit-identical global-queue depths.
    pub dirty_global: &'a [u32],
}

/// A routing mechanism, called by the engine for every head packet that
/// needs an output decision.
///
/// Implementations live in `df-routing`. The engine guarantees:
/// * `begin_cycle` runs once per simulated cycle, before any allocation,
///   with read access to every router and the dirty-router list (used
///   e.g. by PiggyBack's incremental group-wide saturation exchange);
/// * `route` sees a consistent congestion snapshot of the current router
///   and must return a decision whose output port is valid for the packet
///   (the engine enforces buffer/credit feasibility, not path validity);
/// * `route` runs exactly once per router visit of a packet, when its
///   head is first probed: the engine keeps the decision until the grant
///   and never re-routes a blocked head.
pub trait RoutingPolicy {
    /// Per-cycle hook before allocation (congestion-state exchange).
    fn begin_cycle(&mut self, _ctx: &CycleCtx<'_>) {}

    /// Decide the output (port, VC, updated route state) for the head
    /// packet `hdr` with route state `info`, currently at `router` on
    /// input port `in_port`. Header and route state arrive by value —
    /// they are copied out of the arena's cold slot, so the policy never
    /// holds a borrow into packet storage.
    fn route(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision;

    /// Like [`RoutingPolicy::route`], paired with [`RouteDep::Volatile`].
    /// The engine never calls it: it routes a head once per router visit,
    /// through `route`. Kept, with [`RoutingPolicy::adaptive_reroute`] and
    /// [`RouteDep`], only because the benchmark under `perf/` implements
    /// and names them, until its API pin is shrunk (ROADMAP item 2(iii)).
    fn route_with_deps(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> (Decision, RouteDep) {
        (self.route(router, in_port, hdr, info), RouteDep::Volatile)
    }

    /// Always `false`; the engine never calls it (see
    /// [`RoutingPolicy::route_with_deps`]).
    fn adaptive_reroute(&self) -> bool {
        false
    }

    /// The policy's share of the engine's audit (`Network::audit`): check
    /// whatever state the policy derives from the routers against a fresh
    /// derivation, and panic on a divergence. `ctx.dirty_global` lists the
    /// routers whose global-link queues changed since the last
    /// `begin_cycle` — state derived from those is allowed to be stale
    /// until the next one. Must not draw from the policy's RNG.
    fn audit(&self, _ctx: &CycleCtx<'_>) {}

    /// Human-readable mechanism name (used in experiment output).
    fn name(&self) -> &'static str;
}

/// Receives every delivered packet. Aggregation lives in `df-stats`.
pub trait StatsSink {
    /// Called exactly once per delivered packet, in delivery order.
    fn on_delivered(&mut self, rec: &DeliveredRecord);
}

impl<T: RoutingPolicy + ?Sized> RoutingPolicy for Box<T> {
    fn begin_cycle(&mut self, ctx: &CycleCtx<'_>) {
        (**self).begin_cycle(ctx)
    }

    fn route(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        (**self).route(router, in_port, hdr, info)
    }

    fn audit(&self, ctx: &CycleCtx<'_>) {
        (**self).audit(ctx)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Discards all records (warm-up phases, micro-benchmarks).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl StatsSink for NullSink {
    fn on_delivered(&mut self, _rec: &DeliveredRecord) {}
}

impl<F: FnMut(&DeliveredRecord)> StatsSink for F {
    fn on_delivered(&mut self, rec: &DeliveredRecord) {
        self(rec)
    }
}
