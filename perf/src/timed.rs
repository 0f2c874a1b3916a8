//! Bench-owned timing wrappers around the engine's two extension points.
//!
//! The routing and stats layers are called from *inside* the engine's
//! cycle, so the only place to time them from outside the crates is at
//! the trait boundary: [`TimedPolicy`] forwards every [`RoutingPolicy`]
//! call unchanged and accumulates wall time and call counts;
//! [`TimedSink`] does the same for [`StatsSink`]. Both must be
//! transparent — a wrapped run produces the same bytes as a bare one —
//! which the tests at the bottom check on every mechanism family and on
//! the sharded engine.

use df_engine::{
    CycleCtx, Decision, DeliveredRecord, PacketHeader, RouteDep, RouteInfo, RouterState,
    RoutingPolicy, StatsSink,
};
use df_topology::Port;
use std::time::Instant;

/// Accumulated cost of the routing layer as seen from the engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct PolicyCost {
    /// `route` + `route_with_deps` calls.
    pub route_calls: u64,
    /// Wall time inside those calls.
    pub route_ns: u64,
    /// Wall time inside `begin_cycle`.
    pub begin_ns: u64,
}

/// A [`RoutingPolicy`] that times the policy it wraps.
pub struct TimedPolicy<P> {
    inner: P,
    /// Running totals; read through [`df_engine::Network::policy`].
    pub cost: PolicyCost,
}

impl<P: RoutingPolicy> TimedPolicy<P> {
    /// Wrap `inner` with zeroed totals.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            cost: PolicyCost::default(),
        }
    }
}

impl<P: RoutingPolicy> RoutingPolicy for TimedPolicy<P> {
    fn begin_cycle(&mut self, ctx: &CycleCtx<'_>) {
        let t = Instant::now();
        self.inner.begin_cycle(ctx);
        self.cost.begin_ns += t.elapsed().as_nanos() as u64;
    }

    fn route(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        let t = Instant::now();
        let d = self.inner.route(router, in_port, hdr, info);
        self.cost.route_ns += t.elapsed().as_nanos() as u64;
        self.cost.route_calls += 1;
        d
    }

    fn route_with_deps(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> (Decision, RouteDep) {
        let t = Instant::now();
        let d = self.inner.route_with_deps(router, in_port, hdr, info);
        self.cost.route_ns += t.elapsed().as_nanos() as u64;
        self.cost.route_calls += 1;
        d
    }

    fn adaptive_reroute(&self) -> bool {
        self.inner.adaptive_reroute()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`StatsSink`] that times the sink it wraps.
pub struct TimedSink<S> {
    /// The wrapped sink (public: the harness starts its measurement
    /// window and reads its accumulators exactly as the simulator does).
    pub inner: S,
    /// `on_delivered` calls.
    pub calls: u64,
    /// Wall time inside those calls.
    pub ns: u64,
}

impl<S: StatsSink> TimedSink<S> {
    /// Wrap `inner` with zeroed totals.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            calls: 0,
            ns: 0,
        }
    }
}

impl<S: StatsSink> StatsSink for TimedSink<S> {
    fn on_delivered(&mut self, rec: &DeliveredRecord) {
        let t = Instant::now();
        self.inner.on_delivered(rec);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::sim::{self, SimWorkload};
    use df_routing::MechanismSpec;
    use df_traffic::PatternSpec;

    /// Wrapped ≡ bare: the harness run (TimedPolicy + TimedSink around
    /// `MechanismSpec::build` and `MeasurementSink`, driven through the
    /// engine directly) must serialize to the same result document as
    /// `Simulator::run` on the same config.
    fn assert_transparent(mechanism: MechanismSpec, pattern: PatternSpec, shards: u32) {
        let w = SimWorkload {
            mechanism,
            pattern,
            load: 0.4,
            shards,
        };
        let cfg = w.config(7, true);
        let bare = sim::result_doc(&dragonfly_core::Simulator::new(&cfg).run());
        let wrapped = sim::harness_run(&cfg, None);
        assert_eq!(
            wrapped.doc, bare,
            "{mechanism:?} shards={shards}: timing wrappers changed the result"
        );
        assert!(wrapped.policy.route_calls > 0, "wrapper saw no route calls");
        assert!(wrapped.sink_calls > 0, "wrapper saw no deliveries");
    }

    #[test]
    fn transparent_under_in_transit_mm() {
        assert_transparent(
            MechanismSpec::InTransitMm,
            PatternSpec::AdvConsecutive { spread: None },
            1,
        );
    }

    #[test]
    fn transparent_under_source_crg() {
        assert_transparent(MechanismSpec::SourceCrg, PatternSpec::Uniform, 1);
    }

    #[test]
    fn transparent_under_oblivious_rrg() {
        assert_transparent(MechanismSpec::ObliviousRrg, PatternSpec::Uniform, 1);
    }

    #[test]
    fn transparent_at_two_shards() {
        assert_transparent(
            MechanismSpec::InTransitMm,
            PatternSpec::AdvConsecutive { spread: None },
            2,
        );
    }
}
