//! PiggyBack (PB) source-adaptive routing (Jiang et al., ISCA'09; §II-C).
//!
//! Each router estimates the saturation of its global links by comparing
//! every link's queue against twice the router-local mean plus a
//! threshold; the flags are shared with the whole group (an ECN-style
//! broadcast the real system piggybacks on packets — we model the shared
//! table directly and refresh it incrementally, re-evaluating only the
//! routers whose global-link queues changed since the previous cycle).
//!
//! At injection the source consults the flag of the minimal path's global
//! link (and, when the minimal path starts with a local hop, a local
//! saturation estimate with its own coarser threshold). Saturated ⇒ the
//! packet is sent on a Valiant path chosen per the RRG/CRG flavour;
//! otherwise it is sent minimally. The decision is final (source-based).
//!
//! Under ADVc every global link of the bottleneck router carries the same
//! load, so *none* exceeds twice the mean — PB mis-classifies them as
//! unsaturated and keeps routing minimally. This reproduces the paper's
//! observed PB failure (§V-A).

use crate::common::{current_target, make_decision, minimal_out, normalize_route_state, VcPlan};
use crate::oblivious::ObliviousFlavor;
use df_engine::{
    CycleCtx, Decision, EngineConfig, PacketHeader, Phase, RouteInfo, RouterState, RoutingPolicy,
};
use df_topology::{NodeId, Port, PortKind, PortLayout, RouterId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// PiggyBack's saturation test: a link whose queue holds `q` phits is
/// saturated when `q` exceeds twice the mean of the router's `n` queues
/// of that kind (`sum` phits in all, `q` included) by more than the
/// threshold `t`. Relative by design — `n` equally deep queues are never
/// saturated, however deep (§V-A: the ADVc bottleneck).
fn saturated(q: u32, sum: u32, n: u32, t: f64) -> bool {
    f64::from(q) > 2.0 * (f64::from(sum) / f64::from(n)) + t
}

/// PiggyBack source-adaptive routing.
pub struct PiggyBack {
    topo: Topology,
    plan: VcPlan,
    flavor: ObliviousFlavor,
    rng: SmallRng,
    /// Saturation flag per global link, indexed `router_id * h + j`.
    /// Refreshed incrementally in [`RoutingPolicy::begin_cycle`] from the
    /// engine's dirty-router list; read by every router of the owning
    /// group (the ECN share).
    global_saturated: Vec<bool>,
    /// Scratch for one router's per-global-link queue lengths (length
    /// `h`), reused across `begin_cycle` iterations.
    queue_scratch: Vec<u32>,
    /// Threshold offsets in phits (Table I: T=5 local, T=3 global,
    /// converted from packets).
    t_global_phits: f64,
    t_local_phits: f64,
}

impl PiggyBack {
    /// Build for `topo` under `cfg` with deterministic `seed`.
    pub fn new(topo: Topology, cfg: &EngineConfig, flavor: ObliviousFlavor, seed: u64) -> Self {
        let links = (topo.params().routers() * topo.params().h) as usize;
        Self {
            plan: VcPlan::from_config(cfg),
            flavor,
            rng: SmallRng::seed_from_u64(seed),
            global_saturated: vec![false; links],
            queue_scratch: vec![0; topo.params().h as usize],
            t_global_phits: 3.0 * cfg.packet_size as f64,
            t_local_phits: 5.0 * cfg.packet_size as f64,
            topo,
        }
    }

    /// Is the local link from `router` through `port` saturated? Compared
    /// against twice the mean of the router's local queues plus the local
    /// threshold — evaluated on demand since the source router reads only
    /// its *own* local queues.
    fn local_saturated(&self, router: &RouterState, port: Port) -> bool {
        let params = self.topo.params();
        let p = params.p;
        let locals = params.a - 1;
        let mut sum = 0u32;
        for l in 0..locals {
            sum += router.output_queue_phits(Port(p + l));
        }
        saturated(router.output_queue_phits(port), sum, locals, self.t_local_phits)
    }

    /// Recompute the `h` saturation flags of one router from its current
    /// global-link queues (the per-router unit of the ECN share).
    fn refresh_router(&mut self, router: &RouterState, h: u32) {
        let params = self.topo.params();
        let base = (router.id().0 * h) as usize;
        let mut sum = 0u32;
        for j in 0..h {
            let q = router.output_queue_phits(params.global_port(j));
            self.queue_scratch[j as usize] = q;
            sum += q;
        }
        for j in 0..h {
            self.global_saturated[base + j as usize] =
                saturated(self.queue_scratch[j as usize], sum, h, self.t_global_phits);
        }
    }

    /// Valiant intermediate for a nonminimal injection (same selection as
    /// the oblivious mechanisms).
    fn pick_intermediate(&mut self, src: NodeId) -> NodeId {
        let params = *self.topo.params();
        match self.flavor {
            ObliviousFlavor::Rrg => {
                // Redraw while the intermediate falls in the source group:
                // a same-group intermediate would reuse local VC stage 0
                // after the turnaround, which the deadlock-freedom argument
                // of `vc_for` forbids (and it is a useless detour anyway).
                let sg = src.group(&params);
                loop {
                    let n = NodeId(self.rng.gen_range(0..params.nodes()));
                    if n.group(&params) != sg {
                        break n;
                    }
                }
            }
            ObliviousFlavor::Crg => {
                let src_router = src.router(&params);
                let j = self.rng.gen_range(0..params.h);
                let group = self.topo.global_port_target_group(src_router, j);
                let per_group = params.a * params.p;
                NodeId(group.0 * per_group + self.rng.gen_range(0..per_group))
            }
        }
    }
}

impl RoutingPolicy for PiggyBack {
    /// Incremental saturation refresh: only routers whose global-link
    /// queues changed since the last cycle ([`CycleCtx::dirty_global`])
    /// are re-evaluated — O(changed links) per cycle instead of a full
    /// O(routers·h) rescan. Flags of untouched routers are unchanged by
    /// construction (their queue depths are bit-identical), so this is
    /// exactly equivalent to the full scan.
    fn begin_cycle(&mut self, ctx: &CycleCtx<'_>) {
        let params = self.topo.params();
        let h = params.h;
        for &r in ctx.dirty_global {
            self.refresh_router(&ctx.routers[r as usize], h);
        }
    }

    /// The incremental refresh against the full rescan it replaces: every
    /// router *not* pending a refresh must hold exactly the flags a fresh
    /// evaluation of its queues gives.
    fn audit(&self, ctx: &CycleCtx<'_>) {
        let params = self.topo.params();
        let h = params.h;
        let mut pending = vec![false; ctx.routers.len()];
        for &r in ctx.dirty_global {
            pending[r as usize] = true;
        }
        for (i, router) in ctx.routers.iter().enumerate() {
            if pending[i] {
                continue;
            }
            let queue = |j| router.output_queue_phits(params.global_port(j));
            let sum = (0..h).map(queue).sum();
            let base = (router.id().0 * h) as usize;
            for j in 0..h {
                assert_eq!(
                    self.global_saturated[base + j as usize],
                    saturated(queue(j), sum, h, self.t_global_phits),
                    "PiggyBack saturation flag of router {} global link {j} diverged from a \
                     full rescan with no refresh pending (queue {} of {sum} phits, cycle {})",
                    router.id().0,
                    queue(j),
                    ctx.cycle
                );
            }
        }
    }

    fn route(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        let params = *self.topo.params();
        let mut info = normalize_route_state(&self.topo, router.id(), info);
        if !info.source_decided {
            debug_assert_eq!(params.port_kind(in_port), PortKind::Injection);
            info.source_decided = true;
            let me: RouterId = router.id();
            let (sg, dg) = (hdr.src.group(&params), hdr.dst.group(&params));
            if sg != dg {
                // Saturation of the minimal route's global link (group-
                // shared flag) and, if the route starts locally, of the
                // local link towards the exit router.
                let (exit, j) = self.topo.exit_to_group(sg, dg);
                let g_sat = self.global_saturated[(exit.0 * params.h + j) as usize];
                let l_sat = if exit != me {
                    let port =
                        params.local_port(me.local_index(&params), exit.local_index(&params));
                    self.local_saturated(router, port)
                } else {
                    false
                };
                if g_sat || l_sat {
                    let inter = self.pick_intermediate(hdr.src);
                    if inter.router(&params) != me {
                        info.intermediate = Some(inter);
                        info.phase = Phase::ToIntermediate;
                    }
                }
            }
        }
        let target = current_target(hdr.dst, &info);
        let out = minimal_out(&self.topo, router.id(), target);
        make_decision(&self.topo, out, info, &self.plan)
    }

    fn name(&self) -> &'static str {
        match self.flavor {
            ObliviousFlavor::Rrg => "Src-RRG",
            ObliviousFlavor::Crg => "Src-CRG",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::{ArbiterPolicy, DeliveredRecord, Network};
    use df_topology::{Arrangement, DragonflyParams};

    fn topo_small() -> Topology {
        Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree)
    }

    #[test]
    fn idle_network_routes_minimally() {
        // With no congestion, PB must behave exactly like MIN.
        let topo = topo_small();
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 4);
        let policy = PiggyBack::new(topo.clone(), &cfg, ObliviousFlavor::Rrg, 5);
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg, policy, sink);
            net.offer(NodeId(0), NodeId(40));
            net.offer(NodeId(1), NodeId(55));
            assert!(net.drain(5_000));
        }
        for r in recs.into_inner() {
            assert_eq!(r.misroute_latency(), 0, "PB must stay minimal when idle");
        }
    }

    #[test]
    fn adversarial_load_triggers_valiant() {
        // Saturate one global link per group with ADV+1 traffic and check
        // that PB eventually diverts packets (misroute latency appears).
        // Needs h >= 3: with h = 2 the relative saturation test
        // `q > 2*mean + T` can never fire (q <= sum = 2*mean), which is an
        // inherent property of PB's formula, not a bug.
        let topo = Topology::new(DragonflyParams::small(), Arrangement::Palmtree);
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 4);
        let policy = PiggyBack::new(topo.clone(), &cfg, ObliviousFlavor::Rrg, 6);
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg, policy, sink);
            let params = *net.topology().params();
            let nodes = params.nodes();
            let per_group = params.a * params.p;
            let mut rng = SmallRng::seed_from_u64(1);
            for _cycle in 0..3000 {
                for n in 0..nodes {
                    if rng.gen_bool(0.05) {
                        // ADV+1: next group, random node.
                        let g = n / per_group;
                        let dst =
                            ((g + 1) % params.groups()) * per_group + rng.gen_range(0..per_group);
                        net.offer(NodeId(n), NodeId(dst));
                    }
                }
                net.step();
            }
            assert!(net.drain(100_000), "PB network must drain");
        }
        let recs = recs.into_inner();
        let misrouted = recs.iter().filter(|r| r.misroute_latency() > 0).count();
        assert!(
            misrouted > recs.len() / 10,
            "PB should divert a meaningful share under ADV+1: {misrouted}/{}",
            recs.len()
        );
    }

    #[test]
    fn saturation_flags_start_clear() {
        let topo = topo_small();
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 4);
        let params = *topo.params();
        let mut policy = PiggyBack::new(topo.clone(), &cfg, ObliviousFlavor::Crg, 7);
        let routers: Vec<RouterState> =
            topo.routers().map(|r| RouterState::new(r, &params, &cfg)).collect();
        // Even marking every router dirty keeps idle flags clear.
        let all: Vec<u32> = (0..routers.len() as u32).collect();
        policy.begin_cycle(&df_engine::CycleCtx {
            routers: &routers,
            cycle: 1,
            dirty_global: &all,
        });
        assert!(policy.global_saturated.iter().all(|&s| !s));
    }

    /// ADV+1 pressure on the `small` machine (h = 3, so the relative test
    /// can fire), stepped `cycles` times with `each_cycle` run after every
    /// step.
    fn pressured_net(
        cycles: u32,
        mut each_cycle: impl FnMut(&mut Network<PiggyBack, df_engine::NullSink>),
    ) -> Network<PiggyBack, df_engine::NullSink> {
        let topo = Topology::new(DragonflyParams::small(), Arrangement::Palmtree);
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 4);
        let params = *topo.params();
        let policy = PiggyBack::new(topo.clone(), &cfg, ObliviousFlavor::Rrg, 9);
        let mut net = Network::new(topo, cfg, policy, df_engine::NullSink);
        let per_group = params.a * params.p;
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..cycles {
            for n in 0..params.nodes() {
                if rng.gen_bool(0.04) {
                    let g = n / per_group;
                    let dst =
                        ((g + 1) % params.groups()) * per_group + rng.gen_range(0..per_group);
                    net.offer(NodeId(n), NodeId(dst));
                }
            }
            net.step();
            each_cycle(&mut net);
        }
        net
    }

    #[test]
    fn incremental_refresh_matches_full_rescan() {
        // Every cycle the audit re-evaluates the flags of every router
        // with no refresh pending and compares them against the
        // incrementally maintained table.
        let net = pressured_net(1200, |net| net.audit());
        // The traffic must actually have produced saturation flips, or
        // the equivalence check proved nothing.
        assert!(
            net.policy().global_saturated.iter().any(|&s| s),
            "test traffic never saturated a global link"
        );
    }

    #[test]
    #[should_panic(expected = "diverged from a full rescan with no refresh pending")]
    fn audit_catches_a_flipped_flag_on_a_clean_router() {
        // No router of an idle network is pending a refresh, so a set flag
        // is one the incremental refresh would never revisit.
        let topo = topo_small();
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 4);
        let mut policy = PiggyBack::new(topo.clone(), &cfg, ObliviousFlavor::Crg, 7);
        policy.global_saturated[5] = true;
        Network::new(topo, cfg, policy, df_engine::NullSink).audit();
    }

    #[test]
    fn saturation_test_is_strict_at_the_threshold() {
        // (q, sum, n, t) one phit below, at, and one above `2·mean + T`.
        // One loaded queue among the paper's h = 6 with T = 24 phits:
        // mean = q/6, so the boundary sits at q = 36.
        for (q, expect) in [(35, false), (36, false), (37, true)] {
            assert_eq!(saturated(q, q, 6, 24.0), expect, "lone queue of {q} phits");
        }
        // A fixed background: n = 4, sum = 40 ⇒ 2·mean + T = 44.
        for (q, expect) in [(43, false), (44, false), (45, true)] {
            assert_eq!(saturated(q, 40, 4, 24.0), expect, "q = {q} against mean 10");
        }
        // A fractional mean (sum = 41 ⇒ threshold 44.5) rounds nowhere.
        assert!(!saturated(44, 41, 4, 24.0));
        assert!(saturated(45, 41, 4, 24.0));
        // The local test is the same function with its own T (40 phits).
        assert!(!saturated(60, 60, 3, 40.0));
        assert!(saturated(121, 121, 3, 40.0));
    }

    #[test]
    fn equally_deep_queues_are_never_saturated() {
        // §V-A, the mechanism's *reproduced* failure: under ADVc all h
        // global links of the bottleneck router carry the same load, so
        // each queue equals the mean and `q > 2·q + T` cannot hold — PB
        // classifies them unsaturated and keeps routing minimally. True at
        // every depth, up to a full output buffer plus a full credit
        // window (32 + 2 × 256 phits at Table I sizes).
        let t_global = 3.0 * 8.0;
        for h in [2u32, 3, 6, 7] {
            for depth in [0u32, 1, 24, 25, 256, 544] {
                assert!(
                    !saturated(depth, depth * h, h, t_global),
                    "h = {h}: {h} queues of {depth} phits classified saturated"
                );
            }
        }
        // With h = 2 no split of the load can fire the test at all
        // (q ≤ sum = 2·mean), and with h = 6 one queue must hold well
        // over its fair share: 5 queues of 100 and one of 124 are all
        // "unsaturated".
        assert!(!saturated(544, 544, 2, t_global));
        assert!(!saturated(124, 624, 6, t_global));
    }
}
