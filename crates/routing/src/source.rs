//! Source routing (§II-C): MIN, oblivious Valiant (Obl-RRG/CRG) and
//! PiggyBack (Src-RRG/CRG). The path is fixed once, at injection, by one
//! [`Rule`] — never Valiant, always Valiant, or Valiant when the minimal
//! path looks saturated — and every later hop follows it minimally
//! towards the current target (the intermediate, then the destination).
//!
//! A Valiant intermediate is picked per [`Flavor`]:
//! * **RRG** — classic Valiant: a uniformly random node outside the source
//!   group, giving paths up to `lgl-lgl` (six hops).
//! * **CRG** — a node of a group directly connected to the *source
//!   router*, saving the frequent first local hop: paths are `g l - l g l`.
//!
//! PiggyBack (Jiang et al., ISCA'09) estimates the saturation of each
//! global link by comparing its queue against twice the router-local mean
//! plus a threshold; the flags are shared with the whole group (an
//! ECN-style broadcast the real system piggybacks on packets — modelled as
//! a shared table, refreshed incrementally: only the routers whose
//! global-link queues changed since the previous cycle are re-evaluated).
//! At injection the source consults the flag of the minimal path's global
//! link and, when the minimal path starts with a local hop, a local
//! estimate with its own coarser threshold. Under ADVc every global link
//! of the bottleneck router carries the same load, so *none* exceeds twice
//! the mean — PB mis-classifies them as unsaturated and keeps routing
//! minimally. This reproduces the paper's observed PB failure (§V-A).

use crate::common::{current_target, make_decision, minimal_out, normalize_route_state, VcPlan};
use df_engine::{
    CycleCtx, Decision, EngineConfig, PacketHeader, RouteInfo, RouterState, RoutingPolicy,
};
use df_topology::{GroupId, NodeId, Port, PortKind, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Where a Valiant intermediate node is drawn from.
#[derive(Clone, Copy)]
pub(crate) enum Flavor {
    /// Any node outside the source group (Valiant / RRG).
    Rrg,
    /// A node of a group directly connected to the source router (CRG).
    Crg,
}

/// The injection-time rule: the one part of source routing that differs
/// between mechanisms.
pub(crate) enum Rule {
    /// Never Valiant (MIN).
    Minimal,
    /// Always Valiant for inter-group traffic (Obl-RRG/CRG).
    Oblivious(Flavor),
    /// Valiant when the minimal path is saturated (Src-RRG/CRG).
    PiggyBack(Flavor, Saturation),
}

/// PiggyBack's saturation test: a link whose queue holds `q` phits is
/// saturated when `q` exceeds twice the mean of the router's `n` queues
/// of that kind (`sum` phits in all, `q` included) by more than the
/// threshold `t`. Relative by design — `n` equally deep queues are never
/// saturated, however deep (§V-A: the ADVc bottleneck).
fn saturated(q: u32, sum: u32, n: u32, t: f64) -> bool {
    f64::from(q) > 2.0 * (f64::from(sum) / f64::from(n)) + t
}

/// PiggyBack's congestion view: the group-shared global-link flags and
/// the two thresholds.
pub(crate) struct Saturation {
    /// Saturation flag per global link, indexed `router_id * h + j`.
    /// Refreshed incrementally in [`RoutingPolicy::begin_cycle`] from the
    /// engine's dirty-router list; read by every router of the owning
    /// group (the ECN share).
    global: Vec<bool>,
    /// Scratch for one router's per-global-link queue lengths (length
    /// `h`), reused across refreshes.
    queues: Vec<u32>,
    /// Threshold offsets in phits (Table I: T=5 local, T=3 global,
    /// converted from packets).
    t_global_phits: f64,
    t_local_phits: f64,
}

impl Saturation {
    /// All flags clear, thresholds from `cfg`'s packet size.
    pub(crate) fn new(topo: &Topology, cfg: &EngineConfig) -> Self {
        let params = topo.params();
        Self {
            global: vec![false; (params.routers() * params.h) as usize],
            queues: vec![0; params.h as usize],
            t_global_phits: 3.0 * cfg.packet_size as f64,
            t_local_phits: 5.0 * cfg.packet_size as f64,
        }
    }

    /// Recompute the `h` flags of one router from its current global-link
    /// queues (the per-router unit of the ECN share).
    fn refresh(&mut self, topo: &Topology, router: &RouterState) {
        let params = topo.params();
        let h = params.h;
        let base = (router.id().0 * h) as usize;
        let mut sum = 0u32;
        for j in 0..h {
            let q = router.output_queue_phits(params.global_port(j));
            self.queues[j as usize] = q;
            sum += q;
        }
        for j in 0..h {
            self.global[base + j as usize] =
                saturated(self.queues[j as usize], sum, h, self.t_global_phits);
        }
    }

    /// Is the minimal path from `router` to group `dg` saturated? Its
    /// global link by the group-shared flag and, if the path starts with
    /// a local hop, that local link against twice the mean of the
    /// router's local queues plus the local threshold — evaluated on
    /// demand, since the source router reads only its *own* local queues.
    fn minimal_saturated(&self, topo: &Topology, router: &RouterState, dg: GroupId) -> bool {
        let params = topo.params();
        let me = router.id();
        let (exit, j) = topo.exit_to_group(me.group(params), dg);
        if self.global[(exit.0 * params.h + j) as usize] {
            return true;
        }
        if exit == me {
            return false;
        }
        let port = params.local_port(me.local_index(params), exit.local_index(params));
        let locals = params.a - 1;
        let sum = (0..locals).map(|l| router.output_queue_phits(Port(params.p + l))).sum();
        saturated(router.output_queue_phits(port), sum, locals, self.t_local_phits)
    }

    /// The incremental refresh against the full rescan it replaces: every
    /// router *not* pending a refresh must hold exactly the flags a fresh
    /// evaluation of its queues gives.
    fn audit(&self, topo: &Topology, ctx: &CycleCtx<'_>) {
        let params = topo.params();
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
                    self.global[base + j as usize],
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
}

/// Source routing under one [`Rule`].
pub(crate) struct SourceRouting {
    /// The mechanism's label ([`MechanismSpec::label`](crate::MechanismSpec::label)).
    name: &'static str,
    topo: Topology,
    plan: VcPlan,
    rule: Rule,
    rng: SmallRng,
}

impl SourceRouting {
    /// Build `name` for `topo` under `cfg`'s VC widths, with deterministic
    /// `seed`.
    pub(crate) fn new(
        name: &'static str,
        topo: Topology,
        cfg: &EngineConfig,
        rule: Rule,
        seed: u64,
    ) -> Self {
        let rng = SmallRng::seed_from_u64(seed);
        Self { name, plan: VcPlan::from_config(cfg), topo, rule, rng }
    }

    /// The flavour of Valiant path the rule sends a new packet on, or
    /// `None` to send it minimally. Intra-group traffic is always minimal:
    /// its minimal path shares no global link.
    fn valiant(&self, router: &RouterState, hdr: PacketHeader) -> Option<Flavor> {
        let params = self.topo.params();
        let dg = hdr.dst.group(params);
        if dg == hdr.src.group(params) {
            return None;
        }
        match &self.rule {
            Rule::Minimal => None,
            Rule::Oblivious(flavor) => Some(*flavor),
            Rule::PiggyBack(flavor, sat) => {
                sat.minimal_saturated(&self.topo, router, dg).then_some(*flavor)
            }
        }
    }

    /// Pick the Valiant intermediate node for a packet injected at `src`.
    fn pick_intermediate(&mut self, flavor: Flavor, src: NodeId) -> NodeId {
        let params = *self.topo.params();
        match flavor {
            Flavor::Rrg => {
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
            Flavor::Crg => {
                let src_router = src.router(&params);
                let j = self.rng.gen_range(0..params.h);
                let group = self.topo.global_port_target_group(src_router, j);
                let per_group = params.a * params.p;
                NodeId(group.0 * per_group + self.rng.gen_range(0..per_group))
            }
        }
    }
}

impl RoutingPolicy for SourceRouting {
    /// PiggyBack's incremental saturation refresh: only routers whose
    /// global-link queues changed since the last cycle
    /// ([`CycleCtx::dirty_global`]) are re-evaluated — O(changed links)
    /// per cycle instead of a full O(routers·h) rescan. Flags of untouched
    /// routers are unchanged by construction (their queue depths are
    /// bit-identical), so this is exactly equivalent to the full scan.
    fn begin_cycle(&mut self, ctx: &CycleCtx<'_>) {
        if let Rule::PiggyBack(_, sat) = &mut self.rule {
            for &r in ctx.dirty_global {
                sat.refresh(&self.topo, &ctx.routers[r as usize]);
            }
        }
    }

    fn audit(&self, ctx: &CycleCtx<'_>) {
        if let Rule::PiggyBack(_, sat) = &self.rule {
            sat.audit(&self.topo, ctx);
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
        let me = router.id();
        let mut info = normalize_route_state(&self.topo, me, info);
        // A packet arrives on an injection port once, at its source
        // router: the one visit that decides its path.
        if params.port_kind(in_port) == PortKind::Injection {
            if let Some(flavor) = self.valiant(router, hdr) {
                let inter = self.pick_intermediate(flavor, hdr.src);
                if inter.router(&params) != me {
                    info.intermediate = Some(inter);
                }
            }
        }
        let target = current_target(hdr.dst, &info);
        let out = minimal_out(&self.topo, me, target);
        make_decision(&self.topo, out, info, &self.plan)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::pressure::{adv1, adv1_records};
    use df_engine::{ArbiterPolicy, DeliveredRecord, Network, NullSink};
    use df_topology::{Arrangement, DragonflyParams};

    fn figure1() -> Topology {
        Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree)
    }

    /// The `small` machine: h = 3, so PiggyBack's relative test can fire.
    fn small() -> Topology {
        Topology::new(DragonflyParams::small(), Arrangement::Palmtree)
    }

    fn cfg(vcs_local: u8) -> EngineConfig {
        EngineConfig::paper(ArbiterPolicy::RoundRobin, vcs_local)
    }

    fn piggyback(topo: &Topology, flavor: Flavor, seed: u64) -> SourceRouting {
        let rule = Rule::PiggyBack(flavor, Saturation::new(topo, &cfg(4)));
        SourceRouting::new("test", topo.clone(), &cfg(4), rule, seed)
    }

    fn flags(policy: &SourceRouting) -> &[bool] {
        match &policy.rule {
            Rule::PiggyBack(_, sat) => &sat.global,
            _ => unreachable!("a PiggyBack policy"),
        }
    }

    /// The records of `offers`, all made before the first cycle, on the
    /// figure1 machine.
    fn deliver(
        rule: Rule,
        vcs_local: u8,
        seed: u64,
        offers: &[(u32, u32)],
    ) -> Vec<DeliveredRecord> {
        let topo = figure1();
        let policy = SourceRouting::new("test", topo.clone(), &cfg(vcs_local), rule, seed);
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg(vcs_local), policy, sink);
            for &(src, dst) in offers {
                net.offer(NodeId(src), NodeId(dst));
            }
            assert!(net.drain(5_000));
        }
        recs.into_inner()
    }

    /// One ADV+1 wave on the figure1 machine under oblivious Valiant: every
    /// node offers one packet to a random node of the next group.
    fn oblivious_wave(flavor: Flavor) -> Vec<DeliveredRecord> {
        let policy = SourceRouting::new("test", figure1(), &cfg(4), Rule::Oblivious(flavor), 7);
        adv1_records(figure1(), cfg(4), policy, 8, 1, 1.0)
    }

    #[test]
    fn delivers_across_the_machine() {
        let topo = figure1();
        let policy = SourceRouting::new("test", topo.clone(), &cfg(3), Rule::Minimal, 0);
        let mut net = Network::new(topo, cfg(3), policy, NullSink);
        let nodes = net.topology().params().nodes();
        for n in 0..nodes {
            net.offer(NodeId(n), NodeId((n + 17) % nodes));
        }
        assert!(net.drain(20_000));
        assert_eq!(net.counters().delivered_packets as u32, nodes);
    }

    #[test]
    fn min_latency_is_exact_on_idle_network() {
        let r = deliver(Rule::Minimal, 3, 0, &[(0, 40)])[0];
        assert_eq!(r.misroute_latency(), 0);
        assert_eq!(r.waits.total(), 0);
    }

    #[test]
    fn rrg_delivers_everything() {
        assert_eq!(oblivious_wave(Flavor::Rrg).len(), 72);
    }

    #[test]
    fn crg_delivers_everything() {
        assert_eq!(oblivious_wave(Flavor::Crg).len(), 72);
    }

    #[test]
    fn rrg_paths_bounded_by_valiant_shape() {
        for r in oblivious_wave(Flavor::Rrg) {
            assert!(r.local_hops <= 4, "lgl-lgl allows at most 4 local hops: {r:?}");
            assert!(r.global_hops <= 2, "lgl-lgl allows at most 2 global hops: {r:?}");
        }
    }

    #[test]
    fn crg_saves_first_local_hop() {
        // CRG paths are g l - l g l: at most 3 local hops.
        for r in oblivious_wave(Flavor::Crg) {
            assert!(r.local_hops <= 3, "CRG path shape violated: {r:?}");
            assert!(r.global_hops <= 2);
        }
    }

    #[test]
    fn misrouting_latency_present_for_cross_group() {
        // Valiant over cross-group traffic takes non-minimal paths for
        // nearly every packet (the intermediate rarely sits on the
        // minimal path).
        let recs = oblivious_wave(Flavor::Rrg);
        let misrouted = recs.iter().filter(|r| r.misroute_latency() > 0).count();
        assert!(misrouted * 10 > recs.len() * 7, "only {misrouted} misrouted");
    }

    #[test]
    fn intra_group_traffic_stays_minimal() {
        // Same group (p = 2, a = 4).
        let r = deliver(Rule::Oblivious(Flavor::Rrg), 4, 3, &[(0, 6)])[0];
        assert_eq!(r.misroute_latency(), 0);
        assert_eq!(r.global_hops, 0);
    }

    #[test]
    fn idle_network_routes_minimally() {
        // With no congestion, PB must behave exactly like MIN.
        let sat = Saturation::new(&figure1(), &cfg(4));
        for r in deliver(Rule::PiggyBack(Flavor::Rrg, sat), 4, 5, &[(0, 40), (1, 55)]) {
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
        let policy = piggyback(&small(), Flavor::Rrg, 6);
        let recs = adv1_records(small(), cfg(4), policy, 1, 3000, 0.05);
        let misrouted = recs.iter().filter(|r| r.misroute_latency() > 0).count();
        assert!(
            misrouted > recs.len() / 10,
            "PB should divert a meaningful share under ADV+1: {misrouted}/{}",
            recs.len()
        );
    }

    #[test]
    fn saturation_flags_start_clear() {
        let topo = figure1();
        let params = *topo.params();
        let mut policy = piggyback(&topo, Flavor::Crg, 7);
        let routers: Vec<RouterState> =
            topo.routers().map(|r| RouterState::new(r, &params, &cfg(4))).collect();
        // Even marking every router dirty keeps idle flags clear.
        let all: Vec<u32> = (0..routers.len() as u32).collect();
        policy.begin_cycle(&CycleCtx { routers: &routers, cycle: 1, dirty_global: &all });
        assert!(flags(&policy).iter().all(|&s| !s));
    }

    #[test]
    fn incremental_refresh_matches_full_rescan() {
        // Every cycle the audit re-evaluates the flags of every router
        // with no refresh pending and compares them against the
        // incrementally maintained table.
        let mut net = Network::new(small(), cfg(4), piggyback(&small(), Flavor::Rrg, 9), NullSink);
        adv1(&mut net, 3, 1200, 0.04, |net| net.audit());
        // The traffic must actually have produced saturation flips, or
        // the equivalence check proved nothing.
        assert!(
            flags(net.policy()).iter().any(|&s| s),
            "test traffic never saturated a global link"
        );
    }

    #[test]
    #[should_panic(expected = "diverged from a full rescan with no refresh pending")]
    fn audit_catches_a_flipped_flag_on_a_clean_router() {
        // No router of an idle network is pending a refresh, so a set flag
        // is one the incremental refresh would never revisit.
        let mut policy = piggyback(&figure1(), Flavor::Crg, 7);
        if let Rule::PiggyBack(_, sat) = &mut policy.rule {
            sat.global[5] = true;
        }
        Network::new(figure1(), cfg(4), policy, NullSink).audit();
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
