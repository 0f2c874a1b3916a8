//! In-transit adaptive routing (PAR-style global misrouting + OLM local
//! misrouting; §II-C), with the RRG / CRG / MM global misrouting policies.
//!
//! The decision is taken at every router the packet visits (that is what
//! "in-transit adaptive" means), once per visit, as in FOGSim: the head
//! compares the occupancy of its minimal output against the congestion
//! threshold (Table I: 43%) and escapes to a non-minimal candidate when the
//! minimal port is congested and the candidate is not.
//!
//! * Global misrouting is allowed in the source group only (at injection
//!   or after the first local hop, as in PAR), at most once per packet.
//!   The candidate *intermediate group* is picked per policy:
//!   - **CRG** — a group behind one of the current router's own global
//!     ports (1 hop to the intermediate group);
//!   - **RRG** — any group (reached via the canonical exit, 1–2 hops);
//!   - **MM**  — CRG at the source router, NRG (a group behind another
//!     router of the source group) in transit.
//! * Local misrouting (OLM) is allowed outside the source group when the
//!   minimal next hop is local and congested, at most once per group.
//!
//! Under ADVc + CRG/MM the bottleneck router's non-minimal global
//! candidates *are* the congested minimal links of its neighbours — the
//! structural overlap behind the paper's unfairness result.

use crate::common::{
    current_target, entry_node_of_group, make_decision, minimal_out, normalize_route_state,
    VcPlan,
};
use df_engine::{
    Decision, EngineConfig, PacketHeader, Phase, RouteInfo, RouterState, RoutingPolicy,
};
use df_topology::{GroupId, Port, PortKind, PortLayout, RouterId, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Global misrouting policy for in-transit adaptive routing (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalMisrouting {
    /// Random-router Global: any group in the network.
    Rrg,
    /// Current-router Global: only groups behind the current router's own
    /// global links.
    Crg,
    /// Mixed-mode: CRG at the source router, NRG in transit.
    Mm,
}

/// Which congestion estimate drives the misrouting decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionSignal {
    /// Output buffer occupancy only. Matches FOGSim's behaviour: on long
    /// links the buffer backs up only under genuine credit exhaustion,
    /// so minimal traffic keeps pouring into the bottleneck router and
    /// transit-over-injection priority starves its injection — the
    /// paper's headline result.
    OutputBuffer,
    /// Output buffer plus consumed downstream credits. This signal is
    /// biased by the credit round-trip on 100-cycle global links (a
    /// fully-utilized but uncongested link reads ~45% occupied), so the
    /// 43% threshold triggers on utilization rather than congestion and
    /// the network settles into a fairer fluid equilibrium. Kept for the
    /// sensitivity ablation.
    Combined,
    /// Consumed credits of the specific VC the packet would ride on the
    /// next hop ("the number of credits of the output ports", §II-C).
    /// On any *utilized* link the credit round-trip alone consumes most
    /// of a small VC window (a 32-phit local VC reads ~75% busy), so
    /// escape candidates through busy local links fail the 43% test and
    /// transit is forced to stay minimal — producing the standing queues
    /// at the bottleneck router that transit-over-injection priority
    /// turns into the paper's injection starvation.
    VcCredits,
}

/// How the escape candidate of a global misroute is selected among the
/// (equal-cost) CRG alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscapeSelect {
    /// Sample one candidate uniformly at random per decision (the
    /// paper's mechanisms; consumes RNG on every congested-minimal
    /// evaluation).
    Random,
    /// Deterministic least-recently-granted tie-break: consider every
    /// uncongested CRG candidate and escape through the one this router
    /// routed an escape through longest ago. RNG-free; trades the
    /// statistical spreading of random selection for a rotation
    /// guarantee under sustained congestion.
    Lru,
}

/// The role an output port plays in the misroute threshold test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The packet's minimal output.
    Minimal,
    /// A non-minimal escape candidate (global or local misroute).
    Candidate,
}

/// The misroute threshold test, both sides of it. A packet stays minimal
/// while its minimal output's occupancy is *at or below* the threshold,
/// and escapes through a candidate only while the candidate's is
/// *strictly below* it: exactly at the threshold, minimal wins on either
/// side. Occupancies are quantised (whole packets over a VC's credit
/// window under [`CongestionSignal::VcCredits`]), so which side of 43 %
/// a port reads is decided by one packet — the tests pin that.
fn passes(role: Role, occupancy: f64, threshold: f64) -> bool {
    match role {
        Role::Minimal => occupancy <= threshold,
        Role::Candidate => occupancy < threshold,
    }
}

/// In-transit adaptive routing mechanism.
pub struct InTransit {
    topo: Topology,
    plan: VcPlan,
    policy: GlobalMisrouting,
    /// Congestion threshold as an occupancy fraction (Table I: 0.43).
    threshold: f64,
    /// Congestion estimate in use.
    signal: CongestionSignal,
    /// Escape-candidate selection (see [`EscapeSelect`]).
    escape: EscapeSelect,
    /// LRU state, `[router][global port j]` flattened: the stamp of the
    /// last escape this router sent through candidate `j`.
    last_routed: Vec<u64>,
    /// Monotonic stamp source for `last_routed`.
    lru_stamp: u64,
    rng: SmallRng,
}

impl InTransit {
    /// Build with the paper's 43% congestion threshold.
    pub fn new(topo: Topology, cfg: &EngineConfig, policy: GlobalMisrouting, seed: u64) -> Self {
        Self::with_threshold(topo, cfg, policy, 0.43, seed)
    }

    /// Build with a custom congestion threshold (ablation studies).
    pub fn with_threshold(
        topo: Topology,
        cfg: &EngineConfig,
        policy: GlobalMisrouting,
        threshold: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&threshold));
        Self {
            plan: VcPlan::from_config(cfg),
            topo,
            policy,
            threshold,
            signal: CongestionSignal::VcCredits,
            escape: EscapeSelect::Random,
            last_routed: Vec::new(),
            lru_stamp: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Select the congestion estimate (ablation).
    pub fn with_signal(mut self, signal: CongestionSignal) -> Self {
        self.signal = signal;
        self
    }

    /// Switch the global-misroute escape to the deterministic LRU
    /// tie-break ([`EscapeSelect::Lru`]). Meaningful with the CRG policy,
    /// whose candidate set is exactly the current router's own `h` global
    /// ports.
    pub fn with_lru_escape(mut self) -> Self {
        let params = self.topo.params();
        self.escape = EscapeSelect::Lru;
        self.last_routed = vec![0; (params.routers() * params.h) as usize];
        self
    }

    /// The congestion estimate for `port` under the configured signal.
    /// `vc` is the VC the packet would use on that port (only relevant
    /// for [`CongestionSignal::VcCredits`]; ejection ports have no
    /// credit window and always read idle there).
    fn congestion(&self, router: &RouterState, port: df_topology::Port, vc: u8) -> f64 {
        match self.signal {
            CongestionSignal::OutputBuffer => router.output_buffer_fill(port),
            CongestionSignal::Combined => router.output_congestion(port),
            CongestionSignal::VcCredits => router.vc_credit_fill(port, vc),
        }
    }

    /// The routing decision for this visit.
    fn decide(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        let params = *self.topo.params();
        let me = router.id();
        let mut info = normalize_route_state(&self.topo, me, info);
        let target = current_target(hdr.dst, &info);
        let min_out = minimal_out(&self.topo, me, target);
        let min_kind = params.port_kind(min_out);

        // Minimal wins outright while uncongested (ejection is free).
        if min_kind == PortKind::Injection {
            return make_decision(&self.topo, min_out, info, &self.plan);
        }
        let min_vc = crate::common::vc_for(min_kind, &info, &self.plan);
        let occ_min = self.congestion(router, min_out, min_vc);
        if passes(Role::Minimal, occ_min, self.threshold) {
            return make_decision(&self.topo, min_out, info, &self.plan);
        }

        let my_group = me.group(&params);
        let in_source_group = my_group == hdr.src.group(&params);
        let at_injection = params.port_kind(in_port) == PortKind::Injection;

        // --- Global misroute (source group only, once per packet). ---
        let may_global = in_source_group
            && !info.global_misrouted
            && info.phase == Phase::ToDestination
            && hdr.dst.group(&params) != my_group;

        // --- Local misroute (OLM-style: destination group only, once,
        // around a congested local minimal hop). Restricting it to the
        // destination group keeps the VC channel-dependency graph acyclic
        // with 3 local VCs (see `vc_for`); misrouted packets there are at
        // most two local hops from their always-draining ejection port.
        let may_local = !in_source_group
            && my_group == hdr.dst.group(&params)
            && !info.local_misrouted
            && min_kind == PortKind::Local
            && info.phase == Phase::ToDestination;

        if may_global {
            match self.escape {
                EscapeSelect::Random => {
                    let cand_group = self.sample_group(me, at_injection);
                    let inter = entry_node_of_group(&self.topo, my_group, cand_group);
                    if inter.router(&params) != me {
                        let cand_out = minimal_out(&self.topo, me, inter);
                        let cand_vc = crate::common::vc_for(
                            params.port_kind(cand_out),
                            &info,
                            &self.plan,
                        );
                        let occ_cand = self.congestion(router, cand_out, cand_vc);
                        if passes(Role::Candidate, occ_cand, self.threshold) {
                            info.global_misrouted = true;
                            info.phase = Phase::ToIntermediate;
                            info.intermediate = Some(inter);
                            return make_decision(&self.topo, cand_out, info, &self.plan);
                        }
                    }
                }
                EscapeSelect::Lru => {
                    // Deterministic CRG scan: every uncongested candidate
                    // behind one of my own global ports competes; the one
                    // granted an escape longest ago wins (port index
                    // breaks stamp ties, so the cold start rotates
                    // j = 0, 1, …, h-1).
                    let mut best: Option<(u64, u32, Port, df_topology::NodeId)> = None;
                    for j in 0..params.h {
                        let cand_group = self.topo.global_port_target_group(me, j);
                        let inter = entry_node_of_group(&self.topo, my_group, cand_group);
                        if inter.router(&params) == me {
                            continue;
                        }
                        let cand_out = minimal_out(&self.topo, me, inter);
                        let cand_vc = crate::common::vc_for(
                            params.port_kind(cand_out),
                            &info,
                            &self.plan,
                        );
                        let occ_cand = self.congestion(router, cand_out, cand_vc);
                        if !passes(Role::Candidate, occ_cand, self.threshold) {
                            continue;
                        }
                        let stamp =
                            self.last_routed[(me.0 * params.h + j) as usize];
                        if best.is_none_or(|(s, bj, _, _)| (stamp, j) < (s, bj)) {
                            best = Some((stamp, j, cand_out, inter));
                        }
                    }
                    if let Some((_, j, cand_out, inter)) = best {
                        self.lru_stamp += 1;
                        self.last_routed[(me.0 * params.h + j) as usize] = self.lru_stamp;
                        info.global_misrouted = true;
                        info.phase = Phase::ToIntermediate;
                        info.intermediate = Some(inter);
                        return make_decision(&self.topo, cand_out, info, &self.plan);
                    }
                }
            }
        }

        if may_local {
            let avoid = target.router(&params).local_index(&params);
            let my_idx = me.local_index(&params);
            // Sample a random other router that is neither me nor the
            // minimal next router.
            let mut x = self.rng.gen_range(0..params.a);
            for _ in 0..params.a {
                if x != my_idx && x != avoid {
                    break;
                }
                x = (x + 1) % params.a;
            }
            if x != my_idx && x != avoid {
                let cand_out = params.local_port(my_idx, x);
                let cand_vc = crate::common::vc_for(PortKind::Local, &info, &self.plan);
                let occ_cand = self.congestion(router, cand_out, cand_vc);
                if passes(Role::Candidate, occ_cand, self.threshold) {
                    info.local_misrouted = true;
                    return make_decision(&self.topo, cand_out, info, &self.plan);
                }
            }
        }

        // No misroute gate open, or every candidate rejected: minimal.
        make_decision(&self.topo, min_out, info, &self.plan)
    }

    /// Sample a candidate intermediate group for a global misroute from
    /// router `me`, honouring the policy (and the PAR stage via
    /// `at_injection`).
    fn sample_group(&mut self, me: RouterId, at_injection: bool) -> GroupId {
        let params = *self.topo.params();
        let my_group = me.group(&params);
        let effective = match self.policy {
            GlobalMisrouting::Mm => {
                if at_injection {
                    GlobalMisrouting::Crg
                } else {
                    // NRG: a group behind a *different* router of my group.
                    let my_idx = me.local_index(&params);
                    let mut x = self.rng.gen_range(0..params.a - 1);
                    if x >= my_idx {
                        x += 1;
                    }
                    let other = RouterId::from_group_local(&params, my_group, x);
                    let j = self.rng.gen_range(0..params.h);
                    return self.topo.global_port_target_group(other, j);
                }
            }
            p => p,
        };
        match effective {
            GlobalMisrouting::Crg => {
                let j = self.rng.gen_range(0..params.h);
                self.topo.global_port_target_group(me, j)
            }
            GlobalMisrouting::Rrg => {
                let g = params.groups();
                let mut cand = self.rng.gen_range(0..g - 1);
                if cand >= my_group.0 {
                    cand += 1;
                }
                GroupId(cand)
            }
            GlobalMisrouting::Mm => unreachable!("resolved above"),
        }
    }
}

impl RoutingPolicy for InTransit {
    fn route(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        self.decide(router, in_port, hdr, info)
    }

    fn name(&self) -> &'static str {
        if self.escape == EscapeSelect::Lru {
            return "In-Trns-LRU";
        }
        match self.policy {
            GlobalMisrouting::Rrg => "In-Trns-RRG",
            GlobalMisrouting::Crg => "In-Trns-CRG",
            GlobalMisrouting::Mm => "In-Trns-MM",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::{ArbiterPolicy, DeliveredRecord, Network};
    use df_topology::{Arrangement, DragonflyParams, NodeId};

    fn topo_small() -> Topology {
        Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree)
    }

    fn run_adv(policy: GlobalMisrouting, cycles: u64, prob: f64) -> Vec<DeliveredRecord> {
        let topo = topo_small();
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        let mechanism = InTransit::new(topo.clone(), &cfg, policy, 11);
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg, mechanism, sink);
            let params = *net.topology().params();
            let per_group = params.a * params.p;
            let mut rng = SmallRng::seed_from_u64(2);
            for _ in 0..cycles {
                for n in 0..params.nodes() {
                    if rng.gen_bool(prob) {
                        let g = n / per_group;
                        let dst =
                            ((g + 1) % params.groups()) * per_group + rng.gen_range(0..per_group);
                        net.offer(NodeId(n), NodeId(dst));
                    }
                }
                net.step();
            }
            assert!(net.drain(200_000), "in-transit network must drain");
        }
        recs.into_inner()
    }

    /// The 43 % threshold at Table I's quantisation: occupancy moves in
    /// whole 8-phit packets over a VC's credit window, so one packet
    /// decides the side — and exactly at the threshold the two roles
    /// disagree, which is the behaviour to keep.
    #[test]
    fn misroute_threshold_boundaries() {
        let fill = |packets: u32, window: u32| f64::from(packets * 8) / f64::from(window);
        let both = |occ: f64, t: f64| (passes(Role::Minimal, occ, t), passes(Role::Candidate, occ, t));
        // A 256-phit global VC: 13 packets outstanding read 0.40625, 14 read 0.4375.
        assert_eq!(both(fill(13, 256), 0.43), (true, true));
        assert_eq!(both(fill(14, 256), 0.43), (false, false));
        // A 32-phit local VC: 1 packet reads 0.25, 2 read 0.5.
        assert_eq!(both(fill(1, 32), 0.43), (true, true));
        assert_eq!(both(fill(2, 32), 0.43), (false, false));
        // Exactly at the threshold — reachable when it sits on the grid,
        // e.g. 0.4375 or 0.5: minimal is still taken, a candidate is not.
        assert_eq!(both(fill(14, 256), 0.4375), (true, false));
        assert_eq!(both(fill(2, 32), 0.5), (true, false));
        assert_eq!(both(0.43, 0.43), (true, false));
    }

    #[test]
    fn idle_packets_route_minimally() {
        let topo = topo_small();
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        let mechanism = InTransit::new(topo.clone(), &cfg, GlobalMisrouting::Mm, 1);
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg, mechanism, sink);
            net.offer(NodeId(0), NodeId(40));
            assert!(net.drain(5_000));
        }
        let r = recs.into_inner()[0];
        assert_eq!(r.misroute_latency(), 0);
        assert_eq!(r.waits.total(), 0);
    }

    #[test]
    fn adversarial_congestion_triggers_misrouting() {
        for policy in [GlobalMisrouting::Rrg, GlobalMisrouting::Crg, GlobalMisrouting::Mm] {
            let recs = run_adv(policy, 2_000, 0.04);
            let misrouted = recs.iter().filter(|r| r.misroute_latency() > 0).count();
            assert!(
                misrouted > recs.len() / 20,
                "{policy:?}: expected adaptive escapes, got {misrouted}/{}",
                recs.len()
            );
        }
    }

    #[test]
    fn hop_counts_stay_within_vc_budget_shapes() {
        // Global misrouting once + local misrouting once per group keeps
        // paths within l g l l g l plus one extra local.
        for policy in [GlobalMisrouting::Rrg, GlobalMisrouting::Crg, GlobalMisrouting::Mm] {
            for r in run_adv(policy, 1_000, 0.04) {
                assert!(r.global_hops <= 2, "{policy:?}: {r:?}");
                assert!(r.local_hops <= 5, "{policy:?}: {r:?}");
            }
        }
    }

    #[test]
    fn all_delivered_under_stress() {
        let recs = run_adv(GlobalMisrouting::Mm, 3_000, 0.08);
        assert!(!recs.is_empty());
        for r in &recs {
            assert_eq!(r.latency(), r.traversal + r.waits.total());
        }
    }
}
