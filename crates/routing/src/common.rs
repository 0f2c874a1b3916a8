//! Shared routing building blocks: minimal next-hop computation,
//! hop-indexed VC selection, and Valiant intermediate bookkeeping.

use df_engine::{Decision, EngineConfig, RouteInfo};
use df_topology::{NodeId, Port, PortKind, RouterId, Topology};

/// VC widths copied out of the engine config (policies keep this instead
/// of the whole config).
#[derive(Debug, Clone, Copy)]
pub(crate) struct VcPlan {
    /// VCs on local ports.
    pub(crate) local: u8,
    /// VCs on global ports.
    pub(crate) global: u8,
}

impl VcPlan {
    /// Extract from an engine configuration.
    pub(crate) fn from_config(cfg: &EngineConfig) -> Self {
        Self { local: cfg.vcs_local, global: cfg.vcs_global }
    }
}

/// The output port on the minimal path from router `me` towards `target`.
///
/// Minimal Dragonfly routing is at most `local → global → local`:
/// * same router → ejection port,
/// * same group → direct local port,
/// * otherwise → the group's exit router for the target group (global
///   port if `me` owns the link, else the local port towards the owner).
pub(crate) fn minimal_out(topo: &Topology, me: RouterId, target: NodeId) -> Port {
    let params = topo.params();
    let dst_router = target.router(params);
    if dst_router == me {
        return params.injection_port(target.slot(params));
    }
    let (mg, dg) = (me.group(params), dst_router.group(params));
    if mg == dg {
        return params.local_port(me.local_index(params), dst_router.local_index(params));
    }
    let (exit, j) = topo.exit_to_group(mg, dg);
    if exit == me {
        params.global_port(j)
    } else {
        params.local_port(me.local_index(params), exit.local_index(params))
    }
}

/// Deadlock-free VC for taking `out_port`, using a *path-stage* discipline
/// rather than a per-class hop count (a naive per-class count deadlocks:
/// the degenerate minimal path `g l` would map its destination-group local
/// hop to VC 0, closing an `l0 → g0 → l0` ring across consecutive groups
/// under ADV traffic).
///
/// * Global VC = number of global hops taken (0 or 1; capped).
/// * Local VC with a 4-VC plan (Valiant path shapes `lgl-lgl`):
///   source group → 0, intermediate group before turnaround → 1, after
///   turnaround (or any post-first-global hop of a minimal-mode packet)
///   → 2, destination group after the second global → 3.
/// * Local VC with a ≤3-VC plan (minimal / in-transit): the global-hop
///   count (0, 1, 2).
///
/// Every permitted path shape traverses these channel stages in a fixed
/// ascending order whose only repeated stages sit in the destination
/// group, where all wait chains terminate at the (always-draining)
/// ejection port — so the channel dependency graph is acyclic. The two
/// path restrictions this relies on (Valiant intermediates never in the
/// source group; in-transit local misrouting only in the destination
/// group) are enforced by the mechanisms in this crate.
pub(crate) fn vc_for(params_kind: PortKind, info: &RouteInfo, plan: &VcPlan) -> u8 {
    match params_kind {
        PortKind::Injection => 0, // ejection to the node, no VC pressure
        PortKind::Global => info.global_hops.min(plan.global - 1),
        PortKind::Local => {
            let stage = if plan.local >= 4 {
                match (info.global_hops, info.intermediate) {
                    (0, _) => 0,
                    (1, Some(_)) => 1,
                    (1, None) => 2,
                    _ => 3,
                }
            } else {
                info.global_hops
            };
            stage.min(plan.local - 1)
        }
    }
}

/// Assemble a [`Decision`]: pick the VC for `out_port`, advance the hop
/// counters in `info`, and return the pair the engine commits on grant.
pub(crate) fn make_decision(
    topo: &Topology,
    out_port: Port,
    mut info: RouteInfo,
    plan: &VcPlan,
) -> Decision {
    let kind = topo.params().port_kind(out_port);
    let out_vc = vc_for(kind, &info, plan);
    match kind {
        PortKind::Injection => {}
        PortKind::Local => info.local_hops = info.local_hops.saturating_add(1),
        PortKind::Global => info.global_hops = info.global_hops.saturating_add(1),
    }
    Decision { out_port, out_vc, info }
}

/// Per-hop book-keeping shared by all mechanisms, applied before any
/// decision logic: drop the intermediate once the packet reaches its
/// router (Valiant turn-around), so the packet heads for its destination.
pub(crate) fn normalize_route_state(
    topo: &Topology,
    me: RouterId,
    mut info: RouteInfo,
) -> RouteInfo {
    if info.intermediate.is_some_and(|inter| inter.router(topo.params()) == me) {
        info.intermediate = None;
    }
    info
}

/// The node the packet is currently steering towards: its intermediate
/// while it has one, else its final destination.
pub(crate) fn current_target(dst: NodeId, info: &RouteInfo) -> NodeId {
    info.intermediate.unwrap_or(dst)
}

/// A representative node on the *entry router* of `group` as seen from
/// `from_group`: the router at the far end of the single global link
/// between the two groups. Valiant paths that target this node drop the
/// intermediate immediately on entering the group, producing
/// the canonical `(l) g | l g l` shape.
pub(crate) fn entry_node_of_group(
    topo: &Topology,
    from_group: df_topology::GroupId,
    group: df_topology::GroupId,
) -> NodeId {
    let (exit, j) = topo.exit_to_group(from_group, group);
    let (entry, _) = topo.global_peer(exit, j);
    NodeId::from_router_slot(topo.params(), entry, 0)
}

#[cfg(test)]
/// The traffic the mechanisms' unit tests put their networks under.
pub(crate) mod pressure {
    use df_engine::{DeliveredRecord, EngineConfig, Network, RoutingPolicy, StatsSink};
    use df_topology::{NodeId, Topology};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// ADV+1 pressure: for `cycles` cycles every node offers, with
    /// probability `prob`, one packet to a uniformly random node of the
    /// next group, drawn from a generator seeded with `seed`; the network
    /// then steps and `each_cycle` runs.
    pub(crate) fn adv1<P: RoutingPolicy, S: StatsSink>(
        net: &mut Network<P, S>,
        seed: u64,
        cycles: u32,
        prob: f64,
        mut each_cycle: impl FnMut(&mut Network<P, S>),
    ) {
        let params = *net.topology().params();
        let per_group = params.a * params.p;
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..cycles {
            for n in 0..params.nodes() {
                if rng.gen_bool(prob) {
                    let g = n / per_group;
                    let dst = ((g + 1) % params.groups()) * per_group + rng.gen_range(0..per_group);
                    net.offer(NodeId(n), NodeId(dst));
                }
            }
            net.step();
            each_cycle(net);
        }
    }

    /// Every packet `policy` delivers on `topo` under `cfg` through
    /// [`adv1`] pressure and a drain.
    pub(crate) fn adv1_records(
        topo: Topology,
        cfg: EngineConfig,
        policy: impl RoutingPolicy,
        seed: u64,
        cycles: u32,
        prob: f64,
    ) -> Vec<DeliveredRecord> {
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg, policy, sink);
            adv1(&mut net, seed, cycles, prob, |_| {});
            assert!(net.drain(200_000), "{} network must drain", net.policy().name());
        }
        recs.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Arrangement, DragonflyParams, GroupId};

    fn topo() -> Topology {
        Topology::new(DragonflyParams::small(), Arrangement::Palmtree)
    }

    #[test]
    fn minimal_out_reaches_destination_everywhere() {
        // Walk the minimal path hop by hop from every router to assorted
        // destinations and check it terminates at the ejection port.
        let t = topo();
        let params = *t.params();
        for start in t.routers().step_by(5) {
            for dst in t.nodes().step_by(23) {
                let mut me = start;
                for _hop in 0..4 {
                    let out = minimal_out(&t, me, dst);
                    match params.port_kind(out) {
                        PortKind::Injection => {
                            assert_eq!(me, dst.router(&params));
                            assert_eq!(out, params.injection_port(dst.slot(&params)));
                            break;
                        }
                        _ => match t.port_target(me, out) {
                            df_topology::PortTarget::Router { router, .. } => me = router,
                            df_topology::PortTarget::Node(_) => unreachable!(),
                        },
                    }
                }
                assert_eq!(me, dst.router(&params), "minimal walk must converge");
            }
        }
    }

    #[test]
    fn minimal_path_length_within_three() {
        let t = topo();
        let params = *t.params();
        for start in t.routers().step_by(7) {
            for dst in t.nodes().step_by(31) {
                let mut me = start;
                let mut hops = 0;
                loop {
                    let out = minimal_out(&t, me, dst);
                    if params.port_kind(out) == PortKind::Injection {
                        break;
                    }
                    hops += 1;
                    assert!(hops <= 3, "minimal path exceeded diameter");
                    match t.port_target(me, out) {
                        df_topology::PortTarget::Router { router, .. } => me = router,
                        _ => unreachable!(),
                    }
                }
            }
        }
    }

    #[test]
    fn vc_stages_three_vc_plan() {
        let plan = VcPlan { local: 3, global: 2 };
        let mut info = RouteInfo::default();
        // Source group: local stage 0.
        assert_eq!(vc_for(PortKind::Local, &info, &plan), 0);
        // After one global hop: local stage 1 — the degenerate `g l`
        // minimal path must NOT reuse stage 0 (ring-deadlock hazard).
        info.global_hops = 1;
        assert_eq!(vc_for(PortKind::Local, &info, &plan), 1);
        assert_eq!(vc_for(PortKind::Global, &info, &plan), 1);
        info.global_hops = 2;
        assert_eq!(vc_for(PortKind::Local, &info, &plan), 2);
        assert_eq!(vc_for(PortKind::Global, &info, &plan), 1); // capped
        info.global_hops = 7;
        assert_eq!(vc_for(PortKind::Local, &info, &plan), 2); // capped
    }

    #[test]
    fn vc_stages_four_vc_plan_follow_valiant_shape() {
        let plan = VcPlan { local: 4, global: 2 };
        let mut info = RouteInfo { intermediate: Some(NodeId(30)), ..RouteInfo::default() };
        // Source group local.
        assert_eq!(vc_for(PortKind::Local, &info, &plan), 0);
        // Intermediate group, before turnaround.
        info.global_hops = 1;
        assert_eq!(vc_for(PortKind::Local, &info, &plan), 1);
        // Intermediate group, after turnaround (and minimal-mode packets
        // in their destination group).
        info.intermediate = None;
        assert_eq!(vc_for(PortKind::Local, &info, &plan), 2);
        // Destination group after the second global hop.
        info.global_hops = 2;
        assert_eq!(vc_for(PortKind::Local, &info, &plan), 3);
    }

    #[test]
    fn decision_advances_hop_counters() {
        let t = topo();
        let plan = VcPlan { local: 3, global: 2 };
        let info = RouteInfo::default();
        let params = t.params();
        let d = make_decision(&t, params.global_port(0), info, &plan);
        assert_eq!(d.info.global_hops, 1);
        assert_eq!(d.info.local_hops, 0);
        let d2 = make_decision(&t, params.local_port(0, 1), d.info, &plan);
        assert_eq!(d2.info.local_hops, 1);
        // Stage-based VC: a local hop after one global hop rides VC 1.
        assert_eq!(d2.out_vc, 1);
    }

    #[test]
    fn normalize_flips_phase_at_intermediate_router() {
        let t = topo();
        let params = t.params();
        let inter = NodeId(30);
        let info = RouteInfo { intermediate: Some(inter), ..RouteInfo::default() };
        // Not yet at the intermediate router: unchanged.
        let other = RouterId(0);
        assert_ne!(inter.router(params), other);
        assert_eq!(normalize_route_state(&t, other, info), info);
        // At the intermediate router: the intermediate is dropped.
        let turned = normalize_route_state(&t, inter.router(params), info);
        assert!(turned.intermediate.is_none());
    }

    #[test]
    fn entry_node_flips_immediately() {
        let t = topo();
        let params = t.params();
        let n = entry_node_of_group(&t, GroupId(0), GroupId(3));
        assert_eq!(n.group(params), GroupId(3));
        // The entry node's router owns the link back to group 0.
        let (exit, j) = t.exit_to_group(GroupId(0), GroupId(3));
        let (entry, _) = t.global_peer(exit, j);
        assert_eq!(n.router(params), entry);
    }
}
