//! Arbitration-policy effects, isolated with MIN routing under ADV+1:
//! every packet of a group funnels through the exit router, so its
//! injection competes head-on with the whole group's transit.

use dragonfly_core::df_engine::ArbiterPolicy;
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_traffic::PatternSpec;
use dragonfly_core::prelude::*;
use integration_tests::{bottleneck_vs_rest, tiny_config, BottleneckShare};

/// Each group's exit router against its peers under ADV+1 with MIN.
fn adv1_min(arbiter: ArbiterPolicy) -> BottleneckShare {
    // ADV+1 with MIN overloads the single exit link per group; the exit
    // router's own nodes contend with 3 transit routers' traffic.
    let cfg = tiny_config(MechanismSpec::Min, arbiter, PatternSpec::Adversarial { offset: 1 }, 0.4);
    bottleneck_vs_rest(&run_single(&cfg), &cfg)
}

#[test]
fn transit_priority_disadvantages_the_exit_router() {
    let prio = adv1_min(ArbiterPolicy::TransitPriority);
    let rr = adv1_min(ArbiterPolicy::RoundRobin);
    // The three peers' transit (2 nodes x 0.4 each) alone saturates the
    // exit link. Under transit priority it always wins there, and the
    // exit router's own nodes inject least in every group (measured at
    // seeds 1, 11 and 23: 9/9 groups, mean share 0.000 — they starve).
    assert_eq!(prio.groups_min, prio.groups, "transit priority: {prio:?}");
    // Under round-robin each of the link's input ports — the exit
    // router's 2 injection ports and its 3 local ports — gets one turn:
    // its nodes take 2/5 of the link, each peer router 1/5, a share of 2
    // (measured 9/9 groups, 2.000-2.014 at seeds 1, 11 and 23). Bound:
    // 1.5, a quarter below.
    assert_eq!(rr.groups_max, rr.groups, "round-robin: {rr:?}");
    assert!(rr.mean_share > 1.5, "round-robin favours the exit router: {rr:?}");
    assert!(
        prio.mean_share < rr.mean_share,
        "transit priority must reduce the exit router's injection share: \
         {:.3} (priority) vs {:.3} (round-robin)",
        prio.mean_share,
        rr.mean_share
    );
}

#[test]
fn age_based_keeps_exit_router_close_to_peers() {
    let age = adv1_min(ArbiterPolicy::AgeBased);
    let prio = adv1_min(ArbiterPolicy::TransitPriority);
    assert!(
        age.mean_share > prio.mean_share,
        "age arbitration should serve the exit router better than transit \
         priority: {:.3} vs {:.3}",
        age.mean_share,
        prio.mean_share
    );
}

#[test]
fn arbitration_does_not_change_uniform_throughput_materially() {
    // Under UN at moderate load the arbiter barely matters — accepted
    // load must match offered for all three policies.
    for arbiter in
        [ArbiterPolicy::RoundRobin, ArbiterPolicy::TransitPriority, ArbiterPolicy::AgeBased]
    {
        let r = run_single(&tiny_config(MechanismSpec::Min, arbiter, PatternSpec::Uniform, 0.3));
        assert!((r.throughput - 0.3).abs() < 0.03, "{arbiter:?}: UN throughput {}", r.throughput);
    }
}

/// The LRU escape variant's selection is a deterministic rotation: with
/// every CRG candidate uncongested and a congested minimal port, repeated
/// decisions at the same router cycle through the global ports in index
/// order (cold start: j = 0, 1, …, h-1, then around again).
#[test]
fn lru_escape_rotates_candidates_deterministically() {
    use dragonfly_core::df_engine::{
        EngineConfig, Network, NullSink, PacketHeader, RouteInfo, RoutingPolicy,
    };
    use dragonfly_core::df_topology::{Arrangement, GroupId, NodeId, RouterId, Topology};

    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let me = RouterId(0);

    // A destination group reached through *another* router of group 0, so
    // router 0's minimal port is local (and congestible) while both of its
    // own global ports stay idle — every CRG escape candidate is open.
    let behind_me = [topo.global_port_target_group(me, 0), topo.global_port_target_group(me, 1)];
    let dst_group = (1..params.groups())
        .map(GroupId)
        .find(|g| !behind_me.contains(g))
        .expect("figure1 has groups beyond router 0's own global links");
    let (exit, _) = topo.exit_to_group(GroupId(0), dst_group);
    assert_ne!(exit, me, "destination group must not sit behind router 0");
    let dst = NodeId(dst_group.0 * params.a * params.p);

    // Saturate router 0's local port toward the exit router: both of its
    // nodes inject minimally-routed traffic to the destination group at
    // full load, far above the 1 phit/cycle the local link drains.
    let cfg = EngineConfig::paper(ArbiterPolicy::TransitPriority, 3);
    let min_policy = MechanismSpec::Min.build(topo.clone(), &cfg, 5);
    let mut net = Network::new(topo.clone(), cfg, min_policy, NullSink);
    for _ in 0..1_500 {
        net.offer(NodeId(0), dst);
        net.offer(NodeId(1), dst);
        net.step();
    }

    // Probe a standalone LRU policy against the congested router state:
    // the same head re-decided h+2 times must walk the global ports in
    // index order, wrapping around.
    let mut lru = MechanismSpec::InTransitLru.build(topo, &cfg, 5);
    let hdr = PacketHeader { id: 0, src: NodeId(0), dst, gen_cycle: 0 };
    let info = RouteInfo::default();
    let in_port = params.injection_port(0);
    for probe in 0..(params.h + 2) {
        let d = lru.route(net.router(me), in_port, hdr, info);
        assert_eq!(
            d.out_port,
            params.global_port(probe % params.h),
            "probe {probe}: LRU escape must rotate global candidates in order"
        );
        assert!(
            d.info.global_misrouted,
            "probe {probe}: a congested minimal port must trigger the escape"
        );
    }
}

/// Table-row check for the LRU variant on the bundled interference
/// scenario (quick protocol, default seed): within the ADVc aggressor
/// job, its injection unfairness lands strictly between oblivious CRG
/// (fair, no in-transit feedback loop) and in-transit CRG (the paper's
/// unfair mechanism) on both reported metrics.
#[test]
fn lru_variant_unfairness_sits_between_crg_variants() {
    let path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios/interference_advc_vs_uniform.json");
    let mut spec = ScenarioSpec::load(path).expect("load interference scenario");
    spec.mechanisms =
        vec![MechanismSpec::ObliviousCrg, MechanismSpec::InTransitCrg, MechanismSpec::InTransitLru];
    df_bench::quick_scenario(&mut spec);
    let result = run_scenario(&spec, &[DEFAULT_SEEDS[0]]).expect("run scenario");

    let aggressor = |label: &str| {
        let m = result
            .mechanisms
            .iter()
            .find(|m| m.mechanism == label)
            .unwrap_or_else(|| panic!("mechanism {label} missing"));
        let j = m.per_job.iter().find(|j| j.job == "aggressor").expect("aggressor job present");
        (j.cov, j.max_min_ratio)
    };
    let (cov_obl, mm_obl) = aggressor("Obl-CRG");
    let (cov_crg, mm_crg) = aggressor("In-Trns-CRG");
    let (cov_lru, mm_lru) = aggressor("In-Trns-LRU");

    assert!(
        cov_obl < cov_lru && cov_lru < cov_crg,
        "ADVc-job injection CoV must order Obl-CRG < In-Trns-LRU < In-Trns-CRG, \
         got {cov_obl:.4} / {cov_lru:.4} / {cov_crg:.4}"
    );
    assert!(
        mm_obl < mm_lru && mm_lru < mm_crg,
        "ADVc-job max/min ratio must order Obl-CRG < In-Trns-LRU < In-Trns-CRG, \
         got {mm_obl:.4} / {mm_lru:.4} / {mm_crg:.4}"
    );
}
