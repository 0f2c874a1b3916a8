//! Arbitration-policy effects, isolated with MIN routing under ADV+1:
//! every packet of a group funnels through the exit router, so its
//! injection competes head-on with the whole group's transit.

use dragonfly_core::df_engine::ArbiterPolicy;
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_traffic::PatternSpec;
use dragonfly_core::prelude::*;
use integration_tests::{bottleneck_vs_rest, tiny_config};

fn adv1_min(arbiter: ArbiterPolicy) -> RunResult {
    // ADV+1 with MIN overloads the single exit link per group; the exit
    // router's own nodes contend with 3 transit routers' traffic.
    run_single(&tiny_config(
        MechanismSpec::Min,
        arbiter,
        PatternSpec::Adversarial { offset: 1 },
        0.4,
    ))
}

#[test]
fn transit_priority_disadvantages_the_exit_router() {
    let params = DragonflyParams::figure1();
    let prio = adv1_min(ArbiterPolicy::TransitPriority);
    let rr = adv1_min(ArbiterPolicy::RoundRobin);
    let (b_prio, rest_prio) = bottleneck_vs_rest(&prio, &params);
    let (b_rr, rest_rr) = bottleneck_vs_rest(&rr, &params);
    // Under transit priority the exit router's share must be lower than
    // under round-robin (both relative to their group peers).
    let share_prio = b_prio / rest_prio;
    let share_rr = b_rr / rest_rr;
    assert!(
        share_prio < share_rr,
        "transit priority must reduce the exit router's injection share: \
         {share_prio:.3} (priority) vs {share_rr:.3} (round-robin)"
    );
}

#[test]
fn age_based_keeps_exit_router_close_to_peers() {
    let params = DragonflyParams::figure1();
    let age = adv1_min(ArbiterPolicy::AgeBased);
    let (b, rest) = bottleneck_vs_rest(&age, &params);
    let prio = adv1_min(ArbiterPolicy::TransitPriority);
    let (bp, restp) = bottleneck_vs_rest(&prio, &params);
    assert!(
        b / rest > bp / restp,
        "age arbitration should serve the exit router better than transit \
         priority: {:.3} vs {:.3}",
        b / rest,
        bp / restp
    );
}

#[test]
fn arbitration_does_not_change_uniform_throughput_materially() {
    // Under UN at moderate load the arbiter barely matters — accepted
    // load must match offered for all three policies.
    for arbiter in [
        ArbiterPolicy::RoundRobin,
        ArbiterPolicy::TransitPriority,
        ArbiterPolicy::AgeBased,
    ] {
        let r = run_single(&tiny_config(
            MechanismSpec::Min,
            arbiter,
            PatternSpec::Uniform,
            0.3,
        ));
        assert!(
            (r.throughput - 0.3).abs() < 0.03,
            "{arbiter:?}: UN throughput {}",
            r.throughput
        );
    }
}

#[test]
fn congestion_signal_variants_all_deliver() {
    use dragonfly_core::df_engine::{EngineConfig, Network, NullSink};
    use dragonfly_core::df_routing::{CongestionSignal, GlobalMisrouting, InTransit};
    use dragonfly_core::df_topology::{Arrangement, NodeId, Topology};

    let params = DragonflyParams::figure1();
    for signal in [
        CongestionSignal::VcCredits,
        CongestionSignal::OutputBuffer,
        CongestionSignal::Combined,
    ] {
        let topo = Topology::new(params, Arrangement::Palmtree);
        let cfg = EngineConfig::paper(ArbiterPolicy::TransitPriority, 3);
        let policy = InTransit::new(topo.clone(), &cfg, GlobalMisrouting::Mm, 5)
            .with_signal(signal);
        let mut net = Network::new(topo, cfg, policy, NullSink);
        let mut pattern =
            PatternSpec::AdvConsecutive { spread: None }.build(params, 11);
        let mut offered = 0u64;
        for _ in 0..400 {
            for n in 0..params.nodes() {
                if n % 3 == 0 {
                    let src = NodeId(n);
                    let dst = pattern.dest(src);
                    if net.offer(src, dst) {
                        offered += 1;
                    }
                }
            }
            net.step();
        }
        assert!(net.drain(200_000), "{signal:?} must drain");
        assert_eq!(net.counters().delivered_packets, offered, "{signal:?}");
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
    use dragonfly_core::df_routing::{GlobalMisrouting, InTransit};
    use dragonfly_core::df_topology::{
        Arrangement, GroupId, NodeId, PortLayout, RouterId, Topology,
    };

    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let me = RouterId(0);

    // A destination group reached through *another* router of group 0, so
    // router 0's minimal port is local (and congestible) while both of its
    // own global ports stay idle — every CRG escape candidate is open.
    let behind_me = [
        topo.global_port_target_group(me, 0),
        topo.global_port_target_group(me, 1),
    ];
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
    let mut lru = InTransit::new(topo, &cfg, GlobalMisrouting::Crg, 5).with_lru_escape();
    let hdr = PacketHeader { id: 0, src: NodeId(0), dst, size: 8, gen_cycle: 0 };
    let info = RouteInfo::new(GroupId(0));
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
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/interference_advc_vs_uniform.json"
    );
    let mut spec = ScenarioSpec::load(path).expect("load interference scenario");
    spec.mechanisms = vec![
        MechanismSpec::ObliviousCrg,
        MechanismSpec::InTransitCrg,
        MechanismSpec::InTransitLru,
    ];
    df_bench::quick_scenario(&mut spec);
    let result = run_scenario(&spec, &[DEFAULT_SEEDS[0]]).expect("run scenario");

    let aggressor = |label: &str| {
        let m = result
            .mechanisms
            .iter()
            .find(|m| m.mechanism == label)
            .unwrap_or_else(|| panic!("mechanism {label} missing"));
        let j = m
            .per_job
            .iter()
            .find(|j| j.job == "aggressor")
            .expect("aggressor job present");
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
