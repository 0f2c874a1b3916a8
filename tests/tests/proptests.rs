//! Property-based tests spanning the crates: topology invariants under
//! arbitrary parameters, traffic-pattern contracts, and metric algebra.

use dragonfly_core::df_stats::FairnessReport;
use dragonfly_core::df_topology::{
    channel_load, Arrangement, DragonflyParams, GroupId, NodeId, PathClass, Port, PortTarget,
    RouterId, RouterTraffic, Topology,
};
use dragonfly_core::df_traffic::PatternSpec;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = DragonflyParams> {
    // Keep sizes small enough for exhaustive per-case sweeps.
    (1u32..4, 2u32..7, 1u32..4).prop_map(|(p, a, h)| DragonflyParams::new(p, a, h))
}

fn arb_arrangement() -> impl Strategy<Value = Arrangement> {
    prop_oneof![
        Just(Arrangement::Palmtree),
        Just(Arrangement::Consecutive),
        any::<u64>().prop_map(|seed| Arrangement::Random { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn global_wiring_is_an_involution(params in arb_params(), arr in arb_arrangement()) {
        let topo = Topology::new(params, arr);
        for r in topo.routers() {
            for j in 0..params.h {
                let (pr, pj) = topo.global_peer(r, j);
                prop_assert_eq!(topo.global_peer(pr, pj), (r, j));
            }
        }
    }

    #[test]
    fn every_ordered_group_pair_has_one_link(params in arb_params(), arr in arb_arrangement()) {
        let topo = Topology::new(params, arr);
        let g = params.groups();
        let mut seen = vec![0u32; (g * g) as usize];
        for r in topo.routers() {
            for j in 0..params.h {
                let dst = topo.global_port_target_group(r, j);
                let src = r.group(&params);
                prop_assert_ne!(src, dst);
                seen[(src.0 * g + dst.0) as usize] += 1;
            }
        }
        for a in 0..g {
            for b in 0..g {
                prop_assert_eq!(seen[(a * g + b) as usize], u32::from(a != b));
            }
        }
    }

    #[test]
    fn port_wiring_is_symmetric(params in arb_params(), arr in arb_arrangement()) {
        let topo = Topology::new(params, arr);
        for r in topo.routers() {
            for q in 0..params.radix() {
                match topo.port_target(r, Port(q)) {
                    PortTarget::Node(n) => {
                        prop_assert_eq!(n.router(&params), r);
                    }
                    PortTarget::Router { router, port } => {
                        prop_assert_ne!(router, r);
                        match topo.port_target(router, port) {
                            PortTarget::Router { router: rr, port: pp } => {
                                prop_assert_eq!((rr, pp), (r, Port(q)));
                            }
                            PortTarget::Node(_) => prop_assert!(false, "asymmetric"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn min_hops_is_at_most_diameter(params in arb_params(), arr in arb_arrangement()) {
        let topo = Topology::new(params, arr);
        let nodes = params.nodes();
        for s in (0..nodes).step_by(7) {
            for d in (0..nodes).step_by(11) {
                let h = topo.min_hops(NodeId(s), NodeId(d));
                prop_assert!(h <= 3);
                let (l, g) = topo.min_path_links(NodeId(s), NodeId(d));
                prop_assert_eq!(l + g, h);
                prop_assert!(g <= 1);
            }
        }
    }

    #[test]
    fn exit_to_group_owns_the_link(params in arb_params(), arr in arb_arrangement()) {
        let topo = Topology::new(params, arr);
        for g in 0..params.groups() {
            for d in 0..params.groups() {
                if g == d { continue; }
                let (exit, j) = topo.exit_to_group(GroupId(g), GroupId(d));
                prop_assert_eq!(exit.group(&params), GroupId(g));
                prop_assert_eq!(topo.global_port_target_group(exit, j), GroupId(d));
            }
        }
    }

    #[test]
    fn advc_bottleneck_total_overlap_under_palmtree(params in arb_params()) {
        let topo = Topology::new(params, Arrangement::Palmtree);
        for g in 0..params.groups() {
            prop_assert!(topo.advc_overlap_is_total(GroupId(g)));
            let b = topo.advc_bottleneck(GroupId(g));
            prop_assert_eq!(b.local_index(&params), params.a - 1);
        }
    }

    // Every minimal path between groups crosses exactly one global
    // channel, a channel of its source group: the loads on a group's
    // global channels sum to the traffic leaving the group.
    #[test]
    fn minimal_global_load_is_a_groups_outflow(
        params in arb_params(),
        arr in arb_arrangement(),
        seed in any::<u64>(),
    ) {
        let topo = Topology::new(params, arr);
        // An arbitrary matrix, an eighth of it zero: a hash of the pair.
        let traffic = RouterTraffic::from_fn(&params, |s, d| {
            let x = (u64::from(s.0) << 32 | u64::from(d.0)) ^ seed;
            (x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 61) as f64 * 0.25
        });
        let gamma = channel_load(&topo, &traffic, PathClass::Minimal);
        let radix = params.radix() as usize;
        for g in (0..params.groups()).map(GroupId) {
            let mut global = 0.0;
            let mut outflow = 0.0;
            for r in topo.routers().filter(|r| r.group(&params) == g) {
                for j in 0..params.h {
                    global += gamma[r.idx() * radix + params.global_port(j).idx()];
                }
                for d in topo.routers().filter(|d| d.group(&params) != g) {
                    outflow += traffic.rate(r, d);
                }
            }
            prop_assert!(
                (global - outflow).abs() <= 1e-9 * outflow.max(1.0),
                "group {:?}: global load {} vs outflow {}", g, global, outflow
            );
        }
    }

    #[test]
    fn patterns_produce_valid_destinations(
        params in arb_params(),
        seed in any::<u64>(),
        pattern_idx in 0usize..5,
    ) {
        let specs = [
            PatternSpec::Uniform,
            PatternSpec::Adversarial { offset: 1 },
            PatternSpec::AdvConsecutive { spread: None },
            PatternSpec::GroupLocal,
            PatternSpec::Permutation,
        ];
        let mut t = specs[pattern_idx].build(params, seed);
        for n in (0..params.nodes()).step_by(5) {
            let d = t.dest(NodeId(n));
            prop_assert!(d.0 < params.nodes());
        }
    }

    #[test]
    fn advc_offsets_in_range(params in arb_params(), seed in any::<u64>()) {
        let mut t = PatternSpec::AdvConsecutive { spread: None }.build(params, seed);
        let g = params.groups();
        for n in (0..params.nodes()).step_by(3) {
            let src = NodeId(n);
            let d = t.dest(src);
            let off = (d.group(&params).0 + g - src.group(&params).0) % g;
            prop_assert!(off >= 1 && off <= params.h);
        }
    }

    #[test]
    fn fairness_metric_algebra(counts in prop::collection::vec(0u64..100_000, 1..64)) {
        let r = FairnessReport::from_u64(&counts);
        prop_assert!(r.min <= r.mean + 1e-9);
        prop_assert!(r.mean <= r.max + 1e-9);
        prop_assert!(r.cov >= 0.0);
        prop_assert!(r.jain > 0.0 && r.jain <= 1.0 + 1e-12);
        if counts.iter().all(|&c| c == counts[0]) {
            prop_assert!(r.cov < 1e-9);
            prop_assert!((r.jain - 1.0).abs() < 1e-9);
        }
        if r.min > 0.0 {
            prop_assert!(r.max_min_ratio >= 1.0 - 1e-12);
            prop_assert!(r.max_min_ratio.is_finite());
        }
    }

    #[test]
    fn scaling_counts_preserves_relative_fairness(
        counts in prop::collection::vec(1u64..10_000, 2..32),
        k in 2u64..10,
    ) {
        let base = FairnessReport::from_u64(&counts);
        let scaled: Vec<u64> = counts.iter().map(|&c| c * k).collect();
        let s = FairnessReport::from_u64(&scaled);
        prop_assert!((base.cov - s.cov).abs() < 1e-9);
        prop_assert!((base.jain - s.jain).abs() < 1e-9);
        prop_assert!((base.max_min_ratio - s.max_min_ratio).abs() < 1e-9);
    }
}

#[test]
fn node_router_group_indexing_consistent() {
    let params = DragonflyParams::paper();
    for n in (0..params.nodes()).step_by(97) {
        let node = NodeId(n);
        let router = node.router(&params);
        let group = node.group(&params);
        assert_eq!(router.group(&params), group);
        assert_eq!(NodeId::from_router_slot(&params, router, node.slot(&params)), node);
        assert_eq!(RouterId::from_group_local(&params, group, router.local_index(&params)), router);
    }
}
