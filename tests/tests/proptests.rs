//! Property-based tests spanning the crates: topology invariants under
//! arbitrary parameters, traffic-pattern contracts (each generator
//! against its exact destination law), and metric algebra.

use dragonfly_core::df_stats::FairnessReport;
use dragonfly_core::df_topology::{
    channel_load, Arrangement, DragonflyParams, GroupId, NodeId, PathClass, Port, PortTarget,
    RouterId, RouterTraffic, Topology,
};
use dragonfly_core::df_traffic::{JobTraffic, PatternSpec};
use dragonfly_core::df_workload::PlacementSpec;
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
        // The bottleneck, derived (ROADMAP item 6(b)): the router whose
        // global channels carry the most of the ADVc law's minimal load.
        let advc = PatternSpec::AdvConsecutive { spread: None }.build(params, 0);
        let gamma =
            channel_load(&topo, &advc.router_traffic(&params, |_| 1.0), PathClass::Minimal);
        let radix = params.radix() as usize;
        let global = |r: RouterId| -> f64 {
            (0..params.h).map(|j| gamma[r.idx() * radix + params.global_port(j).idx()]).sum()
        };
        for g in (0..params.groups()).map(GroupId) {
            prop_assert!(topo.advc_overlap_is_total(g));
            let b = topo.advc_bottleneck(g);
            prop_assert_eq!(b.local_index(&params), params.a - 1);
            let busiest = (0..params.a)
                .map(|i| RouterId::from_group_local(&params, g, i))
                .max_by(|x, y| global(*x).total_cmp(&global(*y)))
                .unwrap();
            prop_assert_eq!(busiest, b);
            // All of the group's inter-group load: every one of its
            // `a·p` nodes sends everything to other groups.
            let outflow = f64::from(params.a * params.p);
            prop_assert!((global(b) - outflow).abs() <= 1e-9 * outflow, "{}", global(b));
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

/// Upper `α` quantile of the standard normal, by the tail branch of
/// Acklam's rational approximation (relative error below 1.2·10⁻⁹ for
/// `α < 0.02425`).
fn normal_upper_quantile(alpha: f64) -> f64 {
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    assert!(alpha > 0.0 && alpha < 0.02425, "tail branch only: α = {alpha}");
    let q = (-2.0 * alpha.ln()).sqrt();
    let num = C.iter().fold(0.0, |acc, c| acc * q + c);
    let den = D.iter().fold(0.0, |acc, d| acc * q + d) * q + 1.0;
    -num / den
}

/// Critical value of χ² with `df` degrees of freedom at upper tail `α`,
/// by the Wilson–Hilferty cube-root normal approximation (no statistics
/// crate is vendored): `df·(1 − 2/(9df) + z·√(2/(9df)))³`.
fn chi2_critical(df: f64, alpha: f64) -> f64 {
    let v = 2.0 / (9.0 * df);
    df * (1.0 - v + normal_upper_quantile(alpha) * v.sqrt()).powi(3)
}

#[test]
fn chi2_critical_values_match_the_tables() {
    // Tabulated: z(1e-3) = 3.0902, z(1e-6) = 4.7534; χ²(50, 1e-3) = 86.661,
    // χ²(10, 1e-3) = 29.588 (Wilson–Hilferty reads 0.2 % and 0.6 % high).
    assert!((normal_upper_quantile(1e-3) - 3.0902).abs() < 1e-4);
    assert!((normal_upper_quantile(1e-6) - 4.7534).abs() < 1e-4);
    assert!((chi2_critical(50.0, 1e-3) / 86.661 - 1.0).abs() < 3e-3);
    assert!((chi2_critical(10.0, 1e-3) / 29.588 - 1.0).abs() < 1e-2);
}

/// Every pattern variant, mixes and hot spots included, for the χ²
/// goodness-of-fit test below.
fn every_pattern() -> Vec<PatternSpec> {
    vec![
        PatternSpec::Uniform,
        PatternSpec::Adversarial { offset: 1 },
        PatternSpec::AdvConsecutive { spread: None },
        PatternSpec::GroupLocal,
        PatternSpec::Permutation,
        PatternSpec::HotSpot { hot: 3, fraction: 0.3 },
        PatternSpec::Mix {
            first: Box::new(PatternSpec::AdvConsecutive { spread: Some(2) }),
            second: Box::new(PatternSpec::HotSpot { hot: 1, fraction: 0.5 }),
            first_fraction: 0.4,
        },
    ]
}

/// Placements on the figure1 machine: the whole machine (virtual groups
/// of `a·p = 8`), consecutive groups at one slot per router (groups of
/// 4), and round-robin over 24 routers from router 5 (groups of `a = 4`).
fn every_placement() -> Vec<PlacementSpec> {
    vec![
        PlacementSpec::ConsecutiveGroups { first: 0, count: 9, slots: None },
        PlacementSpec::ConsecutiveGroups { first: 2, count: 4, slots: Some(vec![0]) },
        PlacementSpec::RoundRobinRouters { count: 24, offset: Some(5) },
    ]
}

/// Draws per source node in the goodness-of-fit test.
const DRAWS: u32 = 20_000;
/// Source nodes tested per pattern × placement: virtual indices 0, 3 (the
/// hot node of the hot-spot pattern) and the last.
const SOURCES: usize = 3;
/// Family-wise α of one proptest case, split evenly (Bonferroni) over its
/// `patterns × placements × SOURCES` = 7 × 3 × 3 = 63 χ² tests.
const FAMILY_ALPHA: f64 = 1e-6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Each generator draws from its stated law
    /// (`JobTraffic::for_each_dest`): the counts of `DRAWS` destinations
    /// per source node pass Pearson's χ² test against the law, at a
    /// per-test α of `FAMILY_ALPHA / 63`, and a draw outside the law's
    /// support fails outright.
    #[test]
    fn generators_draw_from_their_stated_laws(seed in any::<u64>()) {
        let params = DragonflyParams::figure1();
        let (patterns, placements) = (every_pattern(), every_placement());
        let tests = (patterns.len() * placements.len() * SOURCES) as f64;
        for placement in &placements {
            let at = placement.resolve(&params, 1).unwrap();
            let last = at.nodes.len() - 1;
            for pattern in &patterns {
                let mut traffic =
                    JobTraffic::new(pattern, at.nodes.clone(), at.group_size, &params, seed)
                        .unwrap();
                for src in [0, 3, last].map(|v| at.nodes[v]) {
                    let mut law = vec![0.0; params.nodes() as usize];
                    traffic.for_each_dest(src, |d, p| law[d.idx()] += p);
                    let total: f64 = law.iter().sum();
                    prop_assert!((total - 1.0).abs() < 1e-12, "law sums to {}", total);
                    let mut seen = vec![0u32; law.len()];
                    for _ in 0..DRAWS {
                        let d = traffic.dest(src);
                        prop_assert!(
                            law[d.idx()] > 0.0,
                            "{:?} on {:?}: {:?} -> {:?} is outside the law", pattern, placement, src, d
                        );
                        seen[d.idx()] += 1;
                    }
                    let support = law.iter().filter(|&&p| p > 0.0).count();
                    if support < 2 {
                        continue;
                    }
                    let chi2: f64 = law
                        .iter()
                        .zip(&seen)
                        .filter(|(&p, _)| p > 0.0)
                        .map(|(&p, &o)| {
                            let e = p * f64::from(DRAWS);
                            (f64::from(o) - e).powi(2) / e
                        })
                        .sum();
                    let critical = chi2_critical((support - 1) as f64, FAMILY_ALPHA / tests);
                    prop_assert!(
                        chi2 <= critical,
                        "{:?} on {:?} from {:?}: χ² = {} > {} over {} bins",
                        pattern, placement, src, chi2, critical, support
                    );
                }
            }
        }
    }
}
