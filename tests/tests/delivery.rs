//! End-to-end delivery guarantees across every mechanism × pattern
//! combination: everything offered below saturation is delivered, the
//! latency accounting identity holds, and runs are reproducible.

use dragonfly_core::df_engine::{ArbiterPolicy, DeliveredRecord, Network};
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_topology::{Arrangement, DragonflyParams, NodeId, Topology};
use dragonfly_core::df_traffic::PatternSpec;
use dragonfly_core::prelude::*;
use integration_tests::tiny_config;

/// Drive a network directly (no measurement protocol): inject a burst
/// under `pattern`, then drain completely, returning all records.
fn burst_and_drain(
    mechanism: MechanismSpec,
    pattern: &PatternSpec,
    arbiter: ArbiterPolicy,
    packets_per_node: u32,
) -> Vec<DeliveredRecord> {
    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let cfg =
        dragonfly_core::df_engine::EngineConfig::paper(arbiter, mechanism.required_local_vcs());
    let policy = mechanism.build(topo.clone(), &cfg, 9);
    let recs = std::cell::RefCell::new(Vec::new());
    let mut offered = 0u64;
    {
        let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
        let mut net = Network::new(topo, cfg, policy, sink);
        let mut traffic = pattern.build(params, 21);
        for _round in 0..packets_per_node {
            for n in 0..params.nodes() {
                let src = NodeId(n);
                let dst = traffic.dest(src);
                if net.offer(src, dst) {
                    offered += 1;
                }
            }
            net.step();
        }
        assert!(
            net.drain(300_000),
            "{} under {} must drain (in flight: {})",
            mechanism.label(),
            pattern.label(),
            net.in_flight()
        );
    }
    let recs = recs.into_inner();
    assert_eq!(recs.len() as u64, offered, "every offered packet delivered");
    recs
}

fn patterns() -> Vec<PatternSpec> {
    vec![
        PatternSpec::Uniform,
        PatternSpec::Adversarial { offset: 1 },
        PatternSpec::AdvConsecutive { spread: None },
        PatternSpec::GroupLocal,
        PatternSpec::Permutation,
    ]
}

#[test]
fn every_mechanism_delivers_every_pattern() {
    for mechanism in std::iter::once(MechanismSpec::Min).chain(MechanismSpec::PAPER_SET) {
        for pattern in patterns() {
            let recs = burst_and_drain(mechanism, &pattern, ArbiterPolicy::RoundRobin, 4);
            for r in &recs {
                assert_eq!(
                    r.latency(),
                    r.traversal + r.waits.total(),
                    "latency identity broken for {} / {}",
                    mechanism.label(),
                    pattern.label()
                );
                assert!(r.traversal >= r.min_traversal);
            }
        }
    }
}

#[test]
fn delivery_under_transit_priority_and_age() {
    for arbiter in [ArbiterPolicy::TransitPriority, ArbiterPolicy::AgeBased] {
        for mechanism in [MechanismSpec::InTransitMm, MechanismSpec::SourceCrg] {
            burst_and_drain(mechanism, &PatternSpec::AdvConsecutive { spread: None }, arbiter, 5);
        }
    }
}

#[test]
fn destinations_are_correct() {
    // The engine must deliver each packet to the node the pattern chose.
    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let cfg = dragonfly_core::df_engine::EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
    let policy = MechanismSpec::Min.build(topo.clone(), &cfg, 1);
    let recs = std::cell::RefCell::new(Vec::new());
    {
        let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
        let mut net = Network::new(topo, cfg, policy, sink);
        let expected: Vec<(NodeId, NodeId)> = (0..params.nodes())
            .map(|n| (NodeId(n), NodeId((n * 13 + 5) % params.nodes())))
            .filter(|(s, d)| s != d)
            .collect();
        for &(s, d) in &expected {
            assert!(net.offer(s, d));
        }
        assert!(net.drain(100_000));
    }
    for r in recs.into_inner() {
        assert_eq!((r.header.src.0 * 13 + 5) % 72, r.header.dst.0);
    }
}

#[test]
fn run_protocol_is_deterministic() {
    let cfg = tiny_config(
        MechanismSpec::InTransitMm,
        ArbiterPolicy::TransitPriority,
        PatternSpec::AdvConsecutive { spread: None },
        0.35,
    );
    let a = run_single(&cfg);
    let b = run_single(&cfg);
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.avg_latency, b.avg_latency);
    assert_eq!(a.injected_per_router, b.injected_per_router);
}

#[test]
fn mixed_pattern_delivers() {
    let mix = PatternSpec::Mix {
        first: Box::new(PatternSpec::Uniform),
        second: Box::new(PatternSpec::AdvConsecutive { spread: None }),
        first_fraction: 0.5,
    };
    burst_and_drain(MechanismSpec::InTransitMm, &mix, ArbiterPolicy::RoundRobin, 4);
}
