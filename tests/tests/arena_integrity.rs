//! Packet-arena integrity and determinism: after any full drain the slab
//! holds zero live slots (no leaks), slot reuse keeps steady-state runs
//! allocation-free, and — property-tested across mechanisms, patterns,
//! loads and seeds — slab reuse is deterministic: the same seed yields a
//! bit-identical serialized `RunResult`. Also covers the one-record slot
//! (a packet's decision and its accounting are one record, and writes to
//! one slot never reach its neighbour), the
//! intrusive free list (LIFO reuse without growth, links threaded
//! through vacant slots), and the engine's audit held after every cycle
//! of a run from load ramp to drain (work lists against a full scan,
//! packet and credit conservation — docs/DETERMINISM.md, "The audit").

use dragonfly_core::df_engine::{
    ArbiterPolicy, Decision, EngineConfig, Network, NullSink, Packet, PacketArena, PacketId,
    RouteInfo,
};
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::prelude::*;
use proptest::prelude::*;

fn figure1_net(
    mechanism: MechanismSpec,
) -> Network<Box<dyn dragonfly_core::df_engine::RoutingPolicy>, NullSink> {
    let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
    let cfg = EngineConfig::paper(ArbiterPolicy::TransitPriority, 4);
    let policy = mechanism.build(topo.clone(), &cfg, 7);
    Network::new(topo, cfg, policy, NullSink)
}

#[test]
fn drained_network_leaves_no_live_arena_slots() {
    for mechanism in [
        MechanismSpec::Min,
        MechanismSpec::ObliviousCrg,
        MechanismSpec::SourceCrg,
    ] {
        let mut net = figure1_net(mechanism);
        let nodes = net.topology().params().nodes();
        for round in 0..30u32 {
            for n in 0..nodes {
                if (n + round) % 4 == 0 {
                    net.offer(NodeId(n), NodeId((n * 13 + round + 1) % nodes));
                }
            }
            net.step();
        }
        assert!(net.drain(100_000), "{mechanism:?} must drain");
        assert_eq!(
            net.arena_live(),
            0,
            "{mechanism:?}: arena leaked packets after drain"
        );
        assert_eq!(net.in_flight(), 0);
    }
}

#[test]
fn arena_tracks_in_flight_exactly() {
    // A packet holds an arena slot from injection to delivery; before
    // that it waits in its source queue. Offering to every other node
    // each cycle outruns the 8-cycle injection link, so both terms of
    // the sum are exercised.
    let mut net = figure1_net(MechanismSpec::InTransitMm);
    let nodes = net.topology().params().nodes();
    let mut peak_queued = 0;
    for round in 0..50u32 {
        for n in (0..nodes).step_by(2) {
            net.offer(NodeId(n), NodeId((n + round * 5 + 1) % nodes));
        }
        net.step();
        // `in_flight == arena_live + source_queued`, every live slot
        // reachable exactly once: the audit's population step.
        net.audit();
        peak_queued = peak_queued.max(net.source_queued());
    }
    assert!(peak_queued > 0, "source queues never backed up");
    assert!(net.drain(100_000));
    assert_eq!(net.arena_live(), 0);
    assert_eq!(net.source_queued(), 0);
}

#[test]
fn steady_state_reuses_slots_without_growth() {
    // Two identical waves separated by a drain: the second must fit
    // entirely in slots freed by the first.
    let mut net = figure1_net(MechanismSpec::Min);
    let nodes = net.topology().params().nodes();
    fn wave(
        net: &mut Network<Box<dyn dragonfly_core::df_engine::RoutingPolicy>, NullSink>,
        nodes: u32,
    ) {
        for round in 0..25u32 {
            for n in (0..nodes).step_by(3) {
                net.offer(NodeId(n), NodeId((n + 11 + round) % nodes));
            }
            net.step();
        }
        assert!(net.drain(50_000));
    }
    wave(&mut net, nodes);
    let warm = net.arena_capacity();
    wave(&mut net, nodes);
    assert_eq!(
        net.arena_capacity(),
        warm,
        "second wave allocated fresh slots instead of reusing the slab"
    );
}

fn probe_packet(seq: u64) -> Packet {
    Packet::new(seq, NodeId(0), NodeId(1), 8, seq * 10, GroupId(0))
}

#[test]
fn one_record_holds_decision_and_accounting() {
    // Whatever is written through a handle must read back from that
    // packet and no other, through the field accessors and the copy
    // `Network::packet` hands out alike.
    let mut arena = PacketArena::new();
    let a = arena.insert(probe_packet(1));
    let b = arena.insert(probe_packet(2));
    // Insertion keeps the packet as built.
    assert_eq!(arena.get(a).eligible_at, 10);
    assert_eq!(arena.get(b).eligible_at, 20);
    assert!(arena.decision(a).is_none());
    // Writes on one slot must not bleed into the neighbour.
    arena.get_mut(a).eligible_at = 555;
    let d = Decision { out_port: Port(3), out_vc: 1, info: RouteInfo::new(GroupId(0)) };
    arena.set_decision(a, d);
    arena.get_mut(a).waits.global = 99;
    arena.get_mut(a).traversal = 7;
    assert_eq!(arena.get(b).eligible_at, 20);
    assert!(arena.decision(b).is_none());
    assert_eq!(arena.get(b).waits.global, 0);
    assert_eq!(arena.decision(a), Some(d));
    let copy = *arena.get(a);
    assert_eq!(copy.header.id, 1);
    assert_eq!(copy.eligible_at, 555);
    assert_eq!(copy.waits.global, 99);
    assert_eq!(copy.traversal, 7);
    assert_eq!(copy.decision.unwrap().out_vc, 1);
    // Taking the decision (a grant) leaves the accounting alone.
    assert_eq!(arena.get_mut(a).decision.take().unwrap().out_port, Port(3));
    assert!(arena.decision(a).is_none());
    assert_eq!(arena.get(a).waits.global, 99);
}

#[test]
fn intrusive_free_list_reuses_lifo_without_growth() {
    // The free links live inside the vacant hot slots; reuse must be
    // LIFO and must never grow the slab while vacancies exist, across
    // interleaved insert/free waves.
    let mut arena = PacketArena::new();
    let ids: Vec<PacketId> = (0..6).map(|i| arena.insert(probe_packet(i))).collect();
    assert_eq!(arena.capacity(), 6);
    arena.free(ids[2]);
    arena.free(ids[0]);
    arena.free(ids[5]);
    assert_eq!(arena.live(), 3);
    // LIFO: most recently freed first.
    assert_eq!(arena.insert(probe_packet(10)), ids[5]);
    assert_eq!(arena.insert(probe_packet(11)), ids[0]);
    // Freeing while the chain is non-empty pushes on top.
    arena.free(ids[3]);
    assert_eq!(arena.insert(probe_packet(12)), ids[3]);
    assert_eq!(arena.insert(probe_packet(13)), ids[2]);
    assert_eq!(arena.capacity(), 6, "reuse must not grow the slab");
    // Chain exhausted: the next insert grows.
    assert_eq!(arena.insert(probe_packet(14)), PacketId(6));
    assert_eq!(arena.capacity(), 7);
    assert_eq!(arena.live(), 7);
    // Reused slots carry the fresh packet, not stale state.
    assert_eq!(arena.get(ids[3]).header.id, 12);
    assert_eq!(arena.get(ids[3]).eligible_at, 120);
    assert!(arena.decision(ids[3]).is_none());
}

#[test]
fn audit_holds_every_cycle_from_ramp_to_drain() {
    // At every cycle of a figure1-scale run (load ramp, steady state, and
    // drain) the audit must pass: visiting exactly the entities on the
    // active-node / active-router / ready-output work lists is equivalent
    // to the full 0..routers / 0..nodes scans the lists replaced — every
    // unflagged entity is verifiably idle — and no packet or credit is
    // lost on the way.
    for mechanism in [MechanismSpec::Min, MechanismSpec::InTransitCrg] {
        let mut net = figure1_net(mechanism);
        let nodes = net.topology().params().nodes();
        net.audit();
        for round in 0..60u32 {
            for n in 0..nodes {
                if (n + round) % 3 == 0 {
                    net.offer(NodeId(n), NodeId((n * 17 + round + 1) % nodes));
                }
            }
            net.step();
            net.audit();
        }
        for _ in 0..3000 {
            if net.in_flight() == 0 {
                break;
            }
            net.step();
            net.audit();
        }
        assert_eq!(net.in_flight(), 0, "{mechanism:?} must drain");
    }
}

// Slab reuse must not leak nondeterminism into results: running the
// exact same configuration twice gives a bit-identical RunResult
// (compared as serialized JSON, so every float and counter matters).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn same_seed_bit_identical_run_result(
        mech_idx in 0usize..4,
        pattern_idx in 0usize..3,
        load in 1u32..7,
        seed in 1u64..500,
    ) {
        let mechanism = [
            MechanismSpec::Min,
            MechanismSpec::ObliviousRrg,
            MechanismSpec::SourceCrg,
            MechanismSpec::InTransitCrg,
        ][mech_idx];
        let pattern = [
            PatternSpec::Uniform,
            PatternSpec::Adversarial { offset: 1 },
            PatternSpec::AdvConsecutive { spread: None },
        ][pattern_idx].clone();
        let mut cfg = SimConfig::small(
            mechanism,
            ArbiterPolicy::TransitPriority,
            pattern,
            load as f64 / 10.0,
        );
        cfg.params = DragonflyParams::figure1();
        cfg.warmup_cycles = 300;
        cfg.measure_cycles = 700;
        cfg.seed = seed;
        let a = serde_json::to_string(&run_single(&cfg)).unwrap();
        let b = serde_json::to_string(&run_single(&cfg)).unwrap();
        prop_assert_eq!(a, b, "same seed must reproduce bit-identically");
    }
}
