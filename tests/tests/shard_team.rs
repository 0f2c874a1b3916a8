//! The sharded engine's worker team, from outside the engine crate: the
//! serial and sharded networks must agree on their population after
//! *every* step (cross-shard traffic is re-homed inside the step, not
//! left in transit), and a grid whose cells each run a team — `run_grid`
//! over `SimConfig { shards: Some(2) }` — must complete with the serial
//! results. The team's panic and thread-lifetime behaviour is
//! in `shard_team_panic.rs`, alone in its binary so it can count threads.

use dragonfly_core::df_engine::{EngineConfig, Network, NullSink, ShardedNetwork};
use dragonfly_core::df_traffic::BernoulliInjector;
use dragonfly_core::prelude::*;

/// Step a serial `Network` and an S=2 `ShardedNetwork` through 500
/// cycles of saturating ADVc traffic under in-transit adaptive routing
/// and compare their populations after every step. A flit or credit
/// left between shards past the end of a step would show as a missing
/// arena packet or wheel event on the sharded side.
#[test]
fn sharded_population_matches_serial_after_every_step() {
    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let cfg = EngineConfig::paper(ArbiterPolicy::TransitPriority, 3);
    let policy = |seed| MechanismSpec::InTransitMm.build(topo.clone(), &cfg, seed);
    let mut serial = Network::new(topo.clone(), cfg, policy(7), NullSink);
    let mut sharded = ShardedNetwork::new(topo.clone(), cfg, policy(7), NullSink, 2);
    assert_eq!(sharded.shard_count(), 2);

    let mut traffic = PatternSpec::AdvConsecutive { spread: None }.build(params, 11);
    let mut injector = BernoulliInjector::new(0.6, cfg.packet_size, 13);
    for cycle in 0..500u64 {
        for n in 0..params.nodes() {
            if injector.fire(n) {
                let (src, dst) = (NodeId(n), traffic.dest(NodeId(n)));
                assert_eq!(serial.offer(src, dst), sharded.offer(src, dst), "cycle {cycle}");
            }
        }
        serial.step();
        sharded.step();
        assert_eq!(sharded.in_flight(), serial.in_flight(), "in_flight, cycle {cycle}");
        // `in_flight == arena_live + source_queued` is part of the audit,
        // on the serial engine and per shard; with in_flight equal, equal
        // arenas mean equal source queues too.
        assert_eq!(sharded.arena_live(), serial.arena_live(), "arena_live, cycle {cycle}");
        assert_eq!(
            sharded.events_pending(),
            serial.events_pending(),
            "events_pending, cycle {cycle}"
        );
        serial.audit();
        sharded.audit();
    }
    assert!(serial.in_flight() > 100, "the lockstep run must carry load");
    assert_eq!(sharded.counters().delivered_packets, serial.counters().delivered_packets);
    assert!(serial.counters().global_phits(&params) > 0, "traffic must cross groups");
}

/// `run_grid` fans (cell, seed) units out over every core, and with
/// `shards: Some(2)` each unit's simulator owns a two-worker team: more
/// runnable threads than cores, teams created and dropped throughout.
/// The grid must complete and serialize to the serial results.
#[test]
fn run_grid_over_sharded_cells_matches_the_serial_results() {
    let grid = |shards| -> Vec<SimConfig> {
        [MechanismSpec::Min, MechanismSpec::InTransitMm]
            .into_iter()
            .flat_map(|mechanism| {
                [0.1, 0.3, 0.5].map(|load| {
                    let mut cfg = SimConfig::small(
                        mechanism,
                        ArbiterPolicy::TransitPriority,
                        PatternSpec::Uniform,
                        load,
                    );
                    cfg.params = DragonflyParams::figure1();
                    (cfg.warmup_cycles, cfg.measure_cycles) = (100, 400);
                    cfg.shards = Some(shards);
                    cfg
                })
            })
            .collect()
    };
    let seeds = [3, 4];
    let serial = run_grid(&grid(1), &seeds);
    let sharded = run_grid(&grid(2), &seeds);
    assert_eq!(serial.len(), 2 * 3);
    assert_eq!(serde_json::to_string(&sharded).unwrap(), serde_json::to_string(&serial).unwrap());
}
