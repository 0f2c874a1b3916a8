//! Shard-count-invariance suite: the group-sharded engine must produce
//! **byte-identical** serialized results for every shard count, under
//! churn schedules and across routing mechanisms (property-based), with
//! the sharded engine's audit held after every cycle of a loaded run and
//! the beyond-paper h=7 machine pinned serial-vs-sharded.
//!
//! On any mismatch the offending serial/sharded result pair is written
//! to `target/shard-diagnostics/` (the CI workflow archives that
//! directory), so a failure leaves the full JSON diff behind instead of
//! only a digest.

use dragonfly_core::df_workload::{InjectionSpec, JobSpec, PlacementSpec, ScenarioSpec};
use dragonfly_core::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

/// Shard counts exercised against the serial baseline on the Figure 1
/// machine: 2 (uneven 5/4 group split), 3 (exact), and 9 (= #groups,
/// one group per shard — the maximal decomposition).
const SHARD_COUNTS: [u32; 3] = [2, 3, 9];

/// Mechanism axis for the property: one per decision style — fully
/// deterministic minimal, RNG-per-packet oblivious, source-adaptive
/// (PiggyBack begin-cycle state), and in-transit adaptive (per-hop RNG).
const MECHANISMS: [MechanismSpec; 4] = [
    MechanismSpec::Min,
    MechanismSpec::ObliviousCrg,
    MechanismSpec::SourceRrg,
    MechanismSpec::InTransitMm,
];

fn diagnostics_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/shard-diagnostics")
}

/// Write the mismatching result pair for post-mortem (CI archives the
/// directory) and return both paths for the panic message.
fn archive_mismatch(tag: &str, shards: u32, serial: &str, sharded: &str) -> (PathBuf, PathBuf) {
    let dir = diagnostics_dir();
    std::fs::create_dir_all(&dir).expect("create shard-diagnostics dir");
    let serial_path = dir.join(format!("{tag}-serial.json"));
    let sharded_path = dir.join(format!("{tag}-shards{shards}.json"));
    std::fs::write(&serial_path, serial).expect("write serial diagnostic");
    std::fs::write(&sharded_path, sharded).expect("write sharded diagnostic");
    (serial_path, sharded_path)
}

/// A Figure 1-scale churn scenario: jobs 0/1 time-share groups 0..3
/// around `handover`, job 2 runs groups 4..6 for the whole run. The
/// spec's own `shards` stays `None`; each run below pins its engine
/// explicitly.
fn churn_scenario(
    mechanism: MechanismSpec,
    handover: u64,
    tail: u64,
) -> ScenarioSpec {
    let job = |name: &str, first, count, (start_cycle, stop_cycle)| JobSpec {
        name: name.into(),
        placement: PlacementSpec::ConsecutiveGroups { first, count, slots: None },
        pattern: PatternSpec::Uniform,
        injection: InjectionSpec::Bernoulli,
        load: 0.25,
        start_cycle,
        stop_cycle,
    };
    ScenarioSpec {
        name: "shard-churn".into(),
        params: DragonflyParams::figure1(),
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![mechanism],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 200,
        measure_cycles: 800,
        telemetry: None,
        shards: None,
        jobs: vec![
            job("early", 0, 3, (None, Some(handover))),
            job("late", 0, 3, (Some(handover), Some(handover + tail))),
            job("steady", 4, 2, (None, None)),
        ],
    }
}

/// Run `spec` under `mechanism`/`seed` with an explicit shard count and
/// serialize the full `RunResult` (per-job tables, per-router injection
/// vectors, fairness floats — everything).
fn run_serialized(
    spec: &ScenarioSpec,
    mechanism: MechanismSpec,
    seed: u64,
    shards: u32,
) -> String {
    let mut spec = spec.clone();
    spec.shards = Some(shards);
    let result = run_cell(&spec, mechanism, seed, CellOptions::default()).expect("run scenario");
    serde_json::to_string(&result).expect("serialize RunResult")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The tentpole invariant: for a random churn schedule x mechanism x
    // seed, the serialized RunResult is byte-identical across shard
    // counts {1, 2, 3, #groups}. Serial (S=1) is the baseline; any
    // divergence archives the offending pair under target/shard-diagnostics/.
    #[test]
    fn run_results_are_byte_identical_across_shard_counts(
        handover in 100u64..900,
        tail in 1u64..200,
        seed in 0u64..1_000,
        mech_idx in 0usize..MECHANISMS.len(),
    ) {
        let mechanism = MECHANISMS[mech_idx];
        let spec = churn_scenario(mechanism, handover, tail);
        spec.validate(seed).unwrap();
        let baseline = run_serialized(&spec, mechanism, seed, 1);
        for &s in &SHARD_COUNTS {
            let sharded = run_serialized(&spec, mechanism, seed, s);
            if baseline != sharded {
                let tag = format!(
                    "churn-{}-h{handover}-t{tail}-seed{seed}",
                    mechanism.label()
                );
                let (a, b) = archive_mismatch(&tag, s, &baseline, &sharded);
                prop_assert!(
                    false,
                    "shard-count invariance violated at {s} shards \
                     (mechanism {}, handover {handover}, tail {tail}, seed {seed}); \
                     diagnostics: {} vs {}",
                    mechanism.label(),
                    a.display(),
                    b.display()
                );
            }
        }
    }
}

/// The audit, mid-run, on the sharded engine: after every cycle of a
/// loaded 3-shard run the team has handed everything back, shard cycles
/// are aligned, cross-shard outboxes and per-shard record queues are
/// empty, every shard's work lists and route cache match a full scan, and
/// packets and credits are conserved — the credit ledger across the
/// global links that join the shards (docs/DETERMINISM.md, "The audit").
#[test]
fn sharded_audit_holds_mid_run() {
    use dragonfly_core::df_engine::{ArbiterPolicy, EngineConfig, NullSink, ShardedNetwork};
    use dragonfly_core::df_topology::Topology;

    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let cfg = EngineConfig::paper(ArbiterPolicy::TransitPriority, 3);
    let policy = MechanismSpec::InTransitMm.build(topo.clone(), &cfg, 7);
    let mut net = ShardedNetwork::new(topo, cfg, policy, NullSink, 3);
    for cycle in 0..600u64 {
        for n in 0..params.nodes() {
            if (n as u64).wrapping_mul(2654435761).wrapping_add(cycle) % 5 == 0 {
                net.offer(NodeId(n), NodeId((n + 31) % params.nodes()));
            }
        }
        net.step();
        net.audit();
    }
    assert!(net.in_flight() > 0, "the audited run must actually carry load");
}

/// The beyond-paper machine: h=7 (p=7, a=14 — 99 groups, 9702 nodes),
/// one step past the paper's largest h=6 evaluation. The bundled
/// scenario must run to completion under the sharded engine and
/// reproduce the serial result byte-for-byte.
#[test]
fn beyond_paper_h7_scenario_is_shard_invariant() {
    let path = format!(
        "{}/../scenarios/beyond_paper_h7.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut spec = ScenarioSpec::load(&path).expect("load beyond_paper_h7");
    assert_eq!((spec.params.p, spec.params.a, spec.params.h), (7, 14, 7));
    assert_eq!(spec.params.groups(), 99);
    assert_eq!(spec.params.nodes(), 9_702);
    // Trimmed protocol: this is a determinism pin, not a measurement.
    spec.warmup_cycles = 100;
    spec.measure_cycles = 200;
    spec.validate(DEFAULT_SEEDS[0]).expect("valid spec");
    let mechanism = spec.mechanisms[0];
    let mut serial_spec = spec.clone();
    serial_spec.shards = Some(1);
    let result = run_cell(&serial_spec, mechanism, DEFAULT_SEEDS[0], CellOptions::default())
        .expect("serial h=7 run");
    // The run carried real traffic (not a vacuous empty-network match).
    assert!(
        result.delivered_packets > 1_000,
        "h=7 run delivered too little ({}) to be meaningful",
        result.delivered_packets
    );
    let serial = serde_json::to_string(&result).expect("serialize RunResult");
    let sharded = run_serialized(&spec, mechanism, DEFAULT_SEEDS[0], 2);
    if serial != sharded {
        let (a, b) = archive_mismatch("beyond-paper-h7", 2, &serial, &sharded);
        panic!(
            "h=7 sharded run diverged from serial; diagnostics: {} vs {}",
            a.display(),
            b.display()
        );
    }
}

/// `shards` is an optional spec field: legacy scenario files without it
/// parse to `None` (serial / `DF_TEST_SHARDS` defaulting), and an
/// explicit value round-trips.
#[test]
fn shards_field_is_optional_and_roundtrips() {
    let spec = churn_scenario(MechanismSpec::Min, 500, 100);
    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).unwrap();
    assert_eq!(back.shards, None);
    let mut sharded = spec;
    sharded.shards = Some(4);
    let back = ScenarioSpec::from_json(&sharded.to_json()).unwrap();
    assert_eq!(back.shards, Some(4));
}
