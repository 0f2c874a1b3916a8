//! Shard-count-invariance suite: the group-sharded engine must deliver
//! **exactly** what the serial engine delivers — the same record stream
//! in the same order and the same counters — for every shard count,
//! across routing mechanisms, arbiters and generated offer streams
//! (property-based), with the sharded engine's audit held after every
//! cycle of a loaded run and the beyond-paper h=7 machine pinned
//! serial-vs-sharded.
//!
//! The differential drives the engines directly: one offer stream is
//! generated once and replayed into a serial `Network` and into a
//! `ShardedNetwork` per shard count. Every number a run reports —
//! per-job attribution included — is a function of the delivered
//! records and the counters, so equal streams mean equal results. On
//! any mismatch the offending pair is written to
//! `target/shard-diagnostics/` (the CI workflow archives that
//! directory), so a failure leaves the full diff behind.

use dragonfly_core::df_engine::{DeliveredRecord, EngineConfig, Network, NullSink, ShardedNetwork};
use dragonfly_core::df_traffic::BernoulliInjector;
use dragonfly_core::prelude::*;
use proptest::prelude::*;
use std::cell::RefCell;
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

/// Arbiter axis: all three output arbiters (the age arbiter is the one
/// that reads the packet itself at arbitration time).
const ARBITERS: [ArbiterPolicy; 3] =
    [ArbiterPolicy::RoundRobin, ArbiterPolicy::TransitPriority, ArbiterPolicy::AgeBased];

/// Cycles after the offers stop within which every packet must land.
const DRAIN_LIMIT: u64 = 200_000;

fn diagnostics_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/shard-diagnostics")
}

/// Write the mismatching pair for post-mortem (CI archives the
/// directory) and return both paths for the panic message.
fn archive_mismatch(tag: &str, shards: u32, serial: &str, sharded: &str) -> (PathBuf, PathBuf) {
    let dir = diagnostics_dir();
    std::fs::create_dir_all(&dir).expect("create shard-diagnostics dir");
    let serial_path = dir.join(format!("{tag}-serial.txt"));
    let sharded_path = dir.join(format!("{tag}-shards{shards}.txt"));
    std::fs::write(&serial_path, serial).expect("write serial diagnostic");
    std::fs::write(&sharded_path, sharded).expect("write sharded diagnostic");
    (serial_path, sharded_path)
}

/// A generated offer stream on the Figure 1 machine: Bernoulli firing at
/// `load` inside on/off bursts, a set of nodes that never offer, and
/// destinations from `pattern` (the hot spot among them).
#[derive(Debug, Clone)]
struct OfferStream {
    pattern: PatternSpec,
    load: f64,
    /// Every node offers during the first `burst_on` cycles of each
    /// `burst_on + burst_off` period and is silent for the rest.
    burst_on: u64,
    burst_off: u64,
    silent: Vec<u32>,
    cycles: u64,
    seed: u64,
}

impl OfferStream {
    /// The offers of every cycle, in offer order.
    fn generate(&self) -> Vec<Vec<(NodeId, NodeId)>> {
        let params = DragonflyParams::figure1();
        let packet_size = EngineConfig::default().packet_size;
        let mut traffic = self.pattern.build(params, self.seed);
        let mut injector = BernoulliInjector::new(self.load, packet_size, self.seed ^ 0x5eed);
        (0..self.cycles)
            .map(|cycle| {
                if cycle % (self.burst_on + self.burst_off) >= self.burst_on {
                    return Vec::new();
                }
                (0..params.nodes())
                    .filter(|n| !self.silent.contains(n) && injector.fire(*n))
                    .map(|n| (NodeId(n), traffic.dest(NodeId(n))))
                    .collect()
            })
            .collect()
    }
}

/// What one engine made of an offer stream: every `offer`'s answer, the
/// delivered records in delivery order, and the counters after draining.
#[derive(PartialEq)]
struct Outcome {
    accepted: Vec<bool>,
    records: Vec<DeliveredRecord>,
    counters: String,
}

impl Outcome {
    fn dump(&self) -> String {
        let mut out = format!("{}\naccepted {:?}\n", self.counters, self.accepted);
        for r in &self.records {
            out.push_str(&format!("{r:?}\n"));
        }
        out
    }
}

/// Replay `offers` into `net`, drain it, audit it and report.
macro_rules! replay {
    ($net:expr, $offers:expr, $records:expr) => {{
        let mut net = $net;
        let mut accepted = Vec::new();
        for cycle in $offers {
            for &(src, dst) in cycle {
                accepted.push(net.offer(src, dst));
            }
            net.step();
        }
        assert!(net.drain(DRAIN_LIMIT), "the network must drain");
        net.audit();
        let counters = format!("{:?}", net.counters());
        drop(net);
        Outcome { accepted, records: $records.take(), counters }
    }};
}

/// Run `offers` on the engine with `shards` shards (1 = the serial
/// `Network`) under `mechanism` × `arbiter`, routing seed `seed`.
fn run_engine(
    mechanism: MechanismSpec,
    arbiter: ArbiterPolicy,
    seed: u64,
    offers: &[Vec<(NodeId, NodeId)>],
    shards: u32,
) -> Outcome {
    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let cfg = EngineConfig::paper(arbiter, mechanism.required_local_vcs());
    let policy = mechanism.build(topo.clone(), &cfg, seed);
    let records = RefCell::new(Vec::new());
    let sink = |r: &DeliveredRecord| records.borrow_mut().push(*r);
    if shards == 1 {
        replay!(Network::new(topo, cfg, policy, sink), offers, records)
    } else {
        replay!(ShardedNetwork::new(topo, cfg, policy, sink, shards), offers, records)
    }
}

/// Pattern axis: uniform, the two adversarial patterns, and a hot spot
/// on a generated node taking 10–59 % of the traffic.
fn pattern() -> impl Strategy<Value = PatternSpec> {
    prop_oneof![
        Just(PatternSpec::Uniform),
        Just(PatternSpec::Adversarial { offset: 1 }),
        Just(PatternSpec::AdvConsecutive { spread: None }),
        (0u32..72, 10u32..60).prop_map(|(hot, percent)| PatternSpec::HotSpot {
            hot,
            fraction: f64::from(percent) / 100.0,
        }),
    ]
}

fn offer_stream() -> impl Strategy<Value = OfferStream> {
    (
        pattern(),
        50u32..800,
        (1u64..200, 0u64..200),
        (prop::collection::vec(0u32..72, 0..24), 100u64..700, any::<u64>()),
    )
        .prop_map(|(pattern, load_permille, (burst_on, burst_off), (silent, cycles, seed))| {
            OfferStream {
                pattern,
                load: f64::from(load_permille) / 1_000.0,
                burst_on,
                burst_off,
                silent,
                cycles,
                seed,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The invariant: for a random mechanism x arbiter x offer
    // stream x routing seed, the record stream and counters are
    // identical across shard counts {1, 2, 3, #groups}. Serial (S=1) is
    // the baseline; any divergence archives the offending pair under
    // target/shard-diagnostics/.
    #[test]
    fn run_results_are_byte_identical_across_shard_counts(
        mech_idx in 0usize..MECHANISMS.len(),
        arb_idx in 0usize..ARBITERS.len(),
        stream in offer_stream(),
        seed in 0u64..1_000,
    ) {
        let (mechanism, arbiter) = (MECHANISMS[mech_idx], ARBITERS[arb_idx]);
        let offers = stream.generate();
        let baseline = run_engine(mechanism, arbiter, seed, &offers, 1);
        prop_assert!(!baseline.records.is_empty(), "the stream must carry traffic: {stream:?}");
        for &s in &SHARD_COUNTS {
            let sharded = run_engine(mechanism, arbiter, seed, &offers, s);
            if baseline != sharded {
                let (mech, pattern) = (mechanism.label(), stream.pattern.label());
                let tag = format!("{mech}-{arbiter:?}-{pattern}-seed{seed}");
                let (a, b) = archive_mismatch(&tag, s, &baseline.dump(), &sharded.dump());
                prop_assert!(
                    false,
                    "shard-count invariance violated at {s} shards ({tag}, {stream:?}); \
                     diagnostics: {} vs {}",
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
/// one step past the paper's largest h=6 evaluation. A `SimConfig` on
/// the bundled scenario's machine, mechanism, arbiter and aggressor
/// traffic must run to completion on the sharded engine and reproduce
/// the serial result byte-for-byte.
#[test]
fn beyond_paper_h7_scenario_is_shard_invariant() {
    let path = format!("{}/../scenarios/beyond_paper_h7.json", env!("CARGO_MANIFEST_DIR"));
    let spec = ScenarioSpec::load(&path).expect("load beyond_paper_h7");
    assert_eq!((spec.params.p, spec.params.a, spec.params.h), (7, 14, 7));
    assert_eq!(spec.params.groups(), 99);
    assert_eq!(spec.params.nodes(), 9_702);
    let aggressor = &spec.jobs[0];
    let run = |shards| {
        let mut cfg = SimConfig::small(
            spec.mechanisms[0],
            spec.arbiter,
            aggressor.pattern.clone(),
            aggressor.load,
        );
        (cfg.params, cfg.arrangement) = (spec.params, spec.arrangement);
        // Trimmed protocol: this is a determinism pin, not a measurement.
        (cfg.warmup_cycles, cfg.measure_cycles) = (100, 200);
        cfg.seed = DEFAULT_SEEDS[0];
        cfg.shards = Some(shards);
        run_single(&cfg)
    };
    let result = run(1);
    // The run carried real traffic (not a vacuous empty-network match).
    assert!(
        result.delivered_packets > 1_000,
        "h=7 run delivered too little ({}) to be meaningful",
        result.delivered_packets
    );
    let serial = serde_json::to_string(&result).expect("serialize RunResult");
    let sharded = serde_json::to_string(&run(2)).expect("serialize RunResult");
    if serial != sharded {
        let (a, b) = archive_mismatch("beyond-paper-h7", 2, &serial, &sharded);
        panic!(
            "h=7 sharded run diverged from serial; diagnostics: {} vs {}",
            a.display(),
            b.display()
        );
    }
}

/// A scenario file written when specs carried a `shards` field still
/// parses: the field is ignored, the scenario runs serial, and both the
/// summary bytes and the service cache key equal those of the same spec
/// without it.
#[test]
fn a_legacy_shards_field_parses_and_changes_nothing() {
    use df_service::{cache_key, JobPayload};
    let spec = |extra: &str| {
        ScenarioSpec::from_json(&format!(
            r#"{{
              "name": "legacy",
              "params": {{ "p": 2, "a": 4, "h": 2 }},
              "arrangement": "Palmtree",
              "mechanisms": ["in-transit-mm"],
              "arbiter": "TransitPriority",
              "warmup_cycles": 200,
              "measure_cycles": 400,{extra}
              "jobs": [{{
                "name": "app",
                "placement": {{ "placement": "consecutive_groups", "first": 0, "count": 5 }},
                "pattern": {{ "pattern": "adv_consecutive" }},
                "injection": {{ "process": "bernoulli" }},
                "load": 0.5
              }}]
            }}"#
        ))
        .expect("parses")
    };
    let (legacy, plain) = (spec(r#" "shards": 4,"#), spec(""));
    assert_eq!(legacy, plain);
    let summary = |spec: &ScenarioSpec| {
        let result = run_scenario(spec, &[DEFAULT_SEEDS[0]]).expect("run scenario");
        serde_json::to_string_pretty(&result.summary()).expect("serialize summary")
    };
    assert_eq!(summary(&legacy), summary(&plain));
    let key = |spec: ScenarioSpec| {
        let payload = JobPayload::Scenario(spec);
        cache_key(payload.kind(), &payload.spec_json().unwrap(), &DEFAULT_SEEDS)
    };
    assert_eq!(key(legacy), key(plain));
}
