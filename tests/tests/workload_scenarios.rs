//! Workload-subsystem integration tests: scenario serde round-trips
//! (property-based), cross-run determinism, trace record/replay
//! bit-identity, burst injection, and the bundled interference scenario's
//! qualitative claim.

use dragonfly_core::df_traffic::JobTraffic;
use dragonfly_core::df_workload::{
    InjectionSpec, JobSpec, PlacementSpec, ScenarioSpec, TraceRecorder,
};
use dragonfly_core::prelude::*;
use proptest::prelude::*;

fn scenario_path(name: &str) -> String {
    format!("{}/../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

// ---------------------------------------------------------------------
// Property-based serde round-trips
// ---------------------------------------------------------------------

fn arb_leaf_pattern() -> BoxedStrategy<PatternSpec> {
    prop_oneof![
        Just(PatternSpec::Uniform),
        (1u32..3).prop_map(|offset| PatternSpec::Adversarial { offset }),
        Just(PatternSpec::AdvConsecutive { spread: None }),
        (1u32..4).prop_map(|s| PatternSpec::AdvConsecutive { spread: Some(s) }),
        Just(PatternSpec::GroupLocal),
        Just(PatternSpec::Permutation),
        (0u32..8, 1u32..10)
            .prop_map(|(hot, f)| PatternSpec::HotSpot { hot, fraction: f as f64 / 10.0 }),
    ]
    .boxed()
}

fn arb_pattern() -> BoxedStrategy<PatternSpec> {
    // One level of nesting on each side of a mix is enough to exercise
    // the recursive serde path (mix-of-mixes included).
    let mix = |inner: BoxedStrategy<PatternSpec>| {
        (inner.prop_map(Box::new), arb_leaf_pattern().prop_map(Box::new), 1u32..10).prop_map(
            |(first, second, f)| PatternSpec::Mix {
                first,
                second,
                first_fraction: f as f64 / 10.0,
            },
        )
    };
    prop_oneof![arb_leaf_pattern(), mix(arb_leaf_pattern()), mix(mix(arb_leaf_pattern()).boxed()),]
        .boxed()
}

fn arb_injection() -> BoxedStrategy<InjectionSpec> {
    prop_oneof![
        Just(InjectionSpec::Bernoulli),
        Just(InjectionSpec::Poisson),
        (2u32..200, 0u32..200)
            .prop_map(|(b, i)| InjectionSpec::OnOff { mean_burst: b as f64, mean_idle: i as f64 }),
        Just(InjectionSpec::Trace { path: "traces/run.json".into() }),
    ]
    .boxed()
}

fn arb_placement() -> BoxedStrategy<PlacementSpec> {
    let slots = prop_oneof![Just(None), Just(Some(vec![0u32])), Just(Some(vec![0u32, 2])),];
    prop_oneof![
        (0u32..4, 1u32..4, slots.boxed()).prop_map(|(first, count, slots)| {
            PlacementSpec::ConsecutiveGroups { first, count, slots }
        }),
        prop::collection::vec(0u32..19, 1..4)
            .prop_map(|groups| PlacementSpec::Groups { groups, slots: None }),
        (1u32..5).prop_map(|count| PlacementSpec::RandomGroups { count, slots: None }),
        (1u32..50, 0u32..2).prop_map(|(count, o)| PlacementSpec::RoundRobinRouters {
            count,
            offset: if o == 0 { None } else { Some(o) },
        }),
        prop::collection::vec(0u32..342, 1..6).prop_map(|nodes| PlacementSpec::Nodes { nodes }),
    ]
    .boxed()
}

fn arb_scenario() -> BoxedStrategy<ScenarioSpec> {
    (
        prop::collection::vec((arb_placement(), arb_pattern(), arb_injection(), 1u32..8), 1..4),
        1u32..4,
        any::<u64>(),
    )
        .prop_map(|(jobs, n_mech, _salt)| ScenarioSpec {
            name: "prop".into(),
            params: DragonflyParams::small(),
            arrangement: Arrangement::Palmtree,
            mechanisms: MechanismSpec::PAPER_SET[..n_mech as usize].to_vec(),
            arbiter: ArbiterPolicy::TransitPriority,
            warmup_cycles: 100,
            measure_cycles: 200,
            telemetry: None,
            jobs: jobs
                .into_iter()
                .enumerate()
                .map(|(i, (placement, pattern, injection, load))| JobSpec {
                    name: format!("job{i}"),
                    placement,
                    pattern,
                    injection,
                    load: load as f64 / 10.0,
                    start_cycle: if i % 2 == 0 { None } else { Some(50) },
                    stop_cycle: if i % 3 == 0 { None } else { Some(250) },
                })
                .collect(),
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pattern_spec_roundtrips(spec in arb_pattern()) {
        let json = serde_json::to_string(&spec).unwrap();
        let back: PatternSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(spec, back);
    }

    // A whole-machine pattern is the job generator at the identity
    // placement — by construction today; this is the guard for any later
    // shortcut on the whole-machine side.
    #[test]
    fn whole_machine_pattern_is_the_job_generator_at_the_identity_placement(
        spec in arb_leaf_pattern(),
        seed in any::<u64>(),
    ) {
        let params = DragonflyParams::small();
        let all = PlacementSpec::ConsecutiveGroups { first: 0, count: params.groups(), slots: None }
            .resolve(&params, 0)
            .unwrap();
        let mut machine = spec.build(params, seed);
        let mut job =
            JobTraffic::new(&spec, all.nodes.clone(), all.group_size, &params, seed).unwrap();
        for i in 0..200u32 {
            let src = NodeId(i.wrapping_mul(97) % params.nodes());
            prop_assert_eq!(machine.dest(src), job.dest(src), "draw {}", i);
        }
    }

    #[test]
    fn scenario_spec_roundtrips(spec in arb_scenario()) {
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        prop_assert_eq!(spec, back);
    }
}

// ---------------------------------------------------------------------
// Determinism and trace replay
// ---------------------------------------------------------------------

/// A fast one-job scenario on the Figure 1 network.
fn fig1_scenario(injection: InjectionSpec, load: f64) -> ScenarioSpec {
    ScenarioSpec {
        name: "fig1".into(),
        params: DragonflyParams::figure1(),
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![MechanismSpec::InTransitMm],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 500,
        measure_cycles: 1_500,
        telemetry: None,
        jobs: vec![JobSpec {
            name: "app".into(),
            placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 3, slots: None },
            pattern: PatternSpec::Uniform,
            injection,
            load,
            start_cycle: None,
            stop_cycle: None,
        }],
    }
}

#[test]
fn same_seed_gives_identical_per_job_results() {
    let spec = fig1_scenario(InjectionSpec::Bernoulli, 0.3);
    let a = run_cell(&spec, MechanismSpec::InTransitMm, 5, CellOptions::default()).unwrap();
    let b = run_cell(&spec, MechanismSpec::InTransitMm, 5, CellOptions::default()).unwrap();
    assert_eq!(a.delivered_packets, b.delivered_packets);
    assert_eq!(a.injected_per_router, b.injected_per_router);
    assert_eq!(a.per_job.len(), b.per_job.len());
    for (x, y) in a.per_job.iter().zip(&b.per_job) {
        assert_eq!(x.offered, y.offered);
        assert_eq!(x.throughput, y.throughput);
        assert_eq!(x.avg_latency, y.avg_latency);
        assert_eq!(x.delivered_packets, y.delivered_packets);
        assert_eq!(x.fairness.cov, y.fairness.cov);
    }
}

#[test]
fn recorded_trace_replays_bit_identically() {
    // Record a Bernoulli run, replay the trace through the Trace
    // injection process, and require identical delivery behaviour.
    let spec = fig1_scenario(InjectionSpec::Bernoulli, 0.35);
    let mut recorders = vec![TraceRecorder::new()];
    let opts = CellOptions { recorders: Some(&mut recorders), ..Default::default() };
    let original = run_cell(&spec, MechanismSpec::InTransitMm, 9, opts).unwrap();
    let recorder = &recorders[0];
    assert!(!recorder.events().is_empty());

    let dir = std::env::temp_dir().join("df_workload_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay.json");
    recorder.save(path.to_str().unwrap()).unwrap();

    let mut replay_spec = spec.clone();
    replay_spec.jobs[0].injection =
        InjectionSpec::Trace { path: path.to_str().unwrap().to_string() };
    let replayed =
        run_cell(&replay_spec, MechanismSpec::InTransitMm, 9, CellOptions::default()).unwrap();

    assert_eq!(original.delivered_packets, replayed.delivered_packets);
    assert_eq!(original.injected_per_router, replayed.injected_per_router);
    assert_eq!(original.avg_latency, replayed.avg_latency);
    assert_eq!(original.per_job[0].offered, replayed.per_job[0].offered);
    assert_eq!(original.per_job[0].throughput, replayed.per_job[0].throughput);
}

#[test]
fn on_off_bursts_deliver_comparable_load_with_spikier_queueing() {
    // The on/off process at the same mean load must deliver a comparable
    // packet volume but with visibly burstier queueing (higher latency).
    let smooth = run_cell(
        &fig1_scenario(InjectionSpec::Bernoulli, 0.3),
        MechanismSpec::InTransitMm,
        3,
        CellOptions::default(),
    )
    .unwrap();
    let bursty = run_cell(
        &fig1_scenario(InjectionSpec::OnOff { mean_burst: 40.0, mean_idle: 120.0 }, 0.3),
        MechanismSpec::InTransitMm,
        3,
        CellOptions::default(),
    )
    .unwrap();
    let ratio = bursty.per_job[0].throughput / smooth.per_job[0].throughput;
    assert!((0.7..1.3).contains(&ratio), "load ratio {ratio}");
    assert!(
        bursty.per_job[0].avg_latency > smooth.per_job[0].avg_latency,
        "bursts should queue more: {} vs {}",
        bursty.per_job[0].avg_latency,
        smooth.per_job[0].avg_latency
    );
}

// ---------------------------------------------------------------------
// Bundled scenarios
// ---------------------------------------------------------------------

#[test]
fn bundled_scenarios_parse_and_validate() {
    for name in ["paper_job_anatomy.json", "interference_advc_vs_uniform.json"] {
        let spec = ScenarioSpec::load(&scenario_path(name)).unwrap();
        spec.validate(1).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn advc_aggressor_starves_victim_under_in_transit_crg_only() {
    // The bundled interference scenario's claim, at a reduced cycle
    // budget: under In-Trns-CRG the ADVc aggressor measurably depresses
    // the uniform victim below its offered load, while Obl-CRG serves
    // the victim in full.
    let mut spec = ScenarioSpec::load(&scenario_path("interference_advc_vs_uniform.json")).unwrap();
    spec.warmup_cycles = 2_000;
    spec.measure_cycles = 4_000;
    let run = |mechanism| run_cell(&spec, mechanism, 11, CellOptions::default()).unwrap();
    let adaptive = run(MechanismSpec::InTransitCrg);
    let oblivious = run(MechanismSpec::ObliviousCrg);

    let victim_adaptive = &adaptive.per_job[1];
    let victim_oblivious = &oblivious.per_job[1];
    assert_eq!(victim_adaptive.job, "victim");
    // Obl-CRG: accepted ≈ offered.
    assert!(
        victim_oblivious.throughput > victim_oblivious.offered * 0.97,
        "oblivious victim starved: {} vs offered {}",
        victim_oblivious.throughput,
        victim_oblivious.offered
    );
    // In-Trns-CRG: measurably depressed.
    assert!(
        victim_adaptive.throughput < victim_adaptive.offered * 0.92,
        "adaptive victim not depressed: {} vs offered {}",
        victim_adaptive.throughput,
        victim_adaptive.offered
    );
    assert!(
        victim_adaptive.throughput < victim_oblivious.throughput * 0.95,
        "no cross-mechanism gap: {} vs {}",
        victim_adaptive.throughput,
        victim_oblivious.throughput
    );
    // The aggressor's own bottleneck nodes are starved too (per-node
    // fairness collapses only under the adaptive mechanism).
    assert!(adaptive.per_job[0].fairness.cov > 2.0 * oblivious.per_job[0].fairness.cov);
    // Per-job latency percentiles: present, ordered, and consistent with
    // the mean for both jobs under both mechanisms.
    for (label, run) in [("adaptive", &adaptive), ("oblivious", &oblivious)] {
        for job in &run.per_job {
            let p50 = job.p50_latency.unwrap_or_else(|| panic!("{label}/{}: no p50", job.job));
            let p95 = job.p95_latency.unwrap();
            let p99 = job.p99_latency.unwrap();
            assert!(
                p50 <= p95 && p95 <= p99,
                "{label}/{}: percentiles out of order ({p50}, {p95}, {p99})",
                job.job
            );
            // The mean cannot exceed p99 by more than one histogram bin.
            assert!(
                p99 as f64 + 50.0 >= job.avg_latency,
                "{label}/{}: p99 {p99} vs mean {}",
                job.job,
                job.avg_latency
            );
        }
    }
    // The congested victim's tail must be visibly heavier under the
    // adaptive mechanism that starves it.
    assert!(
        victim_adaptive.p99_latency.unwrap() > victim_oblivious.p99_latency.unwrap(),
        "starved victim should show a heavier latency tail"
    );
}
