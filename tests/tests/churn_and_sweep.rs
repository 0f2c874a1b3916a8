//! Job-churn and sweep-harness integration tests: staggered
//! start/stop-cycle determinism (property-based), slot reuse by a later
//! arrival, per-job measurement-window normalization, and the bundled
//! sweep grid's expansion and table determinism.

use dragonfly_core::df_workload::{InjectionSpec, JobSpec, PlacementSpec, ScenarioSpec};
use dragonfly_core::prelude::*;
use proptest::prelude::*;

fn scenario_path(name: &str) -> String {
    format!("{}/../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A figure1-scale scenario whose three jobs have configurable lifetimes.
/// Jobs 0/1 share the *same* placement (groups 0..3) so lifetimes must be
/// disjoint; job 2 runs on groups 4..6 for the whole run.
fn churn_scenario(lifetimes: [(Option<u64>, Option<u64>); 2]) -> ScenarioSpec {
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
        name: "churn".into(),
        params: DragonflyParams::figure1(),
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![MechanismSpec::InTransitMm],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 300,
        measure_cycles: 1_200,
        telemetry: None,
        jobs: vec![
            job("early", 0, 3, lifetimes[0]),
            job("late", 0, 3, lifetimes[1]),
            job("steady", 4, 2, (None, None)),
        ],
    }
}

// ---------------------------------------------------------------------
// Churn determinism (property-based)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A scenario with staggered start/stop jobs must serialize to a
    // bit-identical RunResult across repeated same-seed runs: churn
    // events (claim/release, mid-run arrivals) may not introduce any
    // order- or allocation-dependent behaviour.
    #[test]
    fn staggered_lifetimes_are_bit_deterministic(
        handover in 200u64..1_300,
        tail in 1u64..300,
        seed in 0u64..1_000,
    ) {
        let spec = churn_scenario([
            (None, Some(handover)),
            (Some(handover), Some(handover + tail)),
        ]);
        spec.validate(seed).unwrap();
        let a = run_cell(&spec, MechanismSpec::InTransitMm, seed, CellOptions::default()).unwrap();
        let b = run_cell(&spec, MechanismSpec::InTransitMm, seed, CellOptions::default()).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Slot reuse and per-job windows
// ---------------------------------------------------------------------

#[test]
fn departed_jobs_slots_are_reusable_by_a_later_arrival() {
    // `early` occupies groups 0..3 until cycle 900; `late` claims the
    // exact same nodes from 900 on. Both must inject and deliver.
    let spec = churn_scenario([(None, Some(900)), (Some(900), None)]);
    spec.validate(1).unwrap();
    let r = run_cell(&spec, MechanismSpec::InTransitMm, 1, CellOptions::default()).unwrap();

    let early = &r.per_job[0];
    let late = &r.per_job[1];
    // Measurement window is [300, 1500): each tenant is live for 600
    // cycles of it, and rates are normalized over those cycles.
    assert_eq!(early.active_cycles, 600);
    assert_eq!(late.active_cycles, 600);
    assert!(early.delivered_packets > 100, "early delivered {}", early.delivered_packets);
    assert!(late.delivered_packets > 100, "late delivered {}", late.delivered_packets);
    // Offered ≈ configured load for both tenants despite partial
    // lifetimes (the window normalization at work).
    for job in [early, late] {
        assert!(
            (job.offered - 0.25).abs() < 0.05,
            "{}: offered {} vs configured 0.25",
            job.job,
            job.offered
        );
    }
    // The steady job never stopped: full window, full accounting.
    assert_eq!(r.per_job[2].active_cycles, 1_200);
}

#[test]
fn boundary_packets_attribute_to_the_departed_tenant() {
    // Single-node handover replayed from two one-event traces: job a
    // offers its final packet on the last cycle it is live, job b starts
    // that same cycle on the same node. The straggler must be credited
    // to a, not b.
    let dir = std::env::temp_dir().join(format!("df-handover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let job = |name: &str, cycle: u64, (start_cycle, stop_cycle)| {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, format!(r#"[{{"cycle":{cycle},"src":0,"dst":70}}]"#)).unwrap();
        JobSpec {
            name: name.into(),
            placement: PlacementSpec::Nodes { nodes: vec![0] },
            pattern: PatternSpec::Uniform,
            injection: InjectionSpec::Trace { path: path.to_str().unwrap().into() },
            load: 0.0,
            start_cycle,
            stop_cycle,
        }
    };
    let spec = ScenarioSpec {
        name: "handover".into(),
        params: DragonflyParams::figure1(),
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![MechanismSpec::Min],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 0,
        measure_cycles: 3_000,
        telemetry: None,
        jobs: vec![job("a", 99, (None, Some(100))), job("b", 100, (Some(100), None))],
    };
    let r = run_cell(&spec, MechanismSpec::Min, 1, CellOptions::default()).expect("run");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(r.per_job[0].delivered_packets, 1, "a's straggler misattributed");
    assert_eq!(r.per_job[1].delivered_packets, 1, "b's packet misattributed");
}

#[test]
fn validate_accepts_disjoint_and_rejects_overlapping_lifetimes() {
    let ok = churn_scenario([(None, Some(600)), (Some(600), None)]);
    ok.validate(1).unwrap();
    let bad = churn_scenario([(None, Some(601)), (Some(600), None)]);
    let err = bad.validate(1).unwrap_err();
    assert!(err.contains("overlapping"), "{err}");
}

// ---------------------------------------------------------------------
// Bundled sweep grid
// ---------------------------------------------------------------------

#[test]
fn bundled_sweep_parses_and_expands() {
    let spec = SweepSpec::load(&scenario_path("sweep_unfairness_grid.json")).unwrap();
    let cells = spec.expand().unwrap();
    // 3 loads × 2 placements × 2 patterns × 3 mechanisms.
    assert_eq!(cells.len(), 36);
    for cell in &cells {
        assert_eq!(cell.scenario.mechanisms.len(), 1);
        cell.scenario.validate(1).unwrap_or_else(|e| panic!("cell {}: {e}", cell.index));
    }
    // Axis coordinates cover the spec's ranges.
    assert!(cells.iter().any(|c| c.load == Some(0.9)
        && c.placement.as_deref() == Some("spread")
        && c.pattern.as_deref() == Some("ADVc")));
}

#[test]
fn sweep_with_churn_cells_is_deterministic() {
    // A sweep whose base scenario churns: the harness must still produce
    // an identical table across same-seed runs.
    let sweep = SweepSpec {
        name: "churn-sweep".into(),
        base: churn_scenario([(None, Some(900)), (Some(900), None)]),
        loads: Some(vec![0.15, 0.3]),
        load_jobs: Some(vec!["steady".into()]),
        placements: None,
        patterns: None,
        pattern_jobs: None,
        mechanisms: None,
    };
    let a = run_sweep(&sweep, &[5]).unwrap();
    let b = run_sweep(&sweep, &[5]).unwrap();
    assert_eq!(a.to_csv(), b.to_csv());
    // 2 cells × 1 seed × (network + 3 jobs).
    assert_eq!(a.rows.len(), 2 * 4);
    // Churn lifetimes survive the expansion into every cell.
    let early_rows: Vec<&SweepRow> = a.rows.iter().filter(|r| r.scope == "early").collect();
    assert_eq!(early_rows.len(), 2);
    assert!(early_rows.iter().all(|r| r.active_cycles == 600));
}
