//! Analytical throughput bounds from the paper (§III): MIN routing is
//! capped at `1/(a·p)` under ADV+1 and `h/(a·p)` under ADVc; non-minimal
//! routing escapes both caps. Each cap is computed from the topology's
//! channel loads (`df_topology::channel_load`) of the pattern's own
//! destination law (`JobTraffic::router_traffic`), checked against the
//! paper's closed form, and held against a simulation.

use dragonfly_core::df_engine::ArbiterPolicy;
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_topology::{channel_load, saturation_bound, PathClass};
use dragonfly_core::df_traffic::{JobTraffic, PatternSpec};
use dragonfly_core::prelude::*;
use integration_tests::tiny_config;

/// The bound Θ = 1 / max γ on the figure1 machine (`p = 2, a = 4,
/// h = 2`) for `pattern` over the whole machine, on paths of `class`.
fn figure1_bound(pattern: &PatternSpec, class: PathClass) -> f64 {
    let params = DragonflyParams::figure1();
    let topo = Topology::new(params, Arrangement::Palmtree);
    let traffic = pattern.build(params, 0).router_traffic(&params, |_| 1.0);
    saturation_bound(&channel_load(&topo, &traffic, class))
}

/// `1/(a·p)`, `h/(a·p)` on the figure1 machine, as §III states them.
fn figure1_closed_form(groups_reached: u32) -> f64 {
    let params = DragonflyParams::figure1();
    f64::from(groups_reached) / f64::from(params.a * params.p)
}

/// Accepted throughput of `mechanism` under `pattern` on the figure1
/// machine at `load`.
fn throughput(mechanism: MechanismSpec, pattern: PatternSpec, load: f64) -> f64 {
    run_single(&tiny_config(mechanism, ArbiterPolicy::TransitPriority, pattern, load)).throughput
}

const ADV1: PatternSpec = PatternSpec::Adversarial { offset: 1 };
const ADVC: PatternSpec = PatternSpec::AdvConsecutive { spread: None };

#[test]
fn min_capped_under_adv1() {
    // figure1: a*p = 8 → Θ = 0.125 phits/node/cycle.
    let theta = figure1_bound(&ADV1, PathClass::Minimal);
    let paper = figure1_closed_form(1);
    assert!((theta - paper).abs() < 1e-12, "ADV+1 under MIN: Θ = {theta}, §III says {paper}");
    let accepted = throughput(MechanismSpec::Min, ADV1, 0.6);
    assert!(accepted <= theta * 1.15, "ADV+1 MIN throughput {accepted} above Θ = {theta}");
}

#[test]
fn min_capped_under_advc_at_h_over_ap() {
    // figure1: h = 2, a*p = 8 → Θ = 0.25; and ADVc must beat ADV+1
    // (less severe per §III).
    let h = DragonflyParams::figure1().h;
    let theta = figure1_bound(&ADVC, PathClass::Minimal);
    let paper = figure1_closed_form(h);
    assert!((theta - paper).abs() < 1e-12, "ADVc under MIN: Θ = {theta}, §III says {paper}");
    let advc = throughput(MechanismSpec::Min, ADVC, 0.6);
    let adv1 = throughput(MechanismSpec::Min, ADV1, 0.6);
    assert!(advc <= theta * 1.15, "ADVc MIN throughput {advc} above Θ = {theta}");
    assert!(advc > adv1 * 1.3, "ADVc ({advc}) must be less severe than ADV+1 ({adv1}) under MIN");
}

#[test]
fn valiant_escapes_the_adv_cap() {
    let theta = figure1_bound(&ADV1, PathClass::Valiant);
    let min_theta = figure1_bound(&ADV1, PathClass::Minimal);
    assert!(
        theta > min_theta,
        "Valiant's Θ ({theta}) must be above MIN's ({min_theta}) under ADV+1"
    );
    let val = throughput(MechanismSpec::ObliviousRrg, ADV1, 0.5);
    let min = throughput(MechanismSpec::Min, ADV1, 0.5);
    assert!(val <= theta * 1.15, "ADV+1 Valiant throughput {val} above Θ = {theta}");
    assert!(val > min * 1.5, "Valiant ({val}) must clearly beat MIN ({min}) under ADV+1");
}

/// "Accepted ≤ Θ" is false for a network average, so the end-of-run
/// check (ROADMAP item 6(a)) is per channel. Job A (groups 0–1, ADV+1)
/// and job B (groups 2–8, UN), both offered 0.6 under MIN: Θ of their
/// combined matrix is A's `1/(a·p)`, yet B's nodes accept their load, so
/// the average is far above Θ; every channel stays within its capacity,
/// which `run_cell`'s `finish` checks from the measured injection.
#[test]
fn a_job_on_free_channels_lifts_the_average_above_theta() {
    let params = DragonflyParams::figure1();
    let job = |name: &str, first, count, pattern| JobSpec {
        name: name.into(),
        placement: PlacementSpec::ConsecutiveGroups { first, count, slots: None },
        pattern,
        injection: InjectionSpec::Bernoulli,
        load: 0.6,
        start_cycle: None,
        stop_cycle: None,
    };
    let spec = ScenarioSpec {
        name: "free-channels".into(),
        params,
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![MechanismSpec::Min],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 3_000,
        measure_cycles: 6_000,
        telemetry: None,
        jobs: vec![job("a", 0, 2, ADV1), job("b", 2, 7, PatternSpec::Uniform)],
    };
    let topo = Topology::new(params, Arrangement::Palmtree);
    let mut gamma = vec![0.0; (params.routers() * params.radix()) as usize];
    for (job, at) in spec.jobs.iter().zip(spec.resolve_placements(11).unwrap()) {
        let traffic = JobTraffic::new(&job.pattern, at.nodes, at.group_size, &params, 0).unwrap();
        let load =
            channel_load(&topo, &traffic.router_traffic(&params, |_| 1.0), PathClass::Minimal);
        gamma.iter_mut().zip(load).for_each(|(g, x)| *g += x);
    }
    let theta = saturation_bound(&gamma);
    assert!((theta - figure1_closed_form(1)).abs() < 1e-12, "Θ = {theta}");
    let run = run_cell(&spec, MechanismSpec::Min, 11, CellOptions::default()).unwrap();
    assert!(run.throughput > 3.0 * theta, "average {} vs Θ = {theta}", run.throughput);
    let (a, b) = (&run.per_job[0], &run.per_job[1]);
    assert!(a.throughput <= theta * 1.05, "job A {} above its Θ = {theta}", a.throughput);
    assert!((b.throughput - 0.6).abs() < 0.03, "job B accepts its load: {}", b.throughput);
}

#[test]
fn uniform_min_latency_beats_valiant() {
    // Under UN at low load, MIN's latency must be clearly below Valiant's
    // (Valiant pays the double traversal).
    let min = run_single(&tiny_config(
        MechanismSpec::Min,
        ArbiterPolicy::TransitPriority,
        PatternSpec::Uniform,
        0.15,
    ));
    let val = run_single(&tiny_config(
        MechanismSpec::ObliviousRrg,
        ArbiterPolicy::TransitPriority,
        PatternSpec::Uniform,
        0.15,
    ));
    assert!(
        val.avg_latency > min.avg_latency * 1.3,
        "Valiant latency {} should exceed MIN {} under UN",
        val.avg_latency,
        min.avg_latency
    );
    // Both accept the offered load at 0.15.
    assert!((min.throughput - 0.15).abs() < 0.02);
    assert!((val.throughput - 0.15).abs() < 0.02);
}

#[test]
fn in_transit_matches_min_latency_at_low_uniform_load() {
    // The adaptive mechanism must not misroute when the network is idle:
    // its latency should sit near MIN's, not Valiant's.
    let min = run_single(&tiny_config(
        MechanismSpec::Min,
        ArbiterPolicy::TransitPriority,
        PatternSpec::Uniform,
        0.1,
    ));
    let int = run_single(&tiny_config(
        MechanismSpec::InTransitMm,
        ArbiterPolicy::TransitPriority,
        PatternSpec::Uniform,
        0.1,
    ));
    assert!(
        (int.avg_latency - min.avg_latency).abs() < min.avg_latency * 0.1,
        "in-transit ({}) should track MIN ({}) at low UN load",
        int.avg_latency,
        min.avg_latency
    );
}

#[test]
fn group_local_traffic_unaffected_by_mechanism() {
    // Intra-group traffic never touches global links; every mechanism
    // should accept it in full at moderate load.
    for m in [MechanismSpec::Min, MechanismSpec::ObliviousCrg, MechanismSpec::InTransitMm] {
        let r = run_single(&tiny_config(
            m,
            ArbiterPolicy::TransitPriority,
            PatternSpec::GroupLocal,
            0.3,
        ));
        assert!(
            (r.throughput - 0.3).abs() < 0.03,
            "{}: group-local throughput {}",
            m.label(),
            r.throughput
        );
    }
}
