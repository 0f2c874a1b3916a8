//! The paper's qualitative fairness claims (§V), checked at reduced
//! scale: oblivious routing is fair under ADVc; adaptive mechanisms are
//! not; removing transit priority helps; age arbitration helps more.

use dragonfly_core::df_engine::ArbiterPolicy;
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_traffic::PatternSpec;
use dragonfly_core::prelude::*;
use integration_tests::{bottleneck_vs_rest, small_config};

fn advc() -> PatternSpec {
    PatternSpec::AdvConsecutive { spread: None }
}

#[test]
fn oblivious_is_fair_under_advc() {
    for m in [MechanismSpec::ObliviousRrg, MechanismSpec::ObliviousCrg] {
        let cfg = small_config(m, ArbiterPolicy::TransitPriority, advc(), 0.4);
        let r = run_single(&cfg);
        assert!(
            r.fairness.cov < 0.05,
            "{} CoV {} should be near zero (paper Table II: ~0.015)",
            m.label(),
            r.fairness.cov
        );
        assert!(r.fairness.max_min_ratio < 1.5);
        // Valiant paths spread every group's traffic over all its global
        // links: the named bottleneck router is an ordinary router.
        // Measured mean share at seeds 1, 11 and 23: 1.001-1.009 (Obl-RRG
        // and Obl-CRG). Band: 1 +- 0.05, five times the widest deviation.
        let share = bottleneck_vs_rest(&r, &cfg);
        assert!(
            (share.mean_share - 1.0).abs() < 0.05,
            "{}: the named router is no bottleneck under oblivious routing: {share:?}",
            m.label()
        );
    }
}

#[test]
fn source_adaptive_is_measurably_unfair_under_advc() {
    let obl = run_single(&small_config(
        MechanismSpec::ObliviousRrg,
        ArbiterPolicy::TransitPriority,
        advc(),
        0.4,
    ));
    for m in [MechanismSpec::SourceRrg, MechanismSpec::SourceCrg] {
        let r = run_single(&small_config(m, ArbiterPolicy::TransitPriority, advc(), 0.4));
        assert!(
            r.fairness.cov > obl.fairness.cov * 3.0,
            "{} CoV {} should clearly exceed oblivious {}",
            m.label(),
            r.fairness.cov,
            obl.fairness.cov
        );
    }
}

#[test]
fn in_transit_crg_starves_bottleneck_with_priority() {
    // The overlap of minimal and CRG non-minimal global links at the
    // bottleneck router plus transit priority is the paper's central
    // unfairness mechanism.
    let cfg =
        small_config(MechanismSpec::InTransitCrg, ArbiterPolicy::TransitPriority, advc(), 0.4);
    let r = run_single(&cfg);
    // At the reduced scale (h=3) the starvation ratio is noticeably
    // smaller than the paper's full-scale h=6 numbers and fluctuates with
    // the seed around ~3; CoV is the seed-robust signal.
    assert!(
        r.fairness.max_min_ratio > 2.5,
        "In-Trns-CRG Max/Min {} should show starvation",
        r.fairness.max_min_ratio
    );
    assert!(r.fairness.cov > 0.15, "In-Trns-CRG CoV {}", r.fairness.cov);
    // The starved router is the analytic one, in every group (§III):
    // measured at seeds 1, 11 and 23, 19/19 groups and a mean share of
    // 0.402-0.419. Bound: 0.6, about 1.4 times the largest.
    let share = bottleneck_vs_rest(&r, &cfg);
    assert_eq!(
        share.groups_min, share.groups,
        "the named router starves in every group: {share:?}"
    );
    assert!(share.mean_share < 0.6, "the named router's share: {share:?}");
}

#[test]
fn named_bottleneck_is_no_bottleneck_under_a_random_arrangement() {
    // The negative control of the test above, on the same configuration:
    // with the global links shuffled (the arrangement ablation's seed),
    // `advc_bottleneck` names a router that no longer owns every link of
    // the ADVc target range, so it starves only where chance puts it.
    // Measured at seeds 1, 11 and 23: 6, 6 and 5 of 19 groups, and a mean
    // share of 0.886, 0.903 and 0.913 (palmtree: 19/19, 0.402-0.419).
    // Bounds: at most 10 groups and a share above 0.7, each between the
    // two arrangements' readings with room on both sides.
    let mut cfg =
        small_config(MechanismSpec::InTransitCrg, ArbiterPolicy::TransitPriority, advc(), 0.4);
    cfg.arrangement = Arrangement::Random { seed: 12345 };
    let share = bottleneck_vs_rest(&run_single(&cfg), &cfg);
    assert!(share.groups_min <= 10, "the named router starves in most groups: {share:?}");
    assert!(share.mean_share > 0.7, "the named router's share: {share:?}");
}

#[test]
fn priority_removal_improves_in_transit_crg_fairness() {
    let with = run_single(&small_config(
        MechanismSpec::InTransitCrg,
        ArbiterPolicy::TransitPriority,
        advc(),
        0.4,
    ));
    let without = run_single(&small_config(
        MechanismSpec::InTransitCrg,
        ArbiterPolicy::RoundRobin,
        advc(),
        0.4,
    ));
    assert!(
        without.fairness.cov < with.fairness.cov,
        "removing priority must improve CoV: {} -> {}",
        with.fairness.cov,
        without.fairness.cov
    );
    assert!(
        without.fairness.min > with.fairness.min,
        "removing priority must raise Min inj: {} -> {}",
        with.fairness.min,
        without.fairness.min
    );
}

#[test]
fn age_arbitration_is_fairer_than_priority_for_in_transit_crg() {
    // The paper's proposed future work: explicit fairness mechanisms.
    let prio = run_single(&small_config(
        MechanismSpec::InTransitCrg,
        ArbiterPolicy::TransitPriority,
        advc(),
        0.4,
    ));
    let age = run_single(&small_config(
        MechanismSpec::InTransitCrg,
        ArbiterPolicy::AgeBased,
        advc(),
        0.4,
    ));
    assert!(
        age.fairness.cov < prio.fairness.cov,
        "age arbitration must beat transit priority on CoV: {} vs {}",
        age.fairness.cov,
        prio.fairness.cov
    );
}

#[test]
fn uniform_traffic_is_fair_for_everyone() {
    for m in [MechanismSpec::Min, MechanismSpec::SourceCrg, MechanismSpec::InTransitMm] {
        let r =
            run_single(&small_config(m, ArbiterPolicy::TransitPriority, PatternSpec::Uniform, 0.4));
        assert!(
            r.fairness.cov < 0.08,
            "{} must be fair under UN: CoV {}",
            m.label(),
            r.fairness.cov
        );
    }
}

#[test]
fn advc_throughput_ranking_matches_paper() {
    // Figure 2c: in-transit adaptive achieves the highest ADVc throughput;
    // source-adaptive underperforms because PB fails to flag the equally-
    // loaded bottleneck links as saturated.
    let int = run_single(&small_config(
        MechanismSpec::InTransitMm,
        ArbiterPolicy::TransitPriority,
        advc(),
        0.5,
    ));
    let src = run_single(&small_config(
        MechanismSpec::SourceCrg,
        ArbiterPolicy::TransitPriority,
        advc(),
        0.5,
    ));
    assert!(
        int.throughput > src.throughput * 1.3,
        "in-transit ({}) must clearly out-accept source-adaptive ({}) under ADVc",
        int.throughput,
        src.throughput
    );
}
