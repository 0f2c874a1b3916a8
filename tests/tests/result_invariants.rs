//! Invariants every `RunResult` must satisfy, across a grid of
//! mechanisms, patterns, and arbiters.

use dragonfly_core::df_engine::ArbiterPolicy;
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_traffic::PatternSpec;
use dragonfly_core::prelude::*;
use integration_tests::tiny_config;

fn check(result: &RunResult, label: &str) {
    // Accepted load can never exceed what was offered (plus the drain of
    // warm-up backlog, bounded here by a generous margin).
    assert!(
        result.throughput <= result.offered * 1.10 + 0.01,
        "{label}: accepted {} > offered {}",
        result.throughput,
        result.offered
    );
    // The five components are exhaustive and exclusive.
    let sum: f64 = result.components.iter().sum();
    assert!(
        (sum - result.avg_latency).abs() < 1e-6,
        "{label}: breakdown sum {} != mean latency {}",
        sum,
        result.avg_latency
    );
    // Base latency is bounded below by the cheapest possible path
    // (injection + pipeline + ejection + serialization) and above by the
    // worst minimal path.
    let base = result.components[0];
    assert!(base >= 15.0, "{label}: base {base} impossibly small");
    assert!(
        base <= 2.0 * 1.0 + 4.0 * 5.0 + 2.0 * 10.0 + 100.0 + 8.0 + 1.0,
        "{label}: base {base} exceeds worst minimal path"
    );
    // Fairness metrics are mutually consistent.
    assert!(result.fairness.min <= result.fairness.mean + 1e-9, "{label}");
    assert!(result.fairness.cov >= 0.0, "{label}");
    assert!(result.fairness.jain <= 1.0 + 1e-9, "{label}");
    // p99 (histogram bucket bound) cannot be below the mean latency by
    // more than one bucket.
    if let Some(p99) = result.p99_latency {
        assert!(
            p99 as f64 + 50.0 >= result.avg_latency,
            "{label}: p99 {} vs mean {}",
            p99,
            result.avg_latency
        );
    }
}

#[test]
fn invariants_hold_across_the_grid() {
    let mechanisms = [
        MechanismSpec::Min,
        MechanismSpec::ObliviousCrg,
        MechanismSpec::SourceRrg,
        MechanismSpec::InTransitMm,
    ];
    let patterns = [
        PatternSpec::Uniform,
        PatternSpec::Adversarial { offset: 1 },
        PatternSpec::AdvConsecutive { spread: None },
    ];
    for m in mechanisms {
        for p in &patterns {
            for arb in [ArbiterPolicy::TransitPriority, ArbiterPolicy::AgeBased] {
                let cfg = tiny_config(m, arb, p.clone(), 0.25);
                let r = run_single(&cfg);
                check(&r, &format!("{}/{}/{:?}", m.label(), p.label(), arb));
            }
        }
    }
}

#[test]
fn offered_load_tracks_configured_load() {
    for load in [0.1, 0.3, 0.5] {
        let cfg = tiny_config(
            MechanismSpec::ObliviousRrg,
            ArbiterPolicy::RoundRobin,
            PatternSpec::Uniform,
            load,
        );
        let r = run_single(&cfg);
        assert!(
            (r.offered - load).abs() < 0.04,
            "offered {} should track configured {load}",
            r.offered
        );
    }
}

#[test]
fn averaged_result_fairness_uses_averaged_counts() {
    let cfg = tiny_config(
        MechanismSpec::InTransitCrg,
        ArbiterPolicy::TransitPriority,
        PatternSpec::AdvConsecutive { spread: None },
        0.35,
    );
    let avg = &run_grid(&[cfg], &[1, 2, 3])[0];
    let recomputed = FairnessReport::from_counts(&avg.injected_per_router);
    assert_eq!(avg.fairness.cov, recomputed.cov);
    assert_eq!(avg.fairness.min, recomputed.min);
}
