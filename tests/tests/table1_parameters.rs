//! Table I of the paper, asserted against the library defaults: this is
//! the contract that `SimConfig::paper` models the published system.

use dragonfly_core::df_engine::ArbiterPolicy;
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_traffic::PatternSpec;
use dragonfly_core::prelude::*;

#[test]
fn table1_parameters_hold() {
    let cfg = SimConfig::paper(
        MechanismSpec::InTransitMm,
        ArbiterPolicy::TransitPriority,
        PatternSpec::AdvConsecutive { spread: None },
        0.4,
    );
    // "Router size: 23 ports (h=6 global, p=6 injection, 11 local)"
    assert_eq!(cfg.params.radix(), 23);
    assert_eq!(cfg.params.h, 6);
    assert_eq!(cfg.params.p, 6);
    assert_eq!(cfg.params.local_ports(), 11);
    // "Group size: 12 routers, 72 computing nodes"
    assert_eq!(cfg.params.a, 12);
    assert_eq!(cfg.params.a * cfg.params.p, 72);
    // "System size: 73 groups, 5,256 computing nodes"
    assert_eq!(cfg.params.groups(), 73);
    assert_eq!(cfg.params.nodes(), 5256);
    // "Global link arrangement: Palmtree"
    assert_eq!(cfg.arrangement, Arrangement::Palmtree);

    let ec = cfg.engine_config();
    // "Router latency: 5 cycles"
    assert_eq!(ec.pipeline_latency, 5);
    // "Frequency speedup: 2×"
    assert_eq!(ec.speedup, 2);
    // "Link latency: 10 (local), 100 (global) cycles"
    assert_eq!(ec.local_link_latency, 10);
    assert_eq!(ec.global_link_latency, 100);
    // "Virtual channels: 2 (global), 3 (local and injection)"
    assert_eq!(ec.vcs_global, 2);
    assert_eq!(ec.vcs_local, 3);
    assert_eq!(ec.vcs_injection, 3);
    // "Buffer size: 32 (output, local input per VC), 256 (global input per VC)"
    assert_eq!(ec.output_buffer, 32);
    assert_eq!(ec.local_input_buffer, 32);
    assert_eq!(ec.global_input_buffer, 256);
    // "Packet size: 8 phits"
    assert_eq!(ec.packet_size, 8);
    // Measurement protocol: "15,000 cycles of execution"
    assert_eq!(cfg.measure_cycles, 15_000);
}

#[test]
fn oblivious_and_source_adaptive_use_four_local_vcs() {
    // Table I: "4 (local ports in oblivious and source-adaptive mechanisms)".
    for m in [
        MechanismSpec::ObliviousRrg,
        MechanismSpec::ObliviousCrg,
        MechanismSpec::SourceRrg,
        MechanismSpec::SourceCrg,
    ] {
        let cfg = SimConfig::paper(m, ArbiterPolicy::TransitPriority, PatternSpec::Uniform, 0.4);
        assert_eq!(cfg.engine_config().vcs_local, 4, "{}", m.label());
    }
}

#[test]
fn paper_congestion_thresholds_are_modeled() {
    // "Congestion thresholds: 43% (adaptive in-transit)" — the one
    // threshold every in-transit policy compares against; "T = 5 (PB,
    // local), T = 3 (PB, global)" — built into the PiggyBack constructor.
    assert_eq!(dragonfly_core::df_routing::MISROUTE_THRESHOLD, 0.43);
}
