//! Fairness-vs-load sweep: how the CoV of per-router injections evolves
//! with offered load for the three routing classes under ADVc, with and
//! without transit-over-injection priority.
//!
//! ```text
//! cargo run --release --example fairness_sweep
//! ```

use dragonfly_core::prelude::*;

fn main() {
    let loads = [0.1, 0.2, 0.3, 0.4, 0.5];
    let mechanisms =
        [MechanismSpec::ObliviousCrg, MechanismSpec::SourceCrg, MechanismSpec::InTransitMm];
    let arbiters = [
        (ArbiterPolicy::TransitPriority, "transit priority"),
        (ArbiterPolicy::RoundRobin, "no priority"),
    ];

    for (arbiter, arb_label) in arbiters {
        println!("\n=== CoV of per-router injections — ADVc, {arb_label} ===");
        print!("{:>6}", "load");
        for m in &mechanisms {
            print!("{:>14}", m.label());
        }
        println!();
        for &load in &loads {
            print!("{load:>6.2}");
            for m in &mechanisms {
                let cfg = SimConfig::small(
                    *m,
                    arbiter,
                    PatternSpec::AdvConsecutive { spread: None },
                    load,
                );
                let r = run_single(&cfg);
                print!("{:>14.4}", r.fairness.cov);
            }
            println!();
        }
    }
    println!("\nOblivious stays flat; adaptive mechanisms grow unfair as the");
    println!("bottleneck router's links saturate (paper §V).");
}
