//! The paper's §III motivation, played out: an HPC application allocated
//! on `h+1` consecutive groups generates ADVc-like traffic even though
//! the application itself communicates *uniformly* between its processes.
//!
//! Since PR 2 this example delegates to the workload subsystem: each
//! allocation is a one-job [`ScenarioSpec`] (uniform in-job pattern,
//! Bernoulli injection) run through the scenario runner, which reports
//! the job's own throughput, latency, and per-node injection fairness.
//!
//! ```text
//! cargo run --release --example job_placement
//! ```

use dragonfly_core::prelude::*;

fn job_scenario(params: DragonflyParams, placement: PlacementSpec, label: &str) -> ScenarioSpec {
    ScenarioSpec {
        name: label.into(),
        params,
        arrangement: Arrangement::Palmtree,
        // In-Trns-CRG is the mechanism the paper shows starving the ADVc
        // bottleneck router — the placement hazard is invisible under the
        // fair In-Trns-MM.
        mechanisms: vec![MechanismSpec::InTransitCrg],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 6_000,
        measure_cycles: 12_000,
        telemetry: None,
        jobs: vec![JobSpec {
            name: "app".into(),
            placement,
            pattern: PatternSpec::Uniform, // uniform *within* the job
            injection: InjectionSpec::Bernoulli,
            load: 0.7,
            start_cycle: None,
            stop_cycle: None,
        }],
    }
}

fn run_job(spec: &ScenarioSpec, groups: &[u32]) {
    let out = run_scenario(spec, &[3]).expect("scenario runs");
    let m = &out.mechanisms[0];
    let job = &m.per_job[0];
    let run = &m.runs[0];
    println!("\n=== {} (groups {groups:?}) ===", spec.name);
    println!("  job offered / accepted    : {:.4} / {:.4}", job.offered, job.throughput);
    println!("  job avg latency (cycles)  : {:.1}", job.avg_latency);
    println!("  min node injections       : {:.0}", job.min_injections);
    println!("  max/min ratio (per node)  : {:.2}", job.max_min_ratio);
    println!("  CoV (per node)            : {:.4}", job.cov);
    let a = spec.params.a as usize;
    let g0 = groups[0] as usize;
    print!("  group {g0} per-router        :");
    for c in &run.injected_per_router[g0 * a..(g0 + 1) * a] {
        print!(" {c:>6}");
    }
    println!();
}

fn main() {
    let params = DragonflyParams::small();
    println!(
        "job of {} groups on a {}-group Dragonfly, uniform traffic within the job",
        params.h + 1,
        params.groups()
    );

    // Consecutive allocation — the scheduler's simplest choice. Uniform
    // in-job traffic degenerates into ADVc at the network level (§III).
    let consecutive: Vec<u32> = (0..=params.h).collect();
    let spec = job_scenario(
        params,
        PlacementSpec::ConsecutiveGroups { first: 0, count: params.h + 1, slots: None },
        "consecutive allocation",
    );
    run_job(&spec, &consecutive);

    // Scattered allocation: same job size, groups spread out.
    let stride = params.groups() / (params.h + 1);
    let scattered: Vec<u32> = (0..=params.h).map(|i| i * stride).collect();
    let spec = job_scenario(
        params,
        PlacementSpec::Groups { groups: scattered.clone(), slots: None },
        "scattered allocation",
    );
    run_job(&spec, &scattered);

    println!(
        "\nThe consecutive job funnels all its inter-group traffic through \
         one bottleneck router per group (palmtree arrangement), whose \
         nodes are starved under transit priority — the ADVc fairness \
         hazard. Scattering the groups spreads the exit pressure across \
         several routers, lifting the worst-starved node."
    );
}
