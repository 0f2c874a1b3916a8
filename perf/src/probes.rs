//! Fixed micro-probes of single layer functions, run in every traced
//! pass: each calls one public function of one crate in a tight loop on
//! inputs made from the seed and reports the cost per call.

use crate::bench::{median_us, metric, secs, Metric};
use crate::service::SVC_JOB_JSON;
use crate::stats::median;
use crate::sweep::GRID_JSON;
use df_stats::{FairnessReport, Histogram};
use df_topology::{Arrangement, DragonflyParams, NodeId, Port, RouterId, Topology};
use df_traffic::{derive_seed, BernoulliInjector};
use df_workload::{Arrival, InjectionSpec, ScenarioSpec, SweepSpec};
use dragonfly_core::{run_scenario, SimConfig};
use std::hint::black_box;
use std::time::Instant;

/// Calls per tight-loop probe.
const CALLS: usize = 1_000_000;

/// Nanoseconds per call of `f` over [`CALLS`] calls.
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..CALLS {
        f(i);
    }
    secs(t) * 1e9 / CALLS as f64
}

/// `topology.`: `Topology::new` and the two wiring queries the routing
/// layer leans on, at paper scale, over a seeded id stream.
fn topology(seed: u64) -> Vec<Metric> {
    let params = DragonflyParams::paper();
    let build_us = median_us(9, |_| {
        black_box(Topology::new(params, Arrangement::Palmtree));
    });
    let topo = Topology::new(params, Arrangement::Palmtree);
    let ids: Vec<(u32, u32)> = (0..CALLS as u64)
        .map(|i| {
            let x = derive_seed(seed, i);
            (x as u32, (x >> 32) as u32)
        })
        .collect();
    let (routers, radix, nodes) = (params.routers(), params.radix(), params.nodes());
    let port_target_ns = ns_per_call(|i| {
        let (a, b) = ids[i];
        black_box(topo.port_target(RouterId(a % routers), Port(b % radix)));
    });
    let min_hops_ns = ns_per_call(|i| {
        let (a, b) = ids[i];
        black_box(topo.min_hops(NodeId(a % nodes), NodeId(b % nodes)));
    });
    vec![
        metric("topology.build_ms", "ms", build_us / 1e3),
        metric("topology.port_target_ns", "ns", port_target_ns),
        metric("topology.min_hops_ns", "ns", min_hops_ns),
    ]
}

/// `traffic.`: one Bernoulli draw and one destination draw of the
/// traced simulation's own pattern and machine.
fn traffic(cfg: &SimConfig) -> Vec<Metric> {
    let nodes = cfg.params.nodes();
    let mut injector = BernoulliInjector::new(
        cfg.load,
        cfg.engine_config().packet_size,
        derive_seed(cfg.seed, 2),
    );
    let fire_ns = ns_per_call(|i| {
        black_box(injector.fire(i as u32 % nodes));
    });
    let mut pattern = cfg.pattern.build(cfg.params, derive_seed(cfg.seed, 1));
    let dest_ns = ns_per_call(|i| {
        black_box(pattern.dest(NodeId(i as u32 % nodes)));
    });
    vec![
        metric("traffic.fire_ns", "ns", fire_ns),
        metric("traffic.dest_ns", "ns", dest_ns),
    ]
}

/// `stats.`: the two result-assembly functions, at the paper's router
/// count and a filled latency histogram.
fn stats(seed: u64) -> Vec<Metric> {
    let counts: Vec<u64> = (0..DragonflyParams::paper().routers() as u64)
        .map(|r| 200 + derive_seed(seed, r) % 400)
        .collect();
    let fairness_us = median_us(301, |_| {
        black_box(FairnessReport::from_u64(black_box(&counts)));
    });
    let mut histogram = Histogram::new(50, 200);
    for i in 0..100_000u64 {
        histogram.add(100 + derive_seed(seed, i) % 3_000);
    }
    let quantile_us = median_us(301, |_| {
        black_box(histogram.quantile(black_box(0.99)));
    });
    vec![
        metric("stats.fairness_us", "us", fairness_us),
        metric("stats.quantile_us", "us", quantile_us),
    ]
}

/// `workload.`: spec parsing, grid expansion, placement resolution, and
/// the two bursty arrival processes the service jobs use.
fn workload(seed: u64) -> Vec<Metric> {
    let spec_parse_us = median_us(201, |_| {
        let spec = ScenarioSpec::from_json(SVC_JOB_JSON).expect("bundled svc_job parses");
        spec.validate(seed).expect("bundled svc_job validates");
        black_box(spec);
    });
    let grid = SweepSpec::from_json(GRID_JSON).expect("bundled grid parses");
    let sweep_expand_us = median_us(101, |_| {
        black_box(grid.expand().expect("bundled grid expands"));
    });
    let spec = ScenarioSpec::from_json(SVC_JOB_JSON).expect("bundled svc_job parses");
    let placement_us = median_us(201, |_| {
        black_box(spec.resolve_placements(seed).expect("placements resolve"));
    });
    let nodes: Vec<NodeId> = (0..spec.params.nodes()).map(NodeId).collect();
    let (mut ns, mut packets) = (0.0, 0u64);
    for (k, injection) in [
        InjectionSpec::OnOff {
            mean_burst: 40.0,
            mean_idle: 60.0,
        },
        InjectionSpec::Poisson,
    ]
    .iter()
    .enumerate()
    {
        let mut process = injection
            .build(nodes.clone(), 0.3, 8, derive_seed(seed, 0x200 + k as u64))
            .expect("arrival process builds");
        let mut out: Vec<Arrival> = Vec::new();
        let t = Instant::now();
        for cycle in 0..20_000 {
            out.clear();
            process.arrivals(cycle, &mut out);
            packets += out.len() as u64;
        }
        ns += secs(t) * 1e9;
    }
    vec![
        metric("workload.spec_parse_us", "us", spec_parse_us),
        metric("workload.sweep_expand_us", "us", sweep_expand_us),
        metric("workload.placement_us", "us", placement_us),
        metric(
            "workload.arrivals_ns_per_pkt",
            "ns",
            ns / packets.max(1) as f64,
        ),
    ]
}

/// `core.telemetry_overhead_frac`: the service job spec with its
/// telemetry block against the same spec with it stripped, alternating.
fn telemetry(seed: u64) -> Metric {
    let on = ScenarioSpec::from_json(SVC_JOB_JSON).expect("bundled svc_job parses");
    let mut off = on.clone();
    off.telemetry = None;
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    for _ in 0..9 {
        let t = Instant::now();
        black_box(run_scenario(&on, &[seed]).expect("svc_job runs"));
        on_s.push(secs(t));
        let t = Instant::now();
        black_box(run_scenario(&off, &[seed]).expect("svc_job runs"));
        off_s.push(secs(t));
    }
    metric(
        "core.telemetry_overhead_frac",
        "ratio",
        median(&on_s) / median(&off_s) - 1.0,
    )
}

/// Every fixed probe. `cfg` is the traced simulation's configuration, so
/// the traffic probes draw from the pattern that run used.
pub fn all(cfg: &SimConfig, seed: u64) -> Vec<Metric> {
    let mut out = topology(seed);
    out.extend(traffic(cfg));
    out.extend(stats(seed));
    out.extend(workload(seed));
    out.push(telemetry(seed));
    out
}
