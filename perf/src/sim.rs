//! The three `paper_*` workloads: one `SimConfig` run at Table I scale,
//! timed from outside through `Simulator`'s public functions, plus the
//! traced harness that drives the same run through `Network` /
//! `ShardedNetwork` with the timing wrappers of [`crate::timed`].

use crate::bench::{
    median_setup_s, metric, peak_rss_mb, secs, Budget, Checks, Detail, Headline, Opts, Section,
};
use crate::stats::median;
use crate::timed::{PolicyCost, TimedPolicy, TimedSink};
use crate::trace::Trace;
use df_engine::{ArbiterPolicy, Counters, Network, PhaseProfile, RoutingPolicy, ShardedNetwork};
use df_routing::MechanismSpec;
use df_service::digest_hex;
use df_stats::FairnessReport;
use df_topology::{DragonflyParams, NodeId, Topology};
use df_traffic::{derive_seed, BernoulliInjector, PatternSpec};
use dragonfly_core::{MeasurementSink, RunResult, SimConfig, Simulator};
use std::time::Instant;

/// Cycles per timing chunk. Chunk times are compared position by
/// position across repetitions, so a noisy moment spoils one chunk of
/// one repetition instead of a whole run.
pub const CHUNK: u64 = 100;
/// Warm-up cycles of every `paper_*` run.
pub const WARMUP: u64 = 500;
/// Measured cycles of every `paper_*` run.
pub const MEASURE: u64 = 1_500;

/// A `paper_*` workload: what varies between the three.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// Routing mechanism.
    pub mechanism: MechanismSpec,
    /// Traffic pattern.
    pub pattern: PatternSpec,
    /// Offered load, phits/(node·cycle).
    pub load: f64,
    /// Engine shards (1 = the serial engine).
    pub shards: u32,
}

impl SimWorkload {
    /// The workload behind a `paper_*` name.
    pub fn named(name: &str) -> Option<Self> {
        let advc = |shards| SimWorkload {
            mechanism: MechanismSpec::InTransitMm,
            pattern: PatternSpec::AdvConsecutive { spread: None },
            load: 0.4,
            shards,
        };
        match name {
            "paper_advc" => Some(advc(1)),
            "paper_advc_s2" => Some(advc(2)),
            "paper_un_pb" => Some(SimWorkload {
                mechanism: MechanismSpec::SourceCrg,
                pattern: PatternSpec::Uniform,
                load: 0.3,
                shards: 1,
            }),
            _ => None,
        }
    }

    /// The run's configuration: `SimConfig::paper` with the short cycle
    /// budget (figure1 machine under `--smoke`). `shards` is always
    /// explicit so `DF_TEST_SHARDS` in the environment cannot change
    /// what is measured.
    pub fn config(&self, seed: u64, smoke: bool) -> SimConfig {
        let mut cfg = SimConfig::paper(
            self.mechanism,
            ArbiterPolicy::TransitPriority,
            self.pattern.clone(),
            self.load,
        );
        if smoke {
            cfg.params = DragonflyParams::figure1();
        }
        cfg.warmup_cycles = WARMUP;
        cfg.measure_cycles = MEASURE;
        cfg.seed = seed;
        cfg.shards = Some(self.shards);
        cfg
    }
}

/// The canonical result document of a run: what gets digested.
pub fn result_doc(r: &RunResult) -> String {
    serde_json::to_string(r).expect("RunResult serializes")
}

fn headline(r: &RunResult) -> Headline {
    Headline {
        throughput: r.throughput,
        avg_latency: r.avg_latency,
        router_cov: r.fairness.cov,
    }
}

/// Wall-clock anatomy of one untraced repetition.
pub struct Rep {
    /// `Simulator::new`.
    pub setup_s: f64,
    /// Wall time of each [`CHUNK`]-cycle slice of the run, in order.
    pub chunks: Vec<f64>,
    /// `finish` + serializing and digesting the result.
    pub finish_s: f64,
    /// The run's result.
    pub result: RunResult,
    /// Its document.
    pub doc: String,
}

impl Rep {
    /// Seconds spent stepping.
    pub fn run_s(&self) -> f64 {
        self.chunks.iter().sum()
    }
}

/// One untraced repetition: exactly `Simulator::run`'s protocol (warm-up
/// steps, `begin_measurement`, measured steps, result), stepped in
/// chunks so each chunk can be timed.
pub fn timed_rep(cfg: &SimConfig) -> Rep {
    let t = Instant::now();
    let mut sim = Simulator::new(cfg);
    let setup_s = secs(t);
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let mut chunks = Vec::with_capacity((total / CHUNK) as usize);
    let mut cycle = 0;
    while cycle < total {
        let t = Instant::now();
        if cycle == cfg.warmup_cycles {
            sim.begin_measurement();
        }
        for _ in 0..CHUNK {
            sim.step();
        }
        chunks.push(secs(t));
        cycle += CHUNK;
    }
    let t = Instant::now();
    let result = sim.finish();
    let doc = result_doc(&result);
    std::hint::black_box(digest_hex(doc.as_bytes()));
    let finish_s = secs(t);
    Rep {
        setup_s,
        chunks,
        finish_s,
        result,
        doc,
    }
}

/// Run time with each chunk position taken at its fastest across
/// repetitions. Interference from the host only ever adds time, so the
/// fastest a chunk was ever stepped is the best estimate of what the
/// code costs; summing per position keeps every phase of the run (empty
/// network, filling, saturated) at its weight, and a disturbance has to
/// hit the same position in every repetition to move the sum. On this
/// box it repeats better than the per-position median (see README,
/// "Measured noise").
pub fn robust_run_s(reps: &[Rep]) -> f64 {
    let positions = reps[0].chunks.len();
    (0..positions)
        .map(|k| {
            reps.iter()
                .map(|r| r.chunks[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The timed pass of a `paper_*` workload.
pub fn untraced(w: &SimWorkload, opts: &Opts) -> Detail {
    let cfg = w.config(opts.seed, opts.smoke);
    let mut checks = Checks::default();

    let setup_s = median_setup_s(|_| {
        let t = Instant::now();
        let sim = Simulator::new(&cfg);
        let s = secs(t);
        drop(sim);
        Some(s)
    })
    .expect("Simulator::new cannot fail");

    let budget = Budget::new(opts);
    let mut reps: Vec<Rep> = Vec::new();
    let mut last = 0.0;
    while budget.more(reps.len(), last) {
        let t = Instant::now();
        reps.push(timed_rep(&cfg));
        last = secs(t);
    }

    let digest = digest_hex(reps[0].doc.as_bytes());
    checks.attempt(reps.len() as u64);
    for (i, rep) in reps.iter().enumerate() {
        checks.same(
            &format!("rep {i} vs rep 0"),
            &digest_hex(rep.doc.as_bytes()),
            &digest,
        );
        if rep.result.delivered_packets == 0 {
            checks.fail(format!("rep {i} delivered nothing"));
        }
    }
    // Read before the reference run below, so the peak is this engine's alone.
    let peak_rss = peak_rss_mb();
    // The sharded engine must reproduce the serial engine's bytes: one
    // untimed serial reference run per invocation.
    if w.shards > 1 {
        let mut serial = cfg.clone();
        serial.shards = Some(1);
        let reference = digest_hex(result_doc(&Simulator::new(&serial).run()).as_bytes());
        checks.same("sharded vs serial engine", &digest, &reference);
    }
    let head = headline(&reps[0].result);
    checks.pinned(opts, &digest, &head);

    let run_s = robust_run_s(&reps);
    let finish_s = median(&reps.iter().map(|r| r.finish_s).collect::<Vec<_>>());
    let request_s = setup_s + run_s + finish_s;
    let cycles = (cfg.warmup_cycles + cfg.measure_cycles) as f64;
    let metrics = vec![
        metric("setup_s", "s", setup_s),
        metric("sim_cycles_per_s", "1/s", cycles / run_s),
        metric("results_per_s", "1/s", 1.0 / request_s),
        metric("request_ms_p50", "ms", request_s * 1e3),
        metric("peak_rss_mb", "MB", peak_rss),
    ];
    Detail::new(opts, reps.len(), checks, digest, head, metrics)
}

// ----------------------------------------------------------------------
// Traced harness
// ----------------------------------------------------------------------

type Policy = TimedPolicy<Box<dyn RoutingPolicy + Send>>;
type Sink = TimedSink<MeasurementSink>;

/// The slice of the engine API the harness drives, over both engines.
trait Net {
    fn offer(&mut self, src: NodeId, dst: NodeId) -> bool;
    fn step_timed(&mut self, profile: &mut PhaseProfile);
    fn counters(&self) -> Counters;
    fn reset_counters(&mut self);
    fn policy_cost(&self) -> PolicyCost;
    fn sink(&self) -> &Sink;
    fn sink_mut(&mut self) -> &mut Sink;
    fn arena_capacity(&self) -> usize;
    fn probe_ready_total(&self) -> u64;
    fn in_flight(&self) -> u64;
}

macro_rules! impl_net {
    ($ty:ty, $counters:expr) => {
        impl Net for $ty {
            fn offer(&mut self, src: NodeId, dst: NodeId) -> bool {
                <$ty>::offer(self, src, dst)
            }
            fn step_timed(&mut self, profile: &mut PhaseProfile) {
                <$ty>::step_timed(self, profile)
            }
            fn counters(&self) -> Counters {
                let f: fn(&$ty) -> Counters = $counters;
                f(self)
            }
            fn reset_counters(&mut self) {
                <$ty>::reset_counters(self)
            }
            fn policy_cost(&self) -> PolicyCost {
                self.policy().cost
            }
            fn sink(&self) -> &Sink {
                <$ty>::sink(self)
            }
            fn sink_mut(&mut self) -> &mut Sink {
                <$ty>::sink_mut(self)
            }
            fn arena_capacity(&self) -> usize {
                <$ty>::arena_capacity(self)
            }
            fn probe_ready_total(&self) -> u64 {
                <$ty>::probe_ready_total(self)
            }
            fn in_flight(&self) -> u64 {
                <$ty>::in_flight(self)
            }
        }
    };
}

impl_net!(Network<Policy, Sink>, |n| n.counters().clone());
impl_net!(ShardedNetwork<Policy, Sink>, |n| n.counters());

/// What one harness run measured.
pub struct HarnessOut {
    /// Result document, assembled as `Simulator` assembles it.
    pub doc: String,
    /// Routing-layer totals from [`TimedPolicy`].
    pub policy: PolicyCost,
    /// `on_delivered` calls seen by [`TimedSink`].
    pub sink_calls: u64,
    /// Wall time inside them.
    pub sink_ns: u64,
    /// Wall time of the generate loops (fire, dest, offer).
    pub gen_ns: u64,
    /// `MechanismSpec::build`.
    pub policy_build_ns: u64,
    /// Whole run, set-up to document.
    pub wall_ns: u64,
    /// Sum over cycles of `probe_ready_total()` after the step.
    pub probe_ready_sum: u64,
    /// `arena_capacity()` at the end: peak in-flight population.
    pub arena_peak: usize,
    /// `in_flight()` at the end.
    pub in_flight_end: u64,
    /// Escape grants during the measurement window.
    pub escape_grants: u64,
}

/// Drive `cfg` through the engine directly with the timing wrappers
/// installed: the same generation loop as `Simulator::step`, the same
/// sub-seed derivation as `Simulator::new`, the same result assembly as
/// `Simulator::finish` — so the document must equal the untraced one.
/// With `trace`, records one span per layer per chunk under a run span.
pub fn harness_run(cfg: &SimConfig, trace: Option<&mut Trace>) -> HarnessOut {
    let t_wall = Instant::now();
    let start_ns = trace.as_deref().map_or(0, |t| t.now());
    let topo = Topology::new(cfg.params, cfg.arrangement);
    let engine_cfg = cfg.engine_config();
    let t = Instant::now();
    let policy = cfg
        .mechanism
        .build(topo.clone(), &engine_cfg, derive_seed(cfg.seed, 0));
    let policy_build_ns = t.elapsed().as_nanos() as u64;
    let policy = TimedPolicy::new(policy);
    let sink = TimedSink::new(MeasurementSink::new());
    let shards = cfg.resolved_shards().min(cfg.params.groups());
    let built = Built {
        policy_build_ns,
        t_wall,
        start_ns,
    };
    if shards <= 1 {
        drive(
            Network::new(topo, engine_cfg, policy, sink),
            cfg,
            built,
            trace,
        )
    } else {
        drive(
            ShardedNetwork::new(topo, engine_cfg, policy, sink, shards),
            cfg,
            built,
            trace,
        )
    }
}

struct Built {
    policy_build_ns: u64,
    t_wall: Instant,
    /// Harness entry on the trace clock (0 without a trace).
    start_ns: u64,
}

fn drive<N: Net>(
    mut net: N,
    cfg: &SimConfig,
    built: Built,
    mut trace: Option<&mut Trace>,
) -> HarnessOut {
    let engine_cfg = cfg.engine_config();
    let mut traffic = cfg.pattern.build(cfg.params, derive_seed(cfg.seed, 1));
    let mut injector =
        BernoulliInjector::new(cfg.load, engine_cfg.packet_size, derive_seed(cfg.seed, 2));
    let nodes = cfg.params.nodes();

    let root = trace.as_deref_mut().map(|t| {
        let now = t.now();
        let root = t.interval("run", (built.start_ns, now), None, None);
        t.interval("core.sim_new", (built.start_ns, now), Some(root), None);
        root
    });

    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let mut profile = PhaseProfile::default();
    let (mut gen_ns, mut probe_ready_sum) = (0u64, 0u64);
    let mut cycle = 0;
    while cycle < total {
        if cycle == cfg.warmup_cycles {
            net.reset_counters();
            net.sink_mut().inner.start_measurement();
        }
        let start = trace.as_deref().map(|t| t.now());
        let (policy0, sink0) = (net.policy_cost(), (net.sink().calls, net.sink().ns));
        let (mut chunk_gen, mut chunk_engine, mut offers) = (0u64, 0u64, 0u64);
        for _ in 0..CHUNK {
            let t0 = Instant::now();
            for n in 0..nodes {
                if injector.fire(n) {
                    let src = NodeId(n);
                    let dst = traffic.dest(src);
                    net.offer(src, dst);
                    offers += 1;
                }
            }
            let t1 = Instant::now();
            net.step_timed(&mut profile);
            let t2 = Instant::now();
            chunk_gen += (t1 - t0).as_nanos() as u64;
            chunk_engine += (t2 - t1).as_nanos() as u64;
            probe_ready_sum += net.probe_ready_total();
        }
        gen_ns += chunk_gen;
        if let (Some(t), Some(start)) = (trace.as_deref_mut(), start) {
            let window = (start, t.now());
            let (policy1, sink1) = (net.policy_cost(), (net.sink().calls, net.sink().ns));
            t.aggregate("traffic", window, root, chunk_gen, offers, None);
            let engine = t.aggregate("engine", window, root, chunk_engine, CHUNK, None);
            t.aggregate(
                "routing",
                window,
                Some(engine),
                (policy1.route_ns + policy1.begin_ns) - (policy0.route_ns + policy0.begin_ns),
                policy1.route_calls - policy0.route_calls,
                None,
            );
            t.aggregate(
                "stats",
                window,
                Some(engine),
                sink1.1 - sink0.1,
                sink1.0 - sink0.0,
                None,
            );
        }
        cycle += CHUNK;
    }

    let finish_start = trace.as_deref().map(|t| t.now());
    let counters = net.counters();
    let sink = &net.sink().inner;
    let packet_size = engine_cfg.packet_size as f64;
    let result = RunResult {
        mechanism: cfg.mechanism.label().to_string(),
        pattern: cfg.pattern.label(),
        load: cfg.load,
        seed: cfg.seed,
        offered: counters.offered_packets as f64 * packet_size
            / (nodes as f64 * counters.cycles as f64),
        throughput: counters.throughput(nodes),
        avg_latency: sink.latency.mean_latency(),
        components: sink.latency.component_means(),
        injected_per_router: counters.injected_per_router.clone(),
        fairness: FairnessReport::from_u64(&counters.injected_per_router),
        delivered_packets: counters.delivered_packets,
        p99_latency: sink.histogram.quantile(0.99),
        per_job: Vec::new(),
        timeline: None,
    };
    let doc = result_doc(&result);
    if let (Some(t), Some(start), Some(root)) = (trace, finish_start, root) {
        let now = t.now();
        t.interval("core.finish", (start, now), Some(root), None);
        t.close(root);
    }
    HarnessOut {
        doc,
        policy: net.policy_cost(),
        sink_calls: net.sink().calls,
        sink_ns: net.sink().ns,
        gen_ns,
        policy_build_ns: built.policy_build_ns,
        wall_ns: built.t_wall.elapsed().as_nanos() as u64,
        probe_ready_sum,
        arena_peak: net.arena_capacity(),
        in_flight_end: net.in_flight(),
        escape_grants: counters.escape_grants,
    }
}

/// One repetition through `Simulator::step_profiled`: the engine's own
/// phase breakdown, with no wrapper in the way.
struct Profiled {
    profile: PhaseProfile,
    sim_new_ns: u64,
    step_wall_ns: u64,
    finish_ns: u64,
    doc: String,
}

fn profiled_rep(cfg: &SimConfig) -> Profiled {
    let t = Instant::now();
    let mut sim = Simulator::new(cfg);
    let sim_new_ns = t.elapsed().as_nanos() as u64;
    let mut profile = PhaseProfile::default();
    let t = Instant::now();
    for cycle in 0..cfg.warmup_cycles + cfg.measure_cycles {
        if cycle == cfg.warmup_cycles {
            sim.begin_measurement();
        }
        sim.step_profiled(&mut profile);
    }
    let step_wall_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let doc = result_doc(&sim.finish());
    let finish_ns = t.elapsed().as_nanos() as u64;
    Profiled {
        profile,
        sim_new_ns,
        step_wall_ns,
        finish_ns,
        doc,
    }
}

/// The simulation section of a traced pass: one untraced repetition (the
/// overhead base), one through `step_profiled`, one through the harness
/// with spans. All three documents must be byte-identical.
pub fn section(cfg: &SimConfig, checks: &mut Checks, trace: &mut Trace) -> Section {
    let bare = timed_rep(cfg);
    let prof = profiled_rep(cfg);
    let traced = harness_run(cfg, Some(trace));
    let digest = digest_hex(bare.doc.as_bytes());
    checks.attempt(3);
    checks.same(
        "step_profiled vs untraced",
        &digest_hex(prof.doc.as_bytes()),
        &digest,
    );
    checks.same(
        "traced harness vs untraced",
        &digest_hex(traced.doc.as_bytes()),
        &digest,
    );

    let cycles = (cfg.warmup_cycles + cfg.measure_cycles) as f64;
    let us_per_cycle = |ns: u64| ns as f64 / cycles / 1e3;
    let p = &prof.profile;
    let route_us = us_per_cycle(traced.policy.route_ns);
    let bare_wall = bare.setup_s + bare.run_s() + bare.finish_s;
    let trace_overhead_frac = traced.wall_ns as f64 / 1e9 / bare_wall - 1.0;
    let metrics = vec![
        metric(
            "engine.deliver_us_per_cycle",
            "us",
            us_per_cycle(p.deliver_ns),
        ),
        metric(
            "engine.policy_us_per_cycle",
            "us",
            us_per_cycle(p.policy_ns),
        ),
        metric(
            "engine.inject_us_per_cycle",
            "us",
            us_per_cycle(p.inject_ns),
        ),
        metric(
            "engine.allocate_us_per_cycle",
            "us",
            us_per_cycle(p.allocate_ns),
        ),
        metric(
            "engine.transmit_us_per_cycle",
            "us",
            us_per_cycle(p.transmit_ns),
        ),
        metric("engine.cycle_us", "us", us_per_cycle(p.total_ns())),
        metric(
            "engine.allocate_self_us_per_cycle",
            "us",
            us_per_cycle(p.allocate_ns) - route_us,
        ),
        metric(
            "engine.probe_ready_per_cycle",
            "count",
            traced.probe_ready_sum as f64 / cycles,
        ),
        metric("engine.arena_peak_slots", "count", traced.arena_peak as f64),
        metric("engine.in_flight_end", "count", traced.in_flight_end as f64),
        metric("engine.escape_grants", "count", traced.escape_grants as f64),
        metric(
            "routing.route_calls_per_cycle",
            "count",
            traced.policy.route_calls as f64 / cycles,
        ),
        metric(
            "routing.route_calls_per_pkt",
            "count",
            traced.policy.route_calls as f64 / traced.sink_calls.max(1) as f64,
        ),
        metric(
            "routing.route_ns_per_call",
            "ns",
            traced.policy.route_ns as f64 / traced.policy.route_calls.max(1) as f64,
        ),
        metric("routing.route_us_per_cycle", "us", route_us),
        metric(
            "routing.begin_cycle_us_per_cycle",
            "us",
            us_per_cycle(traced.policy.begin_ns),
        ),
        metric(
            "routing.build_ms",
            "ms",
            traced.policy_build_ns as f64 / 1e6,
        ),
        metric(
            "traffic.gen_us_per_cycle",
            "us",
            us_per_cycle(traced.gen_ns),
        ),
        metric(
            "stats.on_delivered_ns_per_pkt",
            "ns",
            traced.sink_ns as f64 / traced.sink_calls.max(1) as f64,
        ),
        metric(
            "stats.on_delivered_us_per_cycle",
            "us",
            us_per_cycle(traced.sink_ns),
        ),
        metric("core.sim_new_ms", "ms", prof.sim_new_ns as f64 / 1e6),
        metric(
            "core.step_overhead_us_per_cycle",
            "us",
            us_per_cycle(prof.step_wall_ns.saturating_sub(p.total_ns())),
        ),
        metric("core.finish_ms", "ms", prof.finish_ns as f64 / 1e6),
    ];
    Section {
        metrics,
        digest,
        headline: headline(&bare.result),
        trace_overhead_frac,
    }
}
