//! The scenario runner: install one generation source per job of a
//! [`ScenarioSpec`] on the simulator and report per-job and per-router
//! results under every requested mechanism.

use crate::config::{derive_seed, engine_config};
use crate::ctl::RunCtl;
use crate::error::ScenarioError;
use crate::sim::{JobResult, JobRuntime, Protocol, RunResult, Simulator, Source};
use crate::timeline::TimelineSink;
use df_routing::MechanismSpec;
use df_topology::Topology;
use df_traffic::JobTraffic;
use df_workload::{InjectionSpec, ScenarioSpec, TraceRecorder};
use rayon::prelude::*;
use serde::Serialize;

/// Seed-averaged per-job summary (fairness metrics averaged per seed,
/// like the paper's three-simulation averages).
#[derive(Debug, Clone, Serialize)]
pub struct JobSummary {
    /// Job name.
    pub job: String,
    /// Nodes the job occupies.
    pub nodes: u32,
    /// Mean offered load in phits/(job node·cycle).
    pub offered: f64,
    /// Mean accepted throughput in phits/(job node·cycle).
    pub throughput: f64,
    /// Mean packet latency in cycles.
    pub avg_latency: f64,
    /// Mean per-seed median latency (cycles; `None` if no seed delivered).
    pub p50_latency: Option<f64>,
    /// Mean per-seed 95th-percentile latency (cycles).
    pub p95_latency: Option<f64>,
    /// Mean per-seed 99th-percentile latency (cycles).
    pub p99_latency: Option<f64>,
    /// Mean of the per-seed minimum per-node injection counts.
    pub min_injections: f64,
    /// Mean per-node injection max/min ratio.
    pub max_min_ratio: f64,
    /// Mean per-node injection coefficient of variation.
    pub cov: f64,
    /// Mean Jain index over per-node injections.
    pub jain: f64,
}

impl JobSummary {
    fn average(per_seed: &[&JobResult]) -> Self {
        let n = per_seed.len() as f64;
        let mean = |f: &dyn Fn(&JobResult) -> f64| per_seed.iter().map(|r| f(r)).sum::<f64>() / n;
        // Mean over the seeds that delivered anything (percentiles are
        // `None` for an idle job).
        let mean_opt = |f: &dyn Fn(&JobResult) -> Option<u64>| {
            let vals: Vec<u64> = per_seed.iter().filter_map(|r| f(r)).collect();
            if vals.is_empty() {
                None
            } else {
                Some(vals.iter().sum::<u64>() as f64 / vals.len() as f64)
            }
        };
        Self {
            job: per_seed[0].job.clone(),
            nodes: per_seed[0].nodes,
            offered: mean(&|r| r.offered),
            throughput: mean(&|r| r.throughput),
            avg_latency: mean(&|r| r.avg_latency),
            p50_latency: mean_opt(&|r| r.p50_latency),
            p95_latency: mean_opt(&|r| r.p95_latency),
            p99_latency: mean_opt(&|r| r.p99_latency),
            min_injections: mean(&|r| r.fairness.min),
            max_min_ratio: mean(&|r| r.fairness.max_min_ratio),
            cov: mean(&|r| r.fairness.cov),
            jain: mean(&|r| r.fairness.jain),
        }
    }
}

/// One mechanism's view of the scenario: per-seed runs plus seed-averaged
/// per-job and per-router summaries.
#[derive(Debug, Clone, Serialize)]
pub struct MechanismScenarioResult {
    /// Mechanism label.
    pub mechanism: String,
    /// Mean network-wide accepted throughput in phits/(node·cycle).
    pub throughput: f64,
    /// Mean network-wide packet latency in cycles.
    pub avg_latency: f64,
    /// Mean per-router injection CoV (Table II/III metric).
    pub router_cov: f64,
    /// Seed-averaged per-job summaries.
    pub per_job: Vec<JobSummary>,
    /// The raw per-seed runs (each with its own `per_job` breakdown).
    pub runs: Vec<RunResult>,
}

/// Full scenario outcome across mechanisms.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioResult {
    /// Scenario name.
    pub scenario: String,
    /// Seeds simulated per mechanism.
    pub seeds: Vec<u64>,
    /// One entry per requested mechanism, in spec order.
    pub mechanisms: Vec<MechanismScenarioResult>,
}

/// Compact mechanism summary (no raw runs) for stdout JSON.
#[derive(Debug, Clone, Serialize)]
pub struct MechanismSummary {
    /// Mechanism label.
    pub mechanism: String,
    /// Mean network-wide accepted throughput.
    pub throughput: f64,
    /// Mean network-wide latency.
    pub avg_latency: f64,
    /// Mean per-router injection CoV.
    pub router_cov: f64,
    /// Seed-averaged per-job summaries.
    pub per_job: Vec<JobSummary>,
}

/// Compact scenario summary (no raw runs).
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioSummary {
    /// Scenario name.
    pub scenario: String,
    /// Seeds simulated per mechanism.
    pub seeds: Vec<u64>,
    /// Per-mechanism summaries.
    pub mechanisms: Vec<MechanismSummary>,
}

impl ScenarioResult {
    /// Strip the raw runs, keeping the seed-averaged summaries.
    pub fn summary(&self) -> ScenarioSummary {
        ScenarioSummary {
            scenario: self.scenario.clone(),
            seeds: self.seeds.clone(),
            mechanisms: self
                .mechanisms
                .iter()
                .map(|m| MechanismSummary {
                    mechanism: m.mechanism.clone(),
                    throughput: m.throughput,
                    avg_latency: m.avg_latency,
                    router_cov: m.router_cov,
                    per_job: m.per_job.clone(),
                })
                .collect(),
        }
    }
}

/// What a single [`run_cell`] call layers on top of the plain run. Every
/// field is independent of the others and defaults to "off";
/// `CellOptions::default()` is the uninstrumented run.
#[derive(Default)]
pub struct CellOptions<'a> {
    /// External run control: the protocol loop asks the [`RunCtl`]
    /// checkpoint once per cycle, so cancellations, deadlines, and
    /// injected faults land at cycle granularity and an interrupted run
    /// returns an error instead of a partial result.
    pub ctl: RunCtl<'a>,
    /// Record every generation event, one recorder per job, so each
    /// job's stream replays independently through `InjectionSpec::Trace`.
    pub recorders: Option<&'a mut [TraceRecorder]>,
    /// Force windowed telemetry on and stream each [`crate::WindowRow`]
    /// through the sink as its window closes (the `--timeline out.jsonl`
    /// surface). Uses the spec's [`TelemetrySpec`](df_engine::TelemetrySpec)
    /// when present, else the default (1000-cycle windows). The returned
    /// [`RunResult`] also carries the full timeline.
    pub timeline: Option<TimelineSink>,
}

/// Run one scenario cell — one mechanism, one seed: one generation source
/// per job (destinations on substream `derive_seed(seed, 0x100 + j)`,
/// arrivals on `0x200 + j`), driven through the simulator's one protocol
/// loop. Generation order is identical whatever `opts` turns on, so
/// instrumentation cannot perturb same-seed results. The cell runs on
/// the serial engine: [`run_scenario`] and [`crate::run_sweep`] already
/// spread cells × seeds over every core.
///
/// # Panics
/// Panics if `opts.recorders` is provided with a length other than the
/// scenario's job count.
pub fn run_cell(
    spec: &ScenarioSpec,
    mechanism: MechanismSpec,
    seed: u64,
    opts: CellOptions<'_>,
) -> Result<RunResult, ScenarioError> {
    let CellOptions { ctl, recorders, timeline } = opts;
    // A timeline sink forces telemetry on; otherwise the spec decides.
    let telemetry = spec.telemetry.or_else(|| timeline.is_some().then(Default::default));
    spec.validate(seed).map_err(ScenarioError::spec)?;
    if let Some(recs) = recorders.as_deref() {
        assert_eq!(recs.len(), spec.jobs.len(), "one trace recorder per job");
    }
    // Surface config problems as errors, not a panic: the job service
    // must reject a bad submission and keep serving.
    let engine_cfg = engine_config(spec.arbiter, mechanism);
    engine_cfg.validate().map_err(ScenarioError::spec)?;
    let placements = spec.resolve_placements(seed)?;
    let mut sim = Simulator::idle(
        Topology::new(spec.params, spec.arrangement),
        engine_cfg,
        1,
        Protocol {
            mechanism,
            pattern: format!("scenario:{}", spec.name),
            // Network-equivalent configured load: job loads weighted by
            // node share.
            load: spec
                .jobs
                .iter()
                .zip(&placements)
                .map(|(job, placement)| job.load * placement.nodes.len() as f64)
                .sum::<f64>()
                / spec.params.nodes() as f64,
            seed,
            warmup_cycles: spec.warmup_cycles,
            measure_cycles: spec.measure_cycles,
            telemetry,
        },
    );
    if let Some(sink) = timeline {
        sim.set_timeline_sink(sink);
    }

    let mut schedule = Vec::with_capacity(spec.jobs.len());
    for (j, (job, placement)) in spec.jobs.iter().zip(placements).enumerate() {
        let named = |e: String| format!("job `{}`: {e}", job.name);
        let traffic = match job.injection {
            InjectionSpec::Trace { .. } => None,
            _ => Some(
                JobTraffic::new(
                    &job.pattern,
                    placement.nodes.clone(),
                    placement.group_size,
                    &spec.params,
                    derive_seed(seed, 0x100 + j as u64),
                )
                .map_err(named)?,
            ),
        };
        let process = job
            .injection
            .build(
                placement.nodes.clone(),
                job.load,
                engine_cfg.packet_size,
                derive_seed(seed, 0x200 + j as u64),
            )
            .map_err(named)?;
        sim.sources.push(Source { process, traffic, job: Some(j) });
        schedule.push(JobRuntime::new(
            job.name.clone(),
            placement.nodes,
            job.start_cycle,
            job.stop_cycle,
        ));
    }
    sim.set_job_schedule(schedule);
    sim.drive(ctl, recorders)
}

/// Run the scenario under every mechanism × seed (in parallel) and
/// aggregate.
pub fn run_scenario(spec: &ScenarioSpec, seeds: &[u64]) -> Result<ScenarioResult, ScenarioError> {
    run_scenario_ctl(spec, seeds, None)
}

/// [`run_scenario`] under external run control: every parallel mechanism
/// × seed cell asks the same [`RunCtl`], so one cancellation or
/// deadline stops the whole aggregate within a cycle per cell.
pub fn run_scenario_ctl(
    spec: &ScenarioSpec,
    seeds: &[u64],
    ctl: RunCtl<'_>,
) -> Result<ScenarioResult, ScenarioError> {
    if seeds.is_empty() {
        return Err(ScenarioError::spec("need at least one seed"));
    }
    let cells: Vec<(MechanismSpec, u64)> =
        spec.mechanisms.iter().flat_map(|&m| seeds.iter().map(move |&s| (m, s))).collect();
    let runs: Vec<Result<RunResult, ScenarioError>> = cells
        .par_iter()
        .map(|&(m, s)| run_cell(spec, m, s, CellOptions { ctl, ..Default::default() }))
        .collect();
    let mut by_mechanism = Vec::new();
    let mut it = runs.into_iter();
    for &m in &spec.mechanisms {
        let mech_runs: Vec<RunResult> =
            seeds.iter().map(|_| it.next().expect("cell per seed")).collect::<Result<_, _>>()?;
        let n = mech_runs.len() as f64;
        let per_job = (0..spec.jobs.len())
            .map(|j| {
                let per_seed: Vec<&JobResult> = mech_runs.iter().map(|r| &r.per_job[j]).collect();
                JobSummary::average(&per_seed)
            })
            .collect();
        by_mechanism.push(MechanismScenarioResult {
            mechanism: m.label().to_string(),
            throughput: mech_runs.iter().map(|r| r.throughput).sum::<f64>() / n,
            avg_latency: mech_runs.iter().map(|r| r.avg_latency).sum::<f64>() / n,
            router_cov: mech_runs.iter().map(|r| r.fairness.cov).sum::<f64>() / n,
            per_job,
            runs: mech_runs,
        });
    }
    Ok(ScenarioResult {
        scenario: spec.name.clone(),
        seeds: seeds.to_vec(),
        mechanisms: by_mechanism,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::ArbiterPolicy;
    use df_topology::{Arrangement, DragonflyParams};
    use df_traffic::PatternSpec;
    use df_workload::{JobSpec, PlacementSpec};

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            params: DragonflyParams::figure1(),
            arrangement: Arrangement::Palmtree,
            mechanisms: vec![MechanismSpec::InTransitMm],
            arbiter: ArbiterPolicy::TransitPriority,
            warmup_cycles: 1_000,
            measure_cycles: 2_000,
            telemetry: None,
            jobs: vec![
                JobSpec {
                    name: "anatomy".into(),
                    placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 3, slots: None },
                    pattern: PatternSpec::Uniform,
                    injection: InjectionSpec::Bernoulli,
                    load: 0.3,
                    start_cycle: None,
                    stop_cycle: None,
                },
                JobSpec {
                    name: "late".into(),
                    placement: PlacementSpec::ConsecutiveGroups { first: 5, count: 2, slots: None },
                    pattern: PatternSpec::GroupLocal,
                    injection: InjectionSpec::OnOff { mean_burst: 30.0, mean_idle: 30.0 },
                    load: 0.2,
                    start_cycle: Some(1_500),
                    stop_cycle: None,
                },
            ],
        }
    }

    #[test]
    fn scenario_produces_per_job_breakdown() {
        let r =
            run_cell(&tiny_spec(), MechanismSpec::InTransitMm, 1, CellOptions::default()).unwrap();
        assert_eq!(r.per_job.len(), 2);
        assert_eq!(r.per_job[0].job, "anatomy");
        assert!(r.per_job[0].throughput > 0.1, "{}", r.per_job[0].throughput);
        assert!(r.per_job[1].throughput > 0.0);
        assert!(r.per_job[0].avg_latency > 100.0);
        // Only the two jobs inject; network totals must bound job totals.
        assert!(r.throughput <= r.per_job[0].throughput + r.per_job[1].throughput);
        assert!(r.pattern.contains("tiny"));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let spec = tiny_spec();
        let a = run_cell(&spec, MechanismSpec::InTransitMm, 7, CellOptions::default()).unwrap();
        let b = run_cell(&spec, MechanismSpec::InTransitMm, 7, CellOptions::default()).unwrap();
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.injected_per_router, b.injected_per_router);
        for (x, y) in a.per_job.iter().zip(&b.per_job) {
            assert_eq!(x.throughput, y.throughput);
            assert_eq!(x.avg_latency, y.avg_latency);
            assert_eq!(x.delivered_packets, y.delivered_packets);
        }
    }

    #[test]
    fn job_lifetimes_gate_generation() {
        let mut spec = tiny_spec();
        // Stop the first job before the window; it must deliver ~nothing
        // during measurement.
        spec.jobs[0].stop_cycle = Some(200);
        spec.jobs[1].start_cycle = None;
        let r = run_cell(&spec, MechanismSpec::InTransitMm, 1, CellOptions::default()).unwrap();
        assert_eq!(r.per_job[0].offered, 0.0);
        assert!(r.per_job[0].delivered_packets < 5);
        assert!(r.per_job[1].delivered_packets > 100);
    }

    #[test]
    fn aggregation_averages_across_seeds() {
        let mut spec = tiny_spec();
        spec.jobs.truncate(1);
        let out = run_scenario(&spec, &[1, 2]).unwrap();
        assert_eq!(out.mechanisms.len(), 1);
        let m = &out.mechanisms[0];
        assert_eq!(m.runs.len(), 2);
        assert_eq!(m.per_job.len(), 1);
        let mean = (m.runs[0].per_job[0].throughput + m.runs[1].per_job[0].throughput) / 2.0;
        assert!((m.per_job[0].throughput - mean).abs() < 1e-12);
        let summary = out.summary();
        assert_eq!(summary.mechanisms[0].per_job.len(), 1);
    }
}
