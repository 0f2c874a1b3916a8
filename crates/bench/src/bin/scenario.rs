//! Scenario runner CLI: load a multi-job scenario from JSON, run it under
//! every mechanism it names (rayon over mechanism × seed), and emit
//! per-job and per-router throughput/latency/fairness results.
//!
//! ```text
//! cargo run --release -p df-bench --bin scenario -- scenarios/interference_advc_vs_uniform.json
//! cargo run --release -p df-bench --bin scenario -- --quick scenarios/paper_job_anatomy.json
//! ```
//!
//! Flags:
//!
//! * `--seeds N` — seeds to average (default 3),
//! * `--quick` — single seed and a reduced cycle budget (CI smoke),
//! * `--out PATH` — write the full result (including per-seed runs) as JSON,
//! * `--record-trace PATH` — additionally record the generation stream of
//!   the first mechanism × first seed as a replayable JSON trace,
//! * `--timeline PATH` — additionally run every mechanism × the first
//!   seed with windowed telemetry on, streaming one JSONL row per window
//!   into `PATH` as it closes (see `docs/OBSERVABILITY.md`),
//! * `--shards N` — run each cell on the group-sharded engine with `N`
//!   shards (clamped to the group count). Output is bit-identical to the
//!   serial engine for any `N` (see `docs/DETERMINISM.md`); overrides the
//!   spec's `shards` field.
//!
//! The seed-averaged summary is always printed to stdout as JSON (after
//! the human-readable tables), so downstream tooling can consume the run
//! without extra flags.

use df_bench::{
    create_timeline_file, default_seeds, fail, flag_path, flag_positive, flag_seeds, flag_value,
    quick_scenario, timeline_sink, write_json,
};
use dragonfly_core::prelude::*;
use std::path::PathBuf;

struct Args {
    scenario: String,
    seeds: Vec<u64>,
    quick: bool,
    out: Option<PathBuf>,
    record_trace: Option<String>,
    timeline: Option<PathBuf>,
    shards: Option<u32>,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: scenario [--seeds N] [--quick] [--out PATH] [--record-trace PATH] \
         [--timeline PATH] [--shards N] SCENARIO.json"
    );
    std::process::exit(2);
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: String::new(),
        seeds: Vec::new(),
        quick: false,
        out: None,
        record_trace: None,
        timeline: None,
        shards: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--seeds" => args.seeds = flag_seeds(&mut it)?,
            "--out" => args.out = Some(flag_path(&mut it, &flag)?),
            "--record-trace" => args.record_trace = Some(flag_value(&mut it, &flag, "a path")?),
            "--timeline" => args.timeline = Some(flag_path(&mut it, &flag)?),
            "--shards" => args.shards = Some(flag_positive(&mut it, &flag)?),
            other if !other.starts_with('-') && args.scenario.is_empty() => {
                args.scenario = other.to_string();
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.scenario.is_empty() {
        return Err("missing scenario file".into());
    }
    // Seed defaulting is order-independent: --quick only trims the seed
    // set when --seeds was not given explicitly.
    if args.seeds.is_empty() {
        args.seeds = default_seeds(args.quick);
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(&e));
    let mut spec = ScenarioSpec::load(&args.scenario).unwrap_or_else(|e| die(&e));
    if args.quick {
        quick_scenario(&mut spec);
    }
    if args.shards.is_some() {
        spec.shards = args.shards;
    }
    spec.validate(args.seeds[0]).unwrap_or_else(|e| die(&e));

    eprintln!(
        "scenario `{}`: {} nodes, {} jobs, {} mechanisms, {} seeds, {}+{} cycles",
        spec.name,
        spec.params.nodes(),
        spec.jobs.len(),
        spec.mechanisms.len(),
        args.seeds.len(),
        spec.warmup_cycles,
        spec.measure_cycles,
    );
    for job in &spec.jobs {
        eprintln!(
            "  job `{}`: {} pattern, {} injection, load {}",
            job.name,
            job.pattern.label(),
            job.injection.label(),
            job.load
        );
    }

    if let Some(path) = &args.record_trace {
        // One recorder per job: each job's stream replays independently
        // through `InjectionSpec::Trace`. Multi-job scenarios get one
        // trace file per job (`PATH.jobN.json`).
        let mut recorders = vec![TraceRecorder::new(); spec.jobs.len()];
        let opts = CellOptions { recorders: Some(&mut recorders), ..Default::default() };
        run_cell(&spec, spec.mechanisms[0], args.seeds[0], opts)
            .unwrap_or_else(|e| fail(&e.to_string()));
        for (j, recorder) in recorders.iter().enumerate() {
            let job_path = if recorders.len() == 1 {
                path.clone()
            } else {
                format!("{path}.job{j}.json")
            };
            recorder.save(&job_path).unwrap_or_else(|e| fail(&e));
            eprintln!(
                "recorded {} events of job `{}` under {} to {job_path}",
                recorder.events().len(),
                spec.jobs[j].name,
                spec.mechanisms[0].label(),
            );
        }
    }

    if let Some(path) = &args.timeline {
        // Windowed-telemetry pass: every mechanism under the first seed,
        // sequentially, appending to one JSONL stream. Separate from the
        // aggregate runs below so the summary stays untouched by
        // instrumentation (it is bit-identical anyway, but the timeline
        // pass costs extra wall-clock only when requested).
        let file = create_timeline_file(path).unwrap_or_else(|e| fail(&e));
        for &mechanism in &spec.mechanisms {
            let sink = timeline_sink(
                file.try_clone()
                    .unwrap_or_else(|e| fail(&format!("clone timeline handle: {e}"))),
                spec.name.clone(),
                mechanism.label().to_string(),
                args.seeds[0],
            );
            let opts = CellOptions { timeline: Some(sink), ..Default::default() };
            let run = run_cell(&spec, mechanism, args.seeds[0], opts)
                .unwrap_or_else(|e| fail(&e.to_string()));
            eprintln!(
                "timeline: {} windows of `{}` under {} appended to {}",
                run.timeline.as_ref().map_or(0, Vec::len),
                spec.name,
                mechanism.label(),
                path.display()
            );
        }
    }

    let result = run_scenario(&spec, &args.seeds).unwrap_or_else(|e| fail(&e.to_string()));

    for m in &result.mechanisms {
        println!("\n== {} ==", m.mechanism);
        println!(
            "  network: accepted {:.4} phits/node/cycle, latency {:.1} cycles, router CoV {:.4}",
            m.throughput, m.avg_latency, m.router_cov
        );
        println!(
            "  {:>12} {:>6} {:>9} {:>9} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8}",
            "job", "nodes", "offered", "accepted", "latency", "p50", "p95", "p99", "min inj",
            "max/min", "CoV"
        );
        for j in &m.per_job {
            let pct = |p: Option<f64>| match p {
                Some(v) => format!("{v:.0}"),
                None => "-".to_string(),
            };
            println!(
                "  {:>12} {:>6} {:>9.4} {:>9.4} {:>10.1} {:>8} {:>8} {:>8} {:>9.1} {:>9.2} {:>8.4}",
                j.job,
                j.nodes,
                j.offered,
                j.throughput,
                j.avg_latency,
                pct(j.p50_latency),
                pct(j.p95_latency),
                pct(j.p99_latency),
                j.min_injections,
                j.max_min_ratio,
                j.cov
            );
        }
    }

    if let Some(out) = &args.out {
        write_json(out, &result).unwrap_or_else(|e| fail(&e));
    }

    println!(
        "\n{}",
        serde_json::to_string_pretty(&result.summary())
            .unwrap_or_else(|e| fail(&format!("serialize summary: {e}")))
    );
}
