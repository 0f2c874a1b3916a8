//! Sweep harness CLI: load a [`SweepSpec`] grid from JSON, expand its
//! axes, run every cell × seed (rayon over the whole grid), and emit a
//! long-format result table for replotting the paper's figures.
//!
//! ```text
//! cargo run --release -p df-bench --bin sweep -- scenarios/sweep_unfairness_grid.json
//! cargo run --release -p df-bench --bin sweep -- --quick --csv /tmp/grid.csv \
//!     scenarios/sweep_unfairness_grid.json
//! ```
//!
//! Flags:
//!
//! * `--seeds N` — seeds per cell (default 3),
//! * `--quick` — single seed and a reduced cycle budget (CI smoke),
//! * `--out PATH` — write the table as JSON,
//! * `--csv PATH` — write the table as CSV,
//! * `--timeline PATH` — additionally re-run the first cell under the
//!   first seed with windowed telemetry on, streaming one JSONL row per
//!   window into `PATH` (see `docs/OBSERVABILITY.md`),
//! * `--shards N` — run every cell on the group-sharded engine with `N`
//!   shards (clamped to the group count). The table is bit-identical to
//!   the serial engine's for any `N` (see `docs/DETERMINISM.md`).
//!
//! The table is deterministic: the same sweep file and seed set produce a
//! bit-identical JSON/CSV artifact regardless of how cells were scheduled
//! across threads (`golden_sweep_unfairness_grid` pins the bundled
//! grid's MD5s).
//! A compact per-cell summary grid is printed to stdout.

use df_bench::{
    create_timeline_file, default_seeds, fail, flag_path, flag_positive, flag_seeds, quick_sweep,
    timeline_sink, write_json,
};
use dragonfly_core::prelude::*;
use std::path::PathBuf;

struct Args {
    sweep: String,
    seeds: Vec<u64>,
    quick: bool,
    out: Option<PathBuf>,
    csv: Option<PathBuf>,
    timeline: Option<PathBuf>,
    shards: Option<u32>,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: sweep [--seeds N] [--quick] [--out PATH] [--csv PATH] [--timeline PATH] \
         [--shards N] SWEEP.json"
    );
    std::process::exit(2);
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sweep: String::new(),
        seeds: Vec::new(),
        quick: false,
        out: None,
        csv: None,
        timeline: None,
        shards: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--seeds" => args.seeds = flag_seeds(&mut it)?,
            "--out" => args.out = Some(flag_path(&mut it, &flag)?),
            "--csv" => args.csv = Some(flag_path(&mut it, &flag)?),
            "--timeline" => args.timeline = Some(flag_path(&mut it, &flag)?),
            "--shards" => args.shards = Some(flag_positive(&mut it, &flag)?),
            other if !other.starts_with('-') && args.sweep.is_empty() => {
                args.sweep = other.to_string();
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.sweep.is_empty() {
        return Err("missing sweep file".into());
    }
    if args.seeds.is_empty() {
        args.seeds = default_seeds(args.quick);
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(&e));
    let mut spec = SweepSpec::load(&args.sweep).unwrap_or_else(|e| die(&e));
    if args.quick {
        quick_sweep(&mut spec);
    }
    if args.shards.is_some() {
        // Cells inherit the base spec, so one assignment shards the grid.
        spec.base.shards = args.shards;
    }
    let cells = spec.expand().unwrap_or_else(|e| die(&e));
    eprintln!(
        "sweep `{}`: {} nodes, {} jobs, {} cells, {} seeds, {}+{} cycles per cell",
        spec.name,
        spec.base.params.nodes(),
        spec.base.jobs.len(),
        cells.len(),
        args.seeds.len(),
        spec.base.warmup_cycles,
        spec.base.measure_cycles,
    );

    if let Some(path) = &args.timeline {
        // Windowed-telemetry pass on the first cell × first seed: the
        // sweep table itself stays telemetry-free (its artifacts are
        // digest-gated), the timeline is a side stream.
        let cell = &cells[0];
        let file = create_timeline_file(path).unwrap_or_else(|e| fail(&e));
        let sink = timeline_sink(
            file,
            format!("{}:cell{}", spec.name, cell.index),
            cell.mechanism.label().to_string(),
            args.seeds[0],
        );
        let opts = CellOptions { timeline: Some(sink), ..Default::default() };
        let run = run_cell(&cell.scenario, cell.mechanism, args.seeds[0], opts)
            .unwrap_or_else(|e| fail(&e.to_string()));
        eprintln!(
            "timeline: {} windows of cell {} under {} written to {}",
            run.timeline.as_ref().map_or(0, Vec::len),
            cell.index,
            cell.mechanism.label(),
            path.display()
        );
    }

    let table = run_sweep(&spec, &args.seeds).unwrap_or_else(|e| fail(&e.to_string()));

    // Compact per-cell grid: seed-averaged network throughput/latency and
    // the worst per-job injection CoV (the unfairness signal).
    println!(
        "{:>5} {:>12} {:>6} {:>14} {:>8} {:>10} {:>10} {:>10}",
        "cell", "mechanism", "load", "placement", "pattern", "accepted", "latency", "job CoV"
    );
    for cell in &cells {
        let net: Vec<&SweepRow> = table
            .rows
            .iter()
            .filter(|r| r.cell == cell.index && r.scope == "network")
            .collect();
        let jobs: Vec<&SweepRow> = table
            .rows
            .iter()
            .filter(|r| r.cell == cell.index && r.scope != "network")
            .collect();
        let n = net.len() as f64;
        let thr = net.iter().map(|r| r.throughput).sum::<f64>() / n;
        let lat = net.iter().map(|r| r.avg_latency).sum::<f64>() / n;
        let worst_cov = jobs.iter().map(|r| r.cov).fold(0.0f64, f64::max);
        println!(
            "{:>5} {:>12} {:>6.3} {:>14} {:>8} {:>10.4} {:>10.1} {:>10.4}",
            cell.index,
            cell.mechanism.label(),
            net[0].load,
            cell.placement.as_deref().unwrap_or("base"),
            cell.pattern.as_deref().unwrap_or("base"),
            thr,
            lat,
            worst_cov,
        );
    }
    eprintln!("{} rows (cell x seed x scope)", table.rows.len());

    if let Some(out) = &args.out {
        write_json(out, &table).unwrap_or_else(|e| fail(&e));
    }
    if let Some(csv) = &args.csv {
        if let Some(dir) = csv.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(&format!("create {}: {e}", dir.display())));
        }
        std::fs::write(csv, table.to_csv())
            .unwrap_or_else(|e| fail(&format!("write {}: {e}", csv.display())));
        eprintln!("wrote {}", csv.display());
    }
}
