//! The `sweep_grid` workload: `run_sweep` over the bundled 36-cell
//! unfairness grid (a bench-owned copy, so a change to `scenarios/`
//! cannot silently change what is measured), plus the traced section
//! that runs the same units one by one.

use crate::bench::{
    median_setup_s, metric, peak_rss_mb, secs, Budget, Checks, Detail, Headline, Opts, Section,
};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use df_service::{digest_hex, JobPayload};
use df_workload::SweepSpec;
use dragonfly_core::{run_scenario, run_sweep, SweepTable};
use std::time::Instant;

/// The grid: 3 loads × 2 placements × 2 patterns × 3 mechanisms at
/// figure1 scale, 3,000 + 6,000 cycles per unit.
pub const GRID_JSON: &str = include_str!("../workloads/sweep_grid.json");
/// Seeds per cell at full scale (`--smoke` and the probe scale use one).
pub const FULL_SEEDS: u64 = 4;

/// `n` consecutive seeds starting at the run's seed.
pub fn seeds(base: u64, n: u64) -> Vec<u64> {
    (0..n).map(|i| base + i).collect()
}

/// What a front end does before the first unit can start: parse the
/// grid, expand it, validate every cell under the first seed.
fn set_up(first_seed: u64) -> Result<SweepSpec, String> {
    let spec = SweepSpec::from_json(GRID_JSON)?;
    for cell in spec.expand()? {
        cell.scenario.validate(first_seed)?;
    }
    Ok(spec)
}

fn table_doc(table: &SweepTable) -> String {
    serde_json::to_string_pretty(table).expect("SweepTable serializes")
}

/// Mean of the network-scope rows: the grid's headline.
fn headline(table: &SweepTable) -> Headline {
    let net: Vec<_> = table.rows.iter().filter(|r| r.scope == "network").collect();
    let n = net.len().max(1) as f64;
    Headline {
        throughput: net.iter().map(|r| r.throughput).sum::<f64>() / n,
        avg_latency: net.iter().map(|r| r.avg_latency).sum::<f64>() / n,
        router_cov: net.iter().map(|r| r.cov).sum::<f64>() / n,
    }
}

/// The timed pass.
pub fn untraced(opts: &Opts) -> Detail {
    let seed_list = seeds(opts.seed, if opts.smoke { 1 } else { FULL_SEEDS });
    let mut checks = Checks::default();

    let setup_s = median_setup_s(|_| {
        let t = Instant::now();
        let spec = set_up(seed_list[0]);
        let s = secs(t);
        std::hint::black_box(&spec).is_ok().then_some(s)
    });

    struct Rep {
        sweep_s: f64,
        doc_s: f64,
        digest: String,
    }
    let budget = Budget::new(opts);
    let mut reps: Vec<Rep> = Vec::new();
    let mut first: Option<SweepTable> = None;
    let (mut units, mut cycles) = (0u64, 0u64);
    let mut last = 0.0;
    while budget.more(reps.len(), last) {
        let t_rep = Instant::now();
        let spec = match set_up(seed_list[0]) {
            Ok(spec) => spec,
            Err(e) => {
                checks.attempt(1);
                checks.fail(format!("sweep set-up: {e}"));
                break;
            }
        };
        cycles = JobPayload::Sweep(spec.clone()).total_cycles(&seed_list);
        let t = Instant::now();
        let table = run_sweep(&spec, &seed_list);
        let sweep_s = secs(t);
        match table {
            Ok(table) => {
                units = table.cells as u64 * seed_list.len() as u64;
                checks.attempt(units);
                let t = Instant::now();
                let doc = table_doc(&table);
                let digest = digest_hex(doc.as_bytes());
                reps.push(Rep {
                    sweep_s,
                    doc_s: secs(t),
                    digest,
                });
                first.get_or_insert(table);
            }
            Err(e) => {
                checks.attempt(1);
                checks.fail(format!("run_sweep: {e}"));
                break;
            }
        }
        last = secs(t_rep);
    }

    let (digest, head, metrics) = match (&first, reps.first(), setup_s) {
        (Some(table), Some(rep0), Some(setup_s)) => {
            for (i, rep) in reps.iter().enumerate() {
                checks.same(&format!("rep {i} vs rep 0"), &rep.digest, &rep0.digest);
            }
            let head = headline(table);
            checks.pinned(opts, &rep0.digest, &head);
            let sweep_s = median(&reps.iter().map(|r| r.sweep_s).collect::<Vec<_>>());
            let doc_s = median(&reps.iter().map(|r| r.doc_s).collect::<Vec<_>>());
            let request_s = setup_s + sweep_s + doc_s;
            let metrics = vec![
                metric("setup_s", "s", setup_s),
                metric("sim_cycles_per_s", "1/s", cycles as f64 / sweep_s),
                metric("results_per_s", "1/s", units as f64 / request_s),
                metric("request_ms_p50", "ms", request_s * 1e3),
                metric("peak_rss_mb", "MB", peak_rss_mb()),
            ];
            (rep0.digest.clone(), head, metrics)
        }
        _ => (String::new(), Headline::default(), Vec::new()),
    };
    Detail::new(opts, reps.len(), checks, digest, head, metrics)
}

/// The sweep section of a traced pass: the grid once through `run_sweep`
/// (parallel), then every (cell, seed) unit one by one through
/// `run_scenario` with a span per unit. Each unit's network row must
/// match the parallel table's.
pub fn section(seed_list: &[u64], checks: &mut Checks, trace: &mut Trace) -> Section {
    let spec = SweepSpec::from_json(GRID_JSON).expect("bundled grid parses");
    let cells = spec.expand().expect("bundled grid expands");
    let t = Instant::now();
    let table = run_sweep(&spec, seed_list).expect("bundled grid runs");
    let parallel_s = secs(t);
    let units = cells.len() * seed_list.len();
    checks.attempt(units as u64);

    let root = trace.open_root("sweep");
    let mut unit_ms = Vec::with_capacity(units);
    for cell in &cells {
        for &seed in seed_list {
            let start = trace.now();
            let t = Instant::now();
            let result = run_scenario(&cell.scenario, &[seed]);
            unit_ms.push(secs(t) * 1e3);
            let end = trace.now();
            trace.interval("core.unit", (start, end), Some(root), None);
            let row = table
                .rows
                .iter()
                .find(|r| r.cell == cell.index && r.seed == seed && r.scope == "network");
            match (result, row) {
                (Ok(result), Some(row)) => {
                    let run = &result.mechanisms[0].runs[0];
                    if run.throughput != row.throughput
                        || run.avg_latency != row.avg_latency
                        || run.delivered_packets != row.delivered_packets
                    {
                        checks.fail(format!(
                            "cell {} seed {seed}: one-by-one run differs from the sweep row",
                            cell.index
                        ));
                    }
                }
                (Err(e), _) => checks.fail(format!("cell {} seed {seed}: {e}", cell.index)),
                (_, None) => checks.fail(format!("cell {} seed {seed}: no sweep row", cell.index)),
            }
        }
    }
    trace.close(root);

    let serial_s = unit_ms.iter().sum::<f64>() / 1e3;
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(units.max(1));
    let doc = table_doc(&table);
    let metrics = vec![
        metric("core.unit_ms_p50", "ms", median(&unit_ms)),
        metric("core.unit_ms_max", "ms", percentile(&unit_ms, 100.0)),
        metric("core.sweep_serial_s", "s", serial_s),
        metric(
            "core.sweep_parallel_eff",
            "ratio",
            serial_s / (workers as f64 * parallel_s),
        ),
        metric("sweep_units_per_s", "1/s", units as f64 / parallel_s),
    ];
    Section {
        metrics,
        digest: digest_hex(doc.as_bytes()),
        headline: headline(&table),
        trace_overhead_frac: serial_s / parallel_s - 1.0,
    }
}
