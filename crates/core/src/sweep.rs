//! The sweep runner: expand a [`SweepSpec`]'s axes into cells, run every
//! cell × seed in parallel, and emit a *long-format* result table (one
//! row per cell × seed × scope) suitable for replotting the paper's
//! figures with any plotting tool.
//!
//! Determinism: cells are expanded in a fixed order, each cell runs an
//! independent `run_cell` derived only from `(cell, seed)`, and
//! the work-claiming `par_iter` preserves result order — so the same
//! sweep under the same seeds serializes to a bit-identical table no
//! matter how cells were interleaved across threads.

use crate::ctl::RunCtl;
use crate::error::ScenarioError;
use crate::scenario::{run_cell, CellOptions};
use crate::sim::RunResult;
use df_workload::{SweepCell, SweepSpec};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One row of the long-format sweep table: the cell's axis coordinates,
/// the seed, and one measurement scope — `"network"` for the whole
/// machine or a job's name for its per-job slice.
///
/// Rows round-trip through JSON (`Deserialize`) so a service layer can
/// checkpoint them per `(cell, seed)` unit and replay verified rows
/// after a crash without rerunning the simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Cell index in expansion order.
    pub cell: u32,
    /// Mechanism label (e.g. `In-Trns-MM`).
    pub mechanism: String,
    /// Load-axis coordinate, or the scenario's node-weighted configured
    /// load when the sweep has no load axis.
    pub load: f64,
    /// Placement-variant label (`base` without a placement axis).
    pub placement: String,
    /// Pattern-axis label (`base` without a pattern axis).
    pub pattern: String,
    /// Master seed of the run behind this row.
    pub seed: u64,
    /// `"network"` or the job name.
    pub scope: String,
    /// Nodes in the scope (whole machine or the job's allocation).
    pub nodes: u32,
    /// Offered load in phits/(node·cycle) over the scope's nodes.
    pub offered: f64,
    /// Accepted throughput in phits/(node·cycle) over the scope's nodes.
    pub throughput: f64,
    /// Mean end-to-end packet latency in cycles.
    pub avg_latency: f64,
    /// Median latency (histogram bucket upper bound; `None` for network
    /// rows and for jobs that delivered nothing).
    pub p50_latency: Option<u64>,
    /// 95th-percentile latency (same conventions).
    pub p95_latency: Option<u64>,
    /// 99th-percentile latency (same conventions).
    pub p99_latency: Option<u64>,
    /// Cycles of the window the scope was live (churn jobs may be live
    /// for only part of it).
    pub active_cycles: u64,
    /// Packets delivered for the scope during the window.
    pub delivered_packets: u64,
    /// Minimum per-unit injection count (per router for network rows,
    /// per node for job rows — the paper's Min inj).
    pub min_injections: f64,
    /// Injection max/min ratio over the same units; `None` when the
    /// minimum is zero (the ratio is unbounded). An `Option` rather
    /// than `f64::INFINITY` so a row survives a JSON round trip
    /// byte-identically — JSON has no non-finite literals, and the
    /// checkpoint/recovery path re-verifies rows by re-serializing
    /// them.
    pub max_min_ratio: Option<f64>,
    /// Injection coefficient of variation (Tables II/III).
    pub cov: f64,
    /// Jain fairness index over the same units.
    pub jain: f64,
}

/// A complete sweep result: every cell × seed × scope row, long format.
#[derive(Debug, Clone, Serialize)]
pub struct SweepTable {
    /// Sweep name from the spec.
    pub sweep: String,
    /// Seeds each cell was run under.
    pub seeds: Vec<u64>,
    /// Number of cells in the grid.
    pub cells: u32,
    /// The rows, ordered by (cell, seed, scope) with the network scope
    /// first and jobs in spec order.
    pub rows: Vec<SweepRow>,
}

impl SweepTable {
    /// The table as CSV (header + one line per row). Optional percentile
    /// cells are empty when absent; floats use Rust's shortest-roundtrip
    /// formatting, so the text is bit-stable for identical results.
    /// Label fields come from user-authored JSON (job names, variant
    /// labels), so they are RFC-4180-quoted when they contain a comma,
    /// quote, or newline.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "cell,mechanism,load,placement,pattern,seed,scope,nodes,offered,throughput,\
             avg_latency,p50_latency,p95_latency,p99_latency,active_cycles,\
             delivered_packets,min_injections,max_min_ratio,cov,jain\n",
        );
        let opt = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        let esc = |s: &str| {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                r.cell,
                esc(&r.mechanism),
                r.load,
                esc(&r.placement),
                esc(&r.pattern),
                r.seed,
                esc(&r.scope),
                r.nodes,
                r.offered,
                r.throughput,
                r.avg_latency,
                opt(r.p50_latency),
                opt(r.p95_latency),
                opt(r.p99_latency),
                r.active_cycles,
                r.delivered_packets,
                r.min_injections,
                // An unbounded ratio keeps its historical CSV spelling.
                r.max_min_ratio.map(|x| x.to_string()).unwrap_or_else(|| "inf".into()),
                r.cov,
                r.jain,
            ));
        }
        out
    }
}

/// Flatten one cell × seed run into its long-format rows.
fn rows_of(cell: &SweepCell, seed: u64, run: &RunResult) -> Vec<SweepRow> {
    let finite = |x: f64| x.is_finite().then_some(x);
    let placement = cell.placement.clone().unwrap_or_else(|| "base".into());
    let pattern = cell.pattern.clone().unwrap_or_else(|| "base".into());
    let load = cell.load.unwrap_or(run.load);
    let mut rows = Vec::with_capacity(1 + run.per_job.len());
    rows.push(SweepRow {
        cell: cell.index,
        mechanism: run.mechanism.clone(),
        load,
        placement: placement.clone(),
        pattern: pattern.clone(),
        seed,
        scope: "network".into(),
        nodes: cell.scenario.params.nodes(),
        offered: run.offered,
        throughput: run.throughput,
        avg_latency: run.avg_latency,
        p50_latency: None,
        p95_latency: None,
        p99_latency: run.p99_latency,
        active_cycles: cell.scenario.measure_cycles,
        delivered_packets: run.delivered_packets,
        min_injections: run.fairness.min,
        max_min_ratio: finite(run.fairness.max_min_ratio),
        cov: run.fairness.cov,
        jain: run.fairness.jain,
    });
    for job in &run.per_job {
        rows.push(SweepRow {
            cell: cell.index,
            mechanism: run.mechanism.clone(),
            load,
            placement: placement.clone(),
            pattern: pattern.clone(),
            seed,
            scope: job.job.clone(),
            nodes: job.nodes,
            offered: job.offered,
            throughput: job.throughput,
            avg_latency: job.avg_latency,
            p50_latency: job.p50_latency,
            p95_latency: job.p95_latency,
            p99_latency: job.p99_latency,
            active_cycles: job.active_cycles,
            delivered_packets: job.delivered_packets,
            min_injections: job.fairness.min,
            max_min_ratio: finite(job.fairness.max_min_ratio),
            cov: job.fairness.cov,
            jain: job.fairness.jain,
        });
    }
    rows
}

/// Expand `spec` and run every cell under every seed (in parallel over
/// the whole cell × seed grid). Row order — and therefore the serialized
/// table — depends only on the spec and the seed list.
pub fn run_sweep(spec: &SweepSpec, seeds: &[u64]) -> Result<SweepTable, ScenarioError> {
    run_sweep_hooked(spec, seeds, None, None)
}

/// The per-unit hook of [`run_sweep_hooked`], called once for every
/// `(cell, seed)` unit — one `run_cell` per unit, keyed by the cell's
/// expansion-order index — from the parallel worker that owns the unit.
/// It either returns rows it already holds (the unit never simulates)
/// or calls `compute` and observes its result before returning it. The
/// caller is responsible for only returning rows it has verified (e.g.
/// digest-checked checkpoint lines). Must be `Sync`: parallel workers
/// call it inline.
pub type UnitHook<'a> = &'a (dyn Fn(
    u32,
    u64,
    &dyn Fn() -> Result<Vec<SweepRow>, ScenarioError>,
) -> Result<Vec<SweepRow>, ScenarioError>
         + Sync);

/// [`run_sweep`] under external run control and with a per-unit hook.
/// Every parallel cell × seed unit asks the same [`RunCtl`] at cycle
/// granularity, so one cancellation or deadline stops the whole grid;
/// spec errors are prefixed with the failing cell's coordinate,
/// interrupts propagate unchanged so a service layer can map them to
/// structured events. `unit` answers each unit, from rows in hand or by
/// computing it. The table is the in-order concatenation of the units'
/// rows — the same deterministic cell-major order as [`run_sweep`], no
/// matter which units the hook answered — so a resumed sweep serializes
/// bit-identically to an uninterrupted one.
pub fn run_sweep_hooked(
    spec: &SweepSpec,
    seeds: &[u64],
    ctl: RunCtl<'_>,
    unit: Option<UnitHook<'_>>,
) -> Result<SweepTable, ScenarioError> {
    if seeds.is_empty() {
        return Err(ScenarioError::spec("need at least one seed"));
    }
    let cells = spec.expand()?;
    let units: Vec<(usize, u64)> =
        (0..cells.len()).flat_map(|c| seeds.iter().map(move |&s| (c, s))).collect();
    let runs: Vec<Result<Vec<SweepRow>, ScenarioError>> = units
        .par_iter()
        .map(|&(c, seed)| {
            let cell = &cells[c];
            let compute = || {
                let opts = CellOptions { ctl, ..Default::default() };
                run_cell(&cell.scenario, cell.mechanism, seed, opts)
                    .map(|run| rows_of(cell, seed, &run))
                    .map_err(|e| e.context(&format!("cell {c} ({})", cell.mechanism.label())))
            };
            match unit {
                Some(hook) => hook(c as u32, seed, &compute),
                None => compute(),
            }
        })
        .collect();
    let mut rows = Vec::new();
    for unit in runs {
        rows.extend(unit?);
    }
    Ok(SweepTable {
        sweep: spec.name.clone(),
        seeds: seeds.to_vec(),
        cells: cells.len() as u32,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::ArbiterPolicy;
    use df_routing::MechanismSpec;
    use df_topology::{Arrangement, DragonflyParams};
    use df_traffic::PatternSpec;
    use df_workload::{InjectionSpec, JobSpec, PlacementSpec, ScenarioSpec};

    fn tiny_sweep() -> SweepSpec {
        SweepSpec {
            name: "tiny-grid".into(),
            base: ScenarioSpec {
                name: "base".into(),
                params: DragonflyParams::figure1(),
                arrangement: Arrangement::Palmtree,
                mechanisms: vec![MechanismSpec::InTransitMm],
                arbiter: ArbiterPolicy::TransitPriority,
                warmup_cycles: 300,
                measure_cycles: 600,
                telemetry: None,
                jobs: vec![JobSpec {
                    name: "app".into(),
                    placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 3, slots: None },
                    pattern: PatternSpec::Uniform,
                    injection: InjectionSpec::Bernoulli,
                    load: 0.2,
                    start_cycle: None,
                    stop_cycle: None,
                }],
            },
            loads: Some(vec![0.15, 0.3]),
            load_jobs: None,
            placements: None,
            patterns: None,
            pattern_jobs: None,
            mechanisms: Some(vec![MechanismSpec::InTransitMm, MechanismSpec::Min]),
        }
    }

    #[test]
    fn long_format_rows_cover_every_cell_seed_and_scope() {
        let table = run_sweep(&tiny_sweep(), &[1, 2]).unwrap();
        assert_eq!(table.cells, 4);
        // 4 cells × 2 seeds × (network + 1 job).
        assert_eq!(table.rows.len(), 4 * 2 * 2);
        // Deterministic order: cell-major, seed, then scope.
        assert_eq!(table.rows[0].cell, 0);
        assert_eq!(table.rows[0].seed, 1);
        assert_eq!(table.rows[0].scope, "network");
        assert_eq!(table.rows[1].scope, "app");
        assert_eq!(table.rows[2].seed, 2);
        assert_eq!(table.rows[15].cell, 3);
        // Axis coordinates land in the rows.
        assert_eq!(table.rows[0].load, 0.15);
        assert_eq!(table.rows[15].load, 0.3);
        assert_eq!(table.rows[0].placement, "base");
        // The job actually ran.
        assert!(table.rows[1].throughput > 0.0);
    }

    #[test]
    fn same_seed_sweep_serializes_bit_identically() {
        let spec = tiny_sweep();
        let a = run_sweep(&spec, &[7]).unwrap();
        let b = run_sweep(&spec, &[7]).unwrap();
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn csv_shape_matches_rows() {
        let table = run_sweep(&tiny_sweep(), &[3]).unwrap();
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + table.rows.len());
        let header_cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), header_cols, "{line}");
        }
        assert!(lines[1].starts_with("0,In-Trns-MM,0.15,base,base,3,network,72,"));
    }

    #[test]
    fn hooked_run_streams_rows_and_recovery_is_bit_identical() {
        use std::collections::HashMap;
        use std::sync::Mutex;
        let spec = tiny_sweep();
        let seeds = [1u64, 2];

        // A hooked run streams every unit exactly once.
        let streamed: Mutex<HashMap<(u32, u64), Vec<SweepRow>>> = Mutex::new(HashMap::new());
        let stream = |cell: u32, seed: u64, compute: &dyn Fn() -> _| {
            let rows: Vec<SweepRow> = compute()?;
            let prev = streamed.lock().unwrap().insert((cell, seed), rows.clone());
            assert!(prev.is_none(), "unit ({cell}, {seed}) streamed twice");
            Ok(rows)
        };
        let full = run_sweep_hooked(&spec, &seeds, None, Some(&stream)).unwrap();
        let streamed = streamed.into_inner().unwrap();
        assert_eq!(streamed.len(), 4 * 2, "4 cells × 2 seeds");
        assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&run_sweep(&spec, &seeds).unwrap()).unwrap(),
            "hooks must not perturb the table"
        );

        // Recovering half the units from the streamed rows reproduces the
        // table bit-identically, simulating only the missing units.
        let recomputed = Mutex::new(0u32);
        let resume = |cell: u32, seed: u64, compute: &dyn Fn() -> _| {
            if cell.is_multiple_of(2) {
                return Ok(streamed[&(cell, seed)].clone());
            }
            let rows = compute()?;
            *recomputed.lock().unwrap() += 1;
            Ok(rows)
        };
        let resumed = run_sweep_hooked(&spec, &seeds, None, Some(&resume)).unwrap();
        assert_eq!(*recomputed.lock().unwrap(), 2 * 2, "only the odd cells recompute");
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&full).unwrap(),
            "recovered table must be byte-identical"
        );
    }

    #[test]
    fn sweep_rows_roundtrip_through_json() {
        let table = run_sweep(&tiny_sweep(), &[3]).unwrap();
        for row in &table.rows {
            let line = serde_json::to_string(row).unwrap();
            let back: SweepRow = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, row);
        }
    }

    #[test]
    fn bad_cells_surface_their_index() {
        let mut spec = tiny_sweep();
        // An in-job hot index beyond the job's 24 nodes fails at run time
        // (virtual geometry is only known once the placement resolves).
        spec.base.jobs[0].pattern = PatternSpec::HotSpot { hot: 900, fraction: 0.5 };
        let err = run_sweep(&spec, &[1]).unwrap_err();
        assert!(err.to_string().contains("cell 0"), "{err}");
        assert!(matches!(err, ScenarioError::InvalidSpec(_)), "{err:?}");
    }
}
