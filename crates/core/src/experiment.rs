//! Multi-seed averaging over a grid of configurations — the one runner
//! behind every figure and table of the `figure` bin.

use crate::config::SimConfig;
use crate::sim::{run_single, RunResult};
use df_stats::FairnessReport;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Seed set mirroring the paper's "average of 3 different simulations".
pub const DEFAULT_SEEDS: [u64; 3] = [11, 23, 47];

/// Averaged result across seeds for one (mechanism, pattern, load) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AveragedResult {
    /// Mechanism label.
    pub mechanism: String,
    /// Pattern label.
    pub pattern: String,
    /// Configured offered load in phits/(node·cycle).
    pub load: f64,
    /// Number of seeds averaged.
    pub runs: usize,
    /// Mean accepted throughput.
    pub throughput: f64,
    /// Mean end-to-end latency (cycles).
    pub avg_latency: f64,
    /// Mean latency components `[base, misroute, local_q, global_q,
    /// injection_q]`.
    pub components: [f64; 5],
    /// Per-router injections, averaged element-wise across seeds — this is
    /// exactly how the paper obtains fractional "Min inj" values like
    /// 69.33 in Table II.
    pub injected_per_router: Vec<f64>,
    /// Fairness metrics over the averaged counts.
    pub fairness: FairnessReport,
}

impl AveragedResult {
    /// Average individual runs (all must share mechanism/pattern/load).
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn from_runs(runs: &[RunResult]) -> Self {
        assert!(!runs.is_empty(), "cannot average zero runs");
        let n = runs.len() as f64;
        let routers = runs[0].injected_per_router.len();
        let mut injected = vec![0.0; routers];
        let mut components = [0.0; 5];
        let mut throughput = 0.0;
        let mut latency = 0.0;
        for r in runs {
            debug_assert_eq!(r.injected_per_router.len(), routers);
            throughput += r.throughput;
            latency += r.avg_latency;
            for (acc, c) in components.iter_mut().zip(r.components) {
                *acc += c;
            }
            for (acc, &c) in injected.iter_mut().zip(&r.injected_per_router) {
                *acc += c as f64;
            }
        }
        throughput /= n;
        latency /= n;
        components.iter_mut().for_each(|c| *c /= n);
        injected.iter_mut().for_each(|c| *c /= n);
        let fairness = FairnessReport::from_counts(&injected);
        Self {
            mechanism: runs[0].mechanism.clone(),
            pattern: runs[0].pattern.clone(),
            load: runs[0].load,
            runs: runs.len(),
            throughput,
            avg_latency: latency,
            components,
            injected_per_router: injected,
            fairness,
        }
    }
}

/// Run every cell under every seed and average per cell: one flat,
/// order-preserving cell × seed fan-out (so at most
/// `available_parallelism` simulators are live at once, whatever the
/// grid's shape); `result[i]` averages `cells[i]` over `seeds`.
///
/// # Panics
/// Panics on an empty seed list.
pub fn run_grid(cells: &[SimConfig], seeds: &[u64]) -> Vec<AveragedResult> {
    assert!(!seeds.is_empty(), "cannot average zero runs");
    let units: Vec<(&SimConfig, u64)> =
        cells.iter().flat_map(|cfg| seeds.iter().map(move |&s| (cfg, s))).collect();
    let runs: Vec<RunResult> =
        units.par_iter().map(|&(cfg, s)| run_single(&cfg.with_seed(s))).collect();
    runs.chunks(seeds.len()).map(AveragedResult::from_runs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::ArbiterPolicy;
    use df_routing::MechanismSpec;
    use df_topology::DragonflyParams;
    use df_traffic::PatternSpec;

    fn tiny() -> SimConfig {
        let mut cfg = SimConfig::small(
            MechanismSpec::Min,
            ArbiterPolicy::RoundRobin,
            PatternSpec::Uniform,
            0.2,
        );
        cfg.params = DragonflyParams::figure1();
        cfg.warmup_cycles = 1_000;
        cfg.measure_cycles = 2_000;
        cfg
    }

    #[test]
    fn averaging_reduces_to_identity_for_one_run() {
        let r = run_single(&tiny());
        let avg = AveragedResult::from_runs(std::slice::from_ref(&r));
        assert_eq!(avg.throughput, r.throughput);
        assert_eq!(avg.runs, 1);
    }

    #[test]
    fn averaged_result_over_three_seeds() {
        let avg = &run_grid(&[tiny()], &[1, 2, 3])[0];
        assert_eq!(avg.runs, 3);
        assert!(avg.throughput > 0.1);
        // Averaged counts can be fractional, like the paper's Table II.
        assert!(avg.injected_per_router.iter().any(|c| c.fract() != 0.0));
    }

    #[test]
    fn grid_produces_point_per_cell_in_order() {
        let pts = run_grid(&[tiny().with_load(0.1), tiny().with_load(0.2)], &[1, 2]);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].load, 0.1);
        assert_eq!(pts[1].load, 0.2);
        assert!(pts[1].throughput > pts[0].throughput);
    }

    /// The grid is exactly `from_runs` over per-cell `run_single` calls,
    /// cell order preserved — cells differing in mechanism and load.
    #[test]
    fn grid_equals_per_cell_run_single() {
        let mut short = tiny();
        short.warmup_cycles = 300;
        short.measure_cycles = 600;
        let mut mm = short.with_load(0.3);
        mm.mechanism = MechanismSpec::InTransitMm;
        let cells = [short.with_load(0.1), mm, short.clone()];
        let seeds = [5, 9];
        let grid = run_grid(&cells, &seeds);
        assert_eq!(grid.len(), cells.len());
        for (cfg, got) in cells.iter().zip(&grid) {
            let runs: Vec<RunResult> =
                seeds.iter().map(|&s| run_single(&cfg.with_seed(s))).collect();
            let want = AveragedResult::from_runs(&runs);
            assert_eq!(serde_json::to_string(got).unwrap(), serde_json::to_string(&want).unwrap());
        }
        assert_eq!(grid[1].mechanism, "In-Trns-MM");
        assert!(run_grid(&[], &seeds).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot average zero runs")]
    fn empty_seed_list_is_rejected() {
        run_grid(&[tiny()], &[]);
    }
}
