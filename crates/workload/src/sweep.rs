//! Sweep specifications: axes over a base scenario, expanded into a grid
//! of runnable cells.
//!
//! The paper's unfairness results are *grids* — throughput/latency per
//! mechanism swept over offered load, with job placement deciding whether
//! a workload degenerates into ADVc. A [`SweepSpec`] captures such a grid
//! declaratively: a base [`ScenarioSpec`] plus up to four axes (offered
//! load, placement variant, traffic pattern, routing mechanism), expanded
//! by [`SweepSpec::expand`] into the cross product of [`SweepCell`]s in a
//! deterministic order (load-major, mechanism-minor). Omitted axes
//! contribute a single cell drawn from the base scenario.
//!
//! # Examples
//!
//! A two-axis grid (2 loads × 2 mechanisms = 4 cells) over a one-job
//! base scenario:
//!
//! ```
//! use df_workload::SweepSpec;
//!
//! let json = r#"{
//!   "name": "demo-grid",
//!   "base": {
//!     "name": "base",
//!     "params": { "p": 2, "a": 4, "h": 2 },
//!     "arrangement": "Palmtree",
//!     "mechanisms": ["in-transit-mm"],
//!     "arbiter": "TransitPriority",
//!     "warmup_cycles": 500,
//!     "measure_cycles": 1000,
//!     "jobs": [{
//!       "name": "app",
//!       "placement": { "placement": "consecutive_groups", "first": 0, "count": 3 },
//!       "pattern": { "pattern": "uniform" },
//!       "injection": { "process": "bernoulli" },
//!       "load": 0.3
//!     }]
//!   },
//!   "loads": [0.2, 0.4],
//!   "mechanisms": ["in-transit-mm", "oblivious-crg"]
//! }"#;
//! let sweep = SweepSpec::from_json(json).unwrap();
//! let cells = sweep.expand().unwrap();
//! assert_eq!(cells.len(), 4);
//! // Load-major, mechanism-minor expansion order.
//! assert_eq!(cells[0].load, Some(0.2));
//! assert_eq!(cells[1].load, Some(0.2));
//! assert_eq!(cells[3].load, Some(0.4));
//! // Every cell's derived scenario carries exactly one mechanism and the
//! // axis load applied to its jobs.
//! assert_eq!(cells[0].scenario.mechanisms.len(), 1);
//! assert_eq!(cells[3].scenario.jobs[0].load, 0.4);
//! ```

use crate::placement::PlacementSpec;
use crate::scenario::ScenarioSpec;
use df_routing::MechanismSpec;
use df_traffic::PatternSpec;
use serde::{Deserialize, Serialize};

/// Upper bound on the expanded grid size — a typo guard (e.g. a load axis
/// pasted twice), not a tuning constant.
pub const MAX_SWEEP_CELLS: usize = 4096;

/// One named placement assignment inside a [`PlacementVariant`]: the job
/// it applies to (by [`crate::JobSpec::name`]) and its new placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobPlacement {
    /// Name of the base-scenario job to re-place.
    pub job: String,
    /// The placement this variant assigns to that job.
    pub placement: PlacementSpec,
}

/// One point on the placement axis: a label (used in result tables) plus
/// the placements it assigns to named jobs. Jobs not named keep their
/// base placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementVariant {
    /// Variant label, e.g. `"consecutive"` or `"spread"`.
    pub label: String,
    /// Placement re-assignments, one per affected job.
    pub jobs: Vec<JobPlacement>,
}

/// A declarative sweep: a base scenario plus axes, loadable from JSON
/// (`scenarios/sweep_*.json`). See the module-level example above and
/// `docs/SCENARIOS.md` for the full schema reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep name (used in result files).
    pub name: String,
    /// The scenario every cell is derived from.
    pub base: ScenarioSpec,
    /// Offered-load axis: each value replaces the `load` of the jobs
    /// selected by `load_jobs`. `None` = no load axis.
    pub loads: Option<Vec<f64>>,
    /// Jobs the load axis applies to, by name (`None` = all jobs).
    pub load_jobs: Option<Vec<String>>,
    /// Placement axis (`None` = every cell keeps the base placements).
    pub placements: Option<Vec<PlacementVariant>>,
    /// Pattern axis: each value replaces the `pattern` of the jobs
    /// selected by `pattern_jobs`. `None` = no pattern axis.
    pub patterns: Option<Vec<PatternSpec>>,
    /// Jobs the pattern axis applies to, by name (`None` = all jobs).
    pub pattern_jobs: Option<Vec<String>>,
    /// Mechanism axis (`None` = the base scenario's mechanism list).
    pub mechanisms: Option<Vec<MechanismSpec>>,
}

/// One runnable cell of an expanded sweep: the axis coordinates plus the
/// fully derived single-mechanism scenario.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Row index in expansion order (load-major, mechanism-minor).
    pub index: u32,
    /// The load-axis coordinate (`None` when the sweep has no load axis).
    pub load: Option<f64>,
    /// The placement-variant label (`None` without a placement axis).
    pub placement: Option<String>,
    /// The pattern-axis label (`None` without a pattern axis).
    pub pattern: Option<String>,
    /// The mechanism this cell runs under.
    pub mechanism: MechanismSpec,
    /// The derived scenario (single mechanism, axis values applied).
    pub scenario: ScenarioSpec,
}

/// The length of an optional sweep axis: an omitted axis is a singleton
/// of `None`; a present-but-empty axis is a degenerate grid and rejected.
fn axis_len<T>(axis: &Option<Vec<T>>, what: &str) -> Result<usize, String> {
    match axis {
        Some(v) if v.is_empty() => Err(format!("sweep {what} axis is empty")),
        Some(v) => Ok(v.len()),
        None => Ok(1),
    }
}

impl SweepSpec {
    /// Parse a sweep from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("malformed sweep: {e}"))
    }

    /// Load a sweep from a JSON file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read sweep {path}: {e}"))?;
        Self::from_json(&text)
    }

    /// Serialize as pretty JSON (the `scenarios/sweep_*.json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize sweep")
    }

    /// Resolve a job-selector list against the base scenario: `None`
    /// selects every job; names must exist and not repeat.
    fn job_indices(
        &self,
        selector: &Option<Vec<String>>,
        axis: &str,
    ) -> Result<Vec<usize>, String> {
        match selector {
            None => Ok((0..self.base.jobs.len()).collect()),
            Some(names) => {
                let mut indices = Vec::with_capacity(names.len());
                for name in names {
                    let j = self
                        .base
                        .jobs
                        .iter()
                        .position(|job| &job.name == name)
                        .ok_or_else(|| format!("{axis} names unknown job `{name}`"))?;
                    if indices.contains(&j) {
                        return Err(format!("{axis} names job `{name}` twice"));
                    }
                    indices.push(j);
                }
                Ok(indices)
            }
        }
    }

    /// Expand the axes into the full cell grid, in deterministic order:
    /// loads (outer) → placements → patterns → mechanisms (inner). Each
    /// cell's scenario carries exactly one mechanism; run cells with
    /// `run_cell` (or `run_sweep`, which does all of this).
    ///
    /// Axis values are applied but the derived scenarios are *not* fully
    /// validated here — placements may be seed-dependent, so per-cell
    /// validation happens at run time with the run's master seed.
    pub fn expand(&self) -> Result<Vec<SweepCell>, String> {
        if self.base.jobs.is_empty() {
            return Err("sweep base scenario has no jobs".into());
        }
        let load_jobs = self.job_indices(&self.load_jobs, "load_jobs")?;
        let pattern_jobs = self.job_indices(&self.pattern_jobs, "pattern_jobs")?;
        for variant in self.placements.iter().flatten() {
            for jp in &variant.jobs {
                if !self.base.jobs.iter().any(|job| job.name == jp.job) {
                    return Err(format!(
                        "placement variant `{}` names unknown job `{}`",
                        variant.label, jp.job
                    ));
                }
            }
        }
        let mechanisms: &[MechanismSpec] =
            self.mechanisms.as_deref().unwrap_or(&self.base.mechanisms);
        if mechanisms.is_empty() {
            return Err("sweep has no mechanisms".into());
        }
        let n_loads = axis_len(&self.loads, "load")?;
        let n_placements = axis_len(&self.placements, "placement")?;
        let n_patterns = axis_len(&self.patterns, "pattern")?;
        let total = n_loads * n_placements * n_patterns * mechanisms.len();
        if total > MAX_SWEEP_CELLS {
            return Err(format!("sweep expands to {total} cells (limit {MAX_SWEEP_CELLS})"));
        }

        let mut cells = Vec::with_capacity(total);
        for li in 0..n_loads {
            for pi in 0..n_placements {
                for ti in 0..n_patterns {
                    for &mechanism in mechanisms {
                        let mut scenario = self.base.clone();
                        scenario.mechanisms = vec![mechanism];
                        let load = self.loads.as_ref().map(|l| l[li]);
                        if let Some(load) = load {
                            for &j in &load_jobs {
                                scenario.jobs[j].load = load;
                            }
                        }
                        let placement = self.placements.as_ref().map(|v| {
                            let variant = &v[pi];
                            for jp in &variant.jobs {
                                for job in &mut scenario.jobs {
                                    if job.name == jp.job {
                                        job.placement = jp.placement.clone();
                                    }
                                }
                            }
                            variant.label.clone()
                        });
                        let pattern = self.patterns.as_ref().map(|p| {
                            for &j in &pattern_jobs {
                                scenario.jobs[j].pattern = p[ti].clone();
                            }
                            p[ti].label()
                        });
                        cells.push(SweepCell {
                            index: cells.len() as u32,
                            load,
                            placement,
                            pattern,
                            mechanism,
                            scenario,
                        });
                    }
                }
            }
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injection::InjectionSpec;
    use crate::job::JobSpec;
    use df_engine::ArbiterPolicy;
    use df_topology::{Arrangement, DragonflyParams};

    fn base() -> ScenarioSpec {
        ScenarioSpec {
            name: "base".into(),
            params: DragonflyParams::figure1(),
            arrangement: Arrangement::Palmtree,
            mechanisms: vec![MechanismSpec::InTransitMm],
            arbiter: ArbiterPolicy::TransitPriority,
            warmup_cycles: 500,
            measure_cycles: 1000,
            telemetry: None,
            jobs: vec![
                JobSpec {
                    name: "app".into(),
                    placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 3, slots: None },
                    pattern: PatternSpec::Uniform,
                    injection: InjectionSpec::Bernoulli,
                    load: 0.3,
                    start_cycle: None,
                    stop_cycle: None,
                },
                JobSpec {
                    name: "other".into(),
                    placement: PlacementSpec::ConsecutiveGroups { first: 4, count: 2, slots: None },
                    pattern: PatternSpec::GroupLocal,
                    injection: InjectionSpec::Bernoulli,
                    load: 0.1,
                    start_cycle: None,
                    stop_cycle: None,
                },
            ],
        }
    }

    fn sweep() -> SweepSpec {
        SweepSpec {
            name: "grid".into(),
            base: base(),
            loads: Some(vec![0.2, 0.4]),
            load_jobs: Some(vec!["app".into()]),
            placements: Some(vec![
                PlacementVariant { label: "consecutive".into(), jobs: vec![] },
                PlacementVariant {
                    label: "spread".into(),
                    jobs: vec![JobPlacement {
                        job: "app".into(),
                        placement: PlacementSpec::RoundRobinRouters { count: 24, offset: None },
                    }],
                },
            ]),
            patterns: None,
            pattern_jobs: None,
            mechanisms: Some(vec![MechanismSpec::InTransitMm, MechanismSpec::ObliviousCrg]),
        }
    }

    #[test]
    fn expansion_is_the_cross_product_in_axis_order() {
        let cells = sweep().expand().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2);
        // Load-major, mechanism-minor.
        assert_eq!(cells[0].load, Some(0.2));
        assert_eq!(cells[0].placement.as_deref(), Some("consecutive"));
        assert_eq!(cells[0].mechanism, MechanismSpec::InTransitMm);
        assert_eq!(cells[1].mechanism, MechanismSpec::ObliviousCrg);
        assert_eq!(cells[2].placement.as_deref(), Some("spread"));
        assert_eq!(cells[4].load, Some(0.4));
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index as usize, i);
            assert_eq!(c.scenario.mechanisms, vec![c.mechanism]);
        }
    }

    #[test]
    fn axis_values_apply_to_selected_jobs_only() {
        let cells = sweep().expand().unwrap();
        // The load axis targets `app`; `other` keeps its base load.
        assert_eq!(cells[4].scenario.jobs[0].load, 0.4);
        assert_eq!(cells[4].scenario.jobs[1].load, 0.1);
        // The `spread` variant re-places `app` only.
        let spread = &cells[2].scenario;
        assert!(matches!(spread.jobs[0].placement, PlacementSpec::RoundRobinRouters { .. }));
        assert!(matches!(spread.jobs[1].placement, PlacementSpec::ConsecutiveGroups { .. }));
    }

    #[test]
    fn omitted_axes_collapse_to_the_base() {
        let s = SweepSpec {
            name: "single".into(),
            base: base(),
            loads: None,
            load_jobs: None,
            placements: None,
            patterns: None,
            pattern_jobs: None,
            mechanisms: None,
        };
        let cells = s.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].load, None);
        assert_eq!(cells[0].mechanism, MechanismSpec::InTransitMm);
        assert_eq!(cells[0].scenario.jobs[0].load, 0.3);
    }

    #[test]
    fn pattern_axis_labels_cells() {
        let mut s = sweep();
        s.placements = None;
        s.patterns = Some(vec![PatternSpec::Uniform, PatternSpec::AdvConsecutive { spread: None }]);
        s.pattern_jobs = Some(vec!["app".into()]);
        let cells = s.expand().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].pattern.as_deref(), Some("UN"));
        assert!(matches!(cells[2].scenario.jobs[0].pattern, PatternSpec::AdvConsecutive { .. }));
        // The unselected job keeps its base pattern in every cell.
        assert!(cells
            .iter()
            .all(|c| matches!(c.scenario.jobs[1].pattern, PatternSpec::GroupLocal)));
    }

    #[test]
    fn bad_axes_rejected() {
        let mut s = sweep();
        s.load_jobs = Some(vec!["nope".into()]);
        assert!(s.expand().unwrap_err().contains("unknown job"));
        let mut s = sweep();
        s.loads = Some(vec![]);
        assert!(s.expand().unwrap_err().contains("empty"));
        let mut s = sweep();
        s.placements.as_mut().unwrap()[0].jobs.push(JobPlacement {
            job: "ghost".into(),
            placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 1, slots: None },
        });
        assert!(s.expand().unwrap_err().contains("ghost"));
        let mut s = sweep();
        s.loads = Some(vec![0.1; MAX_SWEEP_CELLS]);
        assert!(s.expand().unwrap_err().contains("limit"));
    }

    #[test]
    fn every_empty_axis_is_named() {
        let mut s = sweep();
        s.loads = Some(vec![]);
        assert_eq!(s.expand().unwrap_err(), "sweep load axis is empty");
        let mut s = sweep();
        s.placements = Some(vec![]);
        assert_eq!(s.expand().unwrap_err(), "sweep placement axis is empty");
        let mut s = sweep();
        s.patterns = Some(vec![]);
        assert_eq!(s.expand().unwrap_err(), "sweep pattern axis is empty");
    }

    #[test]
    fn json_roundtrip() {
        let s = sweep();
        let back = SweepSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        // Omitted optional axes survive a round trip too.
        let minimal = SweepSpec {
            name: "m".into(),
            base: base(),
            loads: None,
            load_jobs: None,
            placements: None,
            patterns: None,
            pattern_jobs: None,
            mechanisms: None,
        };
        let back = SweepSpec::from_json(&minimal.to_json()).unwrap();
        assert_eq!(minimal, back);
    }
}
