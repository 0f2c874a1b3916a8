//! Serializable scenario specifications: a machine, a measurement
//! protocol, a mechanism set, and the jobs that share the network.

use crate::injection::InjectionSpec;
use crate::job::JobSpec;
use crate::placement::ResolvedPlacement;
use df_engine::{validate_run_protocol, ArbiterPolicy, TelemetrySpec};
use df_routing::MechanismSpec;
use df_topology::{Arrangement, DragonflyParams};
use df_traffic::derive_seed;
use serde::{Deserialize, Serialize};

/// A complete multi-job experiment, loadable from JSON (`scenarios/`).
///
/// The mechanism axis is a *list* so one scenario file can contrast how
/// different routing mechanisms treat the same workload (e.g. which one
/// lets an ADVc aggressor starve a uniform victim).
///
/// See `docs/SCENARIOS.md` for the complete JSON schema reference.
///
/// # Examples
///
/// Parse and validate a minimal one-job scenario from JSON (only
/// `Option` fields — here the telemetry spec, the job's lifetime, and
/// placement slots — may be omitted):
///
/// ```
/// use df_workload::ScenarioSpec;
///
/// let spec = ScenarioSpec::from_json(r#"{
///   "name": "minimal",
///   "params": { "p": 2, "a": 4, "h": 2 },
///   "arrangement": "Palmtree",
///   "mechanisms": ["in-transit-mm"],
///   "arbiter": "TransitPriority",
///   "warmup_cycles": 500,
///   "measure_cycles": 1000,
///   "jobs": [{
///     "name": "app",
///     "placement": { "placement": "consecutive_groups", "first": 0, "count": 3 },
///     "pattern": { "pattern": "uniform" },
///     "injection": { "process": "bernoulli" },
///     "load": 0.3
///   }]
/// }"#).unwrap();
/// spec.validate(1).unwrap();
/// assert_eq!(spec.resolve_placements(1).unwrap()[0].nodes.len(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in result files).
    pub name: String,
    /// Machine sizing.
    pub params: DragonflyParams,
    /// Global-link arrangement.
    pub arrangement: Arrangement,
    /// Routing mechanisms to run the workload under.
    pub mechanisms: Vec<MechanismSpec>,
    /// Output-arbiter policy.
    pub arbiter: ArbiterPolicy,
    /// Warm-up cycles before statistics are tracked.
    pub warmup_cycles: u64,
    /// Measurement window in cycles.
    pub measure_cycles: u64,
    /// Opt-in windowed telemetry (window width + what to sample). An
    /// omitted JSON field deserializes to `None`: no timeline, no
    /// instrumentation cost.
    pub telemetry: Option<TelemetrySpec>,
    /// The jobs sharing the network. Node sets must be disjoint.
    pub jobs: Vec<JobSpec>,
}

impl ScenarioSpec {
    /// Resolve every job's placement for the given master `seed`, with a
    /// distinct sub-seed per job so two random placements in one scenario
    /// land on different node sets. This is *the* placement derivation —
    /// [`ScenarioSpec::validate`] and the scenario runner both use it.
    pub fn resolve_placements(&self, seed: u64) -> Result<Vec<ResolvedPlacement>, String> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                job.placement
                    .resolve(&self.params, derive_seed(seed, 0x10 + j as u64))
                    .map_err(|e| format!("job `{}`: {e}", job.name))
            })
            .collect()
    }

    /// Validate the spec against its own machine: a machine the simulator
    /// can build ([`DragonflyParams::check`]), non-empty axes, sane
    /// loads, resolvable and pairwise-disjoint placements, and every
    /// job's pattern against the virtual geometry of its placement
    /// ([`PatternSpec::check`](df_traffic::PatternSpec::check) — the rule
    /// the generator itself is built by).
    ///
    /// `seed` must match the master seed later used to run the scenario
    /// (random placements are seed-dependent).
    pub fn validate(&self, seed: u64) -> Result<(), String> {
        self.params.check().map_err(|e| format!("params: {e}"))?;
        if self.jobs.is_empty() {
            return Err("scenario has no jobs".into());
        }
        if self.mechanisms.is_empty() {
            return Err("scenario has no mechanisms".into());
        }
        validate_run_protocol(self.warmup_cycles, self.measure_cycles, self.telemetry.as_ref())?;
        let placements = self.resolve_placements(seed)?;
        // Jobs may time-share nodes: a node claim is only a conflict when
        // the two claimants' lifetimes overlap (a departed job's slots are
        // reusable by a later arrival).
        let mut claims: Vec<Vec<usize>> = vec![Vec::new(); self.params.nodes() as usize];
        for (j, (job, placement)) in self.jobs.iter().zip(&placements).enumerate() {
            if !(0.0..=8.0).contains(&job.load) {
                return Err(format!("job `{}` load {} out of range", job.name, job.load));
            }
            let (start, stop) = job.lifetime();
            if stop <= start {
                return Err(format!("job `{}` stops before it starts", job.name));
            }
            // A trace job's destinations come with its events.
            if !matches!(job.injection, InjectionSpec::Trace { .. }) {
                job.pattern
                    .check(placement.nodes.len() as u32, placement.group_size, self.params.h)
                    .map_err(|e| format!("job `{}`: {e}", job.name))?;
            }
            for n in &placement.nodes {
                for &other in &claims[n.idx()] {
                    if crate::lifetimes_overlap((start, stop), self.jobs[other].lifetime()) {
                        return Err(format!(
                            "jobs `{}` and `{}` both claim node {} with overlapping \
                             lifetimes",
                            self.jobs[other].name, job.name, n.0
                        ));
                    }
                }
                claims[n.idx()].push(j);
            }
        }
        Ok(())
    }

    /// Parse a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("malformed scenario: {e}"))
    }

    /// Load a scenario from a JSON file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {path}: {e}"))?;
        Self::from_json(&text)
    }

    /// Serialize as pretty JSON (the `scenarios/*.json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize scenario")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementSpec;
    use df_engine::MAX_RUN_CYCLES;
    use df_traffic::PatternSpec;

    fn job(name: &str, first: u32, count: u32) -> JobSpec {
        JobSpec {
            name: name.into(),
            placement: PlacementSpec::ConsecutiveGroups { first, count, slots: None },
            pattern: PatternSpec::Uniform,
            injection: InjectionSpec::Bernoulli,
            load: 0.3,
            start_cycle: None,
            stop_cycle: None,
        }
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "two-jobs".into(),
            params: DragonflyParams::small(),
            arrangement: Arrangement::Palmtree,
            mechanisms: vec![MechanismSpec::InTransitMm, MechanismSpec::ObliviousCrg],
            arbiter: ArbiterPolicy::TransitPriority,
            warmup_cycles: 1000,
            measure_cycles: 2000,
            telemetry: None,
            jobs: vec![job("a", 0, 4), job("b", 4, 4)],
        }
    }

    #[test]
    fn valid_spec_passes() {
        spec().validate(1).unwrap();
    }

    /// A `group_local` job whose last virtual group holds one node: the
    /// generator would redraw that node forever inside one cycle.
    #[test]
    fn group_local_with_a_lone_node_is_rejected_naming_the_job() {
        let mut s = spec();
        s.params = DragonflyParams::figure1();
        s.jobs = vec![JobSpec {
            placement: PlacementSpec::RoundRobinRouters { count: 5, offset: None },
            pattern: PatternSpec::GroupLocal,
            ..job("gl", 0, 1)
        }];
        let err = s.validate(1).unwrap_err();
        assert!(err.contains("job `gl`: group_local needs at least 2 nodes"), "{err}");
        assert!(err.contains("virtual group 1 of 2 holds 1"), "{err}");
    }

    #[test]
    fn overlapping_jobs_rejected() {
        let mut s = spec();
        s.jobs[1] = job("b", 3, 4);
        let err = s.validate(1).unwrap_err();
        assert!(err.contains("both claim"), "{err}");
    }

    #[test]
    fn two_random_placements_get_distinct_group_sets() {
        // Regression: each job's placement must draw from its own
        // sub-seed, or two RandomGroups jobs always collide.
        let mut s = spec();
        for job in &mut s.jobs {
            job.placement = PlacementSpec::RandomGroups { count: 3, slots: None };
        }
        for seed in 0..20u64 {
            let placements = s.resolve_placements(seed).unwrap();
            assert_ne!(placements[0].nodes, placements[1].nodes, "seed {seed}");
        }
    }

    #[test]
    fn json_roundtrip() {
        let s = spec();
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn degenerate_axes_rejected() {
        let mut s = spec();
        s.mechanisms.clear();
        assert!(s.validate(1).is_err());
        let mut s = spec();
        s.jobs.clear();
        assert!(s.validate(1).is_err());
        let mut s = spec();
        s.jobs[0].load = 9.0;
        assert!(s.validate(1).is_err());
    }

    /// A run is `warmup + measure` cycles long: a sum past
    /// `MAX_RUN_CYCLES` — or past `u64::MAX` — is an admission error, the
    /// limit itself is not.
    #[test]
    fn an_overflowing_run_length_is_rejected() {
        let text = spec()
            .to_json()
            .replace("\"warmup_cycles\": 1000", "\"warmup_cycles\": 18446744073709551615");
        let mut s = ScenarioSpec::from_json(&text).unwrap();
        s.measure_cycles = 1;
        let err = s.validate(1).unwrap_err();
        assert!(err.contains("run-length limit"), "{err}");
        s.warmup_cycles = MAX_RUN_CYCLES - 1;
        s.validate(1).unwrap();
        s.measure_cycles = 2;
        let err = s.validate(1).unwrap_err();
        assert!(err.contains("run-length limit"), "{err}");
    }

    /// Radix 67 (30 + 35 + 2) passed validation and then panicked in the
    /// engine's router constructor; zero parameters read from JSON skip
    /// `DragonflyParams::new`'s assert. Both are admission errors now.
    #[test]
    fn a_machine_the_simulator_cannot_build_is_rejected() {
        let mut s = spec();
        s.params = DragonflyParams { p: 30, a: 36, h: 2 };
        s.jobs = vec![job("a", 0, 2)];
        let err = s.validate(1).unwrap_err();
        assert!(err.starts_with("params: ") && err.contains("radix 67"), "{err}");
        let zero = spec().to_json().replace("\"h\": 3", "\"h\": 0");
        let err = ScenarioSpec::from_json(&zero).unwrap().validate(1).unwrap_err();
        assert!(err.contains("nonzero") && err.contains("h 0"), "{err}");
    }

    #[test]
    fn a_pattern_that_does_not_fit_its_placement_is_rejected_by_job_and_field() {
        // Four virtual groups: ADV+4 has nowhere to go.
        let mut s = spec();
        s.jobs[1].pattern = PatternSpec::Adversarial { offset: 4 };
        let err = s.validate(1).unwrap_err();
        assert!(err.contains("job `b`") && err.contains("`offset` 4 out of range"), "{err}");
        // `hot` is a virtual index into the job's 72 nodes, not a node id.
        s.jobs[1].pattern = PatternSpec::HotSpot { hot: 72, fraction: 0.1 };
        let err = s.validate(1).unwrap_err();
        assert!(err.contains("`hot` 72 out of range"), "{err}");
        s.jobs[1].pattern = PatternSpec::HotSpot { hot: 71, fraction: 0.1 };
        s.validate(1).unwrap();
        // A trace job ignores its pattern, so a stale one is not an error.
        s.jobs[1].pattern = PatternSpec::Adversarial { offset: 4 };
        s.jobs[1].injection = InjectionSpec::Trace { path: "unread.json".into() };
        s.validate(1).unwrap();
    }
}
