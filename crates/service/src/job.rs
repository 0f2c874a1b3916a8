//! Job payloads: the unit of work a submission carries.
//!
//! A payload knows how to pre-validate itself (so a bad spec is
//! rejected at submit time, before it ever reaches a worker), how many
//! driver cycles it will simulate (the denominator of `progress`
//! events), and how to execute under a [`RunCtl`] into the canonical
//! result document — the exact JSON text that gets cached, digested,
//! and replayed on a cache hit.

use dragonfly_core::{
    run_scenario_ctl, run_sweep_hooked, RunCtl, ScenarioError, SweepHooks, DEFAULT_SEEDS,
};
use df_workload::{ScenarioSpec, SweepSpec};

/// The work behind one submission.
#[derive(Debug, Clone)]
pub enum JobPayload {
    /// A multi-job scenario ([`dragonfly_core::run_scenario`]).
    Scenario(ScenarioSpec),
    /// A sweep grid ([`dragonfly_core::run_sweep`]).
    Sweep(SweepSpec),
}

impl JobPayload {
    /// The cache-key kind component.
    pub fn kind(&self) -> &'static str {
        match self {
            JobPayload::Scenario(_) => "scenario",
            JobPayload::Sweep(_) => "sweep",
        }
    }

    /// The spec serialized to canonical JSON — the hashed component of
    /// the cache key. Serialization of a deserialized spec is
    /// deterministic (struct fields serialize in declaration order), so
    /// semantically identical submissions share a key even when the
    /// client formatted its JSON differently.
    ///
    /// The `shards` field is stripped before hashing: shard count is an
    /// operational knob with bit-identical output (the determinism
    /// contract, pinned by the sharding test suite), so a sharded and a
    /// serial submission of the same experiment share one cache entry.
    pub fn spec_json(&self) -> Result<String, ScenarioError> {
        match self {
            JobPayload::Scenario(s) => {
                let mut s = s.clone();
                s.shards = None;
                serde_json::to_string(&s)
            }
            JobPayload::Sweep(s) => {
                let mut s = s.clone();
                s.base.shards = None;
                serde_json::to_string(&s)
            }
        }
        .map_err(|e| ScenarioError::spec(format!("spec serialization: {e}")))
    }

    /// Cheap structural validation at submit time: a rejected spec never
    /// occupies a queue slot. Every job's pattern is checked against its
    /// placement here (an out-of-range hot-spot index is `rejected`);
    /// what only a run can find — an unreadable or out-of-range trace —
    /// still surfaces from the worker as a `failed` event.
    pub fn validate(&self, seeds: &[u64]) -> Result<(), ScenarioError> {
        if seeds.is_empty() {
            return Err(ScenarioError::spec("need at least one seed"));
        }
        match self {
            JobPayload::Scenario(s) => s.validate(seeds[0]).map_err(ScenarioError::spec),
            JobPayload::Sweep(s) => {
                let cells = s.expand().map_err(ScenarioError::spec)?;
                for (c, cell) in cells.iter().enumerate() {
                    cell.scenario
                        .validate(seeds[0])
                        .map_err(|e| ScenarioError::spec(format!("cell {c}: {e}")))?;
                }
                Ok(())
            }
        }
    }

    /// Total driver cycles this payload will simulate across all of its
    /// parallel cells — the `total_cycles` of `progress` events.
    /// Saturates at `u64::MAX` rather than overflowing.
    pub fn total_cycles(&self, seeds: &[u64]) -> u64 {
        let n_seeds = seeds.len() as u64;
        let cycles = |s: &ScenarioSpec| s.warmup_cycles.saturating_add(s.measure_cycles);
        match self {
            JobPayload::Scenario(s) => {
                cycles(s).saturating_mul(s.mechanisms.len() as u64).saturating_mul(n_seeds)
            }
            JobPayload::Sweep(s) => match s.expand() {
                Ok(cells) => cells
                    .iter()
                    .fold(0u64, |sum, c| sum.saturating_add(cycles(&c.scenario)))
                    .saturating_mul(n_seeds),
                Err(_) => 0,
            },
        }
    }

    /// Run the payload under `ctl` and serialize the canonical result
    /// document: the scenario *summary* (no raw runs) or the full sweep
    /// table, pretty-printed. Byte-identical across runs of the same
    /// key per the determinism contract.
    ///
    /// A sweep payload recovers `(cell, seed)` units through
    /// `hooks.precomputed` and streams each freshly computed unit's rows
    /// through `hooks.on_rows`; scenario payloads ignore the hooks. The
    /// result document is byte-identical whether or not units were
    /// recovered — rows merge in deterministic cell-major order.
    pub fn execute(
        &self,
        seeds: &[u64],
        ctl: &RunCtl<'_>,
        hooks: &SweepHooks<'_>,
    ) -> Result<String, ScenarioError> {
        let doc = match self {
            JobPayload::Scenario(s) => {
                let result = run_scenario_ctl(s, seeds, ctl)?;
                serde_json::to_string_pretty(&result.summary())
            }
            JobPayload::Sweep(s) => {
                let table = run_sweep_hooked(s, seeds, ctl, hooks)?;
                serde_json::to_string_pretty(&table)
            }
        };
        doc.map_err(|e| ScenarioError::spec(format!("result serialization: {e}")))
    }

    /// Number of `(cell, seed)` units the payload runs: the sweep grid
    /// times the seed list (scenarios count mechanism × seed runs).
    /// This is the `cells_total` of `recovered` events.
    pub fn total_units(&self, seeds: &[u64]) -> u64 {
        let n_seeds = seeds.len() as u64;
        match self {
            JobPayload::Scenario(s) => s.mechanisms.len() as u64 * n_seeds,
            JobPayload::Sweep(s) => {
                s.expand().map(|cells| cells.len() as u64).unwrap_or(0) * n_seeds
            }
        }
    }
}

/// The seeds a submission runs under: the client's, or the paper's
/// three-simulation protocol.
pub fn effective_seeds(requested: &Option<Vec<u64>>) -> Vec<u64> {
    match requested {
        Some(seeds) if !seeds.is_empty() => seeds.clone(),
        _ => DEFAULT_SEEDS.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_core::df_engine::ArbiterPolicy;
    use dragonfly_core::df_routing::MechanismSpec;
    use dragonfly_core::df_topology::{Arrangement, DragonflyParams};
    use dragonfly_core::df_traffic::PatternSpec;
    use df_workload::{InjectionSpec, JobSpec, PlacementSpec};

    fn tiny_scenario() -> ScenarioSpec {
        ScenarioSpec {
            name: "svc-tiny".into(),
            params: DragonflyParams::figure1(),
            arrangement: Arrangement::Palmtree,
            mechanisms: vec![MechanismSpec::InTransitMm],
            arbiter: ArbiterPolicy::TransitPriority,
            warmup_cycles: 100,
            measure_cycles: 200,
            telemetry: None,
            shards: None,
            jobs: vec![JobSpec {
                name: "app".into(),
                placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 2, slots: None },
                pattern: PatternSpec::Uniform,
                injection: InjectionSpec::Bernoulli,
                load: 0.2,
                start_cycle: None,
                stop_cycle: None,
            }],
        }
    }

    #[test]
    fn total_cycles_counts_every_cell() {
        let p = JobPayload::Scenario(tiny_scenario());
        // (warmup + measure) × 1 mechanism × 2 seeds
        assert_eq!(p.total_cycles(&[1, 2]), 300 * 2);
    }

    #[test]
    fn total_cycles_saturates() {
        let mut s = tiny_scenario();
        s.warmup_cycles = u64::MAX;
        s.measure_cycles = 1;
        assert_eq!(JobPayload::Scenario(s.clone()).total_cycles(&[1]), u64::MAX);
        s.warmup_cycles = u64::MAX / 2;
        s.mechanisms = vec![MechanismSpec::InTransitMm, MechanismSpec::Min];
        assert_eq!(JobPayload::Scenario(s).total_cycles(&[1, 2]), u64::MAX);
    }

    #[test]
    fn validate_rejects_empty_seeds_and_bad_specs() {
        let p = JobPayload::Scenario(tiny_scenario());
        assert!(p.validate(&[]).is_err());
        assert!(p.validate(&[1]).is_ok());
        let mut bad = tiny_scenario();
        bad.jobs.clear();
        assert!(JobPayload::Scenario(bad).validate(&[1]).is_err());
    }

    #[test]
    fn execute_is_byte_deterministic() {
        let p = JobPayload::Scenario(tiny_scenario());
        let a = p.execute(&[7], &RunCtl::NONE, &SweepHooks::NONE).unwrap();
        let b = p.execute(&[7], &RunCtl::NONE, &SweepHooks::NONE).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("svc-tiny"));
    }

    /// The cache-key satellite: the key hashes the *canonical*
    /// serialization of the parsed spec, never the client's raw bytes —
    /// so whitespace and key-order variants of the same spec share a
    /// key and hit each other's cache entries.
    #[test]
    fn spec_json_is_canonical_across_client_formattings() {
        use crate::protocol::cache_key;
        // The same two-field job spec in three client formattings:
        // compact, pretty-printed, and with its keys in a different
        // order (field-order-insensitive deserialization).
        let compact = r#"{"name":"fmt","params":{"p":3,"a":6,"h":3},"arrangement":"Palmtree","mechanisms":["in-transit-mm"],"arbiter":"TransitPriority","warmup_cycles":100,"measure_cycles":200,"jobs":[{"name":"app","placement":{"placement":"consecutive_groups","first":0,"count":2},"pattern":{"pattern":"uniform"},"injection":{"process":"bernoulli"},"load":0.2}]}"#;
        let pretty = r#"{
            "name": "fmt",
            "params": { "p": 3, "a": 6, "h": 3 },
            "arrangement": "Palmtree",
            "mechanisms": [ "in-transit-mm" ],
            "arbiter": "TransitPriority",
            "warmup_cycles": 100,
            "measure_cycles": 200,
            "jobs": [ {
                "name": "app",
                "placement": { "placement": "consecutive_groups", "first": 0, "count": 2 },
                "pattern": { "pattern": "uniform" },
                "injection": { "process": "bernoulli" },
                "load": 0.2
            } ]
        }"#;
        let reordered = r#"{
            "jobs": [ {
                "load": 0.2,
                "injection": { "process": "bernoulli" },
                "pattern": { "pattern": "uniform" },
                "placement": { "count": 2, "first": 0, "placement": "consecutive_groups" },
                "name": "app"
            } ],
            "measure_cycles": 200,
            "warmup_cycles": 100,
            "arbiter": "TransitPriority",
            "mechanisms": [ "in-transit-mm" ],
            "arrangement": "Palmtree",
            "params": { "h": 3, "a": 6, "p": 3 },
            "name": "fmt"
        }"#;
        let keys: Vec<String> = [compact, pretty, reordered]
            .iter()
            .map(|text| {
                let spec: ScenarioSpec = serde_json::from_str(text).unwrap();
                let payload = JobPayload::Scenario(spec);
                cache_key(payload.kind(), &payload.spec_json().unwrap(), &[1, 2])
            })
            .collect();
        assert_eq!(keys[0], keys[1], "whitespace must not change the key");
        assert_eq!(keys[0], keys[2], "key order must not change the key");
    }

    /// Shard count is excluded from the cache key by contract: output is
    /// bit-identical for every value, so a sharded resubmission of a
    /// cached experiment must hit the serial run's entry.
    #[test]
    fn shards_do_not_enter_the_cache_key() {
        use crate::protocol::cache_key;
        let serial = JobPayload::Scenario(tiny_scenario());
        let mut spec = tiny_scenario();
        spec.shards = Some(4);
        let sharded = JobPayload::Scenario(spec);
        assert_eq!(
            cache_key(serial.kind(), &serial.spec_json().unwrap(), &[1, 2]),
            cache_key(sharded.kind(), &sharded.spec_json().unwrap(), &[1, 2]),
        );
    }

    #[test]
    fn total_units_counts_the_grid() {
        let p = JobPayload::Scenario(tiny_scenario());
        // 1 mechanism × 2 seeds.
        assert_eq!(p.total_units(&[1, 2]), 2);
    }

    #[test]
    fn effective_seeds_defaults_to_the_paper_protocol() {
        assert_eq!(effective_seeds(&None), DEFAULT_SEEDS.to_vec());
        assert_eq!(effective_seeds(&Some(vec![])), DEFAULT_SEEDS.to_vec());
        assert_eq!(effective_seeds(&Some(vec![5])), vec![5]);
    }
}
