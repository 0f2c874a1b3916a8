//! Top-level simulation configuration.

use df_engine::{validate_run_protocol, ArbiterPolicy, EngineConfig, TelemetrySpec};
use df_routing::MechanismSpec;
use df_topology::{Arrangement, DragonflyParams};
use df_traffic::PatternSpec;
use serde::{Deserialize, Serialize};

/// Everything needed to run one simulation: topology, mechanism, arbiter,
/// traffic, load, and the measurement protocol (§IV-A).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Dragonfly sizing.
    pub params: DragonflyParams,
    /// Global-link arrangement (the paper uses palmtree).
    pub arrangement: Arrangement,
    /// Routing mechanism under test.
    pub mechanism: MechanismSpec,
    /// Output-arbiter policy (transit priority on/off, or age-based).
    pub arbiter: ArbiterPolicy,
    /// Traffic pattern.
    pub pattern: PatternSpec,
    /// Offered load in phits/(node·cycle).
    pub load: f64,
    /// Warm-up cycles before statistics are tracked.
    pub warmup_cycles: u64,
    /// Measurement window in cycles (the paper uses 15,000).
    pub measure_cycles: u64,
    /// Master seed; traffic, injection, and routing RNGs are derived
    /// deterministically from it.
    pub seed: u64,
    /// Opt-in windowed telemetry (see [`TelemetrySpec`]). `None` — the
    /// default, and what an omitted JSON field deserializes to — keeps
    /// the run instrumentation-free.
    pub telemetry: Option<TelemetrySpec>,
    /// Group-shard count for parallel execution (clamped to the group
    /// count; `None` or an omitted JSON field means 1 — the serial
    /// engine). Same-seed output is bit-identical for every value. The
    /// one shard knob: scenarios and sweeps always run serial, since
    /// their runners already spread cells × seeds over every core.
    pub shards: Option<u32>,
}

impl SimConfig {
    /// The paper's setup: full-scale network (h=6, 5,256 nodes), palmtree,
    /// 15,000-cycle measurement window after a 10,000-cycle warm-up.
    pub fn paper(
        mechanism: MechanismSpec,
        arbiter: ArbiterPolicy,
        pattern: PatternSpec,
        load: f64,
    ) -> Self {
        Self {
            params: DragonflyParams::paper(),
            arrangement: Arrangement::Palmtree,
            mechanism,
            arbiter,
            pattern,
            load,
            warmup_cycles: 10_000,
            measure_cycles: 15_000,
            seed: 1,
            telemetry: None,
            shards: None,
        }
    }

    /// Reduced-scale setup (h=3, 342 nodes) with the same protocol —
    /// the default for examples and CI-speed experiment runs.
    pub fn small(
        mechanism: MechanismSpec,
        arbiter: ArbiterPolicy,
        pattern: PatternSpec,
        load: f64,
    ) -> Self {
        Self {
            params: DragonflyParams::small(),
            arrangement: Arrangement::Palmtree,
            mechanism,
            arbiter,
            pattern,
            load,
            warmup_cycles: 8_000,
            measure_cycles: 15_000,
            seed: 1,
            telemetry: None,
            shards: None,
        }
    }

    /// The engine configuration implied by mechanism and arbiter: Table I
    /// parameters with the mechanism's required local-VC count.
    pub fn engine_config(&self) -> EngineConfig {
        engine_config(self.arbiter, self.mechanism)
    }

    /// The effective shard count before topology clamping: the `shards`
    /// field, 1 when unset, always at least 1. The simulator additionally
    /// clamps to the topology's group count.
    pub fn resolved_shards(&self) -> u32 {
        self.shards.unwrap_or(1).max(1)
    }

    /// With a different master seed (multi-run averaging).
    pub fn with_seed(&self, seed: u64) -> Self {
        Self { seed, ..self.clone() }
    }

    /// With a different offered load (sweeps).
    pub fn with_load(&self, load: f64) -> Self {
        Self { load, ..self.clone() }
    }

    /// Validate ranges, the machine's ([`DragonflyParams::check`]), the
    /// pattern's against the whole machine ([`PatternSpec::check`]) and
    /// the telemetry spec's included.
    pub fn validate(&self) -> Result<(), String> {
        self.params.check().map_err(|e| format!("params: {e}"))?;
        if !(0.0..=self.engine_config().packet_size as f64).contains(&self.load) {
            return Err(format!("load {} out of range", self.load));
        }
        validate_run_protocol(self.warmup_cycles, self.measure_cycles, self.telemetry.as_ref())?;
        let params = &self.params;
        self.pattern
            .check(params.nodes(), params.a * params.p, params.h)
            .map_err(|e| format!("pattern: {e}"))?;
        self.engine_config().validate()
    }
}

/// Table I engine parameters with `mechanism`'s local-VC count: what a
/// [`SimConfig`] and a scenario cell both run on.
pub(crate) fn engine_config(arbiter: ArbiterPolicy, mechanism: MechanismSpec) -> EngineConfig {
    EngineConfig::paper(arbiter, mechanism.required_local_vcs())
}

// Sub-seed derivation now lives in `df-traffic` so the traffic and
// workload crates can share the same per-node stream discipline.
pub(crate) use df_traffic::derive_seed;

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::MAX_RUN_CYCLES;

    fn cfg() -> SimConfig {
        SimConfig::small(
            MechanismSpec::InTransitMm,
            ArbiterPolicy::TransitPriority,
            PatternSpec::AdvConsecutive { spread: None },
            0.4,
        )
    }

    #[test]
    fn paper_config_matches_table1() {
        let c = SimConfig::paper(
            MechanismSpec::ObliviousRrg,
            ArbiterPolicy::TransitPriority,
            PatternSpec::Uniform,
            0.5,
        );
        assert_eq!(c.params.nodes(), 5256);
        assert_eq!(c.measure_cycles, 15_000);
        let ec = c.engine_config();
        assert_eq!(ec.vcs_local, 4); // oblivious Valiant needs 4
        assert_eq!(ec.packet_size, 8);
        assert_eq!(ec.global_link_latency, 100);
    }

    #[test]
    fn in_transit_uses_three_local_vcs() {
        assert_eq!(cfg().engine_config().vcs_local, 3);
    }

    /// A run is `warmup + measure` cycles long: past `MAX_RUN_CYCLES` —
    /// or past `u64::MAX`, which `Simulator::drive`'s loop bound would
    /// overflow — it is a validation error, at the limit it is not.
    #[test]
    fn validation_bounds_the_run_length() {
        let mut c = cfg();
        c.warmup_cycles = u64::MAX;
        c.measure_cycles = 1;
        assert!(c.validate().unwrap_err().contains("run-length limit"));
        c.warmup_cycles = MAX_RUN_CYCLES - 1;
        assert!(c.validate().is_ok());
        c.measure_cycles = 2;
        assert!(c.validate().unwrap_err().contains("run-length limit"));
    }

    #[test]
    fn validation_rejects_absurd_load() {
        let mut c = cfg();
        c.load = 9.5;
        assert!(c.validate().is_err());
        c.load = 0.4;
        assert!(c.validate().is_ok());
    }

    /// `validate` is where a pattern that does not fit the machine stops:
    /// these five used to pass it and die in `Simulator::new` — or, for
    /// the hot node, in the topology cycles into the run.
    #[test]
    fn validation_rejects_a_pattern_that_does_not_fit_the_machine() {
        for (pattern, field) in [
            (PatternSpec::Adversarial { offset: 0 }, "`offset` 0"),
            (PatternSpec::Adversarial { offset: 19 }, "`offset` 19"),
            (PatternSpec::AdvConsecutive { spread: Some(0) }, "`spread`"),
            (PatternSpec::HotSpot { hot: 0, fraction: 1.5 }, "`fraction` 1.5"),
            (PatternSpec::HotSpot { hot: 1_000_000, fraction: 0.1 }, "`hot` 1000000"),
        ] {
            let mut c = cfg();
            c.pattern = pattern;
            let err = c.validate().unwrap_err();
            assert!(err.starts_with("pattern: ") && err.contains(field), "{err}");
        }
    }

    #[test]
    fn validation_rejects_a_machine_the_engine_cannot_build() {
        let mut c = cfg();
        c.params = DragonflyParams { p: 30, a: 36, h: 2 };
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("params: ") && err.contains("radix 67"), "{err}");
        c.params = DragonflyParams { p: 0, a: 4, h: 2 };
        assert!(c.validate().unwrap_err().contains("nonzero"));
    }

    #[test]
    fn seed_derivation_distinct_streams() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0));
    }

    #[test]
    fn resolved_shards_clamps_and_defaults() {
        let mut c = cfg();
        assert_eq!(c.shards, None);
        c.shards = Some(0);
        assert_eq!(c.resolved_shards(), 1, "explicit zero clamps to serial");
        c.shards = Some(5);
        assert_eq!(c.resolved_shards(), 5);
        c.shards = None;
        assert_eq!(c.resolved_shards(), 1, "unset means serial, whatever the environment");
    }

    #[test]
    fn serde_roundtrip() {
        let c = cfg();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.load, c.load);
        assert_eq!(back.mechanism, c.mechanism);
    }
}
