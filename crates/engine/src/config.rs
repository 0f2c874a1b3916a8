//! Engine configuration: the router/link micro-architecture parameters of
//! the paper's Table I.

use serde::{Deserialize, Serialize};

/// The longest run the engine steps, in cycles: `Network::step` and
/// `ShardedNetwork::step` panic past it, and [`validate_run_protocol`]
/// rejects a `warmup_cycles + measure_cycles` above it.
/// [`EngineConfig::validate`] bounds the event delay so that this horizon
/// plus one delay fits a `u32`: the packet record's cycle fields are
/// `u32`, and every value they hold is at most the current cycle plus one
/// delay.
pub const MAX_RUN_CYCLES: u64 = 1 << 31;

/// The run-protocol rules every front door (`SimConfig`, `ScenarioSpec`)
/// validates: a nonzero measurement window, a run of `warmup_cycles +
/// measure_cycles` within [`MAX_RUN_CYCLES`], and a valid telemetry spec
/// if there is one.
pub fn validate_run_protocol(
    warmup_cycles: u64,
    measure_cycles: u64,
    telemetry: Option<&TelemetrySpec>,
) -> Result<(), String> {
    if measure_cycles == 0 {
        return Err("measurement window must be nonzero".into());
    }
    let run = warmup_cycles.checked_add(measure_cycles);
    if run.is_none_or(|cycles| cycles > MAX_RUN_CYCLES) {
        return Err(format!(
            "warmup_cycles + measure_cycles exceeds the run-length limit of {MAX_RUN_CYCLES} cycles"
        ));
    }
    telemetry.map_or(Ok(()), TelemetrySpec::validate)
}

/// Output-arbiter policy of the separable allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArbiterPolicy {
    /// Plain round-robin among all requesters (paper §V-C, "without
    /// transit-over-injection priority").
    RoundRobin,
    /// Transit requests always beat injection requests; round-robin within
    /// each class (paper §V-A/B, "similar to Blue Gene systems").
    TransitPriority,
    /// Oldest packet (smallest generation cycle) wins. This is the *age
    /// arbitration* explicit-fairness mechanism (Abts & Weisser, SC'07)
    /// that the paper names as future work; we implement it as the main
    /// extension.
    AgeBased,
}

/// Opt-in windowed-telemetry settings.
///
/// Telemetry is read-only instrumentation: enabling it never changes
/// what the simulation computes (same-seed summaries stay bit-identical,
/// guarded by the golden-digest harness), it only snapshots the counters
/// the hot path already maintains into per-window rows. The engine never
/// reads it: the simulator above it samples the engine between cycles,
/// and a run without a spec allocates no recorder and pays one branch
/// per cycle. Every window samples the network-scope gauges and the
/// per-job rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Width of one timeline window, in cycles.
    pub window_cycles: u64,
}

impl TelemetrySpec {
    /// Validate internal consistency: a window is at least one cycle
    /// and at most [`MAX_RUN_CYCLES`] (no run is longer, and a window's
    /// end, `start + width`, must not wrap).
    pub fn validate(&self) -> Result<(), String> {
        if self.window_cycles == 0 {
            return Err("telemetry window_cycles must be positive".into());
        }
        if self.window_cycles > MAX_RUN_CYCLES {
            return Err(format!(
                "telemetry window_cycles exceeds the run-length limit of {MAX_RUN_CYCLES} cycles"
            ));
        }
        Ok(())
    }
}

impl Default for TelemetrySpec {
    /// 1000-cycle windows.
    fn default() -> Self {
        TelemetrySpec { window_cycles: 1_000 }
    }
}

/// Micro-architecture and flow-control parameters.
///
/// Defaults mirror the paper's Table I; [`EngineConfig::paper`] is the
/// canonical constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Packet size in phits (Table I: 8).
    pub packet_size: u32,
    /// Router pipeline latency in cycles (Table I: 5).
    pub pipeline_latency: u64,
    /// Internal speedup: maximum grants per port per cycle (Table I: 2×).
    pub speedup: u32,
    /// Local (intra-group) link latency in cycles (Table I: 10).
    pub local_link_latency: u64,
    /// Global (inter-group) link latency in cycles (Table I: 100).
    pub global_link_latency: u64,
    /// Node-to-router and router-to-node link latency in cycles.
    pub injection_link_latency: u64,
    /// Input buffer capacity per VC at local ports, in phits (Table I: 32).
    pub local_input_buffer: u32,
    /// Input buffer capacity per VC at global ports, in phits (Table I: 256).
    pub global_input_buffer: u32,
    /// Input buffer capacity per VC at injection ports, in phits.
    pub injection_input_buffer: u32,
    /// Output buffer capacity per port, in phits (Table I: 32).
    pub output_buffer: u32,
    /// Virtual channels at injection ports (Table I: 3).
    pub vcs_injection: u8,
    /// Virtual channels at local ports (Table I: 3 for in-transit adaptive,
    /// 4 for oblivious / source-adaptive Valiant paths).
    pub vcs_local: u8,
    /// Virtual channels at global ports (Table I: 2).
    pub vcs_global: u8,
    /// Output-arbiter policy.
    pub arbiter: ArbiterPolicy,
    /// Bound on each node's source queue, in packets. Generation into a
    /// full queue is discarded (still counted as offered load), keeping
    /// memory bounded far beyond saturation.
    pub max_node_queue: usize,
}

impl EngineConfig {
    /// Table I parameters with the given arbiter policy and the number of
    /// local VCs required by the routing mechanism in use (3 for in-transit
    /// adaptive, 4 for oblivious and source-adaptive).
    pub fn paper(arbiter: ArbiterPolicy, vcs_local: u8) -> Self {
        Self {
            packet_size: 8,
            pipeline_latency: 5,
            speedup: 2,
            local_link_latency: 10,
            global_link_latency: 100,
            injection_link_latency: 1,
            local_input_buffer: 32,
            global_input_buffer: 256,
            injection_input_buffer: 32,
            output_buffer: 32,
            vcs_injection: 3,
            vcs_local,
            vcs_global: 2,
            arbiter,
            max_node_queue: 64,
        }
    }

    /// Validate internal consistency (buffers hold at least one packet,
    /// at least one VC everywhere).
    pub fn validate(&self) -> Result<(), String> {
        if self.packet_size == 0 {
            return Err("packet_size must be nonzero".into());
        }
        for (name, cap) in [
            ("local_input_buffer", self.local_input_buffer),
            ("global_input_buffer", self.global_input_buffer),
            ("injection_input_buffer", self.injection_input_buffer),
            ("output_buffer", self.output_buffer),
        ] {
            if cap < self.packet_size {
                return Err(format!(
                    "{name} ({cap} phits) cannot hold one {}-phit packet",
                    self.packet_size
                ));
            }
        }
        if self.vcs_injection == 0 || self.vcs_local == 0 || self.vcs_global == 0 {
            return Err("every port class needs at least one VC".into());
        }
        if self.vcs_injection > 32 || self.vcs_local > 32 || self.vcs_global > 32 {
            return Err("at most 32 VCs per port (ready-list bitmask width)".into());
        }
        if self.speedup == 0 {
            return Err("speedup must be at least 1".into());
        }
        // Credit returns and arrivals are events scheduled one link
        // latency ahead, and an event cannot fire in the cycle that
        // schedules it.
        for (name, latency) in [
            ("injection_link_latency", self.injection_link_latency),
            ("local_link_latency", self.local_link_latency),
            ("global_link_latency", self.global_link_latency),
        ] {
            if latency == 0 {
                return Err(format!("{name} must be at least 1 cycle"));
            }
        }
        let delay_limit = u64::from(u32::MAX) - MAX_RUN_CYCLES;
        if self.max_event_delay() > delay_limit {
            return Err(format!(
                "slowest link + pipeline + packet ({} cycles) exceeds {delay_limit} cycles",
                self.max_event_delay()
            ));
        }
        Ok(())
    }

    /// Longest event horizon needed by the wheel: the slowest link plus
    /// the router pipeline behind it (one arrival event covers both) and
    /// serialization, plus slack. Saturates instead of overflowing, so
    /// `validate` can reject any latency it cannot bound.
    pub(crate) fn max_event_delay(&self) -> u64 {
        self.global_link_latency
            .max(self.local_link_latency)
            .max(self.injection_link_latency)
            .saturating_add(self.pipeline_latency)
            .saturating_add(self.packet_size as u64 + 2)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper(ArbiterPolicy::TransitPriority, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        assert!(EngineConfig::paper(ArbiterPolicy::RoundRobin, 3).validate().is_ok());
        assert!(EngineConfig::paper(ArbiterPolicy::TransitPriority, 4).validate().is_ok());
    }

    #[test]
    fn undersized_buffer_rejected() {
        let c = EngineConfig { output_buffer: 4, ..EngineConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_vcs_rejected() {
        let c = EngineConfig { vcs_global: 0, ..EngineConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_telemetry_window_rejected() {
        let spec = TelemetrySpec { window_cycles: 0 };
        assert!(spec.validate().is_err());
        assert!(TelemetrySpec::default().validate().is_ok());
    }

    /// The widest window is the longest run; one cycle more is an
    /// admission error naming the limit.
    #[test]
    fn telemetry_window_is_bounded_by_the_run_length_limit() {
        let at = |window_cycles| TelemetrySpec { window_cycles };
        assert!(at(MAX_RUN_CYCLES).validate().is_ok());
        for width in [MAX_RUN_CYCLES + 1, u64::MAX] {
            let err = at(width).validate().unwrap_err();
            assert!(err.contains(&MAX_RUN_CYCLES.to_string()), "{err}");
        }
    }

    #[test]
    fn zero_link_latency_rejected_by_name() {
        for (name, c) in [
            (
                "injection_link_latency",
                EngineConfig { injection_link_latency: 0, ..EngineConfig::default() },
            ),
            (
                "local_link_latency",
                EngineConfig { local_link_latency: 0, ..EngineConfig::default() },
            ),
            (
                "global_link_latency",
                EngineConfig { global_link_latency: 0, ..EngineConfig::default() },
            ),
        ] {
            let err = c.validate().expect_err("an event cannot fire in its own cycle");
            assert!(err.contains(name), "{err}");
        }
    }

    /// The run-length horizon plus the longest event delay must fit the
    /// packet record's `u32` cycle fields: the largest delay that does is
    /// accepted, one cycle more is not, and nothing overflows on the way.
    #[test]
    fn event_delay_is_bounded_by_the_run_horizon() {
        let limit = u64::from(u32::MAX) - MAX_RUN_CYCLES;
        let c = EngineConfig::default();
        let pipeline_latency = limit - c.max_event_delay() + c.pipeline_latency;
        let at = EngineConfig { pipeline_latency, ..c };
        assert_eq!(at.max_event_delay(), limit);
        assert!(at.validate().is_ok());
        let past = EngineConfig { pipeline_latency: pipeline_latency + 1, ..c };
        assert!(past.validate().unwrap_err().contains("exceeds"));
        let huge = EngineConfig { global_link_latency: u64::MAX, ..c };
        assert!(huge.validate().is_err());
    }

    #[test]
    fn event_horizon_covers_global_link_pipeline_and_serialization() {
        let c = EngineConfig::default();
        assert!(c.max_event_delay() >= 113);
        let deep = EngineConfig { pipeline_latency: 40, ..c };
        assert!(deep.max_event_delay() >= 148);
    }
}
