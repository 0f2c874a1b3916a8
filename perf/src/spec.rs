//! The metric vocabulary, as `BENCHMARK.json` declares it. `df-perf
//! metrics` prints these tables and `check.sh` compares them with
//! `BENCHMARK.json`, so the two cannot drift apart; every run is also
//! checked to report exactly these names.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The contract's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload's timed pass.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric: reported by every workload's traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name (`<layer>.<what>`; the four un-prefixed rows are the
    /// workload-specific views of the end-to-end metrics).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("sim_cycles_per_s", "1/s", Better::Higher, 0.25),
    e2e("results_per_s", "1/s", Better::Higher, 0.25),
    e2e("request_ms_p50", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

/// The per-layer metrics.
pub const PER_LAYER: [PerLayer; 61] = [
    lower("engine.deliver_us_per_cycle", "us"),
    lower("engine.policy_us_per_cycle", "us"),
    lower("engine.inject_us_per_cycle", "us"),
    lower("engine.allocate_us_per_cycle", "us"),
    lower("engine.transmit_us_per_cycle", "us"),
    lower("engine.cycle_us", "us"),
    lower("engine.allocate_self_us_per_cycle", "us"),
    lower("engine.probe_ready_per_cycle", "count"),
    lower("engine.arena_peak_slots", "count"),
    lower("engine.in_flight_end", "count"),
    lower("engine.escape_grants", "count"),
    lower("routing.route_calls_per_cycle", "count"),
    lower("routing.route_calls_per_pkt", "count"),
    lower("routing.route_ns_per_call", "ns"),
    lower("routing.route_us_per_cycle", "us"),
    lower("routing.begin_cycle_us_per_cycle", "us"),
    lower("routing.build_ms", "ms"),
    lower("topology.build_ms", "ms"),
    lower("topology.port_target_ns", "ns"),
    lower("topology.min_hops_ns", "ns"),
    lower("traffic.fire_ns", "ns"),
    lower("traffic.dest_ns", "ns"),
    lower("traffic.gen_us_per_cycle", "us"),
    lower("stats.on_delivered_ns_per_pkt", "ns"),
    lower("stats.on_delivered_us_per_cycle", "us"),
    lower("stats.fairness_us", "us"),
    lower("stats.quantile_us", "us"),
    lower("workload.spec_parse_us", "us"),
    lower("workload.sweep_expand_us", "us"),
    lower("workload.placement_us", "us"),
    lower("workload.arrivals_ns_per_pkt", "ns"),
    lower("core.sim_new_ms", "ms"),
    lower("core.step_overhead_us_per_cycle", "us"),
    lower("core.finish_ms", "ms"),
    lower("core.unit_ms_p50", "ms"),
    lower("core.unit_ms_max", "ms"),
    lower("core.sweep_serial_s", "s"),
    higher("core.sweep_parallel_eff", "ratio"),
    lower("core.telemetry_overhead_frac", "ratio"),
    lower("service.cache_key_us", "us"),
    lower("service.cache_lookup_us", "us"),
    lower("service.cache_insert_us", "us"),
    lower("service.spill_us", "us"),
    lower("service.checkpoint_append_us", "us"),
    lower("service.reopen_ms", "ms"),
    lower("service.submit_call_us", "us"),
    lower("service.queue_wait_ms_p50", "ms"),
    lower("service.run_ms_p50", "ms"),
    lower("service.hit_ms_p99", "ms"),
    lower("service.socket_overhead_us", "us"),
    lower("service.rejected_frac", "ratio"),
    higher("sweep_units_per_s", "1/s"),
    lower("svc_cold_ms_p50", "ms"),
    lower("svc_hit_ms_p50", "ms"),
    higher("svc_jobs_per_s", "1/s"),
    lower("failed_ops_frac", "ratio"),
    lower("bench.calib_ns", "ns"),
    lower("bench.runq_wait_frac", "ratio"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.trace_unattributed_frac", "ratio"),
    higher("bench.reps", "count"),
];

/// The tables as the JSON fragment `BENCHMARK.json` holds, for
/// `check.sh` to compare.
pub fn to_json() -> String {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {:?}, \"unit\": {:?}, \"better\": {:?}, \"bound\": {:?}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {:?}, \"unit\": {:?}, \"better\": {:?}}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}]}}",
        e2e.join(", "),
        layer.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
