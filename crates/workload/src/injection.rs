//! Injection processes: *when* (and, for traces, *where to*) each node of
//! a job generates packets.
//!
//! This generalizes the single global Bernoulli process of the seed
//! simulator. Every process owns the node set it drives and keeps one RNG
//! substream per node (`derive_seed(seed, node)`), so a node's arrival
//! sequence is a pure function of `(seed, node)` — stable under placement
//! changes and under the presence of other jobs.

use crate::trace::TraceReplay;
use df_topology::NodeId;
use df_traffic::derive_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One generation request emitted by an injection process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The generating node.
    pub src: NodeId,
    /// Fixed destination (trace replay); `None` lets the job's traffic
    /// pattern choose.
    pub dst: Option<NodeId>,
}

/// A packet-arrival process over a fixed node set: one of the processes
/// an [`InjectionSpec`] names, with one RNG substream per node
/// (`derive_seed(seed, node)`).
///
/// # Examples
///
/// Build a process from its declarative [`InjectionSpec`] and drain the
/// arrivals it emits over a few cycles:
///
/// ```
/// use df_topology::NodeId;
/// use df_workload::{Arrival, InjectionSpec};
///
/// let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
/// // 0.4 phits/(node·cycle) at 8-phit packets = one packet per node
/// // every ~20 cycles, from per-node substreams of master seed 1.
/// let mut process = InjectionSpec::Bernoulli.build(nodes, 0.4, 8, 1).unwrap();
/// let mut out: Vec<Arrival> = Vec::new();
/// for cycle in 0..200 {
///     process.arrivals(cycle, &mut out);
/// }
/// assert!(!out.is_empty());
/// // Rate processes leave the destination to the job's pattern.
/// assert!(out.iter().all(|a| a.src.0 < 4 && a.dst.is_none()));
/// ```
pub struct InjectionProcess {
    nodes: Vec<NodeId>,
    rngs: Vec<SmallRng>,
    rule: Rule,
}

/// What decides, per node and cycle, whether it generates.
enum Rule {
    /// Independent Bernoulli draws per node per cycle (§IV-A), the seed
    /// simulator's process reformulated over an explicit node set.
    Bernoulli { prob: f64 },
    /// Markov-modulated on/off bursts: each node alternates between an
    /// *on* phase (geometric length, mean `mean_burst` cycles) where it
    /// injects as a Bernoulli process at `peak_prob`, and an *off* phase
    /// (mean `mean_idle` cycles) where it is silent. The peak rate is
    /// scaled so the long-run offered load equals the configured `load`.
    OnOff {
        peak_prob: f64,
        /// Per-cycle on→off transition probability (`1/mean_burst`).
        p_on_off: f64,
        /// Per-cycle off→on transition probability (`1/mean_idle`).
        p_off_on: f64,
        on: Vec<bool>,
    },
    /// Poisson-batched arrivals: each node sources `k ~ Poisson(lambda)`
    /// packets per cycle, modelling bursty DMA-style offered traffic
    /// where several packets hit the source queue in the same cycle.
    Poisson { lambda: f64 },
    /// A recorded event stream; the node set and substreams go unused.
    Trace(TraceReplay),
}

impl InjectionProcess {
    /// Append every arrival this process emits at `cycle` to `out`.
    ///
    /// Called once per simulated cycle with strictly increasing `cycle`
    /// values; the process keeps per-node state (burst phases, trace
    /// cursor) between calls.
    pub fn arrivals(&mut self, cycle: u64, out: &mut Vec<Arrival>) {
        let nodes = self.nodes.iter().copied().zip(&mut self.rngs);
        match &mut self.rule {
            Rule::Bernoulli { prob } => {
                if *prob <= 0.0 {
                    return;
                }
                for (src, rng) in nodes {
                    if rng.gen_bool(*prob) {
                        out.push(Arrival { src, dst: None });
                    }
                }
            }
            Rule::OnOff { peak_prob, p_on_off, p_off_on, on } => {
                for ((src, rng), on) in nodes.zip(on) {
                    if *on {
                        if *peak_prob > 0.0 && rng.gen_bool(*peak_prob) {
                            out.push(Arrival { src, dst: None });
                        }
                        if rng.gen_bool(*p_on_off) {
                            *on = false;
                        }
                    } else if rng.gen_bool(*p_off_on) {
                        *on = true;
                    }
                }
            }
            Rule::Poisson { lambda } => {
                for (src, rng) in nodes {
                    for _ in 0..poisson_draw(rng, *lambda) {
                        out.push(Arrival { src, dst: None });
                    }
                }
            }
            Rule::Trace(replay) => replay.arrivals(cycle, out),
        }
    }
}

fn packet_probability(load: f64, packet_size: u32) -> Result<f64, String> {
    if load.is_nan() || load < 0.0 {
        return Err(format!("load {load} must be non-negative"));
    }
    let prob = load / packet_size as f64;
    if prob > 1.0 {
        return Err(format!("load {load} phits/node/cycle exceeds one packet per cycle"));
    }
    Ok(prob)
}

/// Knuth's product-of-uniforms Poisson sampler (fine for small λ).
fn poisson_draw(rng: &mut SmallRng, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0u64..1 << 53) as f64 / (1u64 << 53) as f64;
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

/// Declarative injection-process description carried by a job spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "process", rename_all = "snake_case")]
pub enum InjectionSpec {
    /// Independent per-node Bernoulli draws (the paper's process).
    Bernoulli,
    /// Markov-modulated on/off bursts.
    OnOff {
        /// Mean burst length in cycles.
        mean_burst: f64,
        /// Mean idle length in cycles.
        mean_idle: f64,
    },
    /// Poisson-batched arrivals.
    Poisson,
    /// Replay a recorded `(cycle, src, dst)` event stream from a JSON
    /// file (see [`TraceRecorder`](crate::TraceRecorder)); the job's
    /// pattern and load are ignored.
    Trace {
        /// Path of the trace file, relative to the working directory.
        path: String,
    },
}

impl InjectionSpec {
    /// Instantiate the process over `nodes` with a deterministic `seed`.
    /// `load` is in phits/(node·cycle): for on/off averaged over bursts
    /// and idles, for Poisson the per-cycle batch mean times
    /// `packet_size`; a trace ignores it.
    pub fn build(
        &self,
        nodes: Vec<NodeId>,
        load: f64,
        packet_size: u32,
        seed: u64,
    ) -> Result<InjectionProcess, String> {
        let mut rngs: Vec<SmallRng> =
            nodes.iter().map(|n| SmallRng::seed_from_u64(derive_seed(seed, n.0 as u64))).collect();
        let rule = match *self {
            InjectionSpec::Bernoulli => {
                Rule::Bernoulli { prob: packet_probability(load, packet_size)? }
            }
            InjectionSpec::OnOff { mean_burst, mean_idle } => {
                if !(mean_burst >= 1.0 && mean_idle >= 0.0) {
                    return Err(format!(
                        "on/off phases need mean_burst >= 1 and mean_idle >= 0 \
                         (got {mean_burst}, {mean_idle})"
                    ));
                }
                let duty = mean_burst / (mean_burst + mean_idle);
                let peak_prob = packet_probability(load, packet_size)? / duty;
                if peak_prob > 1.0 {
                    return Err(format!(
                        "on/off burst peak rate {peak_prob:.3} exceeds one packet per \
                         cycle; raise the duty cycle or lower the load"
                    ));
                }
                // Start each node in a phase drawn from the stationary
                // distribution so the process needs no extra warm-up.
                let on = rngs.iter_mut().map(|r| r.gen_bool(duty)).collect();
                Rule::OnOff {
                    peak_prob,
                    p_on_off: 1.0 / mean_burst,
                    p_off_on: if mean_idle > 0.0 { 1.0 / mean_idle } else { 1.0 },
                    on,
                }
            }
            InjectionSpec::Poisson => {
                if load.is_nan() || load < 0.0 {
                    return Err(format!("load {load} must be non-negative"));
                }
                let lambda = load / packet_size as f64;
                if lambda > 20.0 {
                    return Err(format!("poisson batch mean {lambda} is absurd"));
                }
                Rule::Poisson { lambda }
            }
            InjectionSpec::Trace { ref path } => {
                Rule::Trace(TraceReplay::from_events(crate::trace::load_trace(path)?))
            }
        };
        Ok(InjectionProcess { nodes, rngs, rule })
    }

    /// Short label for tables and filenames.
    pub fn label(&self) -> String {
        match self {
            InjectionSpec::Bernoulli => "bernoulli".into(),
            InjectionSpec::OnOff { mean_burst, mean_idle } => {
                format!("onoff({mean_burst:.0}/{mean_idle:.0})")
            }
            InjectionSpec::Poisson => "poisson".into(),
            InjectionSpec::Trace { path } => format!("trace({path})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn rate_of(proc_: &mut InjectionProcess, n_nodes: u32, cycles: u64) -> f64 {
        let mut out = Vec::new();
        let mut total = 0usize;
        for t in 0..cycles {
            out.clear();
            proc_.arrivals(t, &mut out);
            total += out.len();
        }
        total as f64 / (n_nodes as f64 * cycles as f64)
    }

    #[test]
    fn bernoulli_rate_matches_load() {
        let mut p = InjectionSpec::Bernoulli.build(nodes(16), 0.4, 8, 7).unwrap();
        let rate = rate_of(&mut p, 16, 20_000);
        assert!((rate - 0.05).abs() < 0.004, "rate {rate}");
    }

    #[test]
    fn on_off_long_run_rate_matches_load_and_bursts_exist() {
        let on_off = InjectionSpec::OnOff { mean_burst: 50.0, mean_idle: 150.0 };
        let mut p = on_off.build(nodes(16), 0.4, 8, 7).unwrap();
        // Peak rate is 4x the mean: bursts must be visibly denser than
        // the long-run average.
        let mut out = Vec::new();
        let mut per_cycle = Vec::new();
        for t in 0..40_000u64 {
            out.clear();
            p.arrivals(t, &mut out);
            per_cycle.push(out.len());
        }
        let total: usize = per_cycle.iter().sum();
        let rate = total as f64 / (16.0 * 40_000.0);
        assert!((rate - 0.05).abs() < 0.006, "long-run rate {rate}");
        // Some cycles see multiple simultaneous arrivals (bursts), many
        // see none (idle phases) — far spikier than Bernoulli at 0.05.
        let idle = per_cycle.iter().filter(|&&c| c == 0).count();
        assert!(idle > 10_000, "idle cycles {idle}");
        assert!(per_cycle.iter().any(|&c| c >= 3), "no burst cycles seen");
    }

    #[test]
    fn on_off_overload_rejected() {
        // Duty cycle 1/100 would need a peak probability of 5 > 1.
        let on_off = InjectionSpec::OnOff { mean_burst: 1.0, mean_idle: 99.0 };
        assert!(on_off.build(nodes(4), 0.4, 8, 1).is_err());
    }

    #[test]
    fn poisson_rate_and_batches() {
        let mut p = InjectionSpec::Poisson.build(nodes(8), 1.6, 8, 3).unwrap();
        let mut out = Vec::new();
        let mut total = 0usize;
        let mut batched = false;
        for t in 0..20_000u64 {
            out.clear();
            p.arrivals(t, &mut out);
            // A batch: the same src appearing twice in one cycle.
            for w in 0..out.len() {
                for v in 0..w {
                    if out[v].src == out[w].src {
                        batched = true;
                    }
                }
            }
            total += out.len();
        }
        let rate = total as f64 / (8.0 * 20_000.0);
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
        assert!(batched, "poisson batches never produced >1 packet");
    }

    #[test]
    fn processes_are_placement_stable() {
        // The same node draws the same sequence no matter which other
        // nodes share the process.
        let bernoulli = InjectionSpec::Bernoulli;
        let mut a = bernoulli.build(vec![NodeId(9)], 0.8, 8, 5).unwrap();
        let mut b = bernoulli.build(vec![NodeId(3), NodeId(9), NodeId(21)], 0.8, 8, 5).unwrap();
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for t in 0..2_000u64 {
            out_a.clear();
            out_b.clear();
            a.arrivals(t, &mut out_a);
            b.arrivals(t, &mut out_b);
            let hit_a = !out_a.is_empty();
            let hit_b = out_b.iter().any(|arr| arr.src == NodeId(9));
            assert_eq!(hit_a, hit_b, "node 9 diverged at cycle {t}");
        }
    }

    #[test]
    fn spec_builds_every_rate_variant() {
        for spec in [
            InjectionSpec::Bernoulli,
            InjectionSpec::OnOff { mean_burst: 20.0, mean_idle: 20.0 },
            InjectionSpec::Poisson,
        ] {
            let mut p = spec.build(nodes(4), 0.4, 8, 1).unwrap();
            let mut out = Vec::new();
            for t in 0..500 {
                p.arrivals(t, &mut out);
            }
            assert!(!out.is_empty(), "{} produced nothing", spec.label());
        }
    }

    /// FNV-1a over every `(cycle, src, dst)` a process emits for the node
    /// set {3, 9, 21, 40, 41, 42, 70, 71} at load 0.6, 8-phit packets and
    /// seed 0x2011 over 20,000 cycles (`u32::MAX` stands for "the pattern
    /// picks"): the arrival count and the digest of the stream.
    fn stream_pin(spec: &InjectionSpec) -> (usize, u64) {
        let set = [3, 9, 21, 40, 41, 42, 70, 71].map(NodeId).to_vec();
        let mut process = spec.build(set, 0.6, 8, 0x2011).unwrap();
        let (mut out, mut count, mut hash) = (Vec::new(), 0, 0xcbf2_9ce4_8422_2325u64);
        for cycle in 0..20_000u64 {
            out.clear();
            process.arrivals(cycle, &mut out);
            for a in &out {
                let dst = a.dst.map_or(u32::MAX, |d| d.0);
                let bytes =
                    [&cycle.to_le_bytes()[..], &a.src.0.to_le_bytes(), &dst.to_le_bytes()].concat();
                for b in bytes {
                    hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
            }
            count += out.len();
        }
        (count, hash)
    }

    #[test]
    fn every_process_stream_is_pinned() {
        // A trace of 50 events, written unsorted so the replay's sort runs.
        let events: Vec<_> = (0..50u64)
            .map(|i| crate::TraceEvent {
                cycle: (i * 7_919) % 19_000,
                src: [3, 9, 21, 40, 41][i as usize % 5],
                dst: 100 + i as u32,
            })
            .collect();
        let path = std::env::temp_dir().join(format!("df-stream-pin-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_string(&events).unwrap()).unwrap();
        let trace = InjectionSpec::Trace { path: path.to_str().unwrap().into() };
        let pins = [
            (InjectionSpec::Bernoulli, (12_070, 0xe81873a61aea2060)),
            (
                InjectionSpec::OnOff { mean_burst: 40.0, mean_idle: 60.0 },
                (11_614, 0x01dae380a26cf7c7),
            ),
            (InjectionSpec::Poisson, (11_910, 0x393c30a811c9fd14)),
            (trace, (50, 0x213c72cef221eb34)),
        ];
        let got: Vec<_> = pins.iter().map(|(spec, _)| stream_pin(spec)).collect();
        std::fs::remove_file(&path).unwrap();
        for ((spec, want), got) in pins.iter().zip(got) {
            assert_eq!(got, *want, "{} stream moved", spec.label());
        }
    }
}
