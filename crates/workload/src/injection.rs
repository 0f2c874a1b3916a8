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

/// A packet-arrival process over a fixed node set.
///
/// # Examples
///
/// Build a process from its declarative [`InjectionSpec`] and drain the
/// arrivals it emits over a few cycles:
///
/// ```
/// use df_topology::NodeId;
/// use df_workload::{Arrival, InjectionProcess, InjectionSpec};
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
pub trait InjectionProcess: Send {
    /// Append every arrival this process emits at `cycle` to `out`.
    ///
    /// Called once per simulated cycle with strictly increasing `cycle`
    /// values; processes may keep per-node state (burst phases, trace
    /// cursors) between calls.
    fn arrivals(&mut self, cycle: u64, out: &mut Vec<Arrival>);

    /// Human-readable process name.
    fn label(&self) -> &'static str;
}

/// Per-node RNG substreams for the rate-based processes.
fn node_rngs(nodes: &[NodeId], seed: u64) -> Vec<SmallRng> {
    nodes
        .iter()
        .map(|n| SmallRng::seed_from_u64(derive_seed(seed, n.0 as u64)))
        .collect()
}

fn packet_probability(load: f64, packet_size: u32) -> Result<f64, String> {
    if load.is_nan() || load < 0.0 {
        return Err(format!("load {load} must be non-negative"));
    }
    let prob = load / packet_size as f64;
    if prob > 1.0 {
        return Err(format!(
            "load {load} phits/node/cycle exceeds one packet per cycle"
        ));
    }
    Ok(prob)
}

/// Independent Bernoulli draws per node per cycle (§IV-A), the seed
/// simulator's process reformulated over an explicit node set.
pub struct BernoulliProcess {
    nodes: Vec<NodeId>,
    prob: f64,
    rngs: Vec<SmallRng>,
}

impl BernoulliProcess {
    /// `load` in phits/(node·cycle) over `nodes`.
    pub fn new(nodes: Vec<NodeId>, load: f64, packet_size: u32, seed: u64) -> Result<Self, String> {
        let prob = packet_probability(load, packet_size)?;
        let rngs = node_rngs(&nodes, seed);
        Ok(Self { nodes, prob, rngs })
    }
}

impl InjectionProcess for BernoulliProcess {
    fn arrivals(&mut self, _cycle: u64, out: &mut Vec<Arrival>) {
        if self.prob <= 0.0 {
            return;
        }
        for (i, &src) in self.nodes.iter().enumerate() {
            if self.rngs[i].gen_bool(self.prob) {
                out.push(Arrival { src, dst: None });
            }
        }
    }

    fn label(&self) -> &'static str {
        "bernoulli"
    }
}

/// Markov-modulated on/off bursts: each node alternates between an *on*
/// phase (geometric length, mean `mean_burst` cycles) where it injects as
/// a Bernoulli process at the peak rate, and an *off* phase (mean
/// `mean_idle` cycles) where it is silent. The peak rate is scaled so the
/// long-run offered load equals the configured `load`.
pub struct OnOffProcess {
    nodes: Vec<NodeId>,
    /// Bernoulli probability while a node is on.
    peak_prob: f64,
    /// Per-cycle on→off transition probability (`1/mean_burst`).
    p_on_off: f64,
    /// Per-cycle off→on transition probability (`1/mean_idle`).
    p_off_on: f64,
    on: Vec<bool>,
    rngs: Vec<SmallRng>,
}

impl OnOffProcess {
    /// `load` in phits/(node·cycle) averaged over bursts and idles;
    /// `mean_burst`/`mean_idle` are the mean phase lengths in cycles.
    pub fn new(
        nodes: Vec<NodeId>,
        load: f64,
        packet_size: u32,
        mean_burst: f64,
        mean_idle: f64,
        seed: u64,
    ) -> Result<Self, String> {
        if !(mean_burst >= 1.0 && mean_idle >= 0.0) {
            return Err(format!(
                "on/off phases need mean_burst >= 1 and mean_idle >= 0 \
                 (got {mean_burst}, {mean_idle})"
            ));
        }
        let duty = mean_burst / (mean_burst + mean_idle);
        let mean_prob = packet_probability(load, packet_size)?;
        let peak_prob = mean_prob / duty;
        if peak_prob > 1.0 {
            return Err(format!(
                "on/off burst peak rate {peak_prob:.3} exceeds one packet per \
                 cycle; raise the duty cycle or lower the load"
            ));
        }
        let mut rngs = node_rngs(&nodes, seed);
        // Start each node in a phase drawn from the stationary distribution
        // so the process needs no extra warm-up.
        let on = rngs.iter_mut().map(|r| r.gen_bool(duty)).collect();
        Ok(Self {
            nodes,
            peak_prob,
            p_on_off: 1.0 / mean_burst,
            p_off_on: if mean_idle > 0.0 { 1.0 / mean_idle } else { 1.0 },
            on,
            rngs,
        })
    }
}

impl InjectionProcess for OnOffProcess {
    fn arrivals(&mut self, _cycle: u64, out: &mut Vec<Arrival>) {
        for (i, &src) in self.nodes.iter().enumerate() {
            let rng = &mut self.rngs[i];
            if self.on[i] {
                if self.peak_prob > 0.0 && rng.gen_bool(self.peak_prob) {
                    out.push(Arrival { src, dst: None });
                }
                if rng.gen_bool(self.p_on_off) {
                    self.on[i] = false;
                }
            } else if rng.gen_bool(self.p_off_on) {
                self.on[i] = true;
            }
        }
    }

    fn label(&self) -> &'static str {
        "on_off"
    }
}

/// Poisson-batched arrivals: each node sources `k ~ Poisson(load /
/// packet_size)` packets per cycle, modelling bursty DMA-style offered
/// traffic where several packets hit the source queue in the same cycle.
pub struct PoissonProcess {
    nodes: Vec<NodeId>,
    lambda: f64,
    rngs: Vec<SmallRng>,
}

impl PoissonProcess {
    /// `load` in phits/(node·cycle); per-cycle batch mean is
    /// `load / packet_size` packets.
    pub fn new(nodes: Vec<NodeId>, load: f64, packet_size: u32, seed: u64) -> Result<Self, String> {
        if load.is_nan() || load < 0.0 {
            return Err(format!("load {load} must be non-negative"));
        }
        let lambda = load / packet_size as f64;
        if lambda > 20.0 {
            return Err(format!("poisson batch mean {lambda} is absurd"));
        }
        let rngs = node_rngs(&nodes, seed);
        Ok(Self { nodes, lambda, rngs })
    }
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

impl InjectionProcess for PoissonProcess {
    fn arrivals(&mut self, _cycle: u64, out: &mut Vec<Arrival>) {
        for (i, &src) in self.nodes.iter().enumerate() {
            for _ in 0..poisson_draw(&mut self.rngs[i], self.lambda) {
                out.push(Arrival { src, dst: None });
            }
        }
    }

    fn label(&self) -> &'static str {
        "poisson"
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
    pub fn build(
        &self,
        nodes: Vec<NodeId>,
        load: f64,
        packet_size: u32,
        seed: u64,
    ) -> Result<Box<dyn InjectionProcess>, String> {
        Ok(match self {
            InjectionSpec::Bernoulli => {
                Box::new(BernoulliProcess::new(nodes, load, packet_size, seed)?)
            }
            InjectionSpec::OnOff { mean_burst, mean_idle } => Box::new(OnOffProcess::new(
                nodes,
                load,
                packet_size,
                *mean_burst,
                *mean_idle,
                seed,
            )?),
            InjectionSpec::Poisson => {
                Box::new(PoissonProcess::new(nodes, load, packet_size, seed)?)
            }
            InjectionSpec::Trace { path } => {
                let events = crate::trace::load_trace(path)?;
                Box::new(TraceReplay::from_events(events))
            }
        })
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

    fn rate_of(proc_: &mut dyn InjectionProcess, n_nodes: u32, cycles: u64) -> f64 {
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
        let mut p = BernoulliProcess::new(nodes(16), 0.4, 8, 7).unwrap();
        let rate = rate_of(&mut p, 16, 20_000);
        assert!((rate - 0.05).abs() < 0.004, "rate {rate}");
    }

    #[test]
    fn on_off_long_run_rate_matches_load_and_bursts_exist() {
        let mut p = OnOffProcess::new(nodes(16), 0.4, 8, 50.0, 150.0, 7).unwrap();
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
        assert!(OnOffProcess::new(nodes(4), 0.4, 8, 1.0, 99.0, 1).is_err());
    }

    #[test]
    fn poisson_rate_and_batches() {
        let mut p = PoissonProcess::new(nodes(8), 1.6, 8, 3).unwrap();
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
        let mut a = BernoulliProcess::new(vec![NodeId(9)], 0.8, 8, 5).unwrap();
        let mut b =
            BernoulliProcess::new(vec![NodeId(3), NodeId(9), NodeId(21)], 0.8, 8, 5).unwrap();
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
}
