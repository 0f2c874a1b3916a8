//! The simulator façade: build a network, run the warm-up / measurement
//! protocol, and extract a [`RunResult`].
//!
//! # One generation loop
//!
//! Packets enter the network one way. A [`Simulator`] owns a list of
//! generation [`Source`]s — an arrival process (*when* which node
//! generates), the [`df_traffic::JobTraffic`] generator that picks the
//! destination,
//! and the job the offers are attributed to — and every cycle one
//! function turns every live source's arrivals into offers, in source
//! order: range check, trace recording, per-job offered count,
//! [`Engine::offer`]. What differs between the entry points is only
//! which sources are installed:
//!
//! * [`Simulator::new`] (a [`SimConfig`]: `pattern` + `load`) installs one
//!   whole-machine Bernoulli source — every node, the pattern at the
//!   identity placement, attributed to no job, so [`RunResult::per_job`]
//!   stays empty;
//! * [`crate::run_cell`] (a [`df_workload::ScenarioSpec`]) installs one
//!   source per job, each over the job's placement and live only inside
//!   the job's `[start_cycle, stop_cycle)`.
//!
//! The RNG substream each source draws from is tabulated in
//! `docs/DETERMINISM.md`, "Seed substreams". Job attribution
//! (`Simulator::set_job_schedule`, which only `run_cell` calls) is
//! independent of the sources: it decides whose packets a delivery counts
//! for, by node and generation cycle.
//!
//! # One shard knob
//!
//! [`SimConfig::shards`] is the only place a run asks for the
//! group-sharded engine ([`Engine::Sharded`]); [`Simulator::new`] resolves
//! it. A scenario cell ([`crate::run_cell`]) always runs the serial
//! engine: a scenario describes an experiment, not how to execute it, and
//! its runners already spread cells × seeds over every core. Same-seed
//! output is byte-identical on either engine (`docs/DETERMINISM.md`).

use crate::config::{derive_seed, SimConfig};
use crate::ctl::RunCtl;
use crate::error::ScenarioError;
use crate::sink::MeasurementSink;
use crate::timeline::{TimelineRecorder, TimelineSink, WindowRow};
use df_engine::{
    Counters, EngineConfig, Network, PhaseProfile, RoutingPolicy, ShardedNetwork, TelemetrySpec,
};
use df_routing::MechanismSpec;
use df_stats::FairnessReport;
use df_topology::{channel_load, NodeId, Topology};
use df_traffic::JobTraffic;
use df_workload::{Arrival, InjectionProcess, InjectionSpec, TraceRecorder};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Measurement slice of one job in a multi-job run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobResult {
    /// Job name.
    pub job: String,
    /// Number of nodes the job occupies.
    pub nodes: u32,
    /// Offered load actually generated by the job during the window, in
    /// phits/(job node·cycle).
    pub offered: f64,
    /// Accepted throughput in phits/(job node·cycle).
    pub throughput: f64,
    /// Mean end-to-end packet latency in cycles.
    pub avg_latency: f64,
    /// Packets delivered for this job during the window.
    pub delivered_packets: u64,
    /// Median end-to-end latency (cycles, histogram bucket upper bound,
    /// clamped to the 10,000-cycle histogram range for extreme tails;
    /// `None` only when nothing was delivered).
    pub p50_latency: Option<u64>,
    /// 95th-percentile end-to-end latency (cycles, same conventions).
    pub p95_latency: Option<u64>,
    /// 99th-percentile end-to-end latency (cycles, same conventions).
    pub p99_latency: Option<u64>,
    /// Cycles of the measurement window the job was live for (its
    /// `[start_cycle, stop_cycle)` lifetime clipped to the window).
    /// `offered` and `throughput` are normalized over *these* cycles, so
    /// a job live for half the window at load 0.3 reports ≈0.3, not 0.15.
    pub active_cycles: u64,
    /// Fairness metrics over the job's *per-node* injection counts: who
    /// inside the job gets starved. Under churn, counts cover the whole
    /// measurement window: if another job time-shares the same nodes
    /// within one window, its injections are included too.
    pub fairness: FairnessReport,
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Mechanism label (e.g. `In-Trns-MM`).
    pub mechanism: String,
    /// Pattern label (e.g. `ADVc`).
    pub pattern: String,
    /// Configured offered load in phits/(node·cycle).
    pub load: f64,
    /// Master seed of this run.
    pub seed: u64,
    /// Offered load actually generated during the window (sanity echo).
    pub offered: f64,
    /// Accepted throughput in phits/(node·cycle) ("Accepted load").
    pub throughput: f64,
    /// Mean end-to-end packet latency in cycles.
    pub avg_latency: f64,
    /// Mean latency components `[base, misroute, local_q, global_q,
    /// injection_q]` (Figure 3 stacking).
    pub components: [f64; 5],
    /// Packets injected per router during the window (Figures 4/6).
    pub injected_per_router: Vec<u64>,
    /// Fairness metrics over the injection counts (Tables II/III).
    pub fairness: FairnessReport,
    /// Packets delivered during the window.
    pub delivered_packets: u64,
    /// 99th-percentile latency (cycles, histogram upper bound, clamped
    /// to the 10,000-cycle histogram range for extreme tails).
    pub p99_latency: Option<u64>,
    /// Per-job breakdown (empty unless jobs were registered).
    pub per_job: Vec<JobResult>,
    /// Windowed timeline of the measurement phase; `None` unless the
    /// config carried a [`df_engine::TelemetrySpec`].
    pub timeline: Option<Vec<WindowRow>>,
}

/// Driver-side state of one job: its label, node set and optional
/// lifetime — first live driver cycle (`None` = 0) and departure cycle
/// (`None` = never) — plus offered-load accounting. Two jobs may share
/// nodes only if their lifetimes are disjoint; the departed job's slots
/// are then reused by the arrival. `pub(crate)` so the timeline recorder
/// can snapshot per-job offered counts and node sets at window
/// boundaries.
#[derive(Debug, Clone)]
pub(crate) struct JobRuntime {
    pub(crate) label: String,
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) offered_packets: u64,
    start: Option<u64>,
    stop: Option<u64>,
}

impl JobRuntime {
    /// A job that has offered nothing yet.
    pub(crate) fn new(
        label: String,
        nodes: Vec<NodeId>,
        start: Option<u64>,
        stop: Option<u64>,
    ) -> Self {
        JobRuntime { label, nodes, offered_packets: 0, start, stop }
    }

    /// Whether the job generates at driver cycle `cycle`.
    fn active(&self, cycle: u64) -> bool {
        cycle >= self.start.unwrap_or(0) && self.stop.is_none_or(|stop| cycle < stop)
    }
}

/// One generation source of the simulator's one generation loop.
pub(crate) struct Source {
    /// When which node generates.
    pub(crate) process: InjectionProcess,
    /// Where to: picks the destination of every arrival that carries
    /// none. `None` for trace replay, whose events carry theirs.
    pub(crate) traffic: Option<JobTraffic>,
    /// The job the offers count for, and whose lifetime gates the source;
    /// `None` for the whole-machine source, which is always live.
    pub(crate) job: Option<usize>,
}

/// What is left of a [`SimConfig`] or a scenario cell once the network is
/// built and generation is a list of sources: the protocol
/// [`Simulator::drive`] runs and what [`RunResult`] echoes.
pub(crate) struct Protocol {
    pub(crate) mechanism: MechanismSpec,
    /// [`RunResult::pattern`].
    pub(crate) pattern: String,
    /// [`RunResult::load`].
    pub(crate) load: f64,
    pub(crate) seed: u64,
    pub(crate) warmup_cycles: u64,
    pub(crate) measure_cycles: u64,
    /// Windowed telemetry, armed at [`Simulator::begin_measurement`];
    /// `None` keeps the run instrumentation-free.
    pub(crate) telemetry: Option<TelemetrySpec>,
}

/// The serial engine specialized to the simulator's policy and sink.
type SerialNet = Network<Box<dyn RoutingPolicy + Send>, MeasurementSink>;
/// The group-sharded engine specialized the same way.
type ShardedNet = ShardedNetwork<Box<dyn RoutingPolicy + Send>, MeasurementSink>;

/// The simulator's execution engine: the serial [`Network`] when the
/// resolved shard count is 1 (bit-for-bit the pre-sharding behaviour),
/// the group-sharded [`ShardedNetwork`] otherwise. Same-seed output is
/// identical either way — the sharded engine's cycle-barrier merge
/// replays cross-shard traffic in the serial engine's order — so which
/// variant runs is purely an operational choice.
// One Engine exists per run and it lives on the Simulator, not in
// collections, so the variant size gap costs nothing; boxing the serial
// network would put an indirection on every step of the common path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Engine {
    /// Single-threaded engine (`shards == 1`).
    Serial(SerialNet),
    /// Group-sharded engine (`shards > 1`, clamped to the group count).
    Sharded(ShardedNet),
}

macro_rules! fwd {
    ($self:expr, $net:ident => $e:expr) => {
        match $self {
            Engine::Serial($net) => $e,
            Engine::Sharded($net) => $e,
        }
    };
}

impl Engine {
    /// Advance one cycle.
    #[inline]
    pub fn step(&mut self) {
        fwd!(self, n => n.step())
    }

    /// Advance one cycle, accumulating the per-phase wall-clock breakdown.
    pub fn step_timed(&mut self, profile: &mut PhaseProfile) {
        fwd!(self, n => n.step_timed(profile))
    }

    /// Offer a packet at `src` towards `dst`; `false` if the queue is full.
    #[inline]
    pub fn offer(&mut self, src: NodeId, dst: NodeId) -> bool {
        fwd!(self, n => n.offer(src, dst))
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        fwd!(self, n => n.cycle())
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        fwd!(self, n => n.topology())
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        fwd!(self, n => n.config())
    }

    /// Aggregate counters: the serial engine's are borrowed, the sharded
    /// engine's are merged across shards into global-size vectors.
    pub fn counters(&self) -> Cow<'_, Counters> {
        match self {
            Engine::Serial(n) => Cow::Borrowed(n.counters()),
            Engine::Sharded(n) => Cow::Owned(n.counters()),
        }
    }

    /// Zero the counters (start of a measurement window).
    pub fn reset_counters(&mut self) {
        fwd!(self, n => n.reset_counters())
    }

    /// The stats sink.
    pub fn sink(&self) -> &MeasurementSink {
        fwd!(self, n => n.sink())
    }

    /// Mutable access to the stats sink.
    pub fn sink_mut(&mut self) -> &mut MeasurementSink {
        fwd!(self, n => n.sink_mut())
    }

    /// Packets in flight (accepted but not yet delivered).
    pub fn in_flight(&self) -> u64 {
        fwd!(self, n => n.in_flight())
    }

    /// Ready, unparked input-VC heads (allocator-load gauge).
    pub fn probe_ready_total(&self) -> u64 {
        fwd!(self, n => n.probe_ready_total())
    }

    /// Sum of all output ports' congestion epochs.
    pub fn port_epoch_sum(&self) -> u64 {
        fwd!(self, n => n.port_epoch_sum())
    }

    /// The engine's one invariant check ([`Network::audit`] /
    /// [`ShardedNetwork::audit`]): panics naming the first violation.
    pub fn audit(&mut self) {
        fwd!(self, n => n.audit())
    }
}

/// Debug builds run [`Simulator::audit`] every this many cycles, so the
/// whole debug test suite audits mid-flight; every build runs the same
/// audit once more when the result is extracted. A constant, not an
/// option: if the periodic audit ever costs the suites more than a few
/// percent, raise it.
const AUDIT_EVERY: u64 = 256;

/// Binomial spread the channel-capacity check allows, in standard
/// deviations: a count of mean `N` falls below `N − z·√N` with
/// probability at most `e^(−z²/2)` (Chernoff), 2.3·10⁻¹¹ at `z = 7`, under
/// 10⁻⁶ per run over Table I's 20,148 channels (Bonferroni).
const CAPACITY_Z: f64 = 7.0;

/// A configured, steppable simulation.
pub struct Simulator {
    net: Engine,
    protocol: Protocol,
    /// The generation sources, polled in order every cycle.
    pub(crate) sources: Vec<Source>,
    /// Scratch for one source's arrivals of one cycle.
    arrivals_buf: Vec<Arrival>,
    jobs: Vec<JobRuntime>,
    /// Active timeline recorder (telemetry configured *and* measurement
    /// begun); `None` keeps the per-cycle overhead to one branch.
    timeline: Option<TimelineRecorder>,
    /// Streaming sink handed to the recorder at `begin_measurement`.
    timeline_sink: Option<TimelineSink>,
    /// Packets in flight when the counters were last reset: the base of
    /// the audit's `accepted − delivered == Δin_flight` window identity.
    window_base_in_flight: u64,
}

impl Simulator {
    /// Build the network and routing policy of `cfg` and, unless its load
    /// is zero, install the whole-machine source: Bernoulli firing at
    /// every node on substream `derive_seed(seed, 2)`, destinations from
    /// `cfg.pattern` at the identity placement on `derive_seed(seed, 1)`,
    /// attributed to no job.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(cfg: &SimConfig) -> Self {
        cfg.validate().expect("invalid simulation config");
        let engine_cfg = cfg.engine_config();
        let mut sim = Self::idle(
            Topology::new(cfg.params, cfg.arrangement),
            engine_cfg,
            cfg.resolved_shards(),
            Protocol {
                mechanism: cfg.mechanism,
                pattern: cfg.pattern.label(),
                load: cfg.load,
                seed: cfg.seed,
                warmup_cycles: cfg.warmup_cycles,
                measure_cycles: cfg.measure_cycles,
                telemetry: cfg.telemetry,
            },
        );
        if cfg.load > 0.0 {
            let nodes = (0..cfg.params.nodes()).map(NodeId).collect();
            let firing = derive_seed(cfg.seed, 2);
            sim.sources.push(Source {
                process: InjectionSpec::Bernoulli
                    .build(nodes, cfg.load, engine_cfg.packet_size, firing)
                    .expect("validated load"),
                traffic: Some(cfg.pattern.build(cfg.params, derive_seed(cfg.seed, 1))),
                job: None,
            });
        }
        sim
    }

    /// Build the network and the routing policy (`protocol.mechanism` on
    /// substream 0 of `protocol.seed`) with no generation source
    /// installed; `shards` is clamped to the group count. The caller has
    /// validated `engine_cfg`. Sources pushed onto `sources` are polled
    /// in that order; one naming a job needs the job registered
    /// ([`Self::set_job_schedule`]) before the next step.
    pub(crate) fn idle(
        topo: Topology,
        engine_cfg: EngineConfig,
        shards: u32,
        protocol: Protocol,
    ) -> Self {
        let policy =
            protocol.mechanism.build(topo.clone(), &engine_cfg, derive_seed(protocol.seed, 0));
        let shards = shards.min(topo.params().groups());
        let net = if shards <= 1 {
            Engine::Serial(Network::new(topo, engine_cfg, policy, MeasurementSink::new()))
        } else {
            Engine::Sharded(ShardedNetwork::new(
                topo,
                engine_cfg,
                policy,
                MeasurementSink::new(),
                shards,
            ))
        };
        Self {
            net,
            protocol,
            sources: Vec::new(),
            arrivals_buf: Vec::new(),
            jobs: Vec::new(),
            timeline: None,
            timeline_sink: None,
            window_base_in_flight: 0,
        }
    }

    /// Advance one cycle: one cycle of generation from every installed
    /// source, then the network cycle.
    ///
    /// # Panics
    /// Panics if a trace source replays a node the machine does not have
    /// ([`crate::run_cell`] reports the same as an error).
    pub fn step(&mut self) {
        self.advance(None, None).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Advance one cycle like [`Self::step`], accumulating the engine's
    /// per-phase wall-clock breakdown (deliver / policy / inject /
    /// allocate / transmit) into `profile`. Generation time is not part
    /// of the engine cycle and is excluded. The benchmark under `perf/`
    /// reads its per-layer rows through it (`df-perf --trace 1`).
    pub fn step_profiled(&mut self, profile: &mut df_engine::PhaseProfile) {
        self.advance(Some(profile), None).unwrap_or_else(|e| panic!("{e}"));
    }

    /// The one cycle body behind [`Self::step`], [`Self::step_profiled`]
    /// and [`Self::drive`]: generation, the engine cycle (timed into
    /// `profile` if given), the timeline tick, and — debug builds only —
    /// the periodic audit.
    /// Inlined into each of the three so none of them pays for the other
    /// two's switches.
    #[inline(always)]
    fn advance(
        &mut self,
        profile: Option<&mut PhaseProfile>,
        recorders: Option<&mut [TraceRecorder]>,
    ) -> Result<(), ScenarioError> {
        self.offer_arrivals(recorders)?;
        match profile {
            Some(profile) => self.net.step_timed(profile),
            None => self.net.step(),
        }
        if let Some(rec) = &mut self.timeline {
            rec.tick(self.net.cycle(), &self.net, &self.jobs);
        }
        if cfg!(debug_assertions) && self.net.cycle().is_multiple_of(AUDIT_EVERY) {
            self.audit();
        }
        Ok(())
    }

    /// The one generation loop: every live source's arrivals at the
    /// current driver cycle become offers, in source order and, within a
    /// source, in the process's (ascending node) order. `recorders[j]`
    /// records job `j`'s stream.
    fn offer_arrivals(
        &mut self,
        mut recorders: Option<&mut [TraceRecorder]>,
    ) -> Result<(), ScenarioError> {
        let cycle = self.net.cycle();
        let n_nodes = self.net.topology().params().nodes();
        let mut arrivals = std::mem::take(&mut self.arrivals_buf);
        for source in &mut self.sources {
            if source.job.is_some_and(|j| !self.jobs[j].active(cycle)) {
                continue;
            }
            arrivals.clear();
            source.process.arrivals(cycle, &mut arrivals);
            for arr in &arrivals {
                let dst = arr.dst.unwrap_or_else(|| {
                    let traffic = source.traffic.as_mut().expect("rate process without a pattern");
                    traffic.dest(arr.src)
                });
                if arr.src.0 >= n_nodes || dst.0 >= n_nodes {
                    // Only a trace can name a node the machine lacks.
                    let job = source.job.map_or("", |j| self.jobs[j].label.as_str());
                    return Err(ScenarioError::spec(format!(
                        "job `{job}` generated out-of-range packet {} -> {}",
                        arr.src.0, dst.0
                    )));
                }
                if let Some(j) = source.job {
                    if let Some(recs) = recorders.as_deref_mut() {
                        recs[j].record(cycle, arr.src, dst);
                    }
                    self.jobs[j].offered_packets += 1;
                }
                self.net.offer(arr.src, dst);
            }
        }
        self.arrivals_buf = arrivals;
        Ok(())
    }

    /// Attribute deliveries to jobs *with lifetimes*: the sink learns
    /// each job's nodes and the generation cycles it owns them for,
    /// `[start + 1, stop + 1)`, so node slots of a departed job are
    /// reusable by a later arrival. The `+ 1` is the generation stamp: a
    /// packet offered at driver cycle `t` carries `gen_cycle = t + 1`, so
    /// the boundary packets of a departing job stay attributed to it, not
    /// to the next tenant. Replaces the sink — call once, before
    /// stepping. The jobs come from a validated
    /// [`df_workload::ScenarioSpec`]: nodes in range, and jobs that share
    /// a node have disjoint lifetimes.
    pub(crate) fn set_job_schedule(&mut self, jobs: Vec<JobRuntime>) {
        let total = self.net.topology().params().nodes() as usize;
        let owned = jobs.iter().map(|job| {
            let from = job.start.unwrap_or(0) + 1;
            let to = job.stop.map_or(u64::MAX, |stop| stop.saturating_add(1));
            (&job.nodes[..], from..to)
        });
        *self.net.sink_mut() = MeasurementSink::with_jobs(total, owned);
        self.jobs = jobs;
    }

    /// Start the measurement window: zero the counters (including per-job
    /// offered-load accounting) and activate the sink. If the config
    /// carries a [`TelemetrySpec`], the timeline recorder is (re)armed
    /// here: its first window starts at the current cycle, aligned with
    /// the counter reset.
    pub fn begin_measurement(&mut self) {
        self.net.reset_counters();
        self.window_base_in_flight = self.net.in_flight();
        self.net.sink_mut().start_measurement();
        for j in &mut self.jobs {
            j.offered_packets = 0;
        }
        if let Some(spec) = self.protocol.telemetry {
            self.timeline = Some(TimelineRecorder::new(
                spec,
                self.net.cycle(),
                &self.net,
                &self.jobs,
                self.timeline_sink.take(),
            ));
        }
    }

    /// Install a streaming sink for timeline rows: called once per
    /// window, as the window closes. Takes effect at the next
    /// [`Simulator::begin_measurement`]; a no-op for the run unless the
    /// config enables telemetry.
    pub fn set_timeline_sink(&mut self, sink: TimelineSink) {
        self.timeline_sink = Some(sink);
    }

    /// Read-only access to the underlying engine (unit tests).
    #[cfg(test)]
    pub(crate) fn network(&self) -> &Engine {
        &self.net
    }

    /// Run the full warm-up + measurement protocol and report.
    ///
    /// # Panics
    /// Panics where [`Self::step`] does.
    pub fn run(self) -> RunResult {
        self.drive(None, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The protocol loop behind [`Self::run`] and [`crate::run_cell`]:
    /// warm-up, [`Self::begin_measurement`], the measurement window, the
    /// result. `ctl` is asked at the top of every cycle, so an
    /// interrupted run aborts before any result is extracted and leaves
    /// no partial output behind.
    pub(crate) fn drive(
        mut self,
        ctl: RunCtl<'_>,
        mut recorders: Option<&mut [TraceRecorder]>,
    ) -> Result<RunResult, ScenarioError> {
        let warmup = self.protocol.warmup_cycles;
        for t in 0..warmup + self.protocol.measure_cycles {
            if let Some(checkpoint) = ctl {
                checkpoint(t)?;
            }
            if t == warmup {
                self.begin_measurement();
            }
            self.advance(None, recorders.as_deref_mut())?;
        }
        Ok(self.finish())
    }

    /// The one invariant check of a simulation (docs/DETERMINISM.md, "The
    /// audit"). The engine's audit — work lists and masks against a full
    /// scan, route-cache coherence, packet and credit conservation, the
    /// policy's own derived state — and then the identities of the
    /// measurement window: the packets accepted minus the packets
    /// delivered since the counters were reset is the change in the
    /// in-flight population; the five latency components sum to the mean
    /// latency; and the timeline's windows are zero-based, gap-free,
    /// non-empty and, once closed through the current cycle, sum to the
    /// counters. Runs at the end of every run, in every build, before the
    /// result is assembled; O(network).
    ///
    /// # Panics
    /// Panics with a diagnostic naming the first violation.
    pub fn audit(&mut self) {
        self.net.audit();
        let counters = self.net.counters();
        assert_eq!(
            self.window_base_in_flight + counters.accepted_packets,
            self.net.in_flight() + counters.delivered_packets,
            "window identity violated at cycle {}: {} in flight at the counter reset + {} \
             accepted != {} in flight now + {} delivered",
            self.net.cycle(),
            self.window_base_in_flight,
            counters.accepted_packets,
            self.net.in_flight(),
            counters.delivered_packets,
        );
        let latency = &self.net.sink().latency;
        let (sum, mean) = (latency.component_means().iter().sum::<f64>(), latency.mean_latency());
        assert!(
            (sum - mean).abs() <= 1e-9 * mean.max(1.0),
            "latency components sum to {sum}, the mean latency is {mean} (cycle {})",
            self.net.cycle()
        );
        if let Some(rec) = &self.timeline {
            rec.audit(self.net.cycle(), &counters);
        }
    }

    /// Extract the result from the current measurement window (the end
    /// of [`Self::run`], and the endpoint of an externally stepped run).
    pub fn finish(mut self) -> RunResult {
        // Flush the partially filled tail window first, so sums over the
        // timeline rows equal the end-of-run totals below; then prove the
        // run conserved before publishing a byte of it.
        if let Some(rec) = &mut self.timeline {
            rec.flush(self.net.cycle(), &self.net, &self.jobs);
        }
        self.audit();
        let timeline = self.timeline.take().map(TimelineRecorder::into_rows);
        let params = *self.net.topology().params();
        let counters = self.net.counters();
        if let Some(gamma) = self.expected_channel_load(&counters) {
            self.assert_channel_capacity(&gamma, &counters);
        }
        let sink = self.net.sink();
        let nodes = params.nodes() as f64;
        let cycles = counters.cycles as f64;
        let packet_size = self.net.config().packet_size as f64;
        let offered = counters.offered_packets as f64 * packet_size / (nodes * cycles);
        // Measurement window in driver cycles: `[begin, end)`.
        let end = self.net.cycle();
        let begin = end - counters.cycles;
        let per_job = self
            .jobs
            .iter()
            .zip(sink.jobs())
            .map(|(job, acc)| {
                let job_nodes = job.nodes.len() as f64;
                // The job's lifetime clipped to the measurement window:
                // its personal normalization base. Full-lifetime jobs get
                // exactly `counters.cycles`, reproducing the static
                // accounting bit-for-bit.
                let live_from = job.start.unwrap_or(0).clamp(begin, end);
                let live_to = job.stop.unwrap_or(u64::MAX).clamp(begin, end);
                let active_cycles = live_to.saturating_sub(live_from);
                let window = if active_cycles == 0 { f64::NAN } else { active_cycles as f64 };
                let norm = |v: f64| if active_cycles == 0 { 0.0 } else { v };
                let injections: Vec<u64> =
                    job.nodes.iter().map(|n| counters.injected_per_node[n.idx()]).collect();
                JobResult {
                    job: job.label.clone(),
                    nodes: job.nodes.len() as u32,
                    offered: norm(job.offered_packets as f64 * packet_size / (job_nodes * window)),
                    throughput: norm(
                        acc.latency.count() as f64 * packet_size / (job_nodes * window),
                    ),
                    avg_latency: acc.latency.mean_latency(),
                    delivered_packets: acc.latency.count(),
                    p50_latency: acc.histogram.quantile(0.5),
                    p95_latency: acc.histogram.quantile(0.95),
                    p99_latency: acc.histogram.quantile(0.99),
                    active_cycles,
                    fairness: FairnessReport::from_u64(&injections),
                }
            })
            .collect();
        RunResult {
            mechanism: self.protocol.mechanism.label().to_string(),
            pattern: self.protocol.pattern.clone(),
            load: self.protocol.load,
            seed: self.protocol.seed,
            offered,
            throughput: counters.throughput(params.nodes()),
            avg_latency: sink.latency.mean_latency(),
            components: sink.latency.component_means(),
            injected_per_router: counters.injected_per_router.clone(),
            fairness: FairnessReport::from_u64(&counters.injected_per_router),
            delivered_packets: counters.delivered_packets,
            p99_latency: sink.histogram.quantile(0.99),
            per_job,
            timeline,
        }
    }

    /// The expected phits per cycle on every directed channel (indexed
    /// like [`Counters::channel_phits`]): each node's destination law
    /// weighted by its measured `injected_per_node` rate, routed by the
    /// mechanism's [`MechanismSpec::path_class`]. `None` unless there is
    /// a class (tested first: no other run builds anything), every source
    /// draws from a pattern, and no job has a start or stop cycle.
    fn expected_channel_load(&self, counters: &Counters) -> Option<Vec<f64>> {
        let class = self.protocol.mechanism.path_class()?;
        let always_live = self.jobs.iter().all(|j| j.start.is_none() && j.stop.is_none());
        let patterned = self.sources.iter().all(|s| s.traffic.is_some());
        if counters.cycles == 0 || !always_live || !patterned {
            return None;
        }
        let topo = self.net.topology();
        let phits_per_cycle = f64::from(self.net.config().packet_size) / counters.cycles as f64;
        let rate = |n: NodeId| counters.injected_per_node[n.idx()] as f64 * phits_per_cycle;
        let mut gamma = vec![0.0; counters.channel_phits.len()];
        for traffic in self.sources.iter().filter_map(|s| s.traffic.as_ref()) {
            let load = channel_load(topo, &traffic.router_traffic(topo.params(), rate), class);
            gamma.iter_mut().zip(load).for_each(|(g, x)| *g += x);
        }
        Some(gamma)
    }

    /// ROADMAP item 6(a), per channel (accepted ≤ Θ is false for a
    /// network average): no expected load in `gamma` exceeds one phit per
    /// cycle by more than `ε = (1 + ΔF + z·√N) / W`. `W` is the window in
    /// packet slots, `N = γ·W` the channel's expected packets, spread
    /// binomially within `z·√N` ([`CAPACITY_Z`]); the window's growth in
    /// packets in flight, `ΔF`, bounds how many more of them the channel
    /// still owes than it had owed at the window's start.
    ///
    /// # Panics
    /// Panics naming the first channel over its capacity.
    fn assert_channel_capacity(&self, gamma: &[f64], counters: &Counters) {
        let slots = counters.cycles as f64 / f64::from(self.net.config().packet_size);
        let growth = self.net.in_flight().saturating_sub(self.window_base_in_flight) as f64;
        let radix = self.net.topology().params().radix() as usize;
        for (c, &load) in gamma.iter().enumerate() {
            let epsilon = (1.0 + growth + CAPACITY_Z * (load * slots).sqrt()) / slots;
            assert!(
                load <= 1.0 + epsilon,
                "channel over capacity: router {} port {} expects {load:.4} phits/cycle from the \
                 measured injection, above 1 + ε = {:.4}; ε = (1 + ΔF + {CAPACITY_Z}·√N) / W \
                 with W = {slots} packet slots, ΔF = {growth} more packets in flight, \
                 N = {:.1} expected packets (cycle {})",
                c / radix,
                c % radix,
                1.0 + epsilon,
                load * slots,
                self.net.cycle()
            );
        }
    }
}

/// Run one configuration to completion.
pub fn run_single(cfg: &SimConfig) -> RunResult {
    Simulator::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::ArbiterPolicy;
    use df_routing::MechanismSpec;
    use df_topology::DragonflyParams;
    use df_traffic::PatternSpec;

    fn tiny(mechanism: MechanismSpec, pattern: PatternSpec, load: f64) -> SimConfig {
        let mut cfg = SimConfig::small(mechanism, ArbiterPolicy::TransitPriority, pattern, load);
        cfg.params = DragonflyParams::figure1();
        cfg.warmup_cycles = 2_000;
        cfg.measure_cycles = 4_000;
        cfg
    }

    /// A job attributed `nodes` for the whole run.
    fn whole_run(label: &str, nodes: Vec<NodeId>) -> JobRuntime {
        JobRuntime::new(label.into(), nodes, None, None)
    }

    /// Offer one packet by hand on behalf of `job`: the count-and-offer
    /// the generation loop performs per arrival.
    fn offer_as(sim: &mut Simulator, job: usize, src: NodeId, dst: NodeId) {
        sim.jobs[job].offered_packets += 1;
        sim.net.offer(src, dst);
    }

    #[test]
    fn uniform_low_load_accepts_offered() {
        let cfg = tiny(MechanismSpec::Min, PatternSpec::Uniform, 0.2);
        let r = run_single(&cfg);
        // Below saturation, accepted ≈ offered.
        assert!((r.throughput - 0.2).abs() < 0.03, "throughput {}", r.throughput);
        assert!(r.avg_latency > 100.0, "latency {}", r.avg_latency);
        assert!(r.delivered_packets > 0);
        assert!(r.per_job.is_empty(), "the whole-machine source belongs to no job");
    }

    #[test]
    fn components_sum_to_mean_latency() {
        let cfg = tiny(MechanismSpec::InTransitMm, PatternSpec::Uniform, 0.3);
        let r = run_single(&cfg);
        let sum: f64 = r.components.iter().sum();
        assert!(
            (sum - r.avg_latency).abs() < 1e-6,
            "breakdown must be exhaustive: {} vs {}",
            sum,
            r.avg_latency
        );
    }

    #[test]
    fn adv_min_capped_at_reciprocal_ap() {
        // MIN under ADV+1 cannot exceed 1/(a*p) = 1/8 phits/node/cycle.
        let cfg = tiny(MechanismSpec::Min, PatternSpec::Adversarial { offset: 1 }, 0.5);
        let r = run_single(&cfg);
        assert!(r.throughput < 0.16, "ADV+1 MIN capped: {}", r.throughput);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let cfg =
            tiny(MechanismSpec::InTransitCrg, PatternSpec::AdvConsecutive { spread: None }, 0.3);
        let a = run_single(&cfg);
        let b = run_single(&cfg);
        assert_eq!(a.throughput, b.throughput);
        assert_eq!(a.injected_per_router, b.injected_per_router);
        assert_eq!(a.avg_latency, b.avg_latency);
    }

    #[test]
    fn different_seed_differs() {
        let cfg = tiny(MechanismSpec::ObliviousRrg, PatternSpec::Uniform, 0.3);
        let a = run_single(&cfg);
        let b = run_single(&cfg.with_seed(99));
        assert_ne!(a.injected_per_router, b.injected_per_router);
    }

    #[test]
    fn driven_mode_attributes_jobs() {
        // Two single-node "jobs" ping one packet each; attribution and
        // throughput accounting must split cleanly.
        let cfg = tiny(MechanismSpec::Min, PatternSpec::Uniform, 0.0);
        let mut sim = Simulator::new(&cfg);
        sim.set_job_schedule(vec![
            whole_run("a", vec![NodeId(0), NodeId(1)]),
            whole_run("b", vec![NodeId(4)]),
        ]);
        sim.begin_measurement();
        offer_as(&mut sim, 0, NodeId(0), NodeId(9));
        offer_as(&mut sim, 1, NodeId(4), NodeId(20));
        for _ in 0..3000 {
            sim.step();
        }
        let r = sim.finish();
        assert_eq!(r.per_job.len(), 2);
        assert_eq!(r.per_job[0].job, "a");
        assert_eq!(r.per_job[0].delivered_packets, 1);
        assert_eq!(r.per_job[1].delivered_packets, 1);
        assert!(r.per_job[0].avg_latency > 0.0);
        assert!(r.per_job[0].offered > 0.0);
        // One delivered packet: all percentiles collapse onto its bucket.
        let p50 = r.per_job[0].p50_latency.expect("delivered job has p50");
        assert_eq!(r.per_job[0].p99_latency, Some(p50));
        assert!(p50 as f64 + 50.0 >= r.per_job[0].avg_latency);
        // Per-node fairness inside job a: node 0 injected, node 1 idle.
        assert_eq!(r.per_job[0].fairness.min, 0.0);
        assert_eq!(r.per_job[0].fairness.max, 1.0);
    }

    #[test]
    fn pattern_mode_run_attributes_jobs_too() {
        // Attribution and the built-in whole-machine source coexist:
        // `set_job_schedule` decides whose deliveries count, whoever generated
        // them.
        let mut cfg = tiny(MechanismSpec::Min, PatternSpec::Uniform, 0.2);
        cfg.warmup_cycles = 300;
        cfg.measure_cycles = 800;
        let mut sim = Simulator::new(&cfg);
        let nodes = (0..cfg.params.nodes()).map(NodeId).collect();
        sim.set_job_schedule(vec![whole_run("all", nodes)]);
        for _ in 0..cfg.warmup_cycles {
            sim.step();
        }
        sim.begin_measurement();
        for _ in 0..cfg.measure_cycles {
            sim.step();
        }
        let r = sim.finish();
        assert_eq!(r.per_job.len(), 1);
        assert!(r.per_job[0].delivered_packets > 100, "{}", r.per_job[0].delivered_packets);
        assert_eq!(r.per_job[0].delivered_packets, r.delivered_packets);
    }

    /// `finish` proves the run before it publishes it — in every build:
    /// ci.sh runs this test once more in release, where no periodic audit
    /// exists to catch the corruption first. The corruption: the engine's
    /// counters zeroed behind the simulator's back, so the window no
    /// longer accounts for the packets in flight.
    #[test]
    #[should_panic(expected = "window identity violated")]
    fn finish_audits_in_every_build() {
        let cfg = tiny(MechanismSpec::Min, PatternSpec::Uniform, 0.3);
        let mut sim = Simulator::new(&cfg);
        sim.begin_measurement();
        for _ in 0..300 {
            sim.step();
        }
        assert!(sim.net.in_flight() > 0);
        sim.net.reset_counters();
        sim.finish();
    }

    /// Warm-up and measure `cfg` by hand, stopping before `finish`.
    fn measured(cfg: &SimConfig) -> Simulator {
        let mut sim = Simulator::new(cfg);
        for _ in 0..cfg.warmup_cycles {
            sim.step();
        }
        sim.begin_measurement();
        for _ in 0..cfg.measure_cycles {
            sim.step();
        }
        sim
    }

    /// The expected loads are tight: MIN under ADV+1 at saturation fills
    /// each group's one exit channel, and the measured injection says so.
    #[test]
    fn saturated_min_reads_its_bottleneck_channels_full() {
        let sim = measured(&tiny(MechanismSpec::Min, PatternSpec::Adversarial { offset: 1 }, 0.6));
        let counters = sim.net.counters();
        let gamma = sim.expected_channel_load(&counters).expect("MIN has a path class");
        let max = gamma.iter().copied().fold(0.0, f64::max);
        assert!(max >= 0.9, "max expected channel load {max}");
        sim.assert_channel_capacity(&gamma, &counters);
    }

    /// Doubling every node's weight doubles every expected load (they are
    /// linear in the weights), which no channel can carry.
    #[test]
    #[should_panic(expected = "channel over capacity")]
    fn doubled_weights_trip_the_capacity_check() {
        let sim = measured(&tiny(MechanismSpec::Min, PatternSpec::Adversarial { offset: 1 }, 0.6));
        let counters = sim.net.counters();
        let gamma = sim.expected_channel_load(&counters).unwrap();
        sim.assert_channel_capacity(&gamma.iter().map(|x| 2.0 * x).collect::<Vec<_>>(), &counters);
    }

    /// Only oblivious classes build the expected loads.
    #[test]
    fn adaptive_runs_build_no_expected_load() {
        let sim = measured(&tiny(MechanismSpec::InTransitMm, PatternSpec::Uniform, 0.1));
        assert!(sim.expected_channel_load(&sim.net.counters()).is_none());
    }

    #[test]
    fn job_activity_window() {
        // Half-open `[start, stop)`: what gates a job's generation source.
        let job = JobRuntime::new("j".into(), Vec::new(), Some(100), Some(200));
        assert!(!job.active(99));
        assert!(job.active(100));
        assert!(job.active(199));
        assert!(!job.active(200));
    }
}
