//! The stats sink wired into the engine: aggregates delivered packets
//! into the `df-stats` accumulators, with a warm-up gate and an optional
//! node→job attribution for multi-job scenarios.
//!
//! Attribution is *cycle-aware*: each node keeps a small ownership
//! history of `(from_cycle, job)` changes, so in a churning workload a
//! packet is credited to the job that owned its source node **when the
//! packet was generated** — a straggler delivered after its job departed
//! (and after the node was reassigned to a later arrival) still counts
//! toward the departed job, not the new tenant.

use df_engine::{DeliveredRecord, StatsSink};
use df_stats::{Histogram, LatencyAccumulator};

/// Job index meaning "not attributed to any job".
const NO_JOB: u32 = u32::MAX;

/// Per-job measurement slice of the sink.
#[derive(Debug, Clone)]
pub struct JobAccumulator {
    /// Latency breakdown of packets sourced by this job's nodes.
    pub latency: LatencyAccumulator,
    /// End-to-end latency histogram (p50/p95/p99 per job).
    pub histogram: Histogram,
    /// Packets delivered for this job during the window.
    pub delivered_packets: u64,
    /// Phits delivered for this job during the window.
    pub delivered_phits: u64,
}

impl JobAccumulator {
    fn new() -> Self {
        Self {
            latency: LatencyAccumulator::new(),
            histogram: Histogram::new(50, 200),
            delivered_packets: 0,
            delivered_phits: 0,
        }
    }
}

/// Aggregating sink. Inactive during warm-up; activated at the start of
/// the measurement window.
#[derive(Debug)]
pub struct MeasurementSink {
    /// Whether records are being accumulated.
    pub active: bool,
    /// Latency breakdown accumulator.
    pub latency: LatencyAccumulator,
    /// End-to-end latency histogram (50-cycle bins up to 10,000 cycles).
    pub histogram: Histogram,
    /// Per-node ownership history (empty when no jobs are set):
    /// `(from_cycle, owner)` entries in ascending cycle order, the last
    /// one the current owner. Static scenarios have at most one entry per
    /// node; churn appends one entry per claim/release.
    node_history: Vec<Vec<(u64, u32)>>,
    /// Per-job accumulators.
    jobs: Vec<JobAccumulator>,
}

impl MeasurementSink {
    /// Inactive sink with empty accumulators and no job attribution.
    pub fn new() -> Self {
        Self {
            active: false,
            latency: LatencyAccumulator::new(),
            histogram: Histogram::new(50, 200),
            node_history: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Inactive sink for a *scheduled* (churning) workload: `n_jobs`
    /// accumulators over `n_nodes` initially unowned nodes. Ownership is
    /// installed over time via [`MeasurementSink::claim_node`] /
    /// [`MeasurementSink::release_node`].
    pub fn with_job_count(n_nodes: usize, n_jobs: usize) -> Self {
        Self {
            node_history: vec![Vec::new(); n_nodes],
            jobs: (0..n_jobs).map(|_| JobAccumulator::new()).collect(),
            ..Self::new()
        }
    }

    /// Record that `job` owns `node` from `cycle` on.
    ///
    /// # Panics
    /// Panics if the node is currently owned (lifetimes of jobs sharing a
    /// node must be disjoint) or `job` is out of range.
    pub fn claim_node(&mut self, node: usize, job: u32, cycle: u64) {
        assert!((job as usize) < self.jobs.len(), "job {job} out of range");
        assert_eq!(self.owner(node), NO_JOB, "node {node} claimed by two jobs");
        debug_assert!(
            self.node_history[node].last().is_none_or(|&(c, _)| c <= cycle),
            "ownership history must be appended in cycle order"
        );
        self.node_history[node].push((cycle, job));
    }

    /// Record that `node`'s owner departs at `cycle`: packets generated
    /// at `cycle` or later are no longer attributed to it.
    ///
    /// # Panics
    /// Panics if the node is not currently owned.
    pub fn release_node(&mut self, node: usize, cycle: u64) {
        assert_ne!(self.owner(node), NO_JOB, "released node {node} is unowned");
        self.node_history[node].push((cycle, NO_JOB));
    }

    /// `node`'s current owner, `NO_JOB` if none.
    fn owner(&self, node: usize) -> u32 {
        self.node_history[node].last().map_or(NO_JOB, |&(_, j)| j)
    }

    /// Clear accumulators and start measuring.
    pub fn start_measurement(&mut self) {
        self.latency = LatencyAccumulator::new();
        self.histogram = Histogram::new(50, 200);
        for j in &mut self.jobs {
            *j = JobAccumulator::new();
        }
        self.active = true;
    }

    /// Per-job accumulators (`n_jobs` of [`MeasurementSink::with_job_count`]).
    pub fn jobs(&self) -> &[JobAccumulator] {
        &self.jobs
    }

    /// The job that owned `node` at `cycle` (attribution for a packet
    /// generated then). A reverse scan of the node's ownership history —
    /// one entry for static jobs, a handful under churn.
    pub fn job_of_at(&self, node: usize, cycle: u64) -> Option<u32> {
        let history = self.node_history.get(node)?;
        history
            .iter()
            .rev()
            .find(|&&(from, _)| from <= cycle)
            .map(|&(_, j)| j)
            .filter(|&j| j != NO_JOB)
    }
}

impl Default for MeasurementSink {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsSink for MeasurementSink {
    fn on_delivered(&mut self, rec: &DeliveredRecord) {
        if !self.active {
            return;
        }
        self.latency.add(
            rec.min_traversal,
            rec.misroute_latency(),
            rec.waits.injection,
            rec.waits.local,
            rec.waits.global,
        );
        self.histogram.add(rec.latency());
        if let Some(j) = self.job_of_at(rec.header.src.idx(), rec.header.gen_cycle) {
            let job = &mut self.jobs[j as usize];
            job.latency.add(
                rec.min_traversal,
                rec.misroute_latency(),
                rec.waits.injection,
                rec.waits.local,
                rec.waits.global,
            );
            job.histogram.add(rec.latency());
            job.delivered_packets += 1;
            job.delivered_phits += rec.header.size as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::{PacketHeader, WaitBreakdown};
    use df_topology::NodeId;

    fn rec(latency_parts: (u64, u64, u64, u64, u64)) -> DeliveredRecord {
        rec_from(0, latency_parts)
    }

    fn rec_from(src: u32, latency_parts: (u64, u64, u64, u64, u64)) -> DeliveredRecord {
        let (base, mis, inj, loc, glob) = latency_parts;
        DeliveredRecord {
            header: PacketHeader { id: 0, src: NodeId(src), dst: NodeId(1), size: 8, gen_cycle: 0 },
            delivered_cycle: base + mis + inj + loc + glob,
            traversal: base + mis,
            min_traversal: base,
            waits: WaitBreakdown { injection: inj, local: loc, global: glob },
            local_hops: 2,
            global_hops: 1,
        }
    }

    /// Sink over `owners.len()` nodes, node `i` owned by `owners[i]`
    /// from cycle 0 (`None` = unowned).
    fn sink_owning(owners: &[Option<u32>], n_jobs: usize) -> MeasurementSink {
        let mut s = MeasurementSink::with_job_count(owners.len(), n_jobs);
        for (node, owner) in owners.iter().enumerate() {
            if let Some(job) = *owner {
                s.claim_node(node, job, 0);
            }
        }
        s
    }

    #[test]
    fn inactive_sink_ignores_records() {
        let mut s = MeasurementSink::new();
        s.on_delivered(&rec((100, 0, 0, 0, 0)));
        assert_eq!(s.latency.count(), 0);
    }

    #[test]
    fn active_sink_accumulates_breakdown() {
        let mut s = MeasurementSink::new();
        s.start_measurement();
        s.on_delivered(&rec((100, 50, 10, 5, 2)));
        assert_eq!(s.latency.count(), 1);
        let [base, mis, lq, gq, inj] = s.latency.component_means();
        assert_eq!((base, mis, lq, gq, inj), (100.0, 50.0, 5.0, 2.0, 10.0));
        assert_eq!(s.histogram.total(), 1);
    }

    #[test]
    fn start_measurement_resets() {
        let mut s = MeasurementSink::new();
        s.start_measurement();
        s.on_delivered(&rec((100, 0, 0, 0, 0)));
        s.start_measurement();
        assert_eq!(s.latency.count(), 0);
        assert_eq!(s.histogram.total(), 0);
    }

    #[test]
    fn job_histogram_yields_percentiles() {
        let mut s = sink_owning(&[Some(0)], 1);
        s.start_measurement();
        for i in 0..100u64 {
            s.on_delivered(&rec_from(0, (100 + i * 10, 0, 0, 0, 0)));
        }
        let h = &s.jobs()[0].histogram;
        assert_eq!(h.total(), 100);
        let (p50, p99) = (h.quantile(0.5).unwrap(), h.quantile(0.99).unwrap());
        assert!(p50 < p99, "p50 {p50} must sit below p99 {p99}");
        assert!(p99 >= 1050, "p99 {p99} must cover the distribution tail");
    }

    #[test]
    fn job_attribution_splits_records_by_source() {
        // Nodes 0,1 → job 0; node 2 → job 1; node 3 unowned.
        let mut s = sink_owning(&[Some(0), Some(0), Some(1), None], 2);
        s.start_measurement();
        s.on_delivered(&rec_from(0, (100, 0, 0, 0, 0)));
        s.on_delivered(&rec_from(1, (200, 0, 0, 0, 0)));
        s.on_delivered(&rec_from(2, (300, 0, 0, 0, 0)));
        s.on_delivered(&rec_from(3, (400, 0, 0, 0, 0)));
        assert_eq!(s.latency.count(), 4);
        assert_eq!(s.jobs()[0].delivered_packets, 2);
        assert_eq!(s.jobs()[0].delivered_phits, 16);
        assert_eq!(s.jobs()[0].latency.mean_latency(), 150.0);
        assert_eq!(s.jobs()[1].delivered_packets, 1);
        assert_eq!(s.jobs()[1].latency.mean_latency(), 300.0);
    }

    #[test]
    fn job_reset_with_measurement() {
        let mut s = sink_owning(&[Some(0)], 1);
        s.start_measurement();
        s.on_delivered(&rec_from(0, (100, 0, 0, 0, 0)));
        s.start_measurement();
        assert_eq!(s.jobs()[0].delivered_packets, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_job_map_rejected() {
        sink_owning(&[Some(5)], 2);
    }
}
