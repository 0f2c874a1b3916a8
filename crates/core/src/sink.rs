//! The stats sink wired into the engine: aggregates delivered packets
//! into the `df-stats` accumulators, with a warm-up gate and an optional
//! node→job attribution for multi-job scenarios.
//!
//! Attribution is *cycle-aware*: each node keeps a small ownership
//! history of `(from_cycle, job)` changes, built once from the jobs'
//! schedule, so in a churning workload a packet is credited to the job
//! that owned its source node **when the packet was generated** — a
//! straggler delivered after its job departed (and after the node was
//! reassigned to a later arrival) still counts toward the departed job,
//! not the new tenant.

use df_engine::{DeliveredRecord, StatsSink};
use df_stats::{Histogram, LatencyAccumulator};
use df_topology::NodeId;
use std::ops::Range;

/// Job index meaning "not attributed to any job".
const NO_JOB: u32 = u32::MAX;

/// Per-job measurement slice of the sink.
#[derive(Debug, Clone)]
pub struct JobAccumulator {
    /// Latency breakdown of packets sourced by this job's nodes; its
    /// count is the job's delivered packets during the window, each
    /// `packet_size` phits.
    pub latency: LatencyAccumulator,
    /// End-to-end latency histogram (p50/p95/p99 per job).
    pub histogram: Histogram,
}

impl JobAccumulator {
    fn new() -> Self {
        Self { latency: LatencyAccumulator::new(), histogram: Histogram::new(50, 200) }
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
    /// `(from_cycle, owner)` entries in ascending cycle order. A job
    /// contributes a claim per node it owns, and a release if it departs.
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

    /// Inactive sink over `n_nodes` nodes that attributes deliveries to
    /// `jobs`: each job's nodes and the generation cycles it owns them
    /// for, `[from, to)` (`to == u64::MAX`: never released). Each node's
    /// `(from_cycle, job)` history is built here, once; at equal cycles a
    /// release sorts before a claim, so a job may take over slots at the
    /// cycle their previous owner leaves them.
    ///
    /// # Panics
    /// Panics if two jobs own one node at the same cycle (jobs sharing a
    /// node must have disjoint lifetimes).
    pub fn with_jobs<'a>(
        n_nodes: usize,
        jobs: impl IntoIterator<Item = (&'a [NodeId], Range<u64>)>,
    ) -> Self {
        let mut node_history = vec![Vec::new(); n_nodes];
        let mut n_jobs = 0;
        for (job, (nodes, owned)) in jobs.into_iter().enumerate() {
            for n in nodes {
                let history = &mut node_history[n.idx()];
                history.push((owned.start, job as u32));
                if owned.end != u64::MAX {
                    history.push((owned.end, NO_JOB));
                }
            }
            n_jobs += 1;
        }
        for (node, history) in node_history.iter_mut().enumerate() {
            history.sort_by_key(|&(cycle, job)| (cycle, job != NO_JOB));
            let mut owner = NO_JOB;
            for &(_, job) in history.iter() {
                assert!(job == NO_JOB || owner == NO_JOB, "node {node} claimed by two jobs");
                owner = job;
            }
        }
        Self {
            node_history,
            jobs: (0..n_jobs).map(|_| JobAccumulator::new()).collect(),
            ..Self::new()
        }
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

    /// Per-job accumulators, in the order of [`MeasurementSink::with_jobs`].
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
            header: PacketHeader { id: 0, src: NodeId(src), dst: NodeId(1), gen_cycle: 0 },
            delivered_cycle: base + mis + inj + loc + glob,
            traversal: base + mis,
            min_traversal: base,
            waits: WaitBreakdown { injection: inj, local: loc, global: glob },
            local_hops: 2,
            global_hops: 1,
        }
    }

    /// Sink over `owners.len()` nodes, node `i` owned by `owners[i]`
    /// for the whole run (`None` = unowned).
    fn sink_owning(owners: &[Option<u32>], n_jobs: usize) -> MeasurementSink {
        let nodes: Vec<Vec<NodeId>> = (0..n_jobs as u32)
            .map(|j| {
                let owned = owners.iter().enumerate().filter(|&(_, &o)| o == Some(j));
                owned.map(|(n, _)| NodeId(n as u32)).collect()
            })
            .collect();
        MeasurementSink::with_jobs(owners.len(), nodes.iter().map(|n| (&n[..], 0..u64::MAX)))
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
        assert_eq!(s.jobs()[0].latency.count(), 2);
        assert_eq!(s.jobs()[0].latency.mean_latency(), 150.0);
        assert_eq!(s.jobs()[1].latency.count(), 1);
        assert_eq!(s.jobs()[1].latency.mean_latency(), 300.0);
    }

    #[test]
    fn job_reset_with_measurement() {
        let mut s = sink_owning(&[Some(0)], 1);
        s.start_measurement();
        s.on_delivered(&rec_from(0, (100, 0, 0, 0, 0)));
        s.start_measurement();
        assert_eq!(s.jobs()[0].latency.count(), 0);
    }

    #[test]
    fn ownership_follows_the_schedule() {
        // Node 0: job 1 owns generation cycles [1, 11), then job 0 takes
        // it over at 11 with node 1 and never leaves. Listing the later
        // tenant first checks that the release at 11 sorts before the
        // claim at 11.
        let (later, earlier) = ([NodeId(0), NodeId(1)], [NodeId(0)]);
        let s = MeasurementSink::with_jobs(2, [(&later[..], 11..u64::MAX), (&earlier[..], 1..11)]);
        let node0: Vec<_> = [0, 1, 10, 11, 1_000].iter().map(|&c| s.job_of_at(0, c)).collect();
        assert_eq!(node0, [None, Some(1), Some(1), Some(0), Some(0)]);
        assert_eq!((s.job_of_at(1, 10), s.job_of_at(1, 11)), (None, Some(0)));
        assert_eq!(s.jobs().len(), 2);
    }

    #[test]
    #[should_panic(expected = "node 3 claimed by two jobs")]
    fn two_owners_of_one_node_at_one_cycle_are_rejected() {
        let (a, b) = ([NodeId(3)], [NodeId(2), NodeId(3)]);
        MeasurementSink::with_jobs(4, [(&a[..], 1..11), (&b[..], 10..20)]);
    }
}
