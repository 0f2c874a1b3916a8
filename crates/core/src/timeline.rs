//! Windowed timeline telemetry: per-window snapshots of the counters the
//! engine already maintains.
//!
//! When a [`crate::SimConfig`] carries a [`df_engine::TelemetrySpec`],
//! the simulator attaches a [`TimelineRecorder`] to the measurement
//! window. Window `i` spans `[base + i·width, base + (i+1)·width)`,
//! `base` being the first measured cycle, and the end of the run cuts the
//! last one short; so the open window follows from the rows already
//! closed. After every cycle the recorder checks whether the open window
//! has ended; when it has, it diffs the engine's cumulative counters
//! against the previous boundary and emits one [`WindowRow`]. The
//! instrumentation is read-only: it never feeds back into routing,
//! allocation, or RNG consumption, so same-seed summary output is
//! bit-identical with telemetry on or off (the golden digests enforce
//! this).
//!
//! Rows accumulate into [`crate::RunResult::timeline`] and can
//! additionally be streamed as they close through a sink installed with
//! [`crate::Simulator::set_timeline_sink`] (the `--timeline out.jsonl`
//! CLI surface).

use crate::sim::{Engine, JobRuntime};
use df_engine::{Counters, TelemetrySpec};
use serde::{Deserialize, Serialize};

/// The network type the recorder samples from: the simulator's engine
/// (serial or sharded — the counters it reads are merged identically
/// either way).
type Net = Engine;

/// One job's slice of a timeline window. All rates are normalized over
/// the *full* window span and the job's node count; a job that is dormant
/// (not yet arrived, or departed) simply reports zeros.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobWindow {
    /// Job label.
    pub job: String,
    /// Packets the driver offered for this job during the window.
    pub offered_packets: u64,
    /// Packets injected from the job's nodes during the window (the
    /// paper's fairness signal, windowed).
    pub injected_packets: u64,
    /// Packets delivered for this job during the window.
    pub delivered_packets: u64,
    /// Phits delivered for this job during the window.
    pub delivered_phits: u64,
    /// Offered load during the window, in phits/(job node·cycle).
    pub offered: f64,
    /// Delivered throughput during the window, in phits/(job node·cycle).
    pub throughput: f64,
    /// Mean end-to-end latency of packets *delivered in this window*, in
    /// cycles; `None` when nothing was delivered (kept out of the JSON
    /// as `null` rather than a NaN).
    pub avg_latency: Option<f64>,
}

/// One closed telemetry window: network-scope gauges plus per-job rows.
///
/// Windows tile the measurement phase gap-free: the first window starts
/// at the `begin_measurement` cycle, `end_cycle` is exclusive and equals
/// the next row's `start_cycle`. The final row may be a partial window
/// (shorter than `window_cycles`) so that sums over rows equal the
/// end-of-run totals exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowRow {
    /// Window index within the run, starting at 0.
    pub window: u64,
    /// First cycle covered by the window.
    pub start_cycle: u64,
    /// One past the last cycle covered (exclusive; start of next window).
    pub end_cycle: u64,
    /// Generation attempts network-wide during the window.
    pub offered_packets: u64,
    /// Packets granted out of injection ports during the window.
    pub injected_packets: u64,
    /// Packets delivered network-wide during the window.
    pub delivered_packets: u64,
    /// Phits delivered network-wide during the window.
    pub delivered_phits: u64,
    /// Delivered throughput during the window, phits/(node·cycle).
    pub throughput: f64,
    /// Fraction of aggregate global-link capacity (one phit per link per
    /// cycle, `routers × h` links) carrying traffic during the window.
    pub link_utilization: f64,
    /// Escape-path grants (first misrouting commitment of a packet)
    /// during the window.
    pub escape_grants: u64,
    /// Escape-path grants per cycle during the window.
    pub escape_grant_rate: f64,
    /// Ready, unparked input-VC heads at window close (allocator-load
    /// gauge).
    pub probe_ready_heads: u64,
    /// Output-port epoch bumps (state changes that wake parked heads) during
    /// the window.
    pub port_epoch_bumps: u64,
    /// Per-job rows (empty when the run has no job attribution).
    pub jobs: Vec<JobWindow>,
}

/// Cumulative network counters at the last closed window boundary.
#[derive(Debug, Clone, Copy, Default)]
struct NetMark {
    offered_packets: u64,
    injected_packets: u64,
    delivered_packets: u64,
    escape_grants: u64,
    global_link_phits: u64,
    port_epoch_sum: u64,
}

/// Cumulative per-job counters at the last closed window boundary.
#[derive(Debug, Clone, Copy, Default)]
struct JobMark {
    offered_packets: u64,
    injected_packets: u64,
    /// Packets delivered for the job: its latency count.
    delivered_packets: u64,
    latency_sum: f64,
}

fn net_mark(net: &Net, c: &Counters) -> NetMark {
    NetMark {
        offered_packets: c.offered_packets,
        injected_packets: c.injected_per_router.iter().sum(),
        delivered_packets: c.delivered_packets,
        escape_grants: c.escape_grants,
        global_link_phits: c.global_phits(net.topology().params()),
        port_epoch_sum: net.port_epoch_sum(),
    }
}

fn job_marks(net: &Net, c: &Counters, jobs: &[JobRuntime]) -> Vec<JobMark> {
    let per_node = &c.injected_per_node;
    jobs.iter()
        .zip(net.sink().jobs())
        .map(|(job, acc)| JobMark {
            offered_packets: job.offered_packets,
            injected_packets: job.nodes.iter().map(|n| per_node[n.idx()]).sum(),
            delivered_packets: acc.latency.count(),
            latency_sum: acc.latency.mean_latency() * acc.latency.count() as f64,
        })
        .collect()
}

/// Both boundary marks from one snapshot of the engine's counters (a
/// borrow on the serial engine, one merge on the sharded one).
fn marks(net: &Net, jobs: &[JobRuntime]) -> (NetMark, Vec<JobMark>) {
    let c = net.counters();
    (net_mark(net, &c), job_marks(net, &c, jobs))
}

/// A streaming consumer of closed windows: called once per window, in
/// order, while the run executes (the partial tail row is flushed at
/// run teardown and reaches the sink too).
pub type TimelineSink = Box<dyn FnMut(&WindowRow)>;

/// Per-run recorder: window width, boundary marks, closed rows, and an
/// optional streaming sink. Owned by [`crate::Simulator`]; one branch per
/// cycle when idle, O(routers + job nodes) work only at window close.
pub(crate) struct TimelineRecorder {
    /// First cycle of window 0 (the `begin_measurement` cycle).
    base: u64,
    /// Window width in cycles.
    width: u64,
    /// Closed windows, oldest first: window `rows.len()` is open.
    rows: Vec<WindowRow>,
    net_mark: NetMark,
    job_marks: Vec<JobMark>,
    sink: Option<TimelineSink>,
}

impl TimelineRecorder {
    /// A recorder whose first window starts at `base` (the
    /// `begin_measurement` cycle), with boundary marks snapshotted from
    /// the network's current — just reset — counters.
    ///
    /// # Panics
    /// Panics if the window width is zero.
    pub(crate) fn new(
        spec: TelemetrySpec,
        base: u64,
        net: &Net,
        jobs: &[JobRuntime],
        sink: Option<TimelineSink>,
    ) -> Self {
        assert!(spec.window_cycles > 0, "window width must be positive");
        let (net_mark, job_marks) = marks(net, jobs);
        TimelineRecorder {
            base,
            width: spec.window_cycles,
            rows: Vec::new(),
            net_mark,
            job_marks,
            sink,
        }
    }

    /// The open window's index and first cycle.
    fn open_window(&self) -> (u64, u64) {
        let window = self.rows.len() as u64;
        (window, self.base + window * self.width)
    }

    /// Check the window boundary after a cycle; close and emit the
    /// window if `now` reached its end.
    pub(crate) fn tick(&mut self, now: u64, net: &Net, jobs: &[JobRuntime]) {
        loop {
            let (window, start) = self.open_window();
            if now < start + self.width {
                return;
            }
            self.close(window, start, start + self.width, net, jobs);
        }
    }

    /// Flush the partially filled tail window (end of run), so sums over
    /// all rows equal the end-of-run totals exactly.
    pub(crate) fn flush(&mut self, now: u64, net: &Net, jobs: &[JobRuntime]) {
        self.tick(now, net, jobs);
        let (window, start) = self.open_window();
        if now > start {
            self.close(window, start, now, net, jobs);
        }
    }

    /// Diff the cumulative counters against the boundary marks, emit the
    /// row, and advance the marks.
    fn close(&mut self, window: u64, start: u64, end: u64, net: &Net, jobs: &[JobRuntime]) {
        let span = (end - start) as f64;
        let params = *net.topology().params();
        let packet_size = u64::from(net.config().packet_size);
        let (now_net, jobs_now) = marks(net, jobs);
        let prev = self.net_mark;
        let job_rows = jobs
            .iter()
            .zip(jobs_now.iter())
            .zip(self.job_marks.iter())
            .map(|((job, now), prev)| {
                let offered_packets = now.offered_packets - prev.offered_packets;
                let count = now.delivered_packets - prev.delivered_packets;
                let delivered_phits = count * packet_size;
                let nodes = job.nodes.len() as f64;
                JobWindow {
                    job: job.label.clone(),
                    offered_packets,
                    injected_packets: now.injected_packets - prev.injected_packets,
                    delivered_packets: count,
                    delivered_phits,
                    offered: offered_packets as f64 * packet_size as f64 / (nodes * span),
                    throughput: delivered_phits as f64 / (nodes * span),
                    avg_latency: (count > 0)
                        .then(|| (now.latency_sum - prev.latency_sum) / count as f64),
                }
            })
            .collect();
        let delivered_packets = now_net.delivered_packets - prev.delivered_packets;
        let delivered_phits = delivered_packets * packet_size;
        let escape_grants = now_net.escape_grants - prev.escape_grants;
        let global_links = (params.routers() * params.h) as f64;
        let row = WindowRow {
            window,
            start_cycle: start,
            end_cycle: end,
            offered_packets: now_net.offered_packets - prev.offered_packets,
            injected_packets: now_net.injected_packets - prev.injected_packets,
            delivered_packets,
            delivered_phits,
            throughput: delivered_phits as f64 / (params.nodes() as f64 * span),
            link_utilization: (now_net.global_link_phits - prev.global_link_phits) as f64
                / (global_links * span),
            escape_grants,
            escape_grant_rate: escape_grants as f64 / span,
            probe_ready_heads: net.probe_ready_total(),
            port_epoch_bumps: now_net.port_epoch_sum - prev.port_epoch_sum,
            jobs: job_rows,
        };
        self.net_mark = now_net;
        self.job_marks = jobs_now;
        if let Some(sink) = &mut self.sink {
            sink(&row);
        }
        self.rows.push(row);
    }

    /// Audit step (timeline): the closed windows are zero-based, gap-free
    /// from the first measured cycle and non-empty; and once they are
    /// closed through `now` (at a boundary, or after [`Self::flush`]) their
    /// counts sum to the run's counters `c`.
    pub(crate) fn audit(&self, now: u64, c: &Counters) {
        let rows = &self.rows;
        let mut next_start = self.base;
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.window, i as u64, "timeline window {i} carries index {}", row.window);
            assert_eq!(
                row.start_cycle, next_start,
                "timeline window {i} starts at cycle {}, the previous one ended at {next_start}",
                row.start_cycle
            );
            assert!(
                row.end_cycle > row.start_cycle,
                "timeline window {i} is empty: [{}, {})",
                row.start_cycle,
                row.end_cycle
            );
            next_start = row.end_cycle;
        }
        if next_start != now {
            return;
        }
        let total = |count: fn(&WindowRow) -> u64| rows.iter().map(count).sum::<u64>();
        for (what, windows, run) in [
            ("injected packets", total(|r| r.injected_packets), c.injected_per_router.iter().sum()),
            ("delivered packets", total(|r| r.delivered_packets), c.delivered_packets),
            ("escape grants", total(|r| r.escape_grants), c.escape_grants),
        ] {
            assert_eq!(
                windows, run,
                "timeline windows sum to {windows} {what}, the run counted {run} (cycle {now})"
            );
        }
        // Offers are made between steps: the ones since the last step are
        // counted by the run and belong to no window yet.
        let offered = total(|r| r.offered_packets);
        assert!(
            offered <= c.offered_packets,
            "timeline windows sum to {offered} offered packets, the run counted {} (cycle {now})",
            c.offered_packets
        );
    }

    /// Consume the recorder, yielding its closed rows.
    pub(crate) fn into_rows(self) -> Vec<WindowRow> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use df_engine::ArbiterPolicy;
    use df_routing::MechanismSpec;
    use df_topology::DragonflyParams;
    use df_traffic::PatternSpec;

    /// A simulator over an idle figure1 network.
    fn idle_figure1() -> Simulator {
        let mut cfg = SimConfig::small(
            MechanismSpec::Min,
            ArbiterPolicy::TransitPriority,
            PatternSpec::Uniform,
            0.0,
        );
        cfg.params = DragonflyParams::figure1();
        Simulator::new(&cfg)
    }

    /// The `(index, start, end)` of each closed row.
    fn bounds(rec: &TimelineRecorder) -> Vec<(u64, u64, u64)> {
        rec.rows.iter().map(|r| (r.window, r.start_cycle, r.end_cycle)).collect()
    }

    #[test]
    fn windows_are_contiguous_from_a_non_zero_base() {
        let sim = idle_figure1();
        let net = sim.network();
        let spec = TelemetrySpec { window_cycles: 100 };
        let mut rec = TimelineRecorder::new(spec, 250, net, &[], None);
        rec.tick(349, net, &[]);
        assert_eq!(bounds(&rec), []);
        rec.tick(350, net, &[]);
        assert_eq!(bounds(&rec), [(0, 250, 350)]);
        // A tick past several boundaries closes every window it passed.
        rec.tick(555, net, &[]);
        assert_eq!(bounds(&rec), [(0, 250, 350), (1, 350, 450), (2, 450, 550)]);
    }

    #[test]
    fn flush_closes_a_partial_tail_window() {
        let sim = idle_figure1();
        let net = sim.network();
        let spec = TelemetrySpec { window_cycles: 100 };
        let mut rec = TimelineRecorder::new(spec, 0, net, &[], None);
        // At a boundary there is no tail to flush.
        rec.flush(100, net, &[]);
        assert_eq!(bounds(&rec), [(0, 0, 100)]);
        rec.flush(130, net, &[]);
        assert_eq!(bounds(&rec), [(0, 0, 100), (1, 100, 130)]);
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn a_zero_window_width_is_rejected() {
        let sim = idle_figure1();
        TimelineRecorder::new(TelemetrySpec { window_cycles: 0 }, 0, sim.network(), &[], None);
    }

    /// A recorder over an idle figure1 network, first window at cycle 100,
    /// with `windows` closed by hand as `(index, start, end)`.
    fn audit_after(windows: &[(u64, u64, u64)], now: u64, doctor: fn(&mut Counters)) {
        let sim = idle_figure1();
        let net = sim.network();
        let mut rec = TimelineRecorder::new(TelemetrySpec::default(), 100, net, &[], None);
        for &(window, start, end) in windows {
            rec.close(window, start, end, net, &[]);
        }
        let mut counters = net.counters().into_owned();
        doctor(&mut counters);
        rec.audit(now, &counters);
    }

    #[test]
    fn a_gap_free_chain_that_sums_to_the_counters_passes() {
        audit_after(&[(0, 100, 150), (1, 150, 200), (2, 200, 230)], 230, |_| {});
        // Not closed through `now`: only the chain is checked.
        audit_after(&[(0, 100, 150)], 170, |c| c.delivered_packets = 9);
        // Offers since the last step are the run's, not a window's.
        audit_after(&[(0, 100, 150)], 150, |c| c.offered_packets = 2);
    }

    macro_rules! audit_catches {
        ($($name:ident: $expected:literal => $windows:expr, $now:expr, $doctor:expr;)*) => {$(
            #[test]
            #[should_panic(expected = $expected)]
            fn $name() {
                audit_after(&$windows, $now, $doctor);
            }
        )*};
    }

    audit_catches! {
        audit_catches_a_window_index_off_zero: "carries index 1" => [(1, 100, 150)], 150, |_| {};
        audit_catches_a_late_first_window: "starts at cycle 101" => [(0, 101, 150)], 150, |_| {};
        audit_catches_a_gap: "the previous one ended at 150" =>
            [(0, 100, 150), (1, 160, 200)], 200, |_| {};
        audit_catches_an_empty_window: "is empty" => [(0, 100, 150), (1, 150, 150)], 150, |_| {};
        audit_catches_a_delivery_no_window_saw: "0 delivered packets, the run counted 1" =>
            [(0, 100, 150)], 150, |c| c.delivered_packets = 1;
        audit_catches_an_injection_no_window_saw: "0 injected packets, the run counted 1" =>
            [(0, 100, 150)], 150, |c| c.injected_per_router[3] = 1;
    }
}
