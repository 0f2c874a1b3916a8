//! Windowed-telemetry integration tests: the `RateWindow` ring against a
//! naive reference (property-based), sum-of-windows == end-of-run totals
//! under job churn straddling window boundaries, the `--timeline` JSONL
//! stream read back line by line, telemetry on/off
//! bit-equality of the golden summaries, and the paper-level signal —
//! the victim job's windowed throughput collapsing under In-Trns-CRG
//! while Obl-CRG stays flat.

use dragonfly_core::df_stats::RateWindow;
use dragonfly_core::df_workload::{InjectionSpec, JobSpec, PlacementSpec, ScenarioSpec};
use dragonfly_core::prelude::*;
use integration_tests::md5_hex;
use proptest::prelude::*;

fn scenario_path(name: &str) -> String {
    format!("{}/../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Load a bundled scenario under the `scenario --quick` cycle budget.
fn quick_spec(name: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::load(&scenario_path(name)).expect("load scenario");
    df_bench::quick_scenario(&mut spec);
    spec
}

// ---------------------------------------------------------------------
// RateWindow vs naive reference (property-based)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Feed the same monotone event stream into the ring and into a flat
    // event list; after every event the ring's O(1) sum must equal the
    // reference's O(events) bucket-aligned window sum.
    #[test]
    fn rate_window_matches_naive_reference(
        width in 1u64..50,
        n_buckets in 1usize..8,
        steps in prop::collection::vec((0u64..120, 0u64..10), 1..80),
    ) {
        let mut ring = RateWindow::new(width, n_buckets);
        let mut events: Vec<(u64, u64)> = Vec::new();
        let mut cycle = 0u64;
        for (delta, count) in steps {
            cycle += delta;
            ring.record(cycle, count);
            events.push((cycle, count));
            // Reference: the window covers the bucket-aligned range
            // [bucket(cycle) - n + 1, bucket(cycle)].
            let head = cycle / width;
            let oldest = head.saturating_sub(n_buckets as u64 - 1);
            let expect: u64 = events
                .iter()
                .filter(|(c, _)| (c / width) >= oldest)
                .map(|(_, k)| k)
                .sum();
            prop_assert_eq!(ring.sum(), expect);
            let span = (width * n_buckets as u64) as f64;
            prop_assert!((ring.rate() - expect as f64 / span).abs() < 1e-12);
        }
    }
}

// ---------------------------------------------------------------------
// Sum of windows == end-of-run totals (with churn across boundaries)
// ---------------------------------------------------------------------

/// Three jobs on figure1 scale whose lifetimes straddle the 500-cycle
/// telemetry boundaries (at driver cycles 800 and 1300): `early` departs
/// mid-window at 650, `late` reuses its slots from 650 to 900, `steady`
/// runs throughout.
fn churn_spec() -> ScenarioSpec {
    let job = |name: &str, first, count, start_cycle, stop_cycle| JobSpec {
        name: name.into(),
        placement: PlacementSpec::ConsecutiveGroups { first, count, slots: None },
        pattern: PatternSpec::Uniform,
        injection: InjectionSpec::Bernoulli,
        load: 0.25,
        start_cycle,
        stop_cycle,
    };
    ScenarioSpec {
        name: "telemetry-churn".into(),
        params: DragonflyParams::figure1(),
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![MechanismSpec::InTransitMm],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 300,
        measure_cycles: 1_200,
        telemetry: Some(TelemetrySpec { window_cycles: 500, ..TelemetrySpec::default() }),
        jobs: vec![
            job("early", 0, 3, None, Some(650)),
            job("late", 0, 3, Some(650), Some(900)),
            job("steady", 4, 2, None, None),
        ],
        shards: None,
    }
}

#[test]
fn windows_sum_to_run_totals_under_churn() {
    let spec = churn_spec();
    spec.validate(DEFAULT_SEEDS[0]).expect("valid spec");
    let streamed = std::rc::Rc::new(std::cell::Cell::new(0usize));
    let counter = streamed.clone();
    let opts = CellOptions {
        timeline: Some(Box::new(move |_| counter.set(counter.get() + 1))),
        ..Default::default()
    };
    let result = run_cell(&spec, MechanismSpec::InTransitMm, DEFAULT_SEEDS[0], opts).expect("run");
    let rows = result.timeline.as_ref().expect("telemetry on -> timeline present");
    assert_eq!(streamed.get(), rows.len(), "sink saw every window exactly once");

    // Gap-free, zero-based windows spanning exactly the measurement
    // phase (driver cycles 300..1500), the tail one partial.
    assert_eq!(rows.len(), 3, "1200 cycles / 500-cycle windows = 2 full + 1 partial");
    assert_eq!(rows[0].start_cycle, 300);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.window as usize, i);
        assert!(row.end_cycle > row.start_cycle);
        if i > 0 {
            assert_eq!(row.start_cycle, rows[i - 1].end_cycle);
        }
    }
    assert_eq!(rows.last().unwrap().end_cycle, 1_500);

    // Network totals: the windowed deltas must add back up to the
    // run-level counters, partial tail included.
    let injected: u64 = rows.iter().map(|r| r.injected_packets).sum();
    let delivered: u64 = rows.iter().map(|r| r.delivered_packets).sum();
    assert_eq!(injected, result.injected_per_router.iter().sum::<u64>());
    assert_eq!(delivered, result.delivered_packets);

    // Per-job totals: each job's windowed delivered/offered counts must
    // add up even though `early`/`late` start and stop mid-window.
    for job in &result.per_job {
        let windowed: u64 = rows
            .iter()
            .map(|r| {
                r.jobs
                    .iter()
                    .find(|j| j.job == job.job)
                    .expect("every window reports every job")
                    .delivered_packets
            })
            .sum();
        assert_eq!(windowed, job.delivered_packets, "job `{}`", job.job);
    }

    // `steady` owns its nodes exclusively and runs throughout, so its
    // node-level injection deltas are live in every window. (`early` and
    // `late` time-share slots, so their per-node injection columns
    // overlap by design — only their sink-side delivered counts above
    // are exact per job.)
    for row in rows.iter() {
        let steady = row.jobs.iter().find(|j| j.job == "steady").unwrap();
        assert!(
            steady.injected_packets > 0,
            "steady idle in window {} despite running throughout",
            row.window
        );
    }
}

/// The `--timeline out.jsonl` surface end to end: stream a quick bundled
/// scenario through `df_bench::timeline_sink` into a file, then read the
/// file back — every line parses as a `TimelineLine` carrying the run's
/// coordinates, and the lines are exactly the rows the result holds, in
/// order. (That those rows are zero-based, gap-free, non-empty and sum to
/// the run's counters is the end-of-run audit's job, in every run.)
#[test]
fn timeline_stream_reads_back_as_the_rows_of_the_run() {
    use df_bench::{create_timeline_file, timeline_sink, TimelineLine};

    let spec = quick_spec("interference_advc_vs_uniform.json");
    let mechanism = spec.mechanisms[0];
    let seed = DEFAULT_SEEDS[0];
    let path = std::env::temp_dir()
        .join(format!("df-telemetry-{}", std::process::id()))
        .join("timeline.jsonl");
    let file = create_timeline_file(&path).expect("create the stream");
    let sink = timeline_sink(file, spec.name.clone(), mechanism.label().to_string(), seed);
    let opts = CellOptions { timeline: Some(sink), ..Default::default() };
    let result = run_cell(&spec, mechanism, seed, opts).expect("run");
    let rows = result.timeline.as_ref().expect("a timeline sink forces telemetry on");
    assert!(rows.len() >= 2, "the quick protocol spans several windows");

    let text = std::fs::read_to_string(&path).expect("read the stream back");
    std::fs::remove_dir_all(path.parent().unwrap()).expect("remove the scratch dir");
    let lines: Vec<TimelineLine> = text
        .lines()
        .enumerate()
        .map(|(i, raw)| {
            serde_json::from_str(raw)
                .unwrap_or_else(|e| panic!("line {}: not a timeline row: {e}", i + 1))
        })
        .collect();
    assert_eq!(lines.len(), rows.len(), "one line per closed window");
    for (line, row) in lines.iter().zip(rows) {
        assert_eq!(
            (line.scenario.as_str(), line.mechanism.as_str(), line.seed),
            (spec.name.as_str(), mechanism.label(), seed)
        );
        assert_eq!(
            serde_json::to_string(&line.window).unwrap(),
            serde_json::to_string(row).unwrap(),
            "streamed window {} differs from the result's",
            row.window
        );
    }
}

// ---------------------------------------------------------------------
// Telemetry must not perturb the simulation (golden on/off equality)
// ---------------------------------------------------------------------

/// `scenario --quick` summary digest with telemetry forced on or off.
fn summary_digest(name: &str, telemetry: Option<TelemetrySpec>) -> String {
    let mut spec = quick_spec(name);
    spec.telemetry = telemetry;
    let result = run_scenario(&spec, &[DEFAULT_SEEDS[0]]).expect("run scenario");
    let json = serde_json::to_string_pretty(&result.summary()).expect("serialize summary");
    md5_hex(json.as_bytes())
}

#[test]
fn telemetry_on_off_summaries_are_bit_identical() {
    let window = Some(TelemetrySpec { window_cycles: 750, ..TelemetrySpec::default() });
    for name in ["interference_advc_vs_uniform.json", "paper_job_anatomy.json"] {
        assert_eq!(
            summary_digest(name, None),
            summary_digest(name, window),
            "telemetry recording changed simulation behavior in {name}"
        );
    }
}

/// Every `CellOptions` field at once — trace recorders, a timeline sink,
/// and a live `RunCtl` — must leave the run itself untouched: with the
/// timeline cleared the result serializes byte-identically to the
/// uninstrumented cell, and the recorded per-job traces replay to the
/// same per-job delivered counts.
#[test]
fn run_cell_options_compose_without_perturbing_the_run() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut spec = churn_spec();
    spec.telemetry = None;
    let (mechanism, seed) = (MechanismSpec::InTransitMm, DEFAULT_SEEDS[0]);
    let plain = run_cell(&spec, mechanism, seed, CellOptions::default()).expect("plain run");
    assert!(plain.timeline.is_none(), "no sink, no spec telemetry -> no timeline");

    let mut recorders = vec![TraceRecorder::new(); spec.jobs.len()];
    let windows = std::rc::Rc::new(std::cell::Cell::new(0usize));
    let counter = windows.clone();
    let checkpoints = AtomicU64::new(0);
    let on_cycle = |_: u64| {
        checkpoints.fetch_add(1, Ordering::Relaxed);
    };
    let cancel = CancelToken::new();
    let opts = CellOptions {
        ctl: RunCtl { cancel: Some(&cancel), deadline: None, on_cycle: Some(&on_cycle) },
        recorders: Some(&mut recorders),
        timeline: Some(Box::new(move |_| counter.set(counter.get() + 1))),
    };
    let mut full = run_cell(&spec, mechanism, seed, opts).expect("instrumented run");
    assert_eq!(
        checkpoints.load(Ordering::Relaxed),
        spec.warmup_cycles + spec.measure_cycles,
        "the ctl hook ran once per driver cycle"
    );
    let rows = full.timeline.take().expect("a sink forces telemetry on");
    assert_eq!(windows.get(), rows.len(), "sink saw every window exactly once");
    assert_eq!(
        serde_json::to_string(&full).expect("serialize"),
        serde_json::to_string(&plain).expect("serialize"),
        "instrumentation changed the run"
    );

    let dir = std::env::temp_dir().join(format!("df_run_cell_compose_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("trace dir");
    let mut replay = spec.clone();
    for (j, (job, recorder)) in replay.jobs.iter_mut().zip(&recorders).enumerate() {
        assert!(!recorder.events().is_empty(), "job `{}` recorded nothing", job.name);
        let path = dir.join(format!("job{j}.json")).to_str().expect("utf-8 path").to_string();
        recorder.save(&path).expect("save trace");
        job.injection = InjectionSpec::Trace { path };
    }
    let replayed = run_cell(&replay, mechanism, seed, CellOptions::default()).expect("replay");
    std::fs::remove_dir_all(&dir).ok();
    for (a, b) in plain.per_job.iter().zip(&replayed.per_job) {
        assert_eq!(a.delivered_packets, b.delivered_packets, "job `{}`", a.job);
    }

    // A cancelled token aborts the same composed call with an interrupt.
    cancel.cancel();
    let ctl = RunCtl { cancel: Some(&cancel), ..RunCtl::NONE };
    let err = run_cell(&spec, mechanism, seed, CellOptions { ctl, ..Default::default() })
        .expect_err("cancelled before the first cycle");
    assert!(err.is_interrupt(), "{err}");
}

// ---------------------------------------------------------------------
// The schedule-observable gauges are part of the byte-identity contract
// ---------------------------------------------------------------------

/// In-Trns-MM under saturated ADVc on the figure1 machine: bottleneck
/// routers back up, so heads park and wake all run long.
fn gauge_spec(shards: u32) -> ScenarioSpec {
    ScenarioSpec {
        name: "telemetry-gauges".into(),
        params: DragonflyParams::figure1(),
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![MechanismSpec::InTransitMm],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 500,
        measure_cycles: 2_000,
        telemetry: Some(TelemetrySpec {
            window_cycles: 250,
            sample_network: true,
            sample_jobs: false,
        }),
        jobs: vec![JobSpec {
            name: "advc".into(),
            placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 9, slots: None },
            pattern: PatternSpec::AdvConsecutive { spread: None },
            injection: InjectionSpec::Bernoulli,
            load: 0.6,
            start_cycle: None,
            stop_cycle: None,
        }],
        shards: Some(shards),
    }
}

/// `probe_ready_heads` and `port_epoch_bumps` expose the allocator's
/// parking/wake *schedule*, not just its outcome: an engine change that
/// keeps every packet's path and timing but parks, wakes or touches ports
/// on a different schedule moves them and nothing else. No bundled
/// scenario enables telemetry, so this golden is what pins them inside
/// tier-1, on both engines.
#[test]
fn network_gauges_golden_serial_and_sharded() {
    /// Per window `(probe_ready_heads, port_epoch_bumps)`, recorded at
    /// PR 16 (the commit before the router pipeline was folded into the
    /// link event).
    const GAUGES_AT_PR16: [(u64, u64); 8] = [
        (12, 19331),
        (12, 19568),
        (30, 19581),
        (34, 19268),
        (21, 19146),
        (10, 19279),
        (35, 19595),
        (18, 19510),
    ];
    for shards in [1, 2] {
        let spec = gauge_spec(shards);
        spec.validate(DEFAULT_SEEDS[0]).expect("valid spec");
        let result =
            run_cell(&spec, MechanismSpec::InTransitMm, DEFAULT_SEEDS[0], CellOptions::default())
                .expect("run");
        let rows = result.timeline.as_ref().expect("telemetry on -> timeline present");
        let gauges: Vec<(u64, u64)> =
            rows.iter().map(|r| (r.probe_ready_heads, r.port_epoch_bumps)).collect();
        assert_eq!(gauges, GAUGES_AT_PR16, "shards={shards}: the parking/wake schedule moved");
    }
}

// ---------------------------------------------------------------------
// The paper-level signal, now time-resolved
// ---------------------------------------------------------------------

/// Victim throughput per window for one mechanism on the bundled
/// interference scenario (quick protocol, 1000-cycle windows).
fn victim_trajectory(mechanism: MechanismSpec) -> Vec<f64> {
    let mut spec = quick_spec("interference_advc_vs_uniform.json");
    spec.telemetry = Some(TelemetrySpec { window_cycles: 1_000, ..TelemetrySpec::default() });
    let opts = CellOptions { timeline: Some(Box::new(|_| {})), ..Default::default() };
    let result = run_cell(&spec, mechanism, DEFAULT_SEEDS[0], opts).expect("run");
    result
        .timeline
        .expect("timeline present")
        .iter()
        .map(|r| r.jobs.iter().find(|j| j.job == "victim").expect("victim job").throughput)
        .collect()
}

#[test]
fn victim_windowed_throughput_collapses_under_crg_but_not_oblivious() {
    let crg = victim_trajectory(MechanismSpec::InTransitCrg);
    let obl = victim_trajectory(MechanismSpec::ObliviousCrg);
    assert_eq!(crg.len(), 4, "4000 measured cycles / 1000-cycle windows");
    assert_eq!(obl.len(), 4);
    let head = |t: &[f64]| (t[0] + t[1]) / 2.0;
    let tail = |t: &[f64]| (t[2] + t[3]) / 2.0;

    // In-transit CRG: transit priority progressively starves the
    // uniform victim as the adversarial aggressor fills the escape
    // paths — the back half of the run is visibly worse than the front
    // (measured ~12% at this seed; 7% leaves noise margin).
    assert!(
        tail(&crg) < 0.93 * head(&crg),
        "expected windowed starvation onset under In-Trns-CRG: head {:.4} tail {:.4}",
        head(&crg),
        tail(&crg),
    );

    // Oblivious CRG: no transit priority feedback loop, so the victim's
    // windowed throughput stays flat (within 5%).
    assert!(
        tail(&obl) > 0.95 * head(&obl),
        "expected flat windowed throughput under Obl-CRG: head {:.4} tail {:.4}",
        head(&obl),
        tail(&obl),
    );

    // And the victim is strictly better off under oblivious routing in
    // every single window, not just on average.
    for (w, (c, o)) in crg.iter().zip(&obl).enumerate() {
        assert!(o > c, "window {w}: oblivious {o:.4} <= in-transit {c:.4}");
    }
}
