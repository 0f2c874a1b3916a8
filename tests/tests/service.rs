//! Fault-injection integration suite for the df-service job server.
//!
//! Every robustness claim in docs/SERVICE.md is asserted here via the
//! structured JobEvent stream — never via timing:
//!
//! * admission control rejects over-quota submissions (`rejected_overload`)
//!   while queued work still drains;
//! * a stall past the per-attempt deadline produces `timed_out` and
//!   leaves no partial output (a resubmission recomputes, it does not
//!   hit the cache);
//! * a worker panic is isolated, retried, and the service keeps serving;
//! * a cached resubmission replays the byte-identical result document
//!   (digest-checked);
//! * a corrupted cache entry is detected, evicted, and recomputed;
//! * the whole protocol round-trips over the Unix socket, including a
//!   draining shutdown.

use df_service::{
    digest_hex, serve, EventSink, FaultSpec, JobEvent, JobPayload, Request, Service, ServiceConfig,
    StateDir, SubmitOptions,
};
use dragonfly_core::df_engine::ArbiterPolicy;
use dragonfly_core::df_routing::MechanismSpec;
use dragonfly_core::df_topology::{Arrangement, DragonflyParams};
use dragonfly_core::df_traffic::PatternSpec;
use dragonfly_core::df_workload::{InjectionSpec, JobSpec, PlacementSpec, ScenarioSpec, SweepSpec};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A sub-second two-job scenario on the 72-node Figure 1 network.
fn tiny_scenario(name: &str) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        params: DragonflyParams::figure1(),
        arrangement: Arrangement::Palmtree,
        mechanisms: vec![MechanismSpec::InTransitMm],
        arbiter: ArbiterPolicy::TransitPriority,
        warmup_cycles: 100,
        measure_cycles: 200,
        telemetry: None,
        jobs: vec![
            JobSpec {
                name: "victim".into(),
                placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 2, slots: None },
                pattern: PatternSpec::Uniform,
                injection: InjectionSpec::Bernoulli,
                load: 0.2,
                start_cycle: None,
                stop_cycle: None,
            },
            JobSpec {
                name: "aggressor".into(),
                placement: PlacementSpec::ConsecutiveGroups { first: 2, count: 2, slots: None },
                pattern: PatternSpec::AdvConsecutive { spread: None },
                injection: InjectionSpec::Bernoulli,
                load: 0.3,
                start_cycle: None,
                stop_cycle: None,
            },
        ],
    }
}

fn collecting_sink() -> (EventSink, Arc<Mutex<Vec<JobEvent>>>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sunk = Arc::clone(&events);
    let sink: EventSink = Arc::new(move |e| sunk.lock().unwrap().push(e));
    (sink, events)
}

/// Poll until `job` has a terminal event, returning its full stream.
fn wait_terminal(events: &Arc<Mutex<Vec<JobEvent>>>, job: u64) -> Vec<JobEvent> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        {
            let evs = events.lock().unwrap();
            if evs.iter().any(|e| e.job() == Some(job) && e.is_terminal()) {
                return evs.iter().filter(|e| e.job() == Some(job)).cloned().collect();
            }
        }
        assert!(Instant::now() < deadline, "no terminal event for job {job}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn wait_started(events: &Arc<Mutex<Vec<JobEvent>>>, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !events
        .lock()
        .unwrap()
        .iter()
        .any(|e| matches!(e, JobEvent::Started { job: j, .. } if *j == job))
    {
        assert!(Instant::now() < deadline, "job {job} never started");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn one_seed(fault: Option<FaultSpec>, deadline_ms: Option<u64>) -> SubmitOptions {
    SubmitOptions { seeds: Some(vec![1]), deadline_ms, fault }
}

/// A 2-mechanism × 2-load sweep over the tiny scenario: 4 `(cell,
/// seed)` units under `one_seed`, small enough that a full run is
/// sub-second but wide enough that a mid-sweep interruption leaves
/// both finished and unfinished units behind.
fn tiny_sweep(name: &str) -> SweepSpec {
    SweepSpec {
        name: name.into(),
        base: tiny_scenario(name),
        loads: Some(vec![0.2, 0.4]),
        load_jobs: None,
        placements: None,
        patterns: None,
        pattern_jobs: None,
        mechanisms: Some(vec![MechanismSpec::Min, MechanismSpec::InTransitMm]),
    }
}

/// A fresh per-test state directory (removed by the test on success).
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("df-state-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServiceConfig {
    ServiceConfig { workers: 1, state_dir: Some(dir.to_path_buf()), ..ServiceConfig::default() }
}

fn count_rows(evs: &[JobEvent]) -> usize {
    evs.iter().filter(|e| matches!(e, JobEvent::SweepRows { .. })).count()
}

fn recovered_of(evs: &[JobEvent]) -> Option<(u64, u64)> {
    evs.iter().find_map(|e| match e {
        JobEvent::Recovered { cells_done, cells_total, .. } => Some((*cells_done, *cells_total)),
        _ => None,
    })
}

#[test]
fn over_quota_submissions_are_rejected_while_queued_work_drains() {
    let svc =
        Service::new(ServiceConfig { workers: 1, queue_depth: 1, ..ServiceConfig::default() });
    let (sink, events) = collecting_sink();
    // Job A occupies the single worker via a long stall.
    let stall = FaultSpec { stall_at_cycle: Some(10), stall_ms: Some(500), ..FaultSpec::default() };
    let a = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-admission")),
        one_seed(Some(stall), None),
        Arc::clone(&sink),
    );
    wait_started(&events, a);
    // Job B fills the single queue slot; job C is over quota.
    let b = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-admission-b")),
        one_seed(None, None),
        Arc::clone(&sink),
    );
    let c = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-admission-c")),
        one_seed(None, None),
        Arc::clone(&sink),
    );
    let evs_c = wait_terminal(&events, c);
    match &evs_c[..] {
        [JobEvent::RejectedOverload { queued, limit, .. }] => {
            assert_eq!((*queued, *limit), (1, 1));
        }
        other => panic!("expected a lone rejected_overload, got {other:?}"),
    }
    // The rejection did not disturb admitted work: A and B both complete.
    assert_eq!(wait_terminal(&events, a).last().unwrap().label(), "completed");
    assert_eq!(wait_terminal(&events, b).last().unwrap().label(), "completed");
    svc.shutdown();
}

#[test]
fn stall_past_deadline_times_out_and_leaves_no_partial_output() {
    let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let (sink, events) = collecting_sink();
    // The deadline must fall inside the stall whatever cycle 50 costs:
    // in a debug build, with this file's other tests on the same two
    // cores, reaching it has taken over 100 ms.
    let stall = FaultSpec { stall_at_cycle: Some(50), stall_ms: Some(900), ..FaultSpec::default() };
    let job = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-deadline")),
        one_seed(Some(stall), Some(300)),
        Arc::clone(&sink),
    );
    let evs = wait_terminal(&events, job);
    match evs.last().unwrap() {
        JobEvent::TimedOut { at_cycle, .. } => {
            assert!(*at_cycle >= 50, "deadline fired during the stall, got {at_cycle}")
        }
        other => panic!("expected timed_out, got {other:?}"),
    }
    // No partial output: the same spec resubmitted must recompute
    // (`completed`), not replay a cache entry (`cached`).
    let clean =
        svc.submit(JobPayload::Scenario(tiny_scenario("svc-deadline")), one_seed(None, None), sink);
    let evs2 = wait_terminal(&events, clean);
    assert_eq!(evs2.last().unwrap().label(), "completed");
    svc.shutdown();
}

#[test]
fn worker_panic_is_isolated_retried_and_the_service_keeps_serving() {
    let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let (sink, events) = collecting_sink();
    // Panics on attempt 1 only: the retry runs clean.
    let fault = FaultSpec { panic_at_cycle: Some(120), ..FaultSpec::default() };
    let job = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-panic")),
        one_seed(Some(fault), None),
        Arc::clone(&sink),
    );
    let evs = wait_terminal(&events, job);
    let labels: Vec<_> = evs.iter().map(|e| e.label()).collect();
    assert!(labels.contains(&"retried"), "{labels:?}");
    assert_eq!(*labels.last().unwrap(), "completed", "{labels:?}");
    // Exhausted retries end in `failed` — and the worker survives.
    let poison = FaultSpec {
        panic_at_cycle: Some(120),
        panic_attempts: Some(u32::MAX),
        ..FaultSpec::default()
    };
    let doomed = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-poison")),
        one_seed(Some(poison), None),
        Arc::clone(&sink),
    );
    let evs2 = wait_terminal(&events, doomed);
    match evs2.last().unwrap() {
        JobEvent::Failed { attempts, error, .. } => {
            assert_eq!(*attempts, 3, "two retries give 3 attempts");
            assert!(error.contains("injected fault"), "{error}");
        }
        other => panic!("expected failed, got {other:?}"),
    }
    let next = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-after-poison")),
        one_seed(None, None),
        sink,
    );
    assert_eq!(wait_terminal(&events, next).last().unwrap().label(), "completed");
    svc.shutdown();
}

#[test]
fn cached_resubmission_is_byte_identical_and_digest_checked() {
    let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let (sink, events) = collecting_sink();
    let job = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-cache")),
        one_seed(None, None),
        Arc::clone(&sink),
    );
    let evs = wait_terminal(&events, job);
    let (key1, digest1, result1) = match evs.last().unwrap() {
        JobEvent::Completed { key, digest, result, .. } => {
            (key.clone(), digest.clone(), result.clone())
        }
        other => panic!("expected completed, got {other:?}"),
    };
    // The advertised digest is the real content digest of the document.
    assert_eq!(digest1, digest_hex(result1.as_bytes()));
    let again =
        svc.submit(JobPayload::Scenario(tiny_scenario("svc-cache")), one_seed(None, None), sink);
    let evs2 = wait_terminal(&events, again);
    match &evs2[..] {
        [JobEvent::Cached { key, digest, result, .. }] => {
            assert_eq!(*key, key1);
            assert_eq!(*digest, digest1);
            assert_eq!(*result, result1, "cache replay must be byte-identical");
        }
        other => panic!("expected a lone cached event, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn corrupted_cache_entry_is_detected_and_recomputed() {
    let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let (sink, events) = collecting_sink();
    let fault = FaultSpec { corrupt_cache: Some(true), ..FaultSpec::default() };
    let job = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-rot")),
        one_seed(Some(fault), None),
        Arc::clone(&sink),
    );
    let evs = wait_terminal(&events, job);
    let result1 = match evs.last().unwrap() {
        JobEvent::Completed { result, .. } => result.clone(),
        other => panic!("expected completed, got {other:?}"),
    };
    // The rotted entry must never be served: the resubmission reports
    // the corruption and recomputes the byte-identical document.
    let again =
        svc.submit(JobPayload::Scenario(tiny_scenario("svc-rot")), one_seed(None, None), sink);
    let evs2 = wait_terminal(&events, again);
    let labels: Vec<_> = evs2.iter().map(|e| e.label()).collect();
    assert_eq!(labels.first().unwrap(), &"cache_corrupt", "{labels:?}");
    match evs2.last().unwrap() {
        JobEvent::Completed { result, digest, .. } => {
            assert_eq!(*result, result1, "recompute must reproduce the original bytes");
            assert_eq!(*digest, digest_hex(result.as_bytes()));
        }
        other => panic!("expected completed, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn a_pattern_that_does_not_fit_its_job_is_rejected_at_submit() {
    // The pattern rule is one function (`PatternSpec::check`), and
    // admission calls it: a bad pattern never occupies a queue slot or a
    // worker, and ends `rejected` (the submitter's fault, never retried),
    // not `failed`. `hot` is a virtual index into the job's 16 nodes.
    let svc = Service::new(ServiceConfig::default());
    let (sink, events) = collecting_sink();
    let mut bad = tiny_scenario("svc-bad-pattern");
    bad.jobs[0].pattern = PatternSpec::HotSpot { hot: 16, fraction: 0.2 };
    let job = svc.submit(JobPayload::Scenario(bad), one_seed(None, None), sink);
    match &wait_terminal(&events, job)[..] {
        [JobEvent::Rejected { error, .. }] => {
            assert!(error.contains("job `victim`") && error.contains("`hot` 16"), "{error}")
        }
        other => panic!("expected a lone rejected, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn a_machine_the_engine_cannot_build_is_rejected_at_submit() {
    // Radix 67 (30 + 35 + 2) used to pass admission, panic in the router
    // constructor on every retry and end `failed`.
    let svc = Service::new(ServiceConfig::default());
    let (sink, events) = collecting_sink();
    let mut bad = tiny_scenario("svc-radix-67");
    bad.params = DragonflyParams { p: 30, a: 36, h: 2 };
    let job = svc.submit(JobPayload::Scenario(bad), one_seed(None, None), sink);
    match &wait_terminal(&events, job)[..] {
        [JobEvent::Rejected { error, .. }] => assert!(error.contains("radix 67"), "{error}"),
        other => panic!("expected a lone rejected, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn a_telemetry_window_past_the_run_length_limit_is_rejected_at_submit() {
    // A `u64::MAX`-cycle window used to pass admission; every attempt
    // then panicked in the timeline recorder and the job ended `failed`.
    use dragonfly_core::df_engine::TelemetrySpec;
    let svc = Service::new(ServiceConfig::default());
    let (sink, events) = collecting_sink();
    let mut bad = tiny_scenario("svc-huge-window");
    bad.telemetry = Some(TelemetrySpec { window_cycles: u64::MAX });
    let job = svc.submit(JobPayload::Scenario(bad), one_seed(None, None), sink);
    match &wait_terminal(&events, job)[..] {
        [JobEvent::Rejected { error, .. }] => {
            assert!(error.contains("telemetry window_cycles exceeds"), "{error}")
        }
        other => panic!("expected a lone rejected, got {other:?}"),
    }
    svc.shutdown();
}

#[test]
fn cancelling_a_queued_job_is_observed_before_it_simulates() {
    let svc =
        Service::new(ServiceConfig { workers: 1, queue_depth: 4, ..ServiceConfig::default() });
    let (sink, events) = collecting_sink();
    let stall = FaultSpec { stall_at_cycle: Some(10), stall_ms: Some(400), ..FaultSpec::default() };
    let blocker = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-blocker")),
        one_seed(Some(stall), None),
        Arc::clone(&sink),
    );
    wait_started(&events, blocker);
    let queued =
        svc.submit(JobPayload::Scenario(tiny_scenario("svc-queued")), one_seed(None, None), sink);
    assert!(svc.cancel(queued), "queued job must be cancellable");
    let evs = wait_terminal(&events, queued);
    match evs.last().unwrap() {
        JobEvent::Cancelled { at_cycle, .. } => {
            assert_eq!(*at_cycle, 0, "cancellation observed at the first checkpoint")
        }
        other => panic!("expected cancelled, got {other:?}"),
    }
    assert_eq!(wait_terminal(&events, blocker).last().unwrap().label(), "completed");
    svc.shutdown();
}

#[test]
fn full_protocol_round_trips_over_the_unix_socket() {
    let socket = std::env::temp_dir().join(format!("df-service-it-{}.sock", std::process::id()));
    let service = Arc::new(Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() }));
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || serve(service, &socket, None))
    };
    let mut client = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) => {
                    assert!(Instant::now() < deadline, "server socket never came up");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    };
    let mut reader = BufReader::new(client.try_clone().unwrap());
    let read_event = |reader: &mut BufReader<UnixStream>| -> JobEvent {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(&line).unwrap()
    };

    let submit =
        Request::SubmitScenario { spec: tiny_scenario("svc-wire"), options: one_seed(None, None) };
    writeln!(client, "{}", serde_json::to_string(&submit).unwrap()).unwrap();
    let accepted = read_event(&mut reader);
    assert_eq!(accepted.label(), "accepted");
    let job = accepted.job().unwrap();
    // Drain non-terminal events until this job's terminal one.
    let (digest, result) = loop {
        let event = read_event(&mut reader);
        assert_eq!(event.job(), Some(job));
        if let JobEvent::Completed { digest, result, .. } = &event {
            break (digest.clone(), result.clone());
        }
        assert!(!event.is_terminal(), "unexpected terminal event {event:?}");
    };
    assert_eq!(digest, digest_hex(result.as_bytes()));

    // Same submission again: a lone `cached` event, byte-identical.
    writeln!(client, "{}", serde_json::to_string(&submit).unwrap()).unwrap();
    match read_event(&mut reader) {
        JobEvent::Cached { digest: d2, result: r2, .. } => {
            assert_eq!(d2, digest);
            assert_eq!(r2, result);
        }
        other => panic!("expected cached, got {other:?}"),
    }

    writeln!(client, "{}", serde_json::to_string(&Request::Shutdown).unwrap()).unwrap();
    match read_event(&mut reader) {
        JobEvent::ShuttingDown { .. } => {}
        other => panic!("expected shutting_down, got {other:?}"),
    }
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&socket);
}

/// The tentpole end to end, in-process: a sweep interrupted after K
/// unit commits (the cooperative stand-in for `kill -9`) resumes on a
/// fresh Service over the same state dir, recomputes only the `N - K`
/// unfinished units, and produces the byte-identical table an
/// uninterrupted run would have — after which the result is cached
/// and the checkpoint is gone.
#[test]
fn interrupted_sweep_resumes_from_its_checkpoint_byte_identically() {
    let dir = state_dir("resume");
    let payload = JobPayload::Sweep(tiny_sweep("svc-resume"));
    let uninterrupted = payload.execute(&[1], None, None).unwrap();

    let svc = Service::open(durable_config(&dir)).unwrap();
    let (sink, events) = collecting_sink();
    let fault = FaultSpec { cancel_after_cells: Some(2), ..FaultSpec::default() };
    let job = svc.submit(payload.clone(), one_seed(Some(fault), None), Arc::clone(&sink));
    let evs = wait_terminal(&events, job);
    let k = count_rows(&evs);
    svc.shutdown();

    if evs.last().unwrap().label() == "completed" {
        // Only reachable on a many-core box where every unit was
        // already past its last cancellation check when the fault
        // fired: nothing to resume, but the cache must still be warm.
        assert_eq!(k, 4, "a completed sweep streamed every unit");
    } else {
        assert_eq!(evs.last().unwrap().label(), "cancelled");
        assert!((2..4).contains(&k), "cancel_after_cells=2 commits 2..4 of 4 units, got {k}");

        // "Restart": a fresh Service over the same state dir.
        let svc2 = Service::open(durable_config(&dir)).unwrap();
        let (sink2, events2) = collecting_sink();
        let job2 = svc2.submit(payload.clone(), one_seed(None, None), Arc::clone(&sink2));
        let evs2 = wait_terminal(&events2, job2);
        assert_eq!(
            recovered_of(&evs2),
            Some((k as u64, 4)),
            "every committed unit must be recovered, none invented"
        );
        assert_eq!(count_rows(&evs2), 4 - k, "only unfinished units recompute");
        let (key, result) = match evs2.last().unwrap() {
            JobEvent::Completed { key, result, .. } => (key.clone(), result.clone()),
            other => panic!("expected completed, got {other:?}"),
        };
        assert_eq!(result, uninterrupted, "recovered table must be byte-identical");

        // The completed result consumed its checkpoint and entered the
        // durable cache: a resubmission is a pure replay.
        let state = StateDir::open(&dir).unwrap();
        assert!(!state.has_checkpoint(&key), "completion must remove the checkpoint");
        let job3 = svc2.submit(payload, one_seed(None, None), sink2);
        let evs3 = wait_terminal(&events2, job3);
        match evs3.last().unwrap() {
            JobEvent::Cached { result: replay, .. } => assert_eq!(*replay, uninterrupted),
            other => panic!("expected cached, got {other:?}"),
        }
        svc2.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resumed sweep's heartbeat reaches its total: recovered units count
/// as done, so the last `progress` before `completed` is within one
/// heartbeat (1,000 cycles, the service's `PROGRESS_CYCLES`) of
/// `total_cycles`. The recovery is made deterministic by writing the
/// first two units' checkpoint lines by hand before the service opens
/// the state dir.
#[test]
fn resumed_sweep_progress_reaches_its_total() {
    const PROGRESS_CYCLES: u64 = 1_000;
    let dir = state_dir("resume-progress");
    let mut spec = tiny_sweep("svc-resume-progress");
    // 2,000 cycles per unit: the two units left to run span several
    // heartbeats, and the two recovered ones are more than one.
    spec.base.measure_cycles = 1_900;
    let payload = JobPayload::Sweep(spec);
    let units = Mutex::new(Vec::new());
    let record = |cell: u32, seed: u64, compute: &dyn Fn() -> _| {
        let rows: Vec<dragonfly_core::SweepRow> = compute()?;
        units.lock().unwrap().push((cell, seed, rows.clone()));
        Ok(rows)
    };
    let uninterrupted = payload.execute(&[1], None, Some(&record)).unwrap();
    let key = df_service::cache_key(payload.kind(), &payload.spec_json().unwrap(), &[1]);
    let state = StateDir::open(&dir).unwrap();
    for (cell, seed, rows) in units.into_inner().unwrap().iter().filter(|u| u.0 < 2) {
        state.append_checkpoint(&key, *cell, *seed, rows).unwrap();
    }

    let svc = Service::open(durable_config(&dir)).unwrap();
    let (sink, events) = collecting_sink();
    let job = svc.submit(payload, one_seed(None, None), sink);
    let evs = wait_terminal(&events, job);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(recovered_of(&evs), Some((2, 4)));
    match evs.last().unwrap() {
        JobEvent::Completed { result, .. } => assert_eq!(*result, uninterrupted),
        other => panic!("expected completed, got {other:?}"),
    }
    let (done, total) = evs
        .iter()
        .rev()
        .find_map(|e| match e {
            JobEvent::Progress { done_cycles, total_cycles, .. } => {
                Some((*done_cycles, *total_cycles))
            }
            _ => None,
        })
        .expect("the units left to run emit progress");
    assert_eq!(total, 8_000, "4 units of 2,000 cycles");
    assert!(
        total - done < PROGRESS_CYCLES,
        "the last progress before completed read {done} of {total} cycles"
    );
}

/// A rotted checkpoint line is dropped at recovery — its unit
/// recomputes along with the unfinished ones — and the final table is
/// still byte-identical.
#[test]
fn rotted_checkpoint_line_is_dropped_and_recomputed() {
    let dir = state_dir("rotline");
    let payload = JobPayload::Sweep(tiny_sweep("svc-rotline"));
    let uninterrupted = payload.execute(&[1], None, None).unwrap();

    let svc = Service::open(durable_config(&dir)).unwrap();
    let (sink, events) = collecting_sink();
    let fault = FaultSpec {
        cancel_after_cells: Some(3),
        rot_checkpoint_line: Some(2),
        ..FaultSpec::default()
    };
    let job = svc.submit(payload.clone(), one_seed(Some(fault), None), Arc::clone(&sink));
    let evs = wait_terminal(&events, job);
    let k = count_rows(&evs);
    svc.shutdown();

    if evs.last().unwrap().label() == "cancelled" {
        assert!((3..4).contains(&k), "cancel_after_cells=3 commits 3..4 of 4 units, got {k}");
        let svc2 = Service::open(durable_config(&dir)).unwrap();
        let (sink2, events2) = collecting_sink();
        let job2 = svc2.submit(payload, one_seed(None, None), sink2);
        let evs2 = wait_terminal(&events2, job2);
        // One committed line was rotted, so exactly k-1 units survive
        // the digest check and k-1 fewer units recompute.
        assert_eq!(recovered_of(&evs2), Some((k as u64 - 1, 4)));
        assert_eq!(count_rows(&evs2), 4 - (k - 1));
        match evs2.last().unwrap() {
            JobEvent::Completed { result, .. } => assert_eq!(*result, uninterrupted),
            other => panic!("expected completed, got {other:?}"),
        }
        svc2.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Completed results survive a service restart: the spill reloads
/// (digest-verified) and a resubmission replays `cached`,
/// byte-identical — while a rotted spill is quarantined at startup
/// and surfaces as a `cache_corrupt` startup event, then recomputes.
#[test]
fn durable_cache_replays_across_restart_and_quarantines_rot() {
    let dir = state_dir("replay");
    let svc = Service::open(durable_config(&dir)).unwrap();
    let (sink, events) = collecting_sink();
    let job = svc.submit(
        JobPayload::Scenario(tiny_scenario("svc-durable")),
        one_seed(None, None),
        Arc::clone(&sink),
    );
    let evs = wait_terminal(&events, job);
    let (digest1, result1) = match evs.last().unwrap() {
        JobEvent::Completed { digest, result, .. } => (digest.clone(), result.clone()),
        other => panic!("expected completed, got {other:?}"),
    };
    svc.shutdown();

    // Restart 1: the spill reloads and the resubmission never runs.
    let svc2 = Service::open(durable_config(&dir)).unwrap();
    assert_eq!(svc2.startup_report().entries.len(), 1);
    assert!(svc2.startup_events().is_empty());
    let (sink2, events2) = collecting_sink();
    let job2 = svc2.submit(
        JobPayload::Scenario(tiny_scenario("svc-durable")),
        one_seed(None, None),
        Arc::clone(&sink2),
    );
    let evs2 = wait_terminal(&events2, job2);
    match evs2.last().unwrap() {
        JobEvent::Cached { digest, result, .. } => {
            assert_eq!(*digest, digest1);
            assert_eq!(*result, result1, "replay across restart must be byte-identical");
        }
        other => panic!("expected cached, got {other:?}"),
    }
    // Set up restart 2: a fresh spec computed with the corrupt_cache
    // fault rots its own entry both in memory and on disk.
    let rot = FaultSpec { corrupt_cache: Some(true), ..FaultSpec::default() };
    let job3 = svc2.submit(
        JobPayload::Scenario(tiny_scenario("svc-durable-rot")),
        one_seed(Some(rot), None),
        sink2,
    );
    assert_eq!(wait_terminal(&events2, job3).last().unwrap().label(), "completed");
    svc2.shutdown();

    // Restart 2: the rotted spill is quarantined, not loaded; the
    // clean one still replays.
    let svc3 = Service::open(durable_config(&dir)).unwrap();
    assert_eq!(svc3.startup_report().entries.len(), 1);
    assert_eq!(svc3.startup_report().quarantined.len(), 1);
    let startup = svc3.startup_events();
    assert_eq!(startup.len(), 1);
    assert_eq!(startup[0].label(), "cache_corrupt");
    let (sink3, events3) = collecting_sink();
    let job4 = svc3.submit(
        JobPayload::Scenario(tiny_scenario("svc-durable-rot")),
        one_seed(None, None),
        sink3,
    );
    let evs4 = wait_terminal(&events3, job4);
    assert_eq!(
        evs4.last().unwrap().label(),
        "completed",
        "the quarantined key recomputes instead of serving bad bytes"
    );
    svc3.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
