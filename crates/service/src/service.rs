//! The job service: admission, caching, execution, retries, and the
//! structured event stream.
//!
//! [`Service::submit`] is the single entry point. It validates the
//! payload, probes the result cache, applies admission control, and —
//! only then — hands the job to the worker pool. Everything a client
//! learns about a job arrives as [`JobEvent`]s through the submission's
//! sink, ending with exactly one terminal event; nothing is reported
//! via timing or side channels, so tests and the CI gate assert on the
//! stream alone.
//!
//! Robustness invariants enforced here:
//! * a panicking job is isolated (`catch_unwind` per attempt) and
//!   retried with capped exponential backoff before it is `failed`;
//! * a cancelled or timed-out run leaves **no partial output** — the
//!   result document only materializes after a fully completed run, so
//!   an interrupted key stays absent from the cache;
//! * a corrupted cache entry is detected by its digest, evicted, and
//!   recomputed (`cache_corrupt` then a fresh run);
//! * admission control refuses work beyond the queue cap synchronously
//!   (`rejected_overload`), keeping memory bounded under bursts.

use crate::cache::{Lookup, ResultCache};
use crate::fault::FaultSpec;
use crate::job::{effective_seeds, JobPayload};
use crate::protocol::{cache_key, JobEvent, SubmitOptions};
use crate::store::{LoadReport, StateDir};
use crate::worker::{SubmitError, WorkerPool};
use dragonfly_core::{CancelToken, RunCtl, ScenarioError, SweepHooks, SweepRow};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a submission's events go. Sinks must be cheap and non-blocking
/// (the worker thread calls them inline); the server layer writes a
/// JSON line per event.
pub type EventSink = Arc<dyn Fn(JobEvent) + Send + Sync>;

/// Service tuning knobs (all have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queue-depth cap: submissions beyond it are `rejected_overload`.
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Retries after a panicking attempt (so `max_retries + 1` attempts
    /// in total). Interrupts and spec errors are never retried.
    pub max_retries: u32,
    /// First retry backoff in milliseconds; doubles per retry.
    pub retry_backoff_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub retry_backoff_cap_ms: u64,
    /// Emit a `progress` event every this many simulated cycles
    /// (0 picks the default, which matches the telemetry timelines'
    /// 1000-cycle windows).
    pub progress_cycles: u64,
    /// Durable state directory (`None` keeps everything in memory).
    /// When set, completed results spill tempfile-then-rename under
    /// `<dir>/cache/`, sweep units checkpoint under
    /// `<dir>/checkpoints/`, and startup reloads every verified entry —
    /// so a `kill -9` loses at most the units in flight.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 16,
            cache_capacity: 256,
            max_retries: 2,
            retry_backoff_ms: 5,
            retry_backoff_cap_ms: 80,
            progress_cycles: 0,
            state_dir: None,
        }
    }
}

impl ServiceConfig {
    fn progress_step(&self) -> u64 {
        if self.progress_cycles == 0 {
            1_000
        } else {
            self.progress_cycles
        }
    }
}

/// The long-running job service. Shareable across threads; the server
/// layer wraps it in an `Arc` and calls [`Service::submit`] from every
/// connection handler.
pub struct Service {
    cfg: ServiceConfig,
    pool: WorkerPool,
    cache: Arc<ResultCache>,
    state: Option<Arc<StateDir>>,
    startup: LoadReport,
    next_job: AtomicU64,
    /// Cancel tokens of queued + running jobs, by job id.
    registry: Arc<Mutex<HashMap<u64, CancelToken>>>,
}

impl Service {
    /// Start a service with `cfg`'s worker pool and cache.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.state_dir` is set but cannot be created — use
    /// [`Service::open`] to handle the I/O error instead.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self::open(cfg).expect("open service state dir")
    }

    /// [`Service::new`], surfacing state-directory I/O errors. With a
    /// `state_dir` configured, the startup scan reloads every verified
    /// persisted result (and quarantines corrupt files) before the
    /// first submission can probe the cache; the scan's findings are
    /// available via [`Service::startup_report`].
    pub fn open(cfg: ServiceConfig) -> std::io::Result<Self> {
        let (cache, state, startup) = match &cfg.state_dir {
            Some(dir) => {
                let state = Arc::new(StateDir::open(dir)?);
                let (cache, report) =
                    ResultCache::with_state(cfg.cache_capacity, Arc::clone(&state));
                (cache, Some(state), report)
            }
            None => (ResultCache::new(cfg.cache_capacity), None, LoadReport::default()),
        };
        let (workers, queue_depth) = (cfg.workers, cfg.queue_depth);
        Ok(Self {
            cfg,
            pool: WorkerPool::new(workers, queue_depth),
            cache: Arc::new(cache),
            state,
            startup,
            next_job: AtomicU64::new(0),
            registry: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// What the startup scan of the state directory found (empty when
    /// the service runs memory-only).
    pub fn startup_report(&self) -> &LoadReport {
        &self.startup
    }

    /// Server-level events describing the startup scan: one
    /// `cache_corrupt` per quarantined file, under the reserved job
    /// id 0 (submissions number from 1).
    pub fn startup_events(&self) -> Vec<JobEvent> {
        self.startup
            .quarantined
            .iter()
            .map(|name| JobEvent::CacheCorrupt { job: 0, key: name.clone() })
            .collect()
    }

    /// Submit a job. Returns the job id; every outcome — including
    /// rejection — is reported through `sink`, ending with exactly one
    /// terminal event.
    pub fn submit(&self, payload: JobPayload, options: SubmitOptions, sink: EventSink) -> u64 {
        let job = self.next_job.fetch_add(1, Ordering::AcqRel) + 1;
        let seeds = effective_seeds(&options.seeds);

        if let Err(e) = payload.validate(&seeds) {
            sink(JobEvent::Rejected { job, error: e.to_string() });
            return job;
        }
        let spec_json = match payload.spec_json() {
            Ok(j) => j,
            Err(e) => {
                sink(JobEvent::Rejected { job, error: e.to_string() });
                return job;
            }
        };
        let key = cache_key(payload.kind(), &spec_json, &seeds);

        match self.cache.lookup(&key) {
            Lookup::Hit(entry) => {
                if let Some(state) = &self.state {
                    // A completed result supersedes any checkpoint a
                    // crashed earlier run of this key left behind.
                    state.remove_checkpoint(&key);
                }
                sink(JobEvent::Cached { job, key, digest: entry.digest, result: entry.result });
                return job;
            }
            Lookup::Corrupt => sink(JobEvent::CacheCorrupt { job, key: key.clone() }),
            Lookup::Miss => {}
        }

        // Register the cancel token before the job is visible to any
        // worker, so `cancel` works on queued jobs too.
        let token = CancelToken::new();
        self.registry.lock().expect("registry lock").insert(job, token.clone());

        let ctx = JobContext {
            cfg: self.cfg.clone(),
            cache: Arc::clone(&self.cache),
            state: self.state.clone(),
            registry: Arc::clone(&self.registry),
            sink: Arc::clone(&sink),
            job,
            key: key.clone(),
            seeds,
            payload,
            fault: options.fault.unwrap_or_default(),
            deadline_ms: options.deadline_ms,
            token,
        };
        let admit_sink = Arc::clone(&sink);
        let submitted = self.pool.try_submit(
            Box::new(move || ctx.run()),
            // Under the queue lock: `accepted` is on the wire before any
            // worker can emit this job's `started`.
            |queue_depth| admit_sink(JobEvent::Accepted { job, key, queue_depth }),
        );
        if let Err(err) = submitted {
            self.registry.lock().expect("registry lock").remove(&job);
            match err {
                SubmitError::Overload { queued, limit } => {
                    sink(JobEvent::RejectedOverload { job, queued, limit })
                }
                SubmitError::Closed => sink(JobEvent::Rejected {
                    job,
                    error: "service is shutting down".into(),
                }),
            }
        }
        job
    }

    /// Cooperatively cancel a queued or running job. Returns `false`
    /// when the id is unknown (never submitted, or already terminal).
    pub fn cancel(&self, job: u64) -> bool {
        match self.registry.lock().expect("registry lock").get(&job) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Jobs currently waiting in the queue (not running).
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }

    /// Graceful shutdown: refuse new submissions and drain every queued
    /// and in-flight job to its terminal event. Returns the number of
    /// jobs drained after the shutdown was requested.
    pub fn shutdown(&self) -> u64 {
        self.pool.shutdown()
    }
}

/// Everything a worker needs to run one job to its terminal event.
struct JobContext {
    cfg: ServiceConfig,
    cache: Arc<ResultCache>,
    state: Option<Arc<StateDir>>,
    registry: Arc<Mutex<HashMap<u64, CancelToken>>>,
    sink: EventSink,
    job: u64,
    key: String,
    seeds: Vec<u64>,
    payload: JobPayload,
    fault: FaultSpec,
    deadline_ms: Option<u64>,
    token: CancelToken,
}

/// Sweep units already in hand — recovered from a checkpoint file or
/// computed by an earlier (panic-retried) attempt — keyed `(cell,
/// seed)`. Units in here are never re-simulated.
type RecoveredUnits = Mutex<HashMap<(u32, u64), Vec<SweepRow>>>;

impl JobContext {
    /// The attempt loop: run, and on a panic retry with capped
    /// exponential backoff until `max_retries` is exhausted.
    fn run(self) {
        let max_attempts = self.cfg.max_retries + 1;
        let total_cycles = self.payload.total_cycles(&self.seeds);
        let recovered: RecoveredUnits = Mutex::new(self.load_recovered_units());
        // Commit ordinal within this job — the 1-based counter the
        // crash/rot faults key off.
        let committed = AtomicU32::new(0);
        let mut attempt = 1u32;
        loop {
            (self.sink)(JobEvent::Started { job: self.job, attempt });
            match self.attempt_once(attempt, total_cycles, &recovered, &committed) {
                Ok(Ok(result)) => {
                    if self.fault.crashes_mid_spill() {
                        // Fault harness: die between the spill's
                        // tempfile write and its rename — the result
                        // was never promised, so a restart must treat
                        // the key as absent and recompute it.
                        if let Some(state) = &self.state {
                            let digest =
                                crate::protocol::digest_hex(result.as_bytes());
                            let _ = state.spill_torn(
                                &self.key,
                                &crate::cache::CacheEntry { result, digest },
                            );
                        }
                        std::process::abort();
                    }
                    let digest = self.cache.insert(&self.key, result.clone());
                    if self.fault.corrupts_cache() {
                        // Fault harness: rot the entry *after* the clean
                        // result went out, so the next submission of
                        // this key exercises the digest check.
                        self.cache.corrupt(&self.key);
                    }
                    if let Some(state) = &self.state {
                        // The spill file is now the durable state; the
                        // checkpoint has served its purpose.
                        state.remove_checkpoint(&self.key);
                    }
                    (self.sink)(JobEvent::Completed {
                        job: self.job,
                        key: self.key.clone(),
                        digest,
                        result,
                    });
                    break;
                }
                Ok(Err(ScenarioError::Cancelled { at_cycle })) => {
                    (self.sink)(JobEvent::Cancelled { job: self.job, at_cycle });
                    break;
                }
                Ok(Err(ScenarioError::DeadlineExceeded { at_cycle })) => {
                    (self.sink)(JobEvent::TimedOut { job: self.job, at_cycle });
                    break;
                }
                Ok(Err(err)) => {
                    // A spec error that only surfaces at run time is
                    // deterministic — retrying cannot help.
                    (self.sink)(JobEvent::Failed {
                        job: self.job,
                        attempts: attempt,
                        error: err.to_string(),
                    });
                    break;
                }
                Err(panic_msg) => {
                    if attempt >= max_attempts {
                        (self.sink)(JobEvent::Failed {
                            job: self.job,
                            attempts: attempt,
                            error: panic_msg,
                        });
                        break;
                    }
                    let backoff_ms = self
                        .cfg
                        .retry_backoff_ms
                        .saturating_mul(1 << (attempt - 1).min(16))
                        .min(self.cfg.retry_backoff_cap_ms);
                    (self.sink)(JobEvent::Retried {
                        job: self.job,
                        attempt,
                        backoff_ms,
                        error: panic_msg,
                    });
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                    attempt += 1;
                }
            }
        }
        self.registry.lock().expect("registry lock").remove(&self.job);
    }

    /// Load and validate this key's checkpoint (sweep payloads on a
    /// state-backed service only), emitting a `recovered` event when
    /// any verified units survive. Units referencing cells or seeds
    /// outside the submitted grid are discarded — a checkpoint can
    /// only ever *shrink* the work, never smuggle foreign rows in.
    fn load_recovered_units(&self) -> HashMap<(u32, u64), Vec<SweepRow>> {
        let Some(state) = &self.state else { return HashMap::new() };
        if !matches!(self.payload, JobPayload::Sweep(_)) || !state.has_checkpoint(&self.key) {
            return HashMap::new();
        }
        let total_units = self.payload.total_units(&self.seeds);
        let n_cells = total_units / (self.seeds.len() as u64).max(1);
        let load = state.load_checkpoint(&self.key);
        let units: HashMap<(u32, u64), Vec<SweepRow>> = load
            .units
            .into_iter()
            .filter(|((cell, seed), _)| {
                u64::from(*cell) < n_cells && self.seeds.contains(seed)
            })
            .collect();
        if !units.is_empty() {
            (self.sink)(JobEvent::Recovered {
                job: self.job,
                key: self.key.clone(),
                cells_done: units.len() as u64,
                cells_total: total_units,
            });
        }
        units
    }

    /// One isolated attempt. The outer `Err` is a caught panic (its
    /// message), the inner result is the run's own outcome.
    fn attempt_once(
        &self,
        attempt: u32,
        total_cycles: u64,
        recovered: &RecoveredUnits,
        committed: &AtomicU32,
    ) -> Result<Result<String, ScenarioError>, String> {
        let deadline = self.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let panic_cycle = self.fault.panic_cycle(attempt);
        let stall = self.fault.stall();
        let stalled = AtomicBool::new(false);
        let done = AtomicU64::new(0);
        let step = self.cfg.progress_step();
        let sink = &self.sink;
        let job = self.job;
        let on_cycle = move |cycle: u64| {
            if panic_cycle == Some(cycle) {
                panic!("injected fault: panic at cycle {cycle}");
            }
            if let Some((stall_cycle, stall_ms)) = stall {
                // One stall per attempt, on whichever parallel cell
                // reaches the cycle first.
                if cycle == stall_cycle && !stalled.swap(true, Ordering::AcqRel) {
                    std::thread::sleep(Duration::from_millis(stall_ms));
                }
            }
            let done_cycles = done.fetch_add(1, Ordering::AcqRel) + 1;
            if done_cycles.is_multiple_of(step) {
                sink(JobEvent::Progress { job, done_cycles, total_cycles });
            }
        };
        let ctl = RunCtl {
            cancel: Some(&self.token),
            deadline,
            on_cycle: Some(&on_cycle),
        };
        // Sweep hooks: units in hand (checkpointed or computed by an
        // earlier attempt) skip simulation; each freshly computed unit
        // commits — map + checkpoint line under one lock, so the commit
        // ordinal is stable and lines never interleave — then streams
        // its rows and fires any commit-keyed fault.
        let precomputed = |cell: u32, seed: u64| -> Option<Vec<SweepRow>> {
            recovered.lock().expect("recovered units lock").get(&(cell, seed)).cloned()
        };
        let on_rows = |cell: u32, seed: u64, rows: &[SweepRow]| {
            let ordinal = {
                let mut units = recovered.lock().expect("recovered units lock");
                units.insert((cell, seed), rows.to_vec());
                let ordinal = committed.fetch_add(1, Ordering::AcqRel) + 1;
                if let Some(state) = &self.state {
                    let _ = state.append_checkpoint(&self.key, cell, seed, rows);
                    if self.fault.rot_line() == Some(ordinal) {
                        // Still under the lock: the rotted line must be
                        // the one just appended, not a later worker's.
                        state.rot_last_checkpoint_line(&self.key);
                    }
                }
                ordinal
            };
            sink(JobEvent::SweepRows { job, cell, seed, rows: rows.to_vec() });
            if self.fault.crash_after() == Some(ordinal) {
                // The `kill -9` fault: die with at least `ordinal`
                // committed checkpoint lines on disk.
                std::process::abort();
            }
            if self.fault.cancel_after() == Some(ordinal) {
                self.token.cancel();
            }
        };
        let hooks = SweepHooks { precomputed: Some(&precomputed), on_rows: Some(&on_rows) };
        catch_unwind(AssertUnwindSafe(|| {
            self.payload.execute(&self.seeds, &ctl, &hooks)
        }))
        // `&*` reborrows the box's contents: `&payload` would unsize
        // the `Box` itself into `dyn Any` and every downcast would miss.
        .map_err(|payload| panic_message(&*payload))
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragonfly_core::df_engine::ArbiterPolicy;
    use dragonfly_core::df_routing::MechanismSpec;
    use dragonfly_core::df_topology::{Arrangement, DragonflyParams};
    use dragonfly_core::df_traffic::PatternSpec;
    use df_workload::{InjectionSpec, JobSpec, PlacementSpec, ScenarioSpec};

    fn tiny_scenario() -> ScenarioSpec {
        ScenarioSpec {
            name: "svc-unit".into(),
            params: DragonflyParams::figure1(),
            arrangement: Arrangement::Palmtree,
            mechanisms: vec![MechanismSpec::InTransitMm],
            arbiter: ArbiterPolicy::TransitPriority,
            warmup_cycles: 100,
            measure_cycles: 200,
            telemetry: None,
            shards: None,
            jobs: vec![JobSpec {
                name: "app".into(),
                placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 2, slots: None },
                pattern: PatternSpec::Uniform,
                injection: InjectionSpec::Bernoulli,
                load: 0.2,
                start_cycle: None,
                stop_cycle: None,
            }],
        }
    }

    /// Collect a submission's events and wait for its terminal one.
    fn collecting_sink() -> (EventSink, Arc<Mutex<Vec<JobEvent>>>) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let sunk = Arc::clone(&events);
        let sink: EventSink = Arc::new(move |e| sunk.lock().unwrap().push(e));
        (sink, events)
    }

    fn wait_terminal(events: &Arc<Mutex<Vec<JobEvent>>>, job: u64) -> Vec<JobEvent> {
        let deadline = Instant::now() + Duration::from_secs(30);
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

    fn options(fault: Option<FaultSpec>, deadline_ms: Option<u64>) -> SubmitOptions {
        SubmitOptions { seeds: Some(vec![1]), deadline_ms, fault }
    }

    #[test]
    fn completed_then_cached_byte_identical() {
        let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (sink, events) = collecting_sink();
        let job1 =
            svc.submit(JobPayload::Scenario(tiny_scenario()), options(None, None), sink.clone());
        let evs1 = wait_terminal(&events, job1);
        assert_eq!(evs1[0].label(), "accepted");
        let (key1, digest1, result1) = match evs1.last().unwrap() {
            JobEvent::Completed { key, digest, result, .. } => {
                (key.clone(), digest.clone(), result.clone())
            }
            other => panic!("expected completed, got {other:?}"),
        };
        let job2 = svc.submit(JobPayload::Scenario(tiny_scenario()), options(None, None), sink);
        let evs2 = wait_terminal(&events, job2);
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
    fn panic_fault_retries_then_completes() {
        let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (sink, events) = collecting_sink();
        let fault = FaultSpec { panic_at_cycle: Some(50), ..FaultSpec::default() };
        let job =
            svc.submit(JobPayload::Scenario(tiny_scenario()), options(Some(fault), None), sink);
        let evs = wait_terminal(&events, job);
        let labels: Vec<_> = evs.iter().map(|e| e.label()).collect();
        assert!(labels.contains(&"retried"), "{labels:?}");
        assert_eq!(*labels.last().unwrap(), "completed", "{labels:?}");
        // Attempt numbering: started(1), retried(1), started(2).
        let started: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                JobEvent::Started { attempt, .. } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec![1, 2]);
        svc.shutdown();
    }

    #[test]
    fn persistent_panic_exhausts_retries_and_fails() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            max_retries: 1,
            ..ServiceConfig::default()
        });
        let (sink, events) = collecting_sink();
        let fault = FaultSpec {
            panic_at_cycle: Some(50),
            panic_attempts: Some(u32::MAX),
            ..FaultSpec::default()
        };
        let job = svc.submit(
            JobPayload::Scenario(tiny_scenario()),
            options(Some(fault), None),
            sink.clone(),
        );
        let evs = wait_terminal(&events, job);
        match evs.last().unwrap() {
            JobEvent::Failed { attempts, error, .. } => {
                assert_eq!(*attempts, 2);
                assert!(error.contains("injected fault"), "{error}");
            }
            other => panic!("expected failed, got {other:?}"),
        }
        // The service keeps serving after the poisoned job.
        let job2 = svc.submit(JobPayload::Scenario(tiny_scenario()), options(None, None), sink);
        let evs2 = wait_terminal(&events, job2);
        assert_eq!(evs2.last().unwrap().label(), "completed");
        svc.shutdown();
    }

    #[test]
    fn stall_past_deadline_times_out_without_output() {
        let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (sink, events) = collecting_sink();
        let fault = FaultSpec {
            stall_at_cycle: Some(50),
            stall_ms: Some(150),
            ..FaultSpec::default()
        };
        let job = svc.submit(
            JobPayload::Scenario(tiny_scenario()),
            options(Some(fault), Some(50)),
            sink.clone(),
        );
        let evs = wait_terminal(&events, job);
        assert!(matches!(evs.last().unwrap(), JobEvent::TimedOut { .. }), "{evs:?}");
        // No partial output: a clean resubmission recomputes (completed,
        // not cached).
        let job2 = svc.submit(JobPayload::Scenario(tiny_scenario()), options(None, None), sink);
        let evs2 = wait_terminal(&events, job2);
        assert_eq!(evs2.last().unwrap().label(), "completed");
        svc.shutdown();
    }

    #[test]
    fn corrupt_cache_fault_is_detected_and_recomputed() {
        let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (sink, events) = collecting_sink();
        let fault = FaultSpec { corrupt_cache: Some(true), ..FaultSpec::default() };
        let job1 = svc.submit(
            JobPayload::Scenario(tiny_scenario()),
            options(Some(fault), None),
            sink.clone(),
        );
        let evs1 = wait_terminal(&events, job1);
        let result1 = match evs1.last().unwrap() {
            JobEvent::Completed { result, .. } => result.clone(),
            other => panic!("expected completed, got {other:?}"),
        };
        // Same key resubmitted: the rotted entry must fail its digest
        // check and the job recomputes to the byte-identical document.
        let job2 = svc.submit(JobPayload::Scenario(tiny_scenario()), options(None, None), sink);
        let evs2 = wait_terminal(&events, job2);
        let labels: Vec<_> = evs2.iter().map(|e| e.label()).collect();
        assert_eq!(labels[0], "cache_corrupt", "{labels:?}");
        match evs2.last().unwrap() {
            JobEvent::Completed { result, .. } => assert_eq!(*result, result1),
            other => panic!("expected completed, got {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn cancel_during_run_emits_cancelled_and_no_cache_entry() {
        let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (sink, events) = collecting_sink();
        // Stall long enough for the cancel to land mid-run.
        let fault = FaultSpec {
            stall_at_cycle: Some(10),
            stall_ms: Some(300),
            ..FaultSpec::default()
        };
        let job = svc.submit(
            JobPayload::Scenario(tiny_scenario()),
            options(Some(fault), None),
            sink.clone(),
        );
        // Wait for `started`, then cancel.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !events
            .lock()
            .unwrap()
            .iter()
            .any(|e| matches!(e, JobEvent::Started { job: j, .. } if *j == job))
        {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(svc.cancel(job));
        let evs = wait_terminal(&events, job);
        assert!(matches!(evs.last().unwrap(), JobEvent::Cancelled { .. }), "{evs:?}");
        // Unknown id after the terminal event: registry entry is gone.
        assert!(!svc.cancel(job));
        let job2 = svc.submit(JobPayload::Scenario(tiny_scenario()), options(None, None), sink);
        let evs2 = wait_terminal(&events, job2);
        assert_eq!(evs2.last().unwrap().label(), "completed", "cancel left no cache entry");
        svc.shutdown();
    }
}
