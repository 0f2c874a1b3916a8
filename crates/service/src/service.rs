//! The job service: admission, caching, execution, retries, and the
//! structured event stream.
//!
//! [`Service::submit`] is the single entry point. It validates the
//! payload, probes the result cache, and — only then — admits the job
//! into the job table, where a worker thread claims it. Everything a
//! client learns about a job arrives as [`JobEvent`]s through the
//! submission's sink, ending with exactly one terminal event; nothing
//! is reported via timing or side channels, so tests and the CI gate
//! assert on the stream alone.
//!
//! Every lifecycle transition of a job — admit, cancel, claim, finish,
//! drain — happens under one lock on one `Inner` table, so the queue,
//! the set of cancellable jobs and the shutdown state can never
//! disagree.
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
use crate::lock;
use crate::protocol::{cache_key, JobEvent, SubmitOptions};
use crate::store::{LoadReport, StateDir};
use dragonfly_core::{CancelToken, RunCtl, ScenarioError, SweepHooks, SweepRow};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Where a submission's events go. Sinks must be cheap and non-blocking
/// (the worker thread calls them inline); the server layer writes a
/// JSON line per event.
pub type EventSink = Arc<dyn Fn(JobEvent) + Send + Sync>;

/// First retry backoff in milliseconds; doubles per retry.
const RETRY_BACKOFF_MS: u64 = 5;
/// Retry backoff ceiling in milliseconds.
const RETRY_BACKOFF_CAP_MS: u64 = 80;

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
    shared: Arc<Shared>,
    startup: LoadReport,
    next_job: AtomicU64,
}

/// What submitting threads and worker threads share.
struct Shared {
    cfg: ServiceConfig,
    cache: ResultCache,
    state: Option<Arc<StateDir>>,
    jobs: Mutex<Inner>,
    /// Notified on every change to `jobs`. Two kinds of waiter share
    /// it — idle workers (for a queued job or the close) and `shutdown`
    /// callers (for `live` to empty) — so every change wakes all.
    changed: Condvar,
}

/// The job table: every admitted job from `accepted` to its terminal
/// event.
#[derive(Default)]
struct Inner {
    /// Admitted jobs no worker has claimed yet, oldest first.
    queue: VecDeque<JobContext>,
    /// Cancel tokens of every admitted job still queued or running.
    live: HashMap<u64, CancelToken>,
    /// Set by `shutdown`; admission refuses everything after it.
    closed: bool,
    /// Jobs that finished after `closed` was set: the `shutting_down`
    /// count.
    drained: u64,
}

impl Inner {
    /// Admit `ctx` unless the service is closed or `cap` jobs are
    /// already queued, returning the refusal event otherwise. An
    /// admitted job is cancellable and queued before its `accepted`
    /// event is emitted, still under the lock — so `accepted` is on the
    /// wire before any worker can claim the job and emit `started`, and
    /// a panicking sink leaves the table consistent.
    fn admit(&mut self, ctx: JobContext, cap: usize) -> Result<(), JobEvent> {
        let job = ctx.job;
        if self.closed {
            return Err(JobEvent::Rejected { job, error: "service is shutting down".into() });
        }
        let queued = self.queue.len() as u64;
        if queued >= cap as u64 {
            return Err(JobEvent::RejectedOverload { job, queued, limit: cap as u64 });
        }
        let accepted = JobEvent::Accepted { job, key: ctx.key.clone(), queue_depth: queued + 1 };
        let sink = Arc::clone(&ctx.sink);
        self.live.insert(job, ctx.token.clone());
        self.queue.push_back(ctx);
        sink(accepted);
        Ok(())
    }

    /// Cancel a queued or running job; `false` when `job` is not live.
    fn cancel(&self, job: u64) -> bool {
        self.live.get(&job).map(CancelToken::cancel).is_some()
    }

    /// `job` reached its end (returned or unwound): it is no longer
    /// cancellable, and it counts as drained if the service was closed
    /// by then.
    fn finish(&mut self, job: u64) {
        self.live.remove(&job);
        if self.closed {
            self.drained += 1;
        }
    }
}

impl Shared {
    /// Block until a job is queued and claim it; `None` once the
    /// service is closed and the queue is empty.
    fn pop(&self) -> Option<JobContext> {
        let wait = self.changed.wait_while(lock(&self.jobs), |jobs| {
            jobs.queue.is_empty() && !jobs.closed
        });
        wait.unwrap_or_else(PoisonError::into_inner).queue.pop_front()
    }

    /// One worker thread. Workers are never joined: `shutdown` waits for
    /// the drain itself, after which every worker finds the table closed
    /// and empty and returns.
    fn work(&self) {
        while let Some(ctx) = self.pop() {
            let job = ctx.job;
            // Behind `run`'s per-attempt isolation: a job that still
            // unwinds must neither kill this worker nor stay cancellable.
            let _ = catch_unwind(AssertUnwindSafe(|| ctx.run(self)));
            lock(&self.jobs).finish(job);
            self.changed.notify_all();
        }
    }
}

impl Service {
    /// Start a service with `cfg`'s worker threads and cache.
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
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            cache,
            state,
            jobs: Mutex::default(),
            changed: Condvar::new(),
        });
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.work());
        }
        Ok(Self { shared, startup, next_job: AtomicU64::new(0) })
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

        match self.shared.cache.lookup(&key) {
            Lookup::Hit(entry) => {
                if let Some(state) = &self.shared.state {
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

        let ctx = JobContext {
            sink: Arc::clone(&sink),
            job,
            key,
            seeds,
            payload,
            fault: options.fault.unwrap_or_default(),
            deadline_ms: options.deadline_ms,
            token: CancelToken::new(),
        };
        // The guard drops at the end of this statement: a refusal is
        // reported outside the lock.
        let admitted = lock(&self.shared.jobs).admit(ctx, self.shared.cfg.queue_depth);
        match admitted {
            Ok(()) => self.shared.changed.notify_all(),
            Err(refusal) => sink(refusal),
        }
        job
    }

    /// Cooperatively cancel a queued or running job. Returns `false`
    /// when the id is unknown (never submitted, refused, or already
    /// terminal).
    pub fn cancel(&self, job: u64) -> bool {
        lock(&self.shared.jobs).cancel(job)
    }

    /// Graceful shutdown: refuse new submissions and wait until every
    /// queued and in-flight job has reached its terminal event. Returns
    /// the number of jobs that finished after the shutdown was
    /// requested; concurrent callers all wait for the same drain and
    /// return the same count.
    pub fn shutdown(&self) -> u64 {
        let mut jobs = lock(&self.shared.jobs);
        jobs.closed = true;
        self.shared.changed.notify_all();
        let drained = self.shared.changed.wait_while(jobs, |jobs| !jobs.live.is_empty());
        drained.unwrap_or_else(PoisonError::into_inner).drained
    }
}

/// One admitted job: what a worker needs, beside the `Shared` state,
/// to run it to its terminal event.
struct JobContext {
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
    fn run(self, shared: &Shared) {
        let max_attempts = shared.cfg.max_retries + 1;
        let total_cycles = self.payload.total_cycles(&self.seeds);
        let recovered: RecoveredUnits = Mutex::new(self.load_recovered_units(shared));
        // Commit ordinal within this job — the 1-based counter the
        // crash/rot faults key off.
        let committed = AtomicU32::new(0);
        let mut attempt = 1u32;
        loop {
            (self.sink)(JobEvent::Started { job: self.job, attempt });
            match self.attempt_once(shared, attempt, total_cycles, &recovered, &committed) {
                Ok(Ok(result)) => {
                    if self.fault.crashes_mid_spill() {
                        // Fault harness: die between the spill's
                        // tempfile write and its rename — the result
                        // was never promised, so a restart must treat
                        // the key as absent and recompute it.
                        if let Some(state) = &shared.state {
                            let digest =
                                crate::protocol::digest_hex(result.as_bytes());
                            let _ = state.spill_torn(
                                &self.key,
                                &crate::cache::CacheEntry { result, digest },
                            );
                        }
                        std::process::abort();
                    }
                    let digest = shared.cache.insert(&self.key, result.clone());
                    if self.fault.corrupts_cache() {
                        // Fault harness: rot the entry *after* the clean
                        // result went out, so the next submission of
                        // this key exercises the digest check.
                        shared.cache.corrupt(&self.key);
                    }
                    if let Some(state) = &shared.state {
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
                    let backoff_ms = RETRY_BACKOFF_MS
                        .saturating_mul(1 << (attempt - 1).min(16))
                        .min(RETRY_BACKOFF_CAP_MS);
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
    }

    /// Load and validate this key's checkpoint (sweep payloads on a
    /// state-backed service only), emitting a `recovered` event when
    /// any verified units survive. Units referencing cells or seeds
    /// outside the submitted grid are discarded — a checkpoint can
    /// only ever *shrink* the work, never smuggle foreign rows in.
    fn load_recovered_units(&self, shared: &Shared) -> HashMap<(u32, u64), Vec<SweepRow>> {
        let Some(state) = &shared.state else { return HashMap::new() };
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
        shared: &Shared,
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
        let step = shared.cfg.progress_step();
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
            lock(recovered).get(&(cell, seed)).cloned()
        };
        let on_rows = |cell: u32, seed: u64, rows: &[SweepRow]| {
            let ordinal = {
                let mut units = lock(recovered);
                units.insert((cell, seed), rows.to_vec());
                let ordinal = committed.fetch_add(1, Ordering::AcqRel) + 1;
                if let Some(state) = &shared.state {
                    let _ = state.append_checkpoint(&self.key, cell, seed, rows);
                    if self.fault.rot_checkpoint_line == Some(ordinal) {
                        // Still under the lock: the rotted line must be
                        // the one just appended, not a later worker's.
                        state.rot_last_checkpoint_line(&self.key);
                    }
                }
                ordinal
            };
            sink(JobEvent::SweepRows { job, cell, seed, rows: rows.to_vec() });
            if self.fault.crash_after_cells == Some(ordinal) {
                // The `kill -9` fault: die with at least `ordinal`
                // committed checkpoint lines on disk.
                std::process::abort();
            }
            if self.fault.cancel_after_cells == Some(ordinal) {
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

    fn wait_started(events: &Arc<Mutex<Vec<JobEvent>>>, job: u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
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

    /// A run whose `warmup + measure` overflows is refused at admission:
    /// one `rejected` event and nothing else — no worker ever sees it.
    #[test]
    fn an_overflowing_run_length_is_rejected_at_submit() {
        let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (sink, events) = collecting_sink();
        let mut spec = tiny_scenario();
        spec.warmup_cycles = u64::MAX;
        spec.measure_cycles = 1;
        let job = svc.submit(JobPayload::Scenario(spec), options(None, None), sink);
        assert_eq!(svc.shutdown(), 0, "nothing was admitted");
        let evs: Vec<_> = events.lock().unwrap().iter().map(|e| (e.job(), e.label())).collect();
        assert_eq!(evs, [(Some(job), "rejected")]);
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
        wait_started(&events, job);
        assert!(svc.cancel(job));
        let evs = wait_terminal(&events, job);
        assert!(matches!(evs.last().unwrap(), JobEvent::Cancelled { .. }), "{evs:?}");
        // Unknown id after the terminal event: its `live` entry is gone.
        assert!(!svc.cancel(job));
        let job2 = svc.submit(JobPayload::Scenario(tiny_scenario()), options(None, None), sink);
        let evs2 = wait_terminal(&events, job2);
        assert_eq!(evs2.last().unwrap().label(), "completed", "cancel left no cache entry");
        svc.shutdown();
    }

    /// A job held on the single worker by a stall, then two queued
    /// behind it: each `accepted` carries the queue depth it made and
    /// comes first, `shutdown` drains all three — the running one too —
    /// and a submission after it is refused.
    #[test]
    fn shutdown_drains_running_and_queued_jobs_then_refuses_work() {
        let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (sink, events) = collecting_sink();
        let stall = FaultSpec {
            stall_at_cycle: Some(10),
            stall_ms: Some(300),
            ..FaultSpec::default()
        };
        let seeded = |seed| SubmitOptions { seeds: Some(vec![seed]), ..options(None, None) };
        let held = svc.submit(
            JobPayload::Scenario(tiny_scenario()),
            options(Some(stall), None),
            sink.clone(),
        );
        wait_started(&events, held);
        // Seeds other than the held job's: a cache hit is never queued.
        let queued = [2, 3].map(|seed| {
            svc.submit(JobPayload::Scenario(tiny_scenario()), seeded(seed), sink.clone())
        });
        assert_eq!(svc.shutdown(), 3);
        for (job, depth) in [(held, 1), (queued[0], 1), (queued[1], 2)] {
            let evs = wait_terminal(&events, job);
            assert!(
                matches!(evs[0], JobEvent::Accepted { queue_depth, .. } if queue_depth == depth),
                "{evs:?}"
            );
            assert_eq!(evs[1].label(), "started", "{evs:?}");
            assert_eq!(evs.last().unwrap().label(), "completed", "{evs:?}");
        }
        let late = svc.submit(JobPayload::Scenario(tiny_scenario()), seeded(4), sink);
        match &wait_terminal(&events, late)[..] {
            [JobEvent::Rejected { error, .. }] => assert_eq!(error, "service is shutting down"),
            other => panic!("expected a lone rejected, got {other:?}"),
        }
    }

    /// A second `shutdown` arriving while the first one waits must wait
    /// for the same drain and report the same count.
    #[test]
    fn a_second_concurrent_shutdown_waits_for_the_drain() {
        let svc = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let (sink, events) = collecting_sink();
        let stall = FaultSpec {
            stall_at_cycle: Some(10),
            stall_ms: Some(300),
            ..FaultSpec::default()
        };
        let job =
            svc.submit(JobPayload::Scenario(tiny_scenario()), options(Some(stall), None), sink);
        wait_started(&events, job);
        let shut = || {
            let drained = svc.shutdown();
            let ended =
                events.lock().unwrap().iter().any(|e| e.job() == Some(job) && e.is_terminal());
            (drained, ended)
        };
        // The sleep only makes B likely to arrive while A is waiting
        // inside the 300 ms stall; the assertions hold in any order.
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(shut);
            std::thread::sleep(Duration::from_millis(50));
            let b = s.spawn(shut);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a.1 && b.1, "a shutdown returned before the job's end: A {a:?}, B {b:?}");
        assert_eq!(a.0, b.0, "both callers report one drain");
        assert_eq!(a.0, 1, "the running job finished after the shutdown");
    }

    /// A refused admission — over depth, or after the close — leaves no
    /// id behind to cancel; a finished job leaves none either.
    #[test]
    fn refused_and_finished_jobs_are_not_cancellable() {
        let ctx = |job| JobContext {
            sink: Arc::new(|_| {}),
            job,
            key: String::new(),
            seeds: vec![1],
            payload: JobPayload::Scenario(tiny_scenario()),
            fault: FaultSpec::default(),
            deadline_ms: None,
            token: CancelToken::new(),
        };
        let mut jobs = Inner::default();
        assert!(jobs.admit(ctx(1), 1).is_ok());
        assert!(matches!(
            jobs.admit(ctx(2), 1),
            Err(JobEvent::RejectedOverload { job: 2, queued: 1, limit: 1 })
        ));
        jobs.closed = true;
        assert!(matches!(jobs.admit(ctx(3), 8), Err(JobEvent::Rejected { job: 3, .. })));
        assert!(!jobs.cancel(2) && !jobs.cancel(3));
        assert!(jobs.cancel(1));
        jobs.finish(1);
        assert!(!jobs.cancel(1));
        assert_eq!(jobs.drained, 1, "finished after the close");
    }
}
