//! The `service_mix` workload: one process running `serve()` on a Unix
//! socket over a `Service` with two workers and a state directory,
//! driven closed-loop by two client connections.
//!
//! One repetition of the mix: distinct cold scenario jobs, many
//! resubmissions of each (cache hits), the bundled grid as a
//! checkpointed sweep job, a shutdown, a reopen on the same state
//! directory, and a resubmission of every scenario job (durable hits).

use crate::bench::{
    median_setup_s, median_us, metric, peak_rss_mb, secs, Budget, Checks, Detail, Headline, Opts,
    Section,
};
use crate::stats::{median, percentile};
use crate::sweep::GRID_JSON;
use crate::trace::Trace;
use df_service::{
    cache_key, digest_hex, serve, CacheEntry, JobEvent, JobPayload, Lookup, Request, ResultCache,
    Service, ServiceConfig, StateDir, SubmitOptions,
};
use df_workload::{ScenarioSpec, SweepSpec};
use dragonfly_core::{run_scenario, SweepRow};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The scenario every cold job is a variation of.
pub const SVC_JOB_JSON: &str = include_str!("../workloads/svc_job.json");

/// Size of one mix.
#[derive(Debug, Clone, Copy)]
pub struct MixSize {
    /// Distinct scenario jobs.
    pub cold: usize,
    /// Resubmissions of each.
    pub resubmits: usize,
}

impl MixSize {
    /// The workload's mix: 24 cold jobs, 25 resubmissions of each.
    pub const FULL: MixSize = MixSize {
        cold: 24,
        resubmits: 25,
    };
    /// The workload's traced mix: five times the hits, so the pooled hit
    /// sample (3,000) has thirty samples beyond its 99th percentile.
    pub const TRACED_FULL: MixSize = MixSize {
        cold: 24,
        resubmits: 125,
    };
    /// The `--smoke` mix, also the probe-scale mix of other workloads'
    /// traced passes.
    pub const SMALL: MixSize = MixSize {
        cold: 6,
        resubmits: 5,
    };
}

/// Job `i` of the mix: the base scenario with its two job loads moved,
/// which moves the cache key. Loads stay well below saturation so no
/// operation can fail.
fn job_spec(i: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_json(SVC_JOB_JSON).expect("bundled svc_job parses");
    spec.name = format!("svc-job-{i:02}");
    spec.jobs[0].load = 0.10 + 0.01 * i as f64;
    spec.jobs[1].load = 0.45 - 0.01 * i as f64;
    spec
}

/// Pre-serialized request lines, so client-side encoding is not part of
/// any latency.
struct Lines {
    scenario: Vec<String>,
    sweep: String,
    shutdown: String,
    /// Simulated cycles behind the cold jobs and the sweep job.
    cycles: u64,
}

fn lines(size: MixSize, seed: u64) -> Lines {
    let options = SubmitOptions {
        seeds: Some(vec![seed]),
        deadline_ms: None,
        fault: None,
    };
    let line = |r: &Request| serde_json::to_string(r).expect("request serializes");
    let specs: Vec<ScenarioSpec> = (0..size.cold).map(job_spec).collect();
    let sweep = SweepSpec::from_json(GRID_JSON).expect("bundled grid parses");
    let cycles = specs
        .iter()
        .map(|s| s.warmup_cycles + s.measure_cycles)
        .sum::<u64>()
        + JobPayload::Sweep(sweep.clone()).total_cycles(&[seed]);
    Lines {
        scenario: specs
            .into_iter()
            .map(|spec| {
                line(&Request::SubmitScenario {
                    spec,
                    options: options.clone(),
                })
            })
            .collect(),
        sweep: line(&Request::SubmitSweep {
            spec: sweep,
            options,
        }),
        shutdown: line(&Request::Shutdown),
        cycles,
    }
}

/// What one submission looked like from the client side. Times are
/// seconds since the phase's clock started.
#[derive(Debug, Clone)]
struct Exchange {
    /// Index into the scenario lines (`usize::MAX` for the sweep job).
    index: usize,
    /// Which client connection carried it.
    client: usize,
    /// Submit line written.
    sent: f64,
    /// `accepted` read (absent on a cache hit).
    accepted: Option<f64>,
    /// `started` read.
    started: Option<f64>,
    /// Terminal event read.
    done: f64,
    /// Terminal event parsed (client-side decode of the reply).
    decoded: f64,
    /// The terminal event.
    terminal: JobEvent,
    /// `sweep_rows` events seen on the way (sweep job only).
    units: Vec<(u32, u64, Vec<SweepRow>)>,
}

impl Exchange {
    fn latency_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }
}

/// One client connection.
struct Client {
    id: usize,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connect, retrying while the server thread is still binding.
    fn connect(id: usize, socket: &Path) -> std::io::Result<Self> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(socket) {
                Ok(writer) => {
                    let reader = BufReader::new(writer.try_clone()?);
                    return Ok(Self { id, writer, reader });
                }
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    /// Write one request line.
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Read the next event line.
    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }

    /// Submit `line` and read events up to the job's terminal event
    /// (closed loop: the caller sends its next request only after this
    /// returns). Arrival times are taken before a line is parsed, and
    /// only the events the bench needs are parsed at all.
    fn exchange(&mut self, index: usize, line: &str, clock: Instant) -> std::io::Result<Exchange> {
        let sent = secs(clock);
        self.send(line)?;
        let (mut accepted, mut started, mut units) = (None, None, Vec::new());
        loop {
            let text = self.read_line()?;
            let at = secs(clock);
            let label = text
                .strip_prefix("{\"event\":\"")
                .and_then(|r| r.split('"').next());
            match label {
                Some("accepted") => accepted = Some(at),
                Some("started") => started = started.or(Some(at)),
                Some("progress" | "recovered" | "retried" | "cache_corrupt") => {}
                Some("sweep_rows") => {
                    if let Ok(JobEvent::SweepRows {
                        cell, seed, rows, ..
                    }) = serde_json::from_str::<JobEvent>(&text)
                    {
                        units.push((cell, seed, rows));
                    }
                }
                _ => {
                    let event: JobEvent = serde_json::from_str(&text)
                        .map_err(|e| std::io::Error::other(format!("bad event line: {e}")))?;
                    if event.is_terminal() {
                        return Ok(Exchange {
                            index,
                            client: self.id,
                            sent,
                            accepted,
                            started,
                            done: at,
                            decoded: secs(clock),
                            terminal: event,
                            units,
                        });
                    }
                }
            }
        }
    }
}

/// A running server: the service, its `serve` thread, and two clients.
struct Server {
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

impl Server {
    /// `Service::open` on `state`, `serve` on `socket`, two connections.
    fn start(state: &Path, socket: &Path) -> std::io::Result<Self> {
        let service = Arc::new(Service::open(ServiceConfig {
            workers: 2,
            state_dir: Some(state.to_path_buf()),
            ..ServiceConfig::default()
        })?);
        let path = socket.to_path_buf();
        let thread = std::thread::spawn(move || serve(service, &path, None));
        let clients = (0..2)
            .map(|id| Client::connect(id, socket))
            .collect::<Result<_, _>>()?;
        Ok(Self { thread, clients })
    }

    /// Run `work` (indices into `lines`) closed-loop over both clients:
    /// each client takes the next index when its previous job ended.
    fn phase(&mut self, work: &[usize], lines: &[String], clock: Instant) -> Vec<Exchange> {
        let next = AtomicUsize::new(0);
        let out = Mutex::new(Vec::with_capacity(work.len()));
        std::thread::scope(|scope| {
            for client in &mut self.clients {
                scope.spawn(|| loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = work.get(slot) else { break };
                    match client.exchange(index, &lines[index], clock) {
                        Ok(x) => out.lock().expect("exchange list lock").push(x),
                        Err(_) => break,
                    }
                });
            }
        });
        out.into_inner().expect("exchange list lock")
    }

    /// Send `shutdown`, wait for the drain, join the server thread.
    fn stop(mut self, shutdown_line: &str) -> std::io::Result<()> {
        let client = &mut self.clients[0];
        client.send(shutdown_line)?;
        while !client
            .read_line()?
            .starts_with("{\"event\":\"shutting_down\"")
        {}
        drop(self.clients);
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("serve thread panicked"))?
    }
}

/// Everything one mix produced.
struct Mix {
    /// Zero of every exchange's times.
    clock: Instant,
    reopen_s: f64,
    cold: Vec<Exchange>,
    hits: Vec<Exchange>,
    sweep: Vec<Exchange>,
    durable: Vec<Exchange>,
    /// Wall of the cold phase plus the sweep job: the phases that simulate.
    simulating_s: f64,
    /// First submit to last terminal event, restart included.
    wall_s: f64,
}

impl Mix {
    fn phases(&self) -> [(&'static str, &Vec<Exchange>); 4] {
        [
            ("cold", &self.cold),
            ("hits", &self.hits),
            ("sweep", &self.sweep),
            ("durable", &self.durable),
        ]
    }

    fn all(&self) -> impl Iterator<Item = &Exchange> {
        self.phases().into_iter().flat_map(|(_, xs)| xs)
    }
}

/// A fresh scratch directory for one mix. The socket path stays short
/// (Unix socket paths are capped near 108 bytes) because it is relative
/// to the working directory.
fn scratch(out_dir: &Path, tag: usize) -> std::io::Result<PathBuf> {
    let dir = out_dir.join(format!("svc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Run one mix in `dir`.
fn run_mix(dir: &Path, size: MixSize, lines: &Lines) -> std::io::Result<Mix> {
    let (state, socket) = (dir.join("state"), dir.join("s.sock"));
    let mut server = Server::start(&state, &socket)?;

    let clock = Instant::now();
    let all: Vec<usize> = (0..size.cold).collect();
    let cold = server.phase(&all, &lines.scenario, clock);
    let cold_s = secs(clock);
    let repeated: Vec<usize> = (0..size.resubmits).flat_map(|_| 0..size.cold).collect();
    let hits = server.phase(&repeated, &lines.scenario, clock);
    let t = Instant::now();
    let sweep = vec![server.clients[0].exchange(usize::MAX, &lines.sweep, clock)?];
    let sweep_s = secs(t);
    server.stop(&lines.shutdown)?;

    let t = Instant::now();
    let mut server = Server::start(&state, &socket)?;
    let reopen_s = secs(t);
    let durable = server.phase(&all, &lines.scenario, clock);
    let wall_s = secs(clock);
    server.stop(&lines.shutdown)?;
    Ok(Mix {
        clock,
        reopen_s,
        cold,
        hits,
        sweep,
        durable,
        simulating_s: cold_s + sweep_s,
        wall_s,
    })
}

/// The document and digest a terminal event carries, if it ended well.
fn outcome(event: &JobEvent) -> Option<(&'static str, &str, &str)> {
    match event {
        JobEvent::Completed { digest, result, .. } => Some(("completed", digest, result)),
        JobEvent::Cached { digest, result, .. } => Some(("cached", digest, result)),
        _ => None,
    }
}

/// Check one mix: every job ended `completed` (cold, sweep) or `cached`
/// (hits, durable), every reply carries the digest of its own bytes, and
/// cached and durable replies equal the cold reply byte for byte.
/// Returns the cold digests in job order and the sweep digest.
fn check_mix(mix: &Mix, size: MixSize, checks: &mut Checks) -> (Vec<String>, String) {
    let expected = 2 * size.cold + size.cold * size.resubmits + 1;
    checks.attempt(expected as u64);
    let ended = mix.all().count();
    if ended != expected {
        checks.fail(format!(
            "{ended} of {expected} jobs reached a terminal event"
        ));
    }
    let mut cold_docs: Vec<Option<&str>> = vec![None; size.cold];
    let mut cold_digests = vec![String::new(); size.cold];
    for x in mix.cold.iter().chain(&mix.sweep) {
        match outcome(&x.terminal) {
            Some(("completed", digest, doc)) if digest_hex(doc.as_bytes()) == digest => {
                if let Some(slot) = cold_docs.get_mut(x.index) {
                    *slot = Some(doc);
                    cold_digests[x.index] = digest.to_string();
                }
            }
            _ => checks.fail(format!("cold job {} ended {}", x.index, x.terminal.label())),
        }
    }
    for x in mix.hits.iter().chain(&mix.durable) {
        match (outcome(&x.terminal), cold_docs[x.index]) {
            (Some(("cached", digest, doc)), Some(cold)) => {
                if doc != cold || digest != cold_digests[x.index] {
                    checks.fail(format!(
                        "job {}: cached reply differs from the cold one",
                        x.index
                    ));
                }
            }
            _ => checks.fail(format!(
                "resubmission {} ended {}",
                x.index,
                x.terminal.label()
            )),
        }
    }
    let sweep_digest = mix
        .sweep
        .first()
        .and_then(|x| outcome(&x.terminal))
        .map(|(_, digest, _)| digest.to_string())
        .unwrap_or_default();
    (cold_digests, sweep_digest)
}

/// The workload's digest: its cold replies in job order, then the sweep.
fn mix_digest(cold: &[String], sweep: &str) -> String {
    digest_hex(format!("{}|{sweep}", cold.join("|")).as_bytes())
}

/// Job 0 run directly: the headline statistics, and the document the
/// service must reply with for it.
fn direct_job0(seed: u64) -> (Headline, String) {
    let result = run_scenario(&job_spec(0), &[seed]).expect("svc job 0 runs");
    let summary = result.summary();
    let m = &summary.mechanisms[0];
    (
        Headline {
            throughput: m.throughput,
            avg_latency: m.avg_latency,
            router_cov: m.router_cov,
        },
        serde_json::to_string_pretty(&summary).expect("summary serializes"),
    )
}

fn latencies(xs: &[Exchange]) -> Vec<f64> {
    xs.iter().map(Exchange::latency_ms).collect()
}

/// The timed pass.
pub fn untraced(opts: &Opts) -> Detail {
    let size = if opts.smoke {
        MixSize::SMALL
    } else {
        MixSize::FULL
    };
    let lines = lines(size, opts.seed);
    let mut checks = Checks::default();
    let (head, job0_doc) = direct_job0(opts.seed);

    // Set-up alone, many times: what stands between a start and the
    // first request — build the request lines from the seed, open the
    // service on an empty state directory, bind, connect both clients.
    let setup_s = median_setup_s(|i| {
        let dir = scratch(&opts.out_dir, 1_000 + i).ok()?;
        let t = Instant::now();
        let built = self::lines(size, opts.seed);
        let server = Server::start(&dir.join("state"), &dir.join("s.sock"));
        let s = secs(t);
        let stopped = server.and_then(|server| server.stop(&built.shutdown));
        let _ = std::fs::remove_dir_all(&dir);
        stopped.ok().map(|()| s)
    });

    /// The timings of one checked mix. The exchanges themselves (every
    /// reply's full document) are dropped with the mix, so the process's
    /// peak RSS is the service's, not the benchmark's bookkeeping.
    struct Timings {
        cycles_per_s: f64,
        results_per_s: f64,
        /// Submit → terminal event of each cold job.
        cold_ms: Vec<f64>,
    }
    let budget = Budget::new(opts);
    let mut mixes: Vec<Timings> = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    // Read when the first mix has ended: each later mix starts two more
    // servers in this process, and what their threads' malloc arenas
    // keep (1–3 MB, different every run) is the benchmark's, not the
    // service's.
    let mut peak_rss = 0.0;
    let mut last = 0.0;
    while budget.more(mixes.len(), last) {
        let t = Instant::now();
        let ran = scratch(&opts.out_dir, mixes.len()).and_then(|dir| {
            let mix = run_mix(&dir, size, &lines);
            let _ = std::fs::remove_dir_all(&dir);
            mix
        });
        match ran {
            Ok(mix) => {
                let (cold, sweep) = check_mix(&mix, size, &mut checks);
                if mixes.is_empty() {
                    let reply = mix.cold.iter().find(|x| x.index == 0);
                    if reply.and_then(|x| outcome(&x.terminal)).map(|o| o.2) != Some(&job0_doc) {
                        checks.fail("job 0: service reply differs from a direct run".into());
                    }
                }
                digests.push(mix_digest(&cold, &sweep));
                mixes.push(Timings {
                    cycles_per_s: lines.cycles as f64 / mix.simulating_s,
                    results_per_s: mix.all().count() as f64 / mix.wall_s,
                    cold_ms: latencies(&mix.cold),
                });
            }
            Err(e) => {
                checks.attempt(1);
                checks.fail(format!("mix {}: {e}", mixes.len()));
                break;
            }
        }
        if mixes.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        last = secs(t);
    }

    let digest = digests.first().cloned().unwrap_or_default();
    for (i, d) in digests.iter().enumerate() {
        checks.same(&format!("mix {i} vs mix 0"), d, &digest);
    }
    checks.pinned(opts, &digest, &head);

    let mut metrics = Vec::new();
    if let Some(setup_s) = setup_s.filter(|_| !mixes.is_empty()) {
        // Each timing is taken from the mix in which it was best. A mix
        // keeps both cores busy for a second, so whatever else the host
        // runs lands in it, and it only ever adds time: across ten runs
        // the best of ~20 mixes spreads half as wide as their median
        // (0.02–0.04 against 0.04–0.06 on a quiet host). Same reasoning
        // as the per-chunk minimum of the `paper_*` workloads.
        let best = |f: &dyn Fn(&Timings) -> f64, pick: fn(f64, f64) -> f64| {
            mixes.iter().map(f).reduce(pick).expect("a mix ran")
        };
        // The request timed end to end is the cold job (the median of a
        // mix's 24). A cache hit is a 0.1 ms exchange of two thread
        // wake-ups, which on a shared host measures the hypervisor (the
        // mixes of one process spread 0.06–0.22 ms) and cannot hold a
        // 25 % bound; hits stay in the traced pass as `svc_hit_ms_p50`
        // and `service.hit_ms_p99`.
        metrics = vec![
            metric("setup_s", "s", setup_s),
            metric(
                "sim_cycles_per_s",
                "1/s",
                best(&|m| m.cycles_per_s, f64::max),
            ),
            metric("results_per_s", "1/s", best(&|m| m.results_per_s, f64::max)),
            metric(
                "request_ms_p50",
                "ms",
                best(&|m| median(&m.cold_ms), f64::min),
            ),
            metric("peak_rss_mb", "MB", peak_rss),
        ];
    }
    Detail::new(opts, mixes.len(), checks, digest, head, metrics)
}

/// The service section of a traced pass: one untraced mix (the overhead
/// base), one mix with a span per job per stage from the event arrival
/// times on the socket, then the service layer's own functions replayed
/// in-process on each job's reply, one span per call, sharing the job's
/// id.
pub fn section(
    size: MixSize,
    opts: &Opts,
    checks: &mut Checks,
    trace: &mut Trace,
) -> std::io::Result<Section> {
    let lines = lines(size, opts.seed);
    let (head, _) = direct_job0(opts.seed);
    let dir = scratch(&opts.out_dir, 2_000)?;
    let bare = run_mix(&dir, size, &lines)?;
    let _ = std::fs::remove_dir_all(&dir);
    let dir = scratch(&opts.out_dir, 2_001)?;
    let mix = run_mix(&dir, size, &lines)?;
    let (cold_digests, sweep_digest) = check_mix(&mix, size, checks);
    let (bare_cold, bare_sweep) = check_mix(&bare, size, checks);
    let digest = mix_digest(&cold_digests, &sweep_digest);
    checks.same(
        "traced mix vs untraced mix",
        &digest,
        &mix_digest(&bare_cold, &bare_sweep),
    );

    // Socket-side spans: one root per client connection per phase (each
    // is a sequential closed loop, so its window is all in-loop time),
    // one child per job per stage, the client's own decoding of the reply
    // included. What the children leave uncovered is the client loop's
    // overhead between two exchanges.
    let base = trace.at(mix.clock);
    let at = |s: f64| base + (s * 1e9) as u64;
    let mut next_job = 0u64;
    for (phase, exchanges) in mix.phases() {
        for client in 0..2 {
            let mut mine: Vec<&Exchange> =
                exchanges.iter().filter(|x| x.client == client).collect();
            mine.sort_by(|a, b| a.sent.total_cmp(&b.sent));
            let (Some(first), Some(last)) = (mine.first(), mine.last()) else {
                continue;
            };
            let root = trace.interval(
                &format!("client-{client}/{phase}"),
                (at(first.sent), at(last.decoded)),
                None,
                None,
            );
            for x in mine {
                next_job += 1;
                let job = Some(next_job);
                match (x.accepted, x.started) {
                    (Some(a), Some(s)) => {
                        trace.interval("submit", (at(x.sent), at(a)), Some(root), job);
                        trace.interval("queued", (at(a), at(s)), Some(root), job);
                        trace.interval("run", (at(s), at(x.done)), Some(root), job);
                    }
                    _ => {
                        trace.interval("hit", (at(x.sent), at(x.done)), Some(root), job);
                    }
                }
                trace.interval("decode", (at(x.done), at(x.decoded)), Some(root), job);
            }
        }
    }

    // In-process replay of the service layer's own steps on every cold
    // reply: key, lookup, insert, spill, reply encode/decode — and one
    // checkpoint append per unit of the sweep job.
    let replay_root = trace.open_root("replay");
    let state = Arc::new(StateDir::open(&dir.join("replay-state"))?);
    let cache = ResultCache::new(256);
    let (mut key_us, mut insert_us, mut lookup_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut spill_us, mut append_us) = (Vec::new(), Vec::new());
    for x in &mix.cold {
        let Some((_, digest, doc)) = outcome(&x.terminal) else {
            continue;
        };
        let job = x.index as u64 + 1;
        let payload = JobPayload::Scenario(job_spec(x.index));
        let (key, us) = trace.timed("cache_key", replay_root, job, || {
            let spec_json = payload.spec_json().expect("spec serializes");
            cache_key(payload.kind(), &spec_json, &[opts.seed])
        });
        key_us.push(us);
        let (_, us) = trace.timed("cache_insert", replay_root, job, || {
            cache.insert(&key, doc.to_string())
        });
        insert_us.push(us);
        let (found, us) = trace.timed("cache_lookup", replay_root, job, || cache.lookup(&key));
        lookup_us.push(us);
        if !matches!(found, Lookup::Hit(_)) {
            checks.fail(format!(
                "replay: job {} missed its own cache entry",
                x.index
            ));
        }
        let entry = CacheEntry {
            result: doc.to_string(),
            digest: digest.to_string(),
        };
        let (spilled, us) = trace.timed("spill", replay_root, job, || state.spill(&key, &entry));
        spill_us.push(us);
        if spilled.is_err() {
            checks.fail(format!("replay: spill of job {} failed", x.index));
        }
        trace.timed("reply", replay_root, job, || {
            let line = serde_json::to_string(&x.terminal).expect("event serializes");
            std::hint::black_box(serde_json::from_str::<JobEvent>(&line).is_ok());
        });
    }
    for x in &mix.sweep {
        for (cell, seed, rows) in &x.units {
            let (appended, us) =
                trace.timed("checkpoint_append", replay_root, *cell as u64 + 1, || {
                    state.append_checkpoint("replay-sweep", *cell, *seed, rows)
                });
            append_us.push(us);
            if appended.is_err() {
                checks.fail(format!("replay: checkpoint append of cell {cell} failed"));
            }
        }
    }
    trace.close(replay_root);

    // In-process submissions: how long `Service::submit` takes to return
    // for a cold job, and a whole cache hit without the socket.
    let service = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let options = SubmitOptions {
        seeds: Some(vec![opts.seed]),
        deadline_ms: None,
        fault: None,
    };
    let done = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
    let sink: df_service::EventSink = {
        let done = Arc::clone(&done);
        Arc::new(move |event: JobEvent| {
            if event.is_terminal() {
                *done.0.lock().expect("done lock") = true;
                done.1.notify_all();
            }
        })
    };
    let wait = || {
        let mut flag = done.0.lock().expect("done lock");
        while !*flag {
            flag = done.1.wait(flag).expect("done lock");
        }
        *flag = false;
    };
    let mut submit_us = Vec::new();
    for i in 0..size.cold {
        let payload = JobPayload::Scenario(job_spec(i));
        let t = Instant::now();
        service.submit(payload, options.clone(), Arc::clone(&sink));
        submit_us.push(secs(t) * 1e6);
        wait();
    }
    let inproc_hit_us = median_us(size.cold * 10, |i| {
        service.submit(
            JobPayload::Scenario(job_spec(i % size.cold)),
            options.clone(),
            Arc::clone(&sink),
        );
        wait();
    });
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let cold_ms = latencies(&mix.cold);
    let hit_ms: Vec<f64> = latencies(&mix.hits)
        .into_iter()
        .chain(latencies(&mix.durable))
        .collect();
    // Empty only when every cold job failed, which `checks` already counts.
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let stage_ms = |f: &dyn Fn(&Exchange) -> Option<f64>| {
        let v: Vec<f64> = mix.cold.iter().filter_map(f).map(|s| s * 1e3).collect();
        median_or_zero(&v)
    };
    let rejected = mix
        .all()
        .filter(|x| matches!(x.terminal, JobEvent::RejectedOverload { .. }))
        .count();
    let hit_p50 = median(&hit_ms);
    let metrics = vec![
        metric("service.cache_key_us", "us", median_or_zero(&key_us)),
        metric("service.cache_lookup_us", "us", median_or_zero(&lookup_us)),
        metric("service.cache_insert_us", "us", median_or_zero(&insert_us)),
        metric("service.spill_us", "us", median_or_zero(&spill_us)),
        metric(
            "service.checkpoint_append_us",
            "us",
            median_or_zero(&append_us),
        ),
        metric("service.reopen_ms", "ms", mix.reopen_s * 1e3),
        metric("service.submit_call_us", "us", median(&submit_us)),
        metric(
            "service.queue_wait_ms_p50",
            "ms",
            stage_ms(&|x| Some(x.started? - x.accepted?)),
        ),
        metric(
            "service.run_ms_p50",
            "ms",
            stage_ms(&|x| Some(x.done - x.started?)),
        ),
        metric("service.hit_ms_p99", "ms", percentile(&hit_ms, 99.0)),
        metric(
            "service.socket_overhead_us",
            "us",
            hit_p50 * 1e3 - inproc_hit_us,
        ),
        metric(
            "service.rejected_frac",
            "ratio",
            rejected as f64 / mix.all().count().max(1) as f64,
        ),
        metric("svc_cold_ms_p50", "ms", median(&cold_ms)),
        metric("svc_hit_ms_p50", "ms", hit_p50),
        metric(
            "svc_jobs_per_s",
            "1/s",
            mix.all().count() as f64 / mix.wall_s,
        ),
    ];
    Ok(Section {
        metrics,
        digest,
        headline: head,
        trace_overhead_frac: mix.wall_s / bare.wall_s - 1.0,
    })
}
