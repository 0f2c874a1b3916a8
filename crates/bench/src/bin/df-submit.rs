//! Client for the scenario job service: submit a scenario or sweep to a
//! running `df-serve`, stream its structured events to stderr, and map
//! the job's terminal event onto the exit code.
//!
//! ```text
//! cargo run --release -p df-bench --bin df-submit -- --socket /tmp/df.sock \
//!     --quick --out /tmp/result.json scenarios/interference_advc_vs_uniform.json
//! cargo run --release -p df-bench --bin df-submit -- --socket /tmp/df.sock --shutdown
//! ```
//!
//! Flags:
//!
//! * `--socket PATH` — the server's socket (default `df-service.sock`),
//! * `--sweep` — the spec file is a [`SweepSpec`] grid, not a scenario,
//! * `--seeds N` — seeds to run (default: the paper's three-seed protocol),
//! * `--quick` — single seed and a reduced cycle budget (CI smoke),
//! * `--deadline-ms MS` — per-attempt wall-clock deadline,
//! * `--fault JSON` — a [`df_service::FaultSpec`] object (tests/CI only),
//! * `--out PATH` — write the result document (completed or cached) here
//!   instead of stdout,
//! * `--rows PATH` — append each `sweep_rows` event's rows here as JSON
//!   lines while the sweep runs (the incremental-row stream),
//! * `--no-wait` — submit and exit 0 without waiting for a terminal event,
//! * `--ping` / `--shutdown` / `--cancel JOB` — control requests.
//!
//! Against a `df-serve --state-dir` server, a resubmission after a crash
//! also streams `recovered` (units reloaded from the job's checkpoint —
//! these do *not* re-emit `sweep_rows`) before recomputing only the
//! unfinished cells.
//!
//! Exit codes:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | `completed`, `cached`, `pong`, or `shutting_down` |
//! | 2 | usage error or `protocol_error` |
//! | 3 | `rejected_overload` (admission queue full) |
//! | 4 | `timed_out` (deadline exceeded) |
//! | 5 | `cancelled` |
//! | 6 | `failed` (retries exhausted) or `rejected` (bad spec) |
//! | 1 | I/O failure (connect, read, write) |

use df_bench::{default_seeds, fail, flag_number, flag_path, flag_seeds, flag_value};
use df_service::{FaultSpec, JobEvent, Request, SubmitOptions};
use df_workload::{ScenarioSpec, SweepSpec};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

enum Action {
    Submit { spec_file: String, sweep: bool },
    Ping,
    Shutdown,
    Cancel(u64),
}

struct Args {
    socket: PathBuf,
    action: Action,
    seeds: Option<Vec<u64>>,
    quick: bool,
    deadline_ms: Option<u64>,
    fault: Option<FaultSpec>,
    out: Option<PathBuf>,
    rows: Option<PathBuf>,
    no_wait: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: df-submit [--socket PATH] [--sweep] [--seeds N] [--quick] \
         [--deadline-ms MS] [--fault JSON] [--out PATH] [--rows PATH] [--no-wait] SPEC.json\n\
         \x20      df-submit [--socket PATH] --ping | --shutdown | --cancel JOB\n\
         exit codes: 0 completed/cached/pong/shutting-down · 3 rejected-overload · \
         4 timed-out · 5 cancelled · 6 failed/rejected · 2 usage/protocol · 1 I/O"
    );
    std::process::exit(2);
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: PathBuf::from("df-service.sock"),
        action: Action::Submit { spec_file: String::new(), sweep: false },
        seeds: None,
        quick: false,
        deadline_ms: None,
        fault: None,
        out: None,
        rows: None,
        no_wait: false,
    };
    let mut sweep = false;
    let mut spec_file = String::new();
    let mut control: Option<Action> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => args.socket = flag_path(&mut it, &flag)?,
            "--sweep" => sweep = true,
            "--quick" => args.quick = true,
            "--seeds" => args.seeds = Some(flag_seeds(&mut it)?),
            "--deadline-ms" => args.deadline_ms = Some(flag_number(&mut it, &flag)?),
            "--fault" => {
                let json = flag_value(&mut it, &flag, "a JSON object")?;
                args.fault = Some(
                    serde_json::from_str(&json).map_err(|e| format!("bad --fault JSON: {e}"))?,
                );
            }
            "--out" => args.out = Some(flag_path(&mut it, &flag)?),
            "--rows" => args.rows = Some(flag_path(&mut it, &flag)?),
            "--no-wait" => args.no_wait = true,
            "--ping" => control = Some(Action::Ping),
            "--shutdown" => control = Some(Action::Shutdown),
            "--cancel" => control = Some(Action::Cancel(flag_number(&mut it, &flag)?)),
            other if !other.starts_with('-') && spec_file.is_empty() => {
                spec_file = other.to_string();
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.action = match control {
        Some(action) => {
            if !spec_file.is_empty() {
                return Err("control requests take no spec file".into());
            }
            action
        }
        None => {
            if spec_file.is_empty() {
                return Err("missing spec file".into());
            }
            Action::Submit { spec_file, sweep }
        }
    };
    if args.quick && args.seeds.is_none() {
        args.seeds = Some(default_seeds(true));
    }
    Ok(args)
}

/// Build the submit request, applying `--quick`'s cycle trim (the
/// `scenario` / `sweep` CLIs' own, so CI smoke jobs stay fast).
fn submit_request(spec_file: &str, sweep: bool, args: &Args) -> Request {
    let options = SubmitOptions {
        seeds: args.seeds.clone(),
        deadline_ms: args.deadline_ms,
        fault: args.fault,
    };
    if sweep {
        let mut spec = SweepSpec::load(spec_file).unwrap_or_else(|e| die(&e));
        if args.quick {
            df_bench::quick_sweep(&mut spec);
        }
        Request::SubmitSweep { spec, options }
    } else {
        let mut spec = ScenarioSpec::load(spec_file).unwrap_or_else(|e| die(&e));
        if args.quick {
            df_bench::quick_scenario(&mut spec);
        }
        Request::SubmitScenario { spec, options }
    }
}

/// Append one `sweep_rows` event's rows to the `--rows` file as JSON
/// lines, one row per line, as they stream in.
fn append_rows(path: &PathBuf, rows: &[dragonfly_core::SweepRow]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(&format!("create {}: {e}", dir.display())));
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| fail(&format!("open {}: {e}", path.display())));
    for row in rows {
        let line = serde_json::to_string(row)
            .unwrap_or_else(|e| fail(&format!("serialize row: {e}")));
        writeln!(file, "{line}").unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
    }
}

/// Deliver a result document to `--out` or stdout.
fn deliver(result: &str, out: &Option<PathBuf>) {
    match out {
        Some(path) => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fail(&format!("create {}: {e}", dir.display())));
            }
            std::fs::write(path, result)
                .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
            eprintln!("wrote {}", path.display());
        }
        None => println!("{result}"),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(&e));
    let request = match &args.action {
        Action::Submit { spec_file, sweep } => submit_request(spec_file, *sweep, &args),
        Action::Ping => Request::Ping,
        Action::Shutdown => Request::Shutdown,
        Action::Cancel(job) => Request::Cancel { job: *job },
    };

    let mut stream = UnixStream::connect(&args.socket)
        .unwrap_or_else(|e| fail(&format!("connect {}: {e}", args.socket.display())));
    let reader = BufReader::new(
        stream.try_clone().unwrap_or_else(|e| fail(&format!("clone socket: {e}"))),
    );
    let line = serde_json::to_string(&request)
        .unwrap_or_else(|e| fail(&format!("serialize request: {e}")));
    writeln!(stream, "{line}").unwrap_or_else(|e| fail(&format!("send request: {e}")));
    if let Action::Cancel(_) = args.action {
        // Cancellation has no success response; a trailing ping makes
        // the round trip observable (a bad id answers protocol_error
        // first).
        let ping =
            serde_json::to_string(&Request::Ping).unwrap_or_else(|e| fail(&e.to_string()));
        writeln!(stream, "{ping}").unwrap_or_else(|e| fail(&format!("send request: {e}")));
    }
    if args.no_wait {
        // Fire-and-forget: the line is buffered in the socket, the
        // server runs the job (and caches its result) regardless.
        return;
    }

    for line in reader.lines() {
        let line = line.unwrap_or_else(|e| fail(&format!("read event: {e}")));
        if line.trim().is_empty() {
            continue;
        }
        let event: JobEvent = serde_json::from_str(&line)
            .unwrap_or_else(|e| fail(&format!("bad event line: {e}")));
        match &event {
            JobEvent::Accepted { job, queue_depth, .. } => {
                eprintln!("job {job}: accepted (queue depth {queue_depth})")
            }
            JobEvent::CacheCorrupt { job, .. } => {
                eprintln!("job {job}: cache entry failed its digest check; recomputing")
            }
            JobEvent::Started { job, attempt } => {
                eprintln!("job {job}: started (attempt {attempt})")
            }
            JobEvent::Progress { job, done_cycles, total_cycles } => {
                eprintln!("job {job}: {done_cycles}/{total_cycles} cycles")
            }
            JobEvent::Retried { job, attempt, backoff_ms, error } => {
                eprintln!("job {job}: attempt {attempt} died ({error}); retry in {backoff_ms} ms")
            }
            JobEvent::Recovered { job, cells_done, cells_total, .. } => {
                eprintln!(
                    "job {job}: recovered {cells_done}/{cells_total} unit(s) from checkpoint"
                )
            }
            JobEvent::SweepRows { job, cell, seed, rows } => {
                eprintln!("job {job}: cell {cell} seed {seed}: {} row(s)", rows.len());
                if let Some(path) = &args.rows {
                    append_rows(path, rows);
                }
            }
            JobEvent::Cached { job, digest, result, .. } => {
                eprintln!("job {job}: cached (digest {digest})");
                deliver(result, &args.out);
                std::process::exit(0);
            }
            JobEvent::Completed { job, digest, result, .. } => {
                eprintln!("job {job}: completed (digest {digest})");
                deliver(result, &args.out);
                std::process::exit(0);
            }
            JobEvent::RejectedOverload { job, queued, limit } => {
                eprintln!("job {job}: rejected, queue full ({queued}/{limit})");
                std::process::exit(3);
            }
            JobEvent::TimedOut { job, at_cycle } => {
                eprintln!("job {job}: deadline exceeded at cycle {at_cycle}");
                std::process::exit(4);
            }
            JobEvent::Cancelled { job, at_cycle } => {
                eprintln!("job {job}: cancelled at cycle {at_cycle}");
                std::process::exit(5);
            }
            JobEvent::Failed { job, attempts, error } => {
                eprintln!("job {job}: failed after {attempts} attempt(s): {error}");
                std::process::exit(6);
            }
            JobEvent::Rejected { job, error } => {
                eprintln!("job {job}: rejected: {error}");
                std::process::exit(6);
            }
            JobEvent::Pong => {
                eprintln!("pong");
                std::process::exit(0);
            }
            JobEvent::ShuttingDown { drained } => {
                eprintln!("server shutting down ({drained} jobs drained)");
                std::process::exit(0);
            }
            JobEvent::ProtocolError { error } => {
                eprintln!("protocol error: {error}");
                std::process::exit(2);
            }
        }
    }
    fail("connection closed before a terminal event");
}
