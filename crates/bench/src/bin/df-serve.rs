//! The scenario job server: run a [`df_service::Service`] on a local
//! Unix socket until a `shutdown` request arrives.
//!
//! ```text
//! cargo run --release -p df-bench --bin df-serve -- --socket /tmp/df.sock \
//!     --event-log /tmp/df-events.jsonl
//! ```
//!
//! Flags:
//!
//! * `--socket PATH` — Unix socket to listen on (default `df-service.sock`),
//! * `--workers N` — worker threads (default 2),
//! * `--queue-depth N` — admission cap on queued jobs (default 16),
//! * `--cache-capacity N` — result-cache entries, 0 disables (default 256),
//! * `--max-retries N` — retries after a panicking attempt (default 2),
//! * `--progress-cycles N` — cycles between `progress` events (default 1000),
//! * `--event-log PATH` — append every event of every connection as JSON
//!   lines (the artifact CI archives),
//! * `--state-dir PATH` — durable state root: completed results spill
//!   here and reload (digest-verified) after a restart, and in-flight
//!   sweeps checkpoint per `(cell, seed)` unit so a killed server
//!   resumes instead of recomputing (docs/SERVICE.md "Durability").
//!
//! Submit jobs with `df-submit`; see `docs/SERVICE.md` for the protocol.

use df_bench::fail;
use df_service::{serve, Service, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    socket: PathBuf,
    event_log: Option<PathBuf>,
    cfg: ServiceConfig,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: df-serve [--socket PATH] [--workers N] [--queue-depth N] \
         [--cache-capacity N] [--max-retries N] [--progress-cycles N] [--event-log PATH] \
         [--state-dir PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        socket: PathBuf::from("df-service.sock"),
        event_log: None,
        cfg: ServiceConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    let number = |it: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| die(&format!("{flag} needs a number")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => {
                args.socket =
                    PathBuf::from(it.next().unwrap_or_else(|| die("--socket needs a path")));
            }
            "--event-log" => {
                args.event_log =
                    Some(PathBuf::from(it.next().unwrap_or_else(|| die("--event-log needs a path"))));
            }
            "--state-dir" => {
                args.cfg.state_dir =
                    Some(PathBuf::from(it.next().unwrap_or_else(|| die("--state-dir needs a path"))));
            }
            "--workers" => args.cfg.workers = number(&mut it, "--workers").max(1),
            "--queue-depth" => args.cfg.queue_depth = number(&mut it, "--queue-depth"),
            "--cache-capacity" => args.cfg.cache_capacity = number(&mut it, "--cache-capacity"),
            "--max-retries" => args.cfg.max_retries = number(&mut it, "--max-retries") as u32,
            "--progress-cycles" => {
                args.cfg.progress_cycles = number(&mut it, "--progress-cycles") as u64
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    eprintln!(
        "df-serve: listening on {} ({} workers, queue depth {}, cache {} entries, \
         {} retries)",
        args.socket.display(),
        args.cfg.workers,
        args.cfg.queue_depth,
        args.cfg.cache_capacity,
        args.cfg.max_retries,
    );
    let state_dir = args.cfg.state_dir.clone();
    let service = Arc::new(
        Service::open(args.cfg)
            .unwrap_or_else(|e| fail(&format!("open state dir: {e}"))),
    );
    if let Some(dir) = &state_dir {
        let report = service.startup_report();
        eprintln!(
            "df-serve: state dir {} — recovered {} cached result(s), quarantined {}",
            dir.display(),
            report.entries.len(),
            report.quarantined.len(),
        );
    }
    serve(service, &args.socket, args.event_log.as_deref())
        .unwrap_or_else(|e| fail(&format!("serve on {}: {e}", args.socket.display())));
    // Graceful exit: the accept loop only returns after a `shutdown`
    // request drained every in-flight job.
    let _ = std::fs::remove_file(&args.socket);
    eprintln!("df-serve: drained and stopped");
}
