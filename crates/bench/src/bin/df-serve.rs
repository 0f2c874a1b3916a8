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

use df_bench::{fail, flag_number, flag_path};
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

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: PathBuf::from("df-service.sock"),
        event_log: None,
        cfg: ServiceConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--socket" => args.socket = flag_path(&mut it, &flag)?,
            "--event-log" => args.event_log = Some(flag_path(&mut it, &flag)?),
            "--state-dir" => args.cfg.state_dir = Some(flag_path(&mut it, &flag)?),
            "--workers" => args.cfg.workers = flag_number::<usize>(&mut it, &flag)?.max(1),
            "--queue-depth" => args.cfg.queue_depth = flag_number(&mut it, &flag)?,
            "--cache-capacity" => args.cfg.cache_capacity = flag_number(&mut it, &flag)?,
            "--max-retries" => args.cfg.max_retries = flag_number(&mut it, &flag)?,
            "--progress-cycles" => args.cfg.progress_cycles = flag_number(&mut it, &flag)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(&e));
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
