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
//! * `--workers N` — worker threads, at least 1 (default 2),
//! * `--queue-depth N` — admission cap on queued jobs, at least 1
//!   (default 16),
//! * `--event-log PATH` — append every event of every connection as JSON
//!   lines (the artifact CI archives),
//! * `--state-dir PATH` — durable state root: completed results spill
//!   here and reload (digest-verified) after a restart, and in-flight
//!   sweeps checkpoint per `(cell, seed)` unit so a killed server
//!   resumes instead of recomputing (docs/SERVICE.md "Durability").
//!
//! Submit jobs with `df-submit`; see `docs/SERVICE.md` for the protocol.

#![forbid(unsafe_code)]

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
        "usage: df-serve [--socket PATH] [--workers N] [--queue-depth N] [--event-log PATH] \
         [--state-dir PATH]"
    );
    std::process::exit(2);
}

/// The positive number after `flag`: a zero worker count or queue depth
/// would boot a server that never runs, or never admits, a job.
fn positive(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    match flag_number(it, flag)? {
        0 => Err(format!("{flag} must be positive")),
        n => Ok(n),
    }
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
            "--workers" => args.cfg.workers = positive(&mut it, &flag)?,
            "--queue-depth" => args.cfg.queue_depth = positive(&mut it, &flag)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| die(&e));
    eprintln!(
        "df-serve: listening on {} ({} workers, queue depth {})",
        args.socket.display(),
        args.cfg.workers,
        args.cfg.queue_depth,
    );
    let state_dir = args.cfg.state_dir.clone();
    let service =
        Arc::new(Service::open(args.cfg).unwrap_or_else(|e| fail(&format!("open state dir: {e}"))));
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
