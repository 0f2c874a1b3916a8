//! `df-perf` — the repo's layered benchmark.
//!
//! ```text
//! df-perf --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//! df-perf run [--seed N] [--reps R] [--seconds S] [--smoke] [--out FILE] [--history FILE]
//! df-perf compare A.json B.json
//! df-perf metrics
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one process. Its last stdout line is the contract's JSON object; the
//! line before it is the full detail record `run` aggregates.

mod bench;
mod layers;
mod probes;
mod report;
mod service;
mod sim;
mod spec;
mod stats;
mod sweep;
mod timed;
mod trace;

use bench::{Detail, Opts, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;

const USAGE: &str = "usage:
  df-perf --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
  df-perf run [--seed N] [--reps R] [--seconds S] [--smoke] [--out FILE] [--history FILE] [--out-dir DIR]
  df-perf compare A.json B.json
  df-perf metrics
workloads: paper_advc paper_un_pb paper_advc_s2 sweep_grid service_mix";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

/// `--flag value` pairs and bare switches, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, flag: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == flag)?;
        if at + 1 >= self.0.len() {
            die(&format!("{flag} needs a value"));
        }
        self.0.remove(at);
        Some(self.0.remove(at))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("bad {flag} value `{v}`")))
        })
    }

    fn switch(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Vec<String> {
        if let Some(unknown) = self.0.iter().find(|a| a.starts_with("--")) {
            die(&format!("unknown flag {unknown}"));
        }
        self.0
    }
}

/// Run one workload and print its two result lines.
fn one(opts: &Opts) -> i32 {
    let mut detail: Detail = if opts.trace {
        layers::traced(opts)
    } else if let Some(w) = sim::SimWorkload::named(&opts.workload) {
        sim::untraced(&w, opts)
    } else if opts.workload == "sweep_grid" {
        sweep::untraced(opts)
    } else {
        service::untraced(opts)
    };
    // A run must report exactly the declared metrics; anything else is a
    // bug in the benchmark, and it fails the run.
    let declared: Vec<&str> = if opts.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    let reported: Vec<&str> = detail.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut missing: Vec<String> = declared
        .iter()
        .filter(|d| !reported.contains(d))
        .map(|d| format!("metric {d} not reported"))
        .collect();
    missing.extend(
        reported
            .iter()
            .filter(|r| !declared.contains(r))
            .map(|r| format!("metric {r} not declared")),
    );
    missing.extend(
        detail
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite", m.name)),
    );
    if !missing.is_empty() {
        detail.failed += missing.len() as u64;
        detail.attempted += missing.len() as u64;
        detail.correct = false;
        detail.notes.extend(missing);
        detail.metrics.retain(|m| m.value.is_finite());
    }
    for note in &detail.notes {
        eprintln!("df-perf: {}: {note}", opts.workload);
    }
    println!(
        "{}",
        serde_json::to_string(&detail).expect("detail serializes")
    );
    println!("{}", detail.contract_line());
    0
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("run" | "compare" | "metrics") => args.remove(0),
        _ => String::new(),
    };
    let mut flags = Flags(args);
    let out_dir = |flags: &mut Flags| {
        flags
            .value("--out-dir")
            .map_or_else(|| PathBuf::from("perf/out"), PathBuf::from)
    };
    let code = match command.as_str() {
        "metrics" => {
            flags.finish();
            println!("{}", spec::to_json());
            0
        }
        "compare" => {
            let files = flags.finish();
            let [a, b] = files.as_slice() else {
                die("compare takes two report files")
            };
            report::compare(a.as_ref(), b.as_ref())
        }
        "run" => {
            let smoke = flags.switch("--smoke");
            let opts = report::RunOpts {
                seed: flags.parsed("--seed").unwrap_or(DEFAULT_SEED),
                reps: flags.parsed("--reps").unwrap_or(if smoke { 1 } else { 5 }),
                seconds: flags
                    .parsed("--seconds")
                    .unwrap_or(if smoke { 1.0 } else { 10.0 }),
                smoke,
                out: flags
                    .value("--out")
                    .map_or_else(|| PathBuf::from("perf/out/report.json"), PathBuf::from),
                history: flags.value("--history").map(PathBuf::from),
                out_dir: out_dir(&mut flags),
            };
            if !flags.finish().is_empty() {
                die("run takes no positional arguments");
            }
            if opts.reps == 0 {
                die("--reps must be at least 1");
            }
            report::run(&opts)
        }
        _ => {
            let Some(workload) = flags.value("--workload") else {
                die("missing --workload")
            };
            if !WORKLOADS.contains(&workload.as_str()) {
                die(&format!("unknown workload `{workload}`"));
            }
            let trace = match flags.value("--trace").as_deref() {
                Some("1") => true,
                Some("0") | None => false,
                Some(other) => die(&format!("bad --trace value `{other}`")),
            };
            let opts = Opts {
                workload,
                seed: flags.parsed("--seed").unwrap_or(DEFAULT_SEED),
                seconds: flags.parsed("--seconds").unwrap_or(10.0),
                trace,
                smoke: flags.switch("--smoke"),
                out_dir: out_dir(&mut flags),
            };
            if !flags.finish().is_empty() {
                die("unexpected positional argument");
            }
            if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                die("--seconds must be positive");
            }
            one(&opts)
        }
    };
    std::process::exit(code);
}
