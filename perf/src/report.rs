//! `df-perf run` (every workload, round-robin, one child process per
//! workload per round, then one traced child per workload) and
//! `df-perf compare` (two reports side by side, judged by the
//! benchmark's own bounds).

use crate::bench::{Detail, Headline, WORKLOADS};
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{quartiles, spread};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The statement every report carries beside its numbers.
pub const UNVALIDATED: &str = "model unvalidated against Tables II/III; no error figure";

/// Options of `df-perf run`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed handed to every child.
    pub seed: u64,
    /// Rounds: timed child runs per workload.
    pub reps: usize,
    /// Measuring time of each timed child.
    pub seconds: f64,
    /// Reduced scale.
    pub smoke: bool,
    /// Where the report goes.
    pub out: PathBuf,
    /// Append one line per workload × end-to-end metric here.
    pub history: Option<PathBuf>,
    /// Scratch and trace directory of the children.
    pub out_dir: PathBuf,
}

/// One workload × end-to-end metric row: the median over rounds of the
/// children's values (each already a median inside its run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median over rounds.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Rounds.
    pub n: u64,
    /// Every round's value, in round order.
    pub values: Vec<f64>,
}

/// One workload × per-layer metric row (one traced run).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerRow {
    /// Workload.
    pub workload: String,
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The traced run's value.
    pub value: f64,
}

/// A workload's correctness summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRow {
    /// Workload.
    pub workload: String,
    /// Digest of its result document(s), equal in every round and in
    /// the traced run.
    pub digest: String,
    /// Headline simulated statistics.
    pub headline: Headline,
    /// Operations attempted over all rounds and the traced run.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `failed / attempted`.
    pub failed_ops_frac: f64,
}

/// A full report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// `git rev-parse HEAD` of the checkout, or `unknown`.
    pub commit: String,
    /// Logical CPUs.
    pub nproc: u64,
    /// CPU model string.
    pub cpu_model: String,
    /// Seed of every child.
    pub seed: u64,
    /// Rounds.
    pub reps: u64,
    /// Measuring seconds per timed child.
    pub seconds: f64,
    /// Reduced scale?
    pub smoke: bool,
    /// Standing caveat.
    pub note: String,
    /// Correctness per workload.
    pub workloads: Vec<WorkloadRow>,
    /// End-to-end rows.
    pub end_to_end: Vec<Row>,
    /// Per-layer rows.
    pub per_layer: Vec<LayerRow>,
}

/// Run one child and parse its detail line (the second-to-last line of
/// its standard output; the last is the contract line).
fn child(opts: &RunOpts, workload: &str, trace: bool) -> Result<Detail, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(_contract), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "{workload}: child printed no result (exit {:?}): {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    };
    serde_json::from_str(detail).map_err(|e| format!("{workload}: bad detail line: {e}"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `df-perf run`. Returns the process exit code.
pub fn run(opts: &RunOpts) -> i32 {
    let mut problems: Vec<String> = Vec::new();
    let mut timed: Vec<Vec<Detail>> = vec![Vec::new(); WORKLOADS.len()];
    // Round-robin, so a noisy minute lands on every workload instead of
    // on all rounds of one.
    for round in 0..opts.reps {
        for (w, name) in WORKLOADS.iter().enumerate() {
            eprintln!("df-perf: round {}/{} {name}", round + 1, opts.reps);
            match child(opts, name, false) {
                Ok(detail) => timed[w].push(detail),
                Err(e) => problems.push(e),
            }
        }
    }
    let mut traced: Vec<Option<Detail>> = Vec::new();
    for name in WORKLOADS {
        eprintln!("df-perf: traced {name}");
        traced.push(child(opts, name, true).map_err(|e| problems.push(e)).ok());
    }

    let mut report = Report {
        commit: commit(),
        nproc: std::thread::available_parallelism().map_or(1, |p| p.get()) as u64,
        cpu_model: cpu_model(),
        seed: opts.seed,
        reps: opts.reps as u64,
        seconds: opts.seconds,
        smoke: opts.smoke,
        note: UNVALIDATED.into(),
        workloads: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    for (w, name) in WORKLOADS.iter().enumerate() {
        let runs = &timed[w];
        let all = runs.iter().chain(traced[w].iter());
        let (mut attempted, mut failed) = (0, 0);
        let mut digest: Option<&str> = None;
        for d in all {
            attempted += d.attempted;
            failed += d.failed;
            problems.extend(d.notes.iter().map(|n| format!("{name}: {n}")));
            match digest {
                None => digest = Some(&d.digest),
                Some(first) if first != d.digest => {
                    failed += 1;
                    problems.push(format!(
                        "{name}: digest {} of a {} run differs from {first}",
                        d.digest,
                        if d.trace { "traced" } else { "timed" }
                    ));
                }
                Some(_) => {}
            }
        }
        report.workloads.push(WorkloadRow {
            workload: name.to_string(),
            digest: digest.unwrap_or_default().to_string(),
            headline: runs.first().map(|d| d.headline.clone()).unwrap_or_default(),
            attempted,
            failed,
            failed_ops_frac: failed as f64 / attempted.max(1) as f64,
        });
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|d| d.metrics.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            if values.len() != opts.reps {
                problems.push(format!(
                    "{name}: {} reported in {} of {} rounds",
                    m.name,
                    values.len(),
                    opts.reps
                ));
            }
            if values.is_empty() {
                continue;
            }
            let (q1, median, q3) = quartiles(&values);
            report.end_to_end.push(Row {
                workload: name.to_string(),
                name: m.name.to_string(),
                unit: m.unit.to_string(),
                median,
                q1,
                q3,
                n: values.len() as u64,
                values,
            });
        }
        for m in PER_LAYER {
            match traced[w]
                .as_ref()
                .and_then(|d| d.metrics.iter().find(|x| x.name == m.name))
            {
                Some(x) => report.per_layer.push(LayerRow {
                    workload: name.to_string(),
                    name: m.name.to_string(),
                    unit: m.unit.to_string(),
                    value: x.value,
                }),
                None => problems.push(format!("{name}: traced run did not report {}", m.name)),
            }
        }
    }
    // The sharded engine must reproduce the serial engine's bytes.
    let digest_of = |w: &str| {
        report
            .workloads
            .iter()
            .find(|r| r.workload == w)
            .map(|r| r.digest.clone())
    };
    if digest_of("paper_advc_s2") != digest_of("paper_advc") {
        problems.push("paper_advc_s2 digest differs from paper_advc".into());
    }

    print_report(&report);
    if let Err(e) = write_json(&opts.out, &report) {
        problems.push(format!("writing {}: {e}", opts.out.display()));
    }
    if let Some(path) = &opts.history {
        if let Err(e) = append_history(path, &report) {
            problems.push(format!("appending {}: {e}", path.display()));
        }
    }
    for p in &problems {
        eprintln!("df-perf: FAILED: {p}");
    }
    i32::from(!problems.is_empty())
}

fn write_json(path: &Path, report: &Report) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text =
        serde_json::to_string_pretty(report).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, text + "\n")
}

/// One line of `results/history.jsonl`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HistoryLine {
    commit: String,
    seed: u64,
    workload: String,
    name: String,
    unit: String,
    median: f64,
    q1: f64,
    q3: f64,
    n: u64,
}

fn append_history(path: &Path, report: &Report) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for r in &report.end_to_end {
        let line = HistoryLine {
            commit: report.commit.clone(),
            seed: report.seed,
            workload: r.workload.clone(),
            name: r.name.clone(),
            unit: r.unit.clone(),
            median: r.median,
            q1: r.q1,
            q3: r.q3,
            n: r.n,
        };
        let text =
            serde_json::to_string(&line).map_err(|e| std::io::Error::other(e.to_string()))?;
        writeln!(f, "{text}")?;
    }
    Ok(())
}

fn print_report(report: &Report) {
    println!(
        "commit {}  nproc {}  cpu {}  seed {}  reps {}  seconds {}{}",
        report.commit,
        report.nproc,
        report.cpu_model,
        report.seed,
        report.reps,
        report.seconds,
        if report.smoke { "  (smoke scale)" } else { "" }
    );
    println!("{}", report.note);
    println!();
    println!(
        "{:<15} {:<18} {:>6} {:>16} {:>16} {:>16} {:>3}",
        "workload", "metric", "unit", "median", "q1", "q3", "n"
    );
    for r in &report.end_to_end {
        println!(
            "{:<15} {:<18} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>3}",
            r.workload, r.name, r.unit, r.median, r.q1, r.q3, r.n
        );
    }
    println!();
    for w in &report.workloads {
        println!(
            "{:<15} digest {}  failed_ops_frac {} ({}/{})  throughput {:.6}  avg_latency {:.3}  router_cov {:.6}",
            w.workload,
            w.digest,
            w.failed_ops_frac,
            w.failed,
            w.attempted,
            w.headline.throughput,
            w.headline.avg_latency,
            w.headline.router_cov
        );
    }
    println!();
    println!(
        "{:<15} {:<36} {:>6} {:>18}  (traced pass, n = 1)",
        "workload", "per-layer metric", "unit", "value"
    );
    for r in &report.per_layer {
        println!(
            "{:<15} {:<36} {:>6} {:>18.6}",
            r.workload, r.name, r.unit, r.value
        );
    }
}

/// Verdict on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's quartile spread is wider than the bound: the runs cannot
    /// resolve a change of that size.
    Unresolved,
}

/// Judge B against A for one metric.
pub fn judge(better: Better, bound: f64, a: &Row, b: &Row) -> Verdict {
    if spread(&a.values) > bound || spread(&b.values) > bound {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => b.median > a.median * (1.0 + bound),
        Better::Higher => b.median < a.median * (1.0 - bound),
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `df-perf compare A.json B.json`. Returns the process exit code:
/// non-zero on a `worse` verdict or an exact-count mismatch.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("df-perf: {e}");
            }
            return 2;
        }
    };
    println!(
        "A = {} (commit {}), B = {} (commit {})",
        a_path.display(),
        a.commit,
        b_path.display(),
        b.commit
    );
    println!(
        "{:<15} {:<18} {:>6} {:>14} {:>22} {:>14} {:>22} {:>16}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "B/A (base A)"
    );
    let mut bad = 0;
    for ra in &a.end_to_end {
        let Some(m) = END_TO_END.iter().find(|m| m.name == ra.name) else {
            continue;
        };
        let Some(rb) = b
            .end_to_end
            .iter()
            .find(|r| r.workload == ra.workload && r.name == ra.name)
        else {
            println!("{:<15} {:<18} missing from B", ra.workload, ra.name);
            bad += 1;
            continue;
        };
        let verdict = judge(m.better, m.bound, ra, rb);
        bad += i32::from(verdict == Verdict::Worse);
        println!(
            "{:<15} {:<18} {:>6} {:>14.6} {:>22} {:>14.6} {:>22} {:>7.4} ({:.6})  {}",
            ra.workload,
            ra.name,
            ra.unit,
            ra.median,
            format!("{:.5}..{:.5}", ra.q1, ra.q3),
            rb.median,
            format!("{:.5}..{:.5}", rb.q1, rb.q3),
            rb.median / ra.median,
            ra.median,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    // Counts made by the program repeat exactly for one seed and scale.
    if a.seed == b.seed && a.smoke == b.smoke {
        for la in a.per_layer.iter().filter(|r| r.unit == "count") {
            let lb = b
                .per_layer
                .iter()
                .find(|r| r.workload == la.workload && r.name == la.name);
            if lb.map(|r| r.value) != Some(la.value) {
                println!(
                    "{:<15} {:<36} count differs: A {} B {:?}",
                    la.workload,
                    la.name,
                    la.value,
                    lb.map(|r| r.value)
                );
                bad += 1;
            }
        }
        for wa in &a.workloads {
            let wb = b.workloads.iter().find(|w| w.workload == wa.workload);
            if wb.map(|w| (&w.digest, &w.headline)) != Some((&wa.digest, &wa.headline)) {
                println!(
                    "{:<15} simulated statistics differ between A and B",
                    wa.workload
                );
            }
        }
    } else {
        println!("seeds or scales differ: exact counts and digests not compared");
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: &[f64]) -> Row {
        let (q1, median, q3) = quartiles(values);
        Row {
            workload: "w".into(),
            name: "m".into(),
            unit: "s".into(),
            median,
            q1,
            q3,
            n: values.len() as u64,
            values: values.to_vec(),
        }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let a = row(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let slower = row(&[120.0, 121.0, 119.0, 120.0, 120.5]);
        let close = row(&[105.0, 106.0, 104.0, 105.0, 105.5]);
        let noisy = row(&[80.0, 100.0, 125.0, 90.0, 115.0]);
        assert_eq!(judge(Better::Lower, 0.10, &a, &slower), Verdict::Worse);
        assert_eq!(judge(Better::Higher, 0.10, &a, &slower), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.10, &a, &close), Verdict::Ok);
        assert_eq!(judge(Better::Higher, 0.10, &slower, &a), Verdict::Worse);
        assert_eq!(judge(Better::Lower, 0.10, &a, &noisy), Verdict::Unresolved);
    }
}
