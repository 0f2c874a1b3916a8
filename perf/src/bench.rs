//! What every workload shares: options, the metric row, the per-run
//! detail record, the time box, correctness bookkeeping, pinned expected
//! digests, and the process-level probes (peak RSS, run-queue wait,
//! calibration loop).

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// The seed `expected.json` pins digests for.
pub const DEFAULT_SEED: u64 = 11;

/// Workload names, in the fixed round-robin order of `df-perf run`.
pub const WORKLOADS: [&str; 5] = [
    "paper_advc",
    "paper_un_pb",
    "paper_advc_s2",
    "sweep_grid",
    "service_mix",
];

/// Options of one workload run (the contract's flags plus `--smoke`).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: String,
    /// Input seed: simulation master seed / sweep seed base / job seed.
    pub seed: u64,
    /// Measuring time of the untraced pass, in seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the timed pass.
    pub trace: bool,
    /// Reduced scale (figure1 machine, one sweep seed, a small service
    /// mix) for `check.sh`; one rep is enough.
    pub smoke: bool,
    /// Where trace files and scratch state go (inside the checkout).
    pub out_dir: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, exactly as in `BENCHMARK.json`.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// The value as measured.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }
}

/// Headline *simulated* statistics of a workload's result — deterministic
/// per seed, so two commits compare exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    /// Accepted throughput, phits/(node·cycle).
    pub throughput: f64,
    /// Mean packet latency, cycles.
    pub avg_latency: f64,
    /// Per-router injection coefficient of variation.
    pub router_cov: f64,
}

/// Everything one workload run reports: the second-to-last stdout line
/// (the last line is the contract's four-key object derived from this).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Detail {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// Traced pass?
    pub trace: bool,
    /// Reduced scale?
    pub smoke: bool,
    /// Timed repetitions inside this run.
    pub reps: u64,
    /// Operations attempted (runs, sweep units, service jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong digest.
    pub failed: u64,
    /// `failed == 0`.
    pub correct: bool,
    /// Digest of the workload's result document(s).
    pub digest: String,
    /// Headline simulated statistics.
    pub headline: Headline,
    /// What went wrong, if anything (one line per failure).
    pub notes: Vec<String>,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl Detail {
    /// Close the books of a run: `checks` decides `correct`.
    pub fn new(
        opts: &Opts,
        reps: usize,
        checks: Checks,
        digest: String,
        headline: Headline,
        metrics: Vec<Metric>,
    ) -> Self {
        Detail {
            workload: opts.workload.clone(),
            seed: opts.seed,
            trace: opts.trace,
            smoke: opts.smoke,
            reps: reps as u64,
            attempted: checks.attempted,
            failed: checks.failed,
            correct: checks.failed == 0,
            digest,
            headline,
            notes: checks.notes,
            metrics,
        }
    }

    /// The contract's last stdout line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, with every value printed in full.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {:?}, \"unit\": {:?}}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Attempted/failed bookkeeping plus the digest equalities.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (each digest mismatch counts as one).
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(why);
    }

    /// Require two digests to be equal.
    pub fn same(&mut self, what: &str, got: &str, want: &str) {
        if got != want {
            self.fail(format!("{what}: digest {got} != {want}"));
        }
    }

    /// Require the default-seed result to match `expected.json`; at any
    /// other seed the pinned comparison is skipped (the cross-rep and
    /// cross-path equalities still gate).
    pub fn pinned(&mut self, opts: &Opts, digest: &str, headline: &Headline) {
        let expected = Expected::load();
        if opts.seed != expected.seed {
            return;
        }
        let rows = if opts.smoke {
            &expected.smoke
        } else {
            &expected.full
        };
        match rows.iter().find(|r| r.workload == opts.workload) {
            Some(row) => {
                self.same("expected.json", digest, &row.digest);
                if row.headline != *headline {
                    self.fail(format!(
                        "expected.json: headline {:?} != {:?}",
                        headline, row.headline
                    ));
                }
            }
            None => self.fail(format!("expected.json has no row for {}", opts.workload)),
        }
    }
}

/// One pinned row of `workloads/expected.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExpectedRow {
    /// Workload name.
    pub workload: String,
    /// Digest of its result document(s) at the pinned seed.
    pub digest: String,
    /// Its headline simulated statistics.
    pub headline: Headline,
}

/// `workloads/expected.json`: default-seed digests and headline
/// statistics at full and smoke scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Expected {
    /// The seed the rows were recorded at.
    pub seed: u64,
    /// Full-scale rows.
    pub full: Vec<ExpectedRow>,
    /// `--smoke` rows.
    pub smoke: Vec<ExpectedRow>,
}

impl Expected {
    /// The committed file, embedded at build time.
    pub fn load() -> Self {
        serde_json::from_str(include_str!("../workloads/expected.json"))
            .expect("perf/workloads/expected.json parses")
    }
}

/// The time box of an untraced run: keep repeating while the next
/// repetition is expected to end inside `seconds`, but never stop before
/// `min_reps` (a median needs three; a smoke run one).
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_reps: usize,
}

impl Budget {
    /// Start the clock.
    pub fn new(opts: &Opts) -> Self {
        Self {
            start: Instant::now(),
            seconds: opts.seconds,
            min_reps: if opts.smoke { 1 } else { 3 },
        }
    }

    /// Whether to run another repetition after `done`, the last of which
    /// took `last_s` seconds.
    pub fn more(&self, done: usize, last_s: f64) -> bool {
        done < self.min_reps || self.start.elapsed().as_secs_f64() + last_s <= self.seconds
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-ups timed per run for `setup_s`.
pub const SETUP_SAMPLES: usize = 48;

/// The seconds `set_up(i)` reports over [`SETUP_SAMPLES`] calls made back
/// to back, after two discarded ones (the process's first set-up pays
/// the page faults of a cold heap: 3× the rest), reduced to the median
/// of their faster half. The slower half is dropped because set-up
/// times come in two modes that each last for a run of samples — for the
/// service 1.1 and 1.45 ms, by which core the new threads land on — and
/// the plain median is whichever mode holds 25 of the 48: across six
/// processes it read 1.12–1.48 ms where this reads 1.06–1.23.
///
/// The set-ups a workload makes between its repetitions are *not*
/// pooled in: they run on a heap the previous repetition left
/// fragmented and cost 20–60 % more, and an estimate over the two kinds
/// moves with the repetition count. A set-up that fails (`None`)
/// contributes no sample.
pub fn median_setup_s(mut set_up: impl FnMut(usize) -> Option<f64>) -> Option<f64> {
    let mut samples: Vec<f64> = (0..SETUP_SAMPLES + 2)
        .filter_map(|i| set_up(i).filter(|_| i >= 2))
        .collect();
    samples.sort_by(f64::total_cmp);
    samples.truncate(samples.len().div_ceil(2));
    (!samples.is_empty()).then(|| crate::stats::median(&samples))
}

/// Median microseconds of `f(i)` over calls `i = 0..n`, each timed alone.
pub fn median_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            secs(t) * 1e6
        })
        .collect();
    crate::stats::median(&samples)
}

/// What one section of a traced pass (simulation, sweep, service) hands
/// back.
pub struct Section {
    /// The section's per-layer rows.
    pub metrics: Vec<Metric>,
    /// Digest of the section's result document(s), traced ≡ untraced.
    pub digest: String,
    /// Headline statistics of that result.
    pub headline: Headline,
    /// Traced wall / untraced wall − 1, taken literally. For the
    /// simulation that is the cost of the timing wrappers; for the sweep
    /// it is one-by-one over parallel, i.e. the price of running the
    /// units one at a time (spans around whole units cost nothing); for
    /// the service it is one mix against another.
    pub trace_overhead_frac: f64,
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds the main thread spent runnable but waiting for a CPU
/// (`/proc/self/schedstat`, second field). The share of wall time this
/// takes says how much the scheduler, not the program, was measured.
pub fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Fixed calibration loop: 2²⁰ dependent loads chasing a full-period
/// LCG permutation over an 8 MB table, each followed by a little integer
/// mixing. Returns ns per step. Dividing any timing row by this gives a
/// machine-normalised reading; it is not itself a measurement of the
/// simulator.
pub fn calib_ns() -> f64 {
    const N: usize = 1 << 20;
    let table: Vec<u64> = (0..N as u64)
        .map(|i| (i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223)) & (N as u64 - 1))
        .collect();
    let t = Instant::now();
    let mut i = 0u64;
    let mut acc = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..N {
        i = table[i as usize];
        acc ^= i;
        acc = acc.rotate_left(13).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    ns / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_full_digits() {
        let d = Detail {
            workload: "w".into(),
            seed: 1,
            trace: false,
            smoke: true,
            reps: 1,
            attempted: 3,
            failed: 0,
            correct: true,
            digest: String::new(),
            headline: Headline::default(),
            notes: vec![],
            metrics: vec![
                metric("setup_s", "s", 0.012345678901234),
                metric("n", "count", 2.0),
            ],
        };
        assert_eq!(
            d.contract_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.012345678901234, \"unit\": \"s\"}, \
             \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn calibration_table_is_one_cycle() {
        // The LCG must visit all 2^20 slots before returning to 0, or
        // the chase would loop inside a small, cache-resident subset.
        const N: u64 = 1 << 20;
        let mut i = 0u64;
        let mut steps = 0u64;
        loop {
            i = (i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223)) & (N - 1);
            steps += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(steps, N);
    }

    #[test]
    fn setup_estimate_drops_the_first_two_and_the_slower_half() {
        let mode = |i: usize| match i {
            0 | 1 => 100.0,
            i if i % 2 == 0 => 1.0,
            _ => 2.0,
        };
        assert_eq!(median_setup_s(|i| Some(mode(i))), Some(1.0));
        assert_eq!(median_setup_s(|_| None), None);
    }

    #[test]
    fn checks_count_mismatches_as_failed_operations() {
        let mut c = Checks::default();
        c.attempt(2);
        c.same("a", "x", "x");
        assert_eq!(c.failed, 0);
        c.same("b", "x", "y");
        assert_eq!((c.attempted, c.failed, c.notes.len()), (2, 1, 1));
    }
}
