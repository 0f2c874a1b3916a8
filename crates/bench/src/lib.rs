//! Shared harness code for the figure/table regeneration binaries.
//!
//! Every binary accepts the same core flags:
//!
//! * `--paper-scale` — run the full 5,256-node network of Table I
//!   (slow; default is the reduced h=3, 342-node network whose bottleneck
//!   structure is identical),
//! * `--priority transit|none|age` — output-arbiter policy,
//! * `--pattern un|adv1|advc` — traffic pattern (where applicable),
//! * `--quick` — single seed, coarser load grid (smoke runs),
//! * `--seeds N` — number of averaged seeds (default 3, as in the paper),
//! * `--out PATH` — also dump the raw results as JSON.

use dragonfly_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::PathBuf;

/// Parsed common flags.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Full-scale (h=6) network instead of the reduced default.
    pub paper_scale: bool,
    /// Arbiter policy selected via `--priority`.
    pub arbiter: ArbiterPolicy,
    /// Pattern selected via `--pattern` (default ADVc).
    pub pattern: PatternSpec,
    /// Single-seed, coarse-grid smoke mode.
    pub quick: bool,
    /// Seeds to average.
    pub seeds: Vec<u64>,
    /// Optional JSON output path.
    pub out: Option<PathBuf>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            paper_scale: false,
            arbiter: ArbiterPolicy::TransitPriority,
            pattern: PatternSpec::AdvConsecutive { spread: None },
            quick: false,
            seeds: DEFAULT_SEEDS.to_vec(),
            out: None,
        }
    }
}

impl CommonArgs {
    /// Parse `std::env::args`, exiting with a message on unknown flags.
    pub fn parse() -> Self {
        let mut args = Self::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--paper-scale" => args.paper_scale = true,
                "--quick" => {
                    args.quick = true;
                    args.seeds = vec![DEFAULT_SEEDS[0]];
                }
                "--priority" => {
                    let v = it.next().unwrap_or_default();
                    args.arbiter = match v.as_str() {
                        "transit" => ArbiterPolicy::TransitPriority,
                        "none" => ArbiterPolicy::RoundRobin,
                        "age" => ArbiterPolicy::AgeBased,
                        other => die(&format!("unknown --priority {other}")),
                    };
                }
                "--pattern" => {
                    let v = it.next().unwrap_or_default();
                    args.pattern = match v.as_str() {
                        "un" => PatternSpec::Uniform,
                        "adv1" => PatternSpec::Adversarial { offset: 1 },
                        "advc" => PatternSpec::AdvConsecutive { spread: None },
                        other => die(&format!("unknown --pattern {other}")),
                    };
                }
                "--seeds" => {
                    let n = it.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                    args.seeds = seed_list(n).unwrap_or_else(|e| die(&e));
                }
                "--out" => {
                    args.out = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| die("--out needs a path")),
                    ));
                }
                other => die(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// Base configuration for this harness.
    pub fn base_config(&self, mechanism: MechanismSpec, load: f64) -> SimConfig {
        if self.paper_scale {
            SimConfig::paper(mechanism, self.arbiter, self.pattern.clone(), load)
        } else {
            SimConfig::small(mechanism, self.arbiter, self.pattern.clone(), load)
        }
    }

    /// Load grid: the standard 20-point grid, or 6 points in quick mode.
    pub fn load_grid(&self) -> Vec<f64> {
        if self.quick {
            vec![0.1, 0.2, 0.3, 0.4, 0.6, 0.8]
        } else {
            standard_load_grid()
        }
    }

    /// Human-readable description of the arbiter for headers.
    pub fn priority_label(&self) -> &'static str {
        match self.arbiter {
            ArbiterPolicy::TransitPriority => "transit-over-injection priority",
            ArbiterPolicy::RoundRobin => "no transit priority (round-robin)",
            ArbiterPolicy::AgeBased => "age-based arbitration",
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: <figure-bin> [--paper-scale] [--priority transit|none|age] \
         [--pattern un|adv1|advc] [--quick] [--seeds N] [--out PATH]"
    );
    std::process::exit(2);
}

/// The seed list behind every binary's `--seeds N`: `N` seeds starting
/// at the paper protocol's first seed, 31 apart. `N = 0` is a usage
/// error — the runners average over the list and need at least one.
pub fn seed_list(n: u64) -> Result<Vec<u64>, String> {
    if n == 0 {
        return Err("--seeds needs a positive number".into());
    }
    Ok((0..n).map(|i| DEFAULT_SEEDS[0] + i * 31).collect())
}

/// Print a one-line error and exit 1. For runtime failures (I/O,
/// serialization, simulation errors); usage errors exit 2 via each
/// binary's own `die`. Keeps CLI failures to a single stderr line
/// instead of an unwrap backtrace.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// One line of a `--timeline out.jsonl` stream: the run coordinates plus
/// one closed telemetry window. The vendored serde has no
/// `#[serde(flatten)]`, so the window row nests under `window` — see
/// `docs/OBSERVABILITY.md` for the full schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineLine {
    /// Scenario name.
    pub scenario: String,
    /// Mechanism label of the run.
    pub mechanism: String,
    /// Master seed of the run.
    pub seed: u64,
    /// The closed window.
    pub window: WindowRow,
}

/// A streaming sink for [`dragonfly_core::CellOptions::timeline`]: each
/// closed window is appended to `file` as one compact JSON line (and
/// flushed, so a consumer tailing the file sees rows as they close).
pub fn timeline_sink(
    mut file: std::fs::File,
    scenario: String,
    mechanism: String,
    seed: u64,
) -> TimelineSink {
    Box::new(move |row| {
        let line = TimelineLine {
            scenario: scenario.clone(),
            mechanism: mechanism.clone(),
            seed,
            window: row.clone(),
        };
        let text = serde_json::to_string(&line)
            .unwrap_or_else(|e| fail(&format!("serialize timeline line: {e}")));
        writeln!(file, "{text}")
            .unwrap_or_else(|e| fail(&format!("write timeline line: {e}")));
        file.flush().unwrap_or_else(|e| fail(&format!("flush timeline line: {e}")));
    })
}

/// Create (truncate) a `--timeline` JSONL output file.
pub fn create_timeline_file(path: &PathBuf) -> Result<std::fs::File, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))
}

/// Write any serializable value as pretty JSON.
pub fn write_json<T: Serialize>(path: &PathBuf, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let json =
        serde_json::to_string_pretty(value).map_err(|e| format!("serialize results: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Print a latency/throughput sweep as two aligned text tables, mirroring
/// the paper's paired plots.
pub fn print_sweep(mechanism_labels: &[&str], sweeps: &[Vec<AveragedResult>]) {
    assert_eq!(mechanism_labels.len(), sweeps.len());
    println!("\n== Average packet latency (cycles) vs offered load ==");
    print!("{:>6}", "load");
    for m in mechanism_labels {
        print!("{m:>13}");
    }
    println!();
    let points = sweeps[0].len();
    for i in 0..points {
        print!("{:>6.2}", sweeps[0][i].load);
        for s in sweeps {
            print!("{:>13.1}", s[i].avg_latency);
        }
        println!();
    }
    println!("\n== Accepted load (phits/node/cycle) vs offered load ==");
    print!("{:>6}", "load");
    for m in mechanism_labels {
        print!("{m:>13}");
    }
    println!();
    for i in 0..points {
        print!("{:>6.2}", sweeps[0][i].load);
        for s in sweeps {
            print!("{:>13.4}", s[i].throughput);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_mirror_paper_protocol() {
        let a = CommonArgs::default();
        assert_eq!(a.seeds.len(), 3);
        assert_eq!(a.arbiter, ArbiterPolicy::TransitPriority);
        assert!(matches!(a.pattern, PatternSpec::AdvConsecutive { spread: None }));
    }

    #[test]
    fn base_config_scales() {
        let mut a = CommonArgs::default();
        let small = a.base_config(MechanismSpec::Min, 0.4);
        assert_eq!(small.params.nodes(), 342);
        a.paper_scale = true;
        let full = a.base_config(MechanismSpec::Min, 0.4);
        assert_eq!(full.params.nodes(), 5256);
    }

    #[test]
    fn seed_list_rejects_zero_and_spaces_seeds_by_31() {
        assert!(seed_list(0).is_err());
        assert_eq!(seed_list(3).unwrap(), [11, 42, 73]);
    }

    #[test]
    fn quick_grid_is_subset() {
        let a = CommonArgs { quick: true, ..CommonArgs::default() };
        assert!(a.load_grid().len() < standard_load_grid().len());
    }
}
