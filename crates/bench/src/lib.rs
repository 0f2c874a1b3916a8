//! Shared harness code for the `df-bench` binaries: `figure` (every
//! paper artifact — Figures 2–6, Tables II/III and the two ablations —
//! from one table of definitions over `dragonfly_core::run_grid`),
//! `scenario`, `sweep`, `df-serve` and `df-submit`.
//!
//! What they share lives here: the flag-value readers every argument
//! loop goes through (a missing or malformed value is an `Err` the bin
//! reports through its own usage text, exit 2), the `--seeds N` /
//! `--quick` seed lists, `--quick`'s cycle budgets, the `--timeline`
//! JSONL writer and the `--out` JSON writer.

#![forbid(unsafe_code)]

use dragonfly_core::prelude::*;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The argument after `flag`, or the usage error "`flag` needs `what`".
pub fn flag_value(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs {what}"))
}

/// The path after `flag`.
pub fn flag_path(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<PathBuf, String> {
    flag_value(it, flag, "a path").map(PathBuf::from)
}

/// The number after `flag`.
pub fn flag_number<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    flag_value(it, flag, "a number")?.parse().map_err(|_| format!("{flag} needs a number"))
}

/// `n` seeds: the paper protocol's ([`DEFAULT_SEEDS`]) first, then 31
/// apart from the last of them — so `--seeds 3` is the default protocol.
fn seed_list(n: u64) -> Vec<u64> {
    let beyond = (1..).map(|k| DEFAULT_SEEDS[2] + 31 * k);
    DEFAULT_SEEDS.iter().copied().chain(beyond).take(n as usize).collect()
}

/// The seed list after `--seeds N`: the first `N` of 11, 23, 47 (the
/// paper protocol, [`DEFAULT_SEEDS`]), 78, 109, … `N` must be positive —
/// the runners average over the list and need at least one seed.
pub fn flag_seeds(it: &mut impl Iterator<Item = String>) -> Result<Vec<u64>, String> {
    flag_number(it, "--seeds")
        .ok()
        .filter(|&n| n > 0)
        .map(seed_list)
        .ok_or_else(|| "--seeds needs a positive number".into())
}

/// The seeds of a run that gave no `--seeds`: the protocol's three, or
/// its first alone under `--quick`. Bins resolve this after their
/// argument loop, so `--seeds N --quick` keeps `N` in either order.
pub fn default_seeds(quick: bool) -> Vec<u64> {
    seed_list(if quick { 1 } else { DEFAULT_SEEDS.len() as u64 })
}

/// `--quick` on a scenario: warm-up capped at 2,000 cycles, measurement
/// at 4,000. What `scenario --quick` and `df-submit --quick` run, and the
/// protocol the golden digests pin.
pub fn quick_scenario(spec: &mut ScenarioSpec) {
    spec.warmup_cycles = spec.warmup_cycles.min(2_000);
    spec.measure_cycles = spec.measure_cycles.min(4_000);
}

/// `--quick` on a sweep: the base scenario's warm-up capped at 1,000
/// cycles, its measurement at 2,000. What `sweep --quick` and
/// `df-submit --sweep --quick` run, and the protocol the golden digests
/// pin.
pub fn quick_sweep(spec: &mut SweepSpec) {
    spec.base.warmup_cycles = spec.base.warmup_cycles.min(1_000);
    spec.base.measure_cycles = spec.base.measure_cycles.min(2_000);
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
        writeln!(file, "{text}").unwrap_or_else(|e| fail(&format!("write timeline line: {e}")));
        file.flush().unwrap_or_else(|e| fail(&format!("flush timeline line: {e}")));
    })
}

/// Create the directory an output file goes into, and its parents.
pub fn create_parent_dir(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
        }
        None => Ok(()),
    }
}

/// Create (truncate) a `--timeline` JSONL output file.
pub fn create_timeline_file(path: &PathBuf) -> Result<std::fs::File, String> {
    create_parent_dir(path)?;
    std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))
}

/// Write any serializable value as pretty JSON.
pub fn write_json<T: Serialize>(path: &PathBuf, value: &T) -> Result<(), String> {
    create_parent_dir(path)?;
    let json =
        serde_json::to_string_pretty(value).map_err(|e| format!("serialize results: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter().map(|s| s.to_string()).collect::<Vec<_>>().into_iter()
    }

    #[test]
    fn seed_list_is_the_protocol_then_31_apart() {
        assert!(seed_list(0).is_empty());
        assert_eq!(seed_list(1), [11]);
        assert_eq!(seed_list(3), DEFAULT_SEEDS);
        assert_eq!(seed_list(5), [11, 23, 47, 78, 109]);
        assert_eq!(default_seeds(true), [11]);
        assert_eq!(default_seeds(false), DEFAULT_SEEDS);
    }

    #[test]
    fn flag_readers_take_the_next_argument_or_name_the_flag() {
        assert_eq!(flag_path(&mut args(&["a/b.json"]), "--out"), Ok(PathBuf::from("a/b.json")));
        assert_eq!(flag_path(&mut args(&[]), "--out"), Err("--out needs a path".into()));
        assert_eq!(flag_number::<u64>(&mut args(&["0"]), "--queue-depth"), Ok(0));
        assert_eq!(
            flag_number::<u64>(&mut args(&["x"]), "--workers"),
            Err("--workers needs a number".into())
        );
        assert_eq!(flag_seeds(&mut args(&["2"])), Ok(vec![11, 23]));
        for bad in [&["0"][..], &["-1"], &["two"], &[]] {
            assert_eq!(flag_seeds(&mut args(bad)), Err("--seeds needs a positive number".into()));
        }
    }
}
