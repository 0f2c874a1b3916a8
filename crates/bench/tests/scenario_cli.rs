//! `scenario` and `sweep` through the real binaries: a machine the
//! simulator cannot build is an admission error (exit 2, one `error:`
//! line naming the radix), not a panic inside the router constructor with
//! a backtrace; `--shards 2` prints and writes the serial run's bytes; and
//! `--shards 0` is a usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Write `json` to a per-process temp file named after `tag`.
fn spec_file(tag: &str, json: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("df-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, json).unwrap();
    path
}

/// Run `bin` with `args`, asserting it succeeded.
fn run_ok(bin: &str, args: &[&str]) -> Output {
    let out = Command::new(bin).args(args).output().unwrap();
    assert!(out.status.success(), "{bin} {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// Two jobs on the Figure 1 machine (9 groups) — an ADVc job and a
/// uniform one — under two mechanisms, a few hundred cycles.
const TINY_SCENARIO: &str = r#"{
  "name": "tiny-shards",
  "params": { "p": 2, "a": 4, "h": 2 },
  "arrangement": "Palmtree",
  "mechanisms": ["in-transit-mm", "oblivious-crg"],
  "arbiter": "TransitPriority",
  "warmup_cycles": 200,
  "measure_cycles": 400,
  "jobs": [
    {
      "name": "advc",
      "placement": { "placement": "consecutive_groups", "first": 0, "count": 4 },
      "pattern": { "pattern": "adv_consecutive" },
      "injection": { "process": "bernoulli" },
      "load": 0.5
    },
    {
      "name": "uniform",
      "placement": { "placement": "consecutive_groups", "first": 5, "count": 3 },
      "pattern": { "pattern": "uniform" },
      "injection": { "process": "bernoulli" },
      "load": 0.3
    }
  ]
}"#;

/// A four-cell grid over the one-job form of the same machine.
const TINY_SWEEP: &str = r#"{
  "name": "tiny-shards-grid",
  "base": {
    "name": "one-job",
    "params": { "p": 2, "a": 4, "h": 2 },
    "arrangement": "Palmtree",
    "mechanisms": ["in-transit-mm"],
    "arbiter": "TransitPriority",
    "warmup_cycles": 200,
    "measure_cycles": 400,
    "jobs": [
      {
        "name": "app",
        "placement": { "placement": "consecutive_groups", "first": 0, "count": 3 },
        "pattern": { "pattern": "uniform" },
        "injection": { "process": "bernoulli" },
        "load": 0.3
      }
    ]
  },
  "loads": [0.3, 0.8],
  "mechanisms": ["in-transit-mm", "oblivious-crg"]
}"#;

#[test]
fn a_radix_past_64_exits_2_naming_it() {
    // The bundled interference scenario's shape on p 30, a 36, h 2: radix 67.
    let spec = r#"{
      "name": "radix-67",
      "params": { "p": 30, "a": 36, "h": 2 },
      "arrangement": "Palmtree",
      "mechanisms": ["in-transit-crg"],
      "arbiter": "TransitPriority",
      "warmup_cycles": 100,
      "measure_cycles": 100,
      "jobs": [{
        "name": "uniform",
        "placement": { "placement": "consecutive_groups", "first": 0, "count": 2 },
        "pattern": { "pattern": "uniform" },
        "injection": { "process": "bernoulli" },
        "load": 0.3
      }]
    }"#;
    let path = spec_file("radix-67", spec);
    let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
        .arg(&path)
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: params: radix 67"), "{stderr}");
    assert!(!stderr.contains("panicked") && !stderr.contains("backtrace"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// `scenario --quick --shards 2` prints exactly what the serial run
/// prints: the tables and the summary JSON.
#[test]
fn scenario_shards_2_prints_the_serial_stdout() {
    let path = spec_file("tiny-shards-scenario", TINY_SCENARIO);
    let spec = path.to_str().unwrap();
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let serial = run_ok(scenario, &["--quick", spec]).stdout;
    let sharded = run_ok(scenario, &["--quick", "--shards", "2", spec]).stdout;
    std::fs::remove_file(&path).unwrap();
    assert!(String::from_utf8(serial.clone()).unwrap().contains("== In-Trns-MM =="));
    assert_eq!(sharded, serial, "--shards 2 changed the scenario's stdout");
}

/// `sweep --quick --shards 2 --csv` writes exactly the serial run's CSV.
#[test]
fn sweep_shards_2_writes_the_serial_csv() {
    let path = spec_file("tiny-shards-sweep", TINY_SWEEP);
    let spec = path.to_str().unwrap();
    let csv =
        |name: &str| std::env::temp_dir().join(format!("df-{name}-{}.csv", std::process::id()));
    let (serial_csv, sharded_csv) = (csv("serial"), csv("sharded"));
    let sweep = env!("CARGO_BIN_EXE_sweep");
    run_ok(sweep, &["--quick", "--csv", serial_csv.to_str().unwrap(), spec]);
    run_ok(sweep, &["--quick", "--shards", "2", "--csv", sharded_csv.to_str().unwrap(), spec]);
    let (serial, sharded) =
        (std::fs::read(&serial_csv).unwrap(), std::fs::read(&sharded_csv).unwrap());
    for file in [&path, &serial_csv, &sharded_csv] {
        std::fs::remove_file(file).unwrap();
    }
    assert_eq!(String::from_utf8(serial.clone()).unwrap().lines().count(), 1 + 4 * 2);
    assert_eq!(sharded, serial, "--shards 2 changed the sweep's CSV");
}

/// Zero shards is a usage error in both bins, before any spec is read.
#[test]
fn shards_0_exits_2() {
    for bin in [env!("CARGO_BIN_EXE_scenario"), env!("CARGO_BIN_EXE_sweep")] {
        let out = Command::new(bin).args(["--shards", "0", "spec.json"]).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.starts_with("error: --shards needs a positive number"), "{stderr}");
        assert!(out.stdout.is_empty());
    }
}
