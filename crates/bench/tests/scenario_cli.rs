//! `scenario` on a machine the simulator cannot build: an admission error
//! through the real binary (exit 2, one `error:` line naming the radix),
//! not a panic inside the router constructor with a backtrace.

use std::process::Command;

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
    let path = std::env::temp_dir().join(format!("df-radix-67-{}.json", std::process::id()));
    std::fs::write(&path, spec).unwrap();
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
