//! Golden-output digests: the `scenario --quick` / `sweep --quick`
//! protocols (`df_bench::quick_scenario` / `quick_sweep`, the budgets the
//! CLIs apply) for every bundled scenario file. Any change to simulation
//! behavior — event ordering, RNG consumption, float accumulation — shows
//! up here as a digest mismatch, so behavior-preservation is enforced by
//! `cargo test -q` and not only by the shell script.
//!
//! The digests cover the *serialized results* (the summary JSON a
//! `scenario` run prints after its tables, and the sweep table's CSV and
//! JSON artifacts), not the human-readable tables. Re-record a digest
//! only for an intentional behavior change, and say so in the commit
//! message (see `docs/DETERMINISM.md`).
//!
//! `golden_pattern_mode` pins the other front door — a `SimConfig` run
//! through `run_single`, what the figure binary and the `perf/` paper
//! workloads use — on the serialized `RunResult` itself.
//!
//! Every digest is asserted twice: once on the serial engine and once at
//! `shards: 2` on the group-sharded engine (the `_sharded` tests, and the
//! inner loop of `golden_pattern_mode`). The shard-count-invariance
//! contract (`docs/DETERMINISM.md`) says they are the same bytes, so each
//! digest is written once, in the helper both tests call — no new goldens
//! exist for sharded runs, by design.

use df_bench::{quick_scenario, quick_sweep};
use dragonfly_core::prelude::*;
use integration_tests::md5_hex;

/// The engines every digest is asserted on: the spec's own (serial for
/// every bundled file), then the group-sharded engine at 2 shards.
const SHARDS: [Option<u32>; 2] = [None, Some(2)];

fn scenarios_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

/// The `scenario --quick [--shards N]` protocol: single seed, the quick
/// cycle budget. Digest of the seed-averaged summary JSON (what the CLI
/// prints to stdout for tooling). `shards` mirrors `--shards` (`None` =
/// the spec's own setting).
fn scenario_quick_digest(file: &str, shards: Option<u32>) -> String {
    let path = scenarios_dir().join(file);
    let mut spec = ScenarioSpec::load(path.to_str().unwrap()).expect("load scenario");
    quick_scenario(&mut spec);
    if shards.is_some() {
        spec.shards = shards;
    }
    let result = run_scenario(&spec, &[DEFAULT_SEEDS[0]]).expect("run scenario");
    let json = serde_json::to_string_pretty(&result.summary()).expect("serialize summary");
    md5_hex(json.as_bytes())
}

/// The `sweep --quick [--shards N]` protocol: single seed, the quick
/// cycle budget. Returns digests of the CSV and JSON artifacts.
fn sweep_quick_digests(file: &str, shards: Option<u32>) -> (String, String) {
    let path = scenarios_dir().join(file);
    let mut spec = SweepSpec::load(path.to_str().unwrap()).expect("load sweep");
    quick_sweep(&mut spec);
    if shards.is_some() {
        spec.base.shards = shards;
    }
    let table = run_sweep(&spec, &[DEFAULT_SEEDS[0]]).expect("run sweep");
    let csv = md5_hex(table.to_csv().as_bytes());
    let json_text = serde_json::to_string_pretty(&table).expect("serialize table");
    (csv, md5_hex(json_text.as_bytes()))
}

fn assert_interference_golden(shards: Option<u32>) {
    assert_eq!(
        scenario_quick_digest("interference_advc_vs_uniform.json", shards),
        "0e6ffb3aa0cf2e890cbe948633eedefa",
        "behavior drift in the interference scenario, shards {shards:?} \
         (see docs/DETERMINISM.md)"
    );
}

fn assert_job_anatomy_golden(shards: Option<u32>) {
    assert_eq!(
        scenario_quick_digest("paper_job_anatomy.json", shards),
        "bf12a27f9d94ef4ce3cfdb41aed39283",
        "behavior drift in the job-anatomy scenario, shards {shards:?} \
         (see docs/DETERMINISM.md)"
    );
}

fn assert_sweep_grid_golden(shards: Option<u32>) {
    let (csv, json) = sweep_quick_digests("sweep_unfairness_grid.json", shards);
    assert_eq!(
        csv, "df045dadf249fc449c1ccc7b3ce548f8",
        "behavior drift in the sweep grid CSV, shards {shards:?} (see docs/DETERMINISM.md)"
    );
    assert_eq!(
        json, "d7d9743204a4108a0e46c87d28c444a3",
        "behavior drift in the sweep grid JSON, shards {shards:?} (see docs/DETERMINISM.md)"
    );
}

#[test]
fn golden_interference_advc_vs_uniform() {
    assert_interference_golden(SHARDS[0]);
}

#[test]
fn golden_interference_advc_vs_uniform_sharded() {
    assert_interference_golden(SHARDS[1]);
}

#[test]
fn golden_paper_job_anatomy() {
    assert_job_anatomy_golden(SHARDS[0]);
}

#[test]
fn golden_paper_job_anatomy_sharded() {
    assert_job_anatomy_golden(SHARDS[1]);
}

#[test]
fn golden_sweep_unfairness_grid() {
    assert_sweep_grid_golden(SHARDS[0]);
}

#[test]
fn golden_sweep_unfairness_grid_sharded() {
    assert_sweep_grid_golden(SHARDS[1]);
}

/// `run_single(SimConfig::small(..))` at load 0.4, seed 11, 1,000 + 2,000
/// cycles: digest of the serialized `RunResult`.
fn pattern_mode_digest(
    mechanism: MechanismSpec,
    pattern: PatternSpec,
    shards: Option<u32>,
) -> String {
    let mut cfg = SimConfig::small(mechanism, ArbiterPolicy::TransitPriority, pattern, 0.4);
    cfg.warmup_cycles = 1_000;
    cfg.measure_cycles = 2_000;
    cfg.seed = 11;
    cfg.shards = shards;
    let json = serde_json::to_string(&run_single(&cfg)).expect("serialize result");
    md5_hex(json.as_bytes())
}

/// Recorded at the commit before `Simulator::step` and `run_cell` were
/// given one generation loop and one destination generator; that change
/// moved none of them.
#[test]
fn golden_pattern_mode() {
    for (mechanism, pattern, digest) in [
        (MechanismSpec::Min, PatternSpec::Uniform, "9c78a722c6bc1c0eb1b4d533f490d54b"),
        (
            MechanismSpec::SourceCrg,
            PatternSpec::Adversarial { offset: 1 },
            "6617549369ca586ae5cf48ec8584e05e",
        ),
        (
            MechanismSpec::InTransitMm,
            PatternSpec::AdvConsecutive { spread: None },
            "a65c2c5de5b3c584678156150bcf4225",
        ),
    ] {
        for shards in SHARDS {
            assert_eq!(
                pattern_mode_digest(mechanism, pattern.clone(), shards),
                digest,
                "behavior drift in a SimConfig run: {} under {}, shards {shards:?} \
                 (see docs/DETERMINISM.md)",
                pattern.label(),
                mechanism.label(),
            );
        }
    }
}
