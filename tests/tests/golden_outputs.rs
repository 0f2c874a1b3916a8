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
//! workloads use — on the serialized `RunResult` itself, once on the
//! serial engine and once at `shards: 2` on the group-sharded engine.
//! The shard-count-invariance contract (`docs/DETERMINISM.md`) says they
//! are the same bytes, so each digest is written once — no golden exists
//! for sharded runs, by design. Scenarios and sweeps always run serial.

use df_bench::{quick_scenario, quick_sweep};
use dragonfly_core::prelude::*;
use integration_tests::md5_hex;

fn scenarios_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios")
}

/// The `scenario --quick` protocol: single seed, the quick cycle budget.
/// Digest of the seed-averaged summary JSON (what the CLI prints to
/// stdout for tooling).
fn scenario_quick_digest(file: &str) -> String {
    let path = scenarios_dir().join(file);
    let mut spec = ScenarioSpec::load(path.to_str().unwrap()).expect("load scenario");
    quick_scenario(&mut spec);
    let result = run_scenario(&spec, &[DEFAULT_SEEDS[0]]).expect("run scenario");
    let json = serde_json::to_string_pretty(&result.summary()).expect("serialize summary");
    md5_hex(json.as_bytes())
}

/// The `sweep --quick` protocol: single seed, the quick cycle budget.
/// Returns digests of the CSV and JSON artifacts.
fn sweep_quick_digests(file: &str) -> (String, String) {
    let path = scenarios_dir().join(file);
    let mut spec = SweepSpec::load(path.to_str().unwrap()).expect("load sweep");
    quick_sweep(&mut spec);
    let table = run_sweep(&spec, &[DEFAULT_SEEDS[0]]).expect("run sweep");
    let csv = md5_hex(table.to_csv().as_bytes());
    let json_text = serde_json::to_string_pretty(&table).expect("serialize table");
    (csv, md5_hex(json_text.as_bytes()))
}

#[test]
fn golden_interference_advc_vs_uniform() {
    assert_eq!(
        scenario_quick_digest("interference_advc_vs_uniform.json"),
        "0e6ffb3aa0cf2e890cbe948633eedefa",
        "behavior drift in the interference scenario (see docs/DETERMINISM.md)"
    );
}

#[test]
fn golden_paper_job_anatomy() {
    assert_eq!(
        scenario_quick_digest("paper_job_anatomy.json"),
        "bf12a27f9d94ef4ce3cfdb41aed39283",
        "behavior drift in the job-anatomy scenario (see docs/DETERMINISM.md)"
    );
}

#[test]
fn golden_sweep_unfairness_grid() {
    let (csv, json) = sweep_quick_digests("sweep_unfairness_grid.json");
    assert_eq!(
        csv, "df045dadf249fc449c1ccc7b3ce548f8",
        "behavior drift in the sweep grid CSV (see docs/DETERMINISM.md)"
    );
    assert_eq!(
        json, "d7d9743204a4108a0e46c87d28c444a3",
        "behavior drift in the sweep grid JSON (see docs/DETERMINISM.md)"
    );
}

/// `run_single(cfg)` at seed 11, 1,000 + 2,000 cycles: digest of the
/// serialized `RunResult`.
fn run_digest(mut cfg: SimConfig, shards: Option<u32>) -> String {
    cfg.warmup_cycles = 1_000;
    cfg.measure_cycles = 2_000;
    cfg.seed = 11;
    cfg.shards = shards;
    let json = serde_json::to_string(&run_single(&cfg)).expect("serialize result");
    md5_hex(json.as_bytes())
}

/// [`run_digest`] of `SimConfig::small(..)` under transit priority at
/// load 0.4.
fn pattern_mode_digest(
    mechanism: MechanismSpec,
    pattern: PatternSpec,
    shards: Option<u32>,
) -> String {
    run_digest(SimConfig::small(mechanism, ArbiterPolicy::TransitPriority, pattern, 0.4), shards)
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
        for shards in [None, Some(2)] {
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

/// Every output arbiter, pinned by [`run_digest`]: the goldens above all
/// run transit priority, so these rows are what catch a change that moves
/// round-robin or age-based output. Three set-ups: In-Trns-MM under ADVc
/// on the small network (radix 11); MIN under a 50 % hot spot on
/// `p = 8, a = 4, h = 6` (800 nodes, radix 17), where many input ports
/// contend for one ejection port; and MIN with every node sending to one
/// hot node at load 0.9 on `p = 10, a = 4, h = 5` (840 nodes, radix 18),
/// where more than 16 input ports request that node's ejection port in
/// one allocation iteration. Serial and at `shards: 2`, one digest each.
#[test]
fn golden_arbiters() {
    let advc = |arbiter| {
        let pattern = PatternSpec::AdvConsecutive { spread: None };
        SimConfig::small(MechanismSpec::InTransitMm, arbiter, pattern, 0.4)
    };
    let hot_spot = |arbiter| {
        let pattern = PatternSpec::HotSpot { hot: 0, fraction: 0.5 };
        let mut cfg = SimConfig::small(MechanismSpec::Min, arbiter, pattern, 0.3);
        cfg.params = DragonflyParams { p: 8, a: 4, h: 6 };
        cfg
    };
    let all_to_one = |arbiter| {
        let pattern = PatternSpec::HotSpot { hot: 0, fraction: 1.0 };
        let mut cfg = SimConfig::small(MechanismSpec::Min, arbiter, pattern, 0.9);
        cfg.params = DragonflyParams { p: 10, a: 4, h: 5 };
        cfg
    };
    for (cfg, digest) in [
        (advc(ArbiterPolicy::RoundRobin), "13a3757404e8961a9d408acc33425a89"),
        (advc(ArbiterPolicy::AgeBased), "103b57bf5bc4897d58adc73c64b046b9"),
        (advc(ArbiterPolicy::TransitPriority), "a65c2c5de5b3c584678156150bcf4225"),
        (hot_spot(ArbiterPolicy::TransitPriority), "d5ed10256dd444b15b42a1852eca8e0d"),
        (hot_spot(ArbiterPolicy::RoundRobin), "fbb8f1f50fabc02ed0fb7b7db0c68860"),
        (hot_spot(ArbiterPolicy::AgeBased), "c8c75714a2a6edc7e92a68c74b095f6b"),
        (all_to_one(ArbiterPolicy::TransitPriority), "2548ae1d27d7c094e886c226db33080f"),
        (all_to_one(ArbiterPolicy::RoundRobin), "b4a74fc855b99ab73794328966a7efb9"),
        (all_to_one(ArbiterPolicy::AgeBased), "6f3e4958bc404bacbc852630db711bbe"),
    ] {
        for shards in [None, Some(2)] {
            assert_eq!(
                run_digest(cfg.clone(), shards),
                digest,
                "behavior drift under the {:?} arbiter: {} under {} on {:?}, shards {shards:?} \
                 (see docs/DETERMINISM.md)",
                cfg.arbiter,
                cfg.pattern.label(),
                cfg.mechanism.label(),
                cfg.params,
            );
        }
    }
}

/// Every mechanism, pinned by [`run_digest`] (serial) on the small
/// network under ADVc at load 0.4 with transit priority. ADVc opens both
/// in-transit misroute gates and PiggyBack's Valiant branch, so these rows
/// catch a change to any mechanism's routing path, not only In-Trns-MM's.
#[test]
fn golden_mechanisms() {
    for (mechanism, digest) in [
        (MechanismSpec::Min, "03fd74011505acc3e01b34e1a5ae8428"),
        (MechanismSpec::ObliviousRrg, "3febbeffc3ce9945543cf80b74621a6c"),
        (MechanismSpec::ObliviousCrg, "3d01357e287c2b5e6c41ed72d912c76a"),
        (MechanismSpec::SourceRrg, "eef2870836ae3c9d93480cad3e0f1d2b"),
        (MechanismSpec::SourceCrg, "0023a9ab9149b1825478313eb9a652e8"),
        (MechanismSpec::InTransitRrg, "0613e2b78fca9319cc8adff3a83f960c"),
        (MechanismSpec::InTransitCrg, "46e73272031e76af98d9f0bff3c2dc69"),
        (MechanismSpec::InTransitMm, "a65c2c5de5b3c584678156150bcf4225"),
        (MechanismSpec::InTransitLru, "5be84723577686d13aaac6c978605b28"),
    ] {
        let pattern = PatternSpec::AdvConsecutive { spread: None };
        assert_eq!(
            pattern_mode_digest(mechanism, pattern, None),
            digest,
            "behavior drift in {} under ADVc (see docs/DETERMINISM.md)",
            mechanism.label(),
        );
    }
}
