//! Every artifact the paper reports — and both ablations — from one
//! binary: each is a grid of [`SimConfig`]s (mechanism × load | arbiter |
//! arrangement) × seeds, averaged per cell, a handful of columns printed.
//! [`ARTIFACTS`] holds one definition per artifact (which cells, how to
//! print them); `main` is parse → `cells` → one [`run_grid`] → `print` →
//! optional `--out`.
//!
//! ```text
//! cargo run --release -p df-bench --bin figure -- fig2 --pattern advc --priority transit
//! cargo run --release -p df-bench --bin figure -- table2 --priority none --quick
//! ```
//!
//! Flags, after the artifact name:
//!
//! * `--paper-scale` — run the full 5,256-node network of Table I
//!   (slow; default is the reduced h=3, 342-node network whose bottleneck
//!   structure is identical),
//! * `--priority transit|none|age` — output-arbiter policy,
//! * `--pattern un|adv1|advc` — traffic pattern; `fig2` only (every other
//!   artifact is defined for ADVc, and naming a pattern there is a usage
//!   error rather than a silently ignored flag),
//! * `--quick` — single seed, coarser load grid (smoke runs),
//! * `--seeds N` — number of averaged seeds (default 3, as in the paper),
//! * `--out PATH` — also dump the run as JSON: `{artifact, seeds, cells:
//!   [{labels: [{name, value}], result}]}`, `result` being the cell's full
//!   [`AveragedResult`] — one shape for every artifact.

#![forbid(unsafe_code)]

use df_bench::{default_seeds, fail, flag_path, flag_seeds, flag_value, write_json};
use dragonfly_core::prelude::*;
use serde::Serialize;
use std::path::PathBuf;

/// Parsed flags.
#[derive(Debug, Clone)]
struct Args {
    /// Full-scale (h=6) network instead of the reduced default.
    paper_scale: bool,
    /// Arbiter policy selected via `--priority`.
    arbiter: ArbiterPolicy,
    /// Pattern selected via `--pattern` (default ADVc).
    pattern: PatternSpec,
    /// Single-seed, coarse-grid smoke mode.
    quick: bool,
    /// Seeds to average.
    seeds: Vec<u64>,
    /// Optional JSON output path.
    out: Option<PathBuf>,
}

/// One coordinate of a cell (`mechanism`, `load`, `arbiter`, …), as it is
/// printed and as `--out` records it.
#[derive(Debug, Serialize)]
struct Label {
    name: &'static str,
    value: String,
}

/// One grid cell: the configuration to average over the seeds, and the
/// coordinates its printer and the `--out` document name it by.
#[derive(Debug)]
struct Cell {
    labels: Vec<Label>,
    config: SimConfig,
}

impl Cell {
    /// The value of label `name`.
    fn label(&self, name: &str) -> &str {
        match self.labels.iter().find(|l| l.name == name) {
            Some(l) => &l.value,
            None => panic!("cell has no `{name}` label"),
        }
    }
}

/// One paper artifact: its grid and its text rendering.
#[derive(Debug)]
struct Artifact {
    name: &'static str,
    /// One line for the usage text.
    title: &'static str,
    cells: fn(&Args) -> Vec<Cell>,
    /// Prints the artifact to stdout; `results[i]` averages `cells[i]`.
    print: fn(&Args, &[Cell], &[AveragedResult]),
}

static ARTIFACTS: [Artifact; 6] = [
    Artifact {
        name: "fig2",
        title: "Figure 2 (Figure 5 with --priority none): latency and accepted load vs offered \
                load, every mechanism, under --pattern",
        cells: fig2_cells,
        print: fig2_print,
    },
    Artifact {
        name: "fig3",
        title: "Figure 3: latency-component breakdown of In-Trns-MM under ADVc",
        cells: fig3_cells,
        print: fig3_print,
    },
    Artifact {
        name: "fig4",
        title: "Figure 4 (Figure 6 with --priority none): injected packets per router, ADVc @ 0.4",
        cells: paper_set_cells,
        print: fig4_print,
    },
    Artifact {
        name: "table2",
        title: "Table II (Table III with --priority none): fairness metrics, ADVc @ 0.4",
        cells: paper_set_cells,
        print: table2_print,
    },
    Artifact {
        name: "ablation_age",
        title: "Extension A: arbiter policy (transit / round-robin / age-based) vs fairness",
        cells: ablation_age_cells,
        print: ablation_age_print,
    },
    Artifact {
        name: "ablation_arrangement",
        title: "Extension B: global-link arrangement vs ADVc fairness",
        cells: ablation_arrangement_cells,
        print: ablation_arrangement_print,
    },
];

/// The load of every single-load artifact, phits/(node·cycle).
const LOAD: f64 = 0.4;

/// The cell of `mechanism` at `load` on this run's network, arbiter and
/// pattern, labelled by mechanism and then by `extra`.
fn cell(
    args: &Args,
    mechanism: MechanismSpec,
    load: f64,
    extra: &[(&'static str, String)],
) -> Cell {
    let make = if args.paper_scale { SimConfig::paper } else { SimConfig::small };
    let mut labels = vec![Label { name: "mechanism", value: mechanism.label().into() }];
    labels.extend(extra.iter().map(|(name, value)| Label { name, value: value.clone() }));
    Cell { labels, config: make(mechanism, args.arbiter, args.pattern.clone(), load) }
}

/// The standard load grid of the figures (0.05 … 1.0).
fn standard_load_grid() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 0.05).collect()
}

/// Load grid: the standard 20-point grid, or 6 points in quick mode.
fn load_grid(args: &Args) -> Vec<f64> {
    if args.quick {
        vec![0.1, 0.2, 0.3, 0.4, 0.6, 0.8]
    } else {
        standard_load_grid()
    }
}

/// One cell per load of `loads`, labelled by it.
fn load_cells(args: &Args, mechanism: MechanismSpec, loads: &[f64]) -> Vec<Cell> {
    loads.iter().map(|&l| cell(args, mechanism, l, &[("load", format!("{l:.2}"))])).collect()
}

/// Human-readable description of the arbiter for headers.
fn priority_label(args: &Args) -> &'static str {
    match args.arbiter {
        ArbiterPolicy::TransitPriority => "transit-over-injection priority",
        ArbiterPolicy::RoundRobin => "no transit priority (round-robin)",
        ArbiterPolicy::AgeBased => "age-based arbitration",
    }
}

fn scale_label(args: &Args) -> &'static str {
    if args.paper_scale {
        "paper"
    } else {
        "reduced"
    }
}

/// The Min-inj / Max/Min / CoV columns the three fairness tables share.
fn fairness_columns(r: &AveragedResult) -> String {
    format!("{:>10.2} {:>10.3} {:>8.4}", r.fairness.min, r.fairness.max_min_ratio, r.fairness.cov)
}

/// Figure 2/5: every mechanism × the load grid, mechanism-major. The
/// paper plots MIN as the reference under UN and the oblivious
/// non-minimal mechanisms under adversarial patterns; we always include
/// MIN plus the seven-mechanism set.
fn fig2_cells(args: &Args) -> Vec<Cell> {
    let loads = load_grid(args);
    std::iter::once(MechanismSpec::Min)
        .chain(MechanismSpec::PAPER_SET)
        .flat_map(|m| load_cells(args, m, &loads))
        .collect()
}

/// Two aligned text tables — latency, then accepted load, one column per
/// mechanism — mirroring the paper's paired plots.
fn fig2_print(args: &Args, cells: &[Cell], results: &[AveragedResult]) {
    println!(
        "Figure 2/5 — {} traffic, {} ({} scale, {} seeds)",
        args.pattern.label(),
        priority_label(args),
        scale_label(args),
        args.seeds.len(),
    );
    let points = load_grid(args).len();
    let mechanisms: Vec<&str> =
        cells.iter().step_by(points).map(|c| c.label("mechanism")).collect();
    let sweeps: Vec<&[AveragedResult]> = results.chunks(points).collect();
    let table = |title: &str, column: fn(&AveragedResult) -> String| {
        println!("\n== {title} vs offered load ==");
        print!("{:>6}", "load");
        for m in &mechanisms {
            print!("{m:>13}");
        }
        println!();
        for i in 0..points {
            print!("{:>6.2}", sweeps[0][i].load);
            for s in &sweeps {
                print!("{}", column(&s[i]));
            }
            println!();
        }
    };
    table("Average packet latency (cycles)", |r| format!("{:>13.1}", r.avg_latency));
    table("Accepted load (phits/node/cycle)", |r| format!("{:>13.4}", r.throughput));
}

/// Figure 3: In-Trns-MM over the paper's grid, which starts at 0.01 and
/// then steps by 0.05.
fn fig3_cells(args: &Args) -> Vec<Cell> {
    let mut loads = vec![0.01];
    loads.extend(load_grid(args));
    load_cells(args, MechanismSpec::InTransitMm, &loads)
}

fn fig3_print(args: &Args, _cells: &[Cell], results: &[AveragedResult]) {
    println!(
        "Figure 3 — latency breakdown, In-Trns-MM, ADVc, {} ({} scale)",
        priority_label(args),
        scale_label(args),
    );
    println!(
        "\n{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "load", "base", "misroute", "local_q", "global_q", "inject_q", "total"
    );
    for pt in results {
        let [base, mis, lq, gq, inj] = pt.components;
        println!(
            "{:>6.2} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            pt.load, base, mis, lq, gq, inj, pt.avg_latency
        );
    }
}

/// Figure 4/6 and Table II/III: the seven mechanisms at ADVc @ 0.4.
fn paper_set_cells(args: &Args) -> Vec<Cell> {
    MechanismSpec::PAPER_SET.iter().map(|&m| cell(args, m, LOAD, &[])).collect()
}

/// Injections of every router of group 0 (R0..R{a-1}), then the mean per
/// within-group router index over all groups.
fn fig4_print(args: &Args, cells: &[Cell], results: &[AveragedResult]) {
    println!(
        "Figure 4/6 — injected packets per router (group 0), ADVc @ {LOAD}, {} ({} scale)",
        priority_label(args),
        scale_label(args),
    );
    let a = cells[0].config.params.a as usize;
    let block = |note: &str, columns: &dyn Fn(&[f64]) -> String| {
        print!("\n{:>12}", "mechanism");
        for i in 0..a {
            print!("{:>9}", format!("R{i}"));
        }
        println!("   ({note})");
        for (cell, r) in cells.iter().zip(results) {
            println!("{:>12}{}", cell.label("mechanism"), columns(&r.injected_per_router));
        }
    };
    block(&format!("group 0; bottleneck is R{} under palmtree", a - 1), &|inj| {
        inj[..a].iter().map(|v| format!("{v:>9.0}")).collect()
    });
    block("mean over all groups, per router index", &|inj| {
        let groups = inj.len() / a;
        (0..a)
            .map(|i| {
                let total: f64 = (0..groups).map(|g| inj[g * a + i]).sum();
                format!("{:>9.1}", total / groups as f64)
            })
            .collect()
    });
}

fn table2_print(args: &Args, cells: &[Cell], results: &[AveragedResult]) {
    println!(
        "Table II/III — fairness metrics, ADVc @ {LOAD}, {} ({} scale, {} seeds)",
        priority_label(args),
        scale_label(args),
        args.seeds.len(),
    );
    println!(
        "\n{:>12} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "mechanism", "Min inj", "Max/Min", "CoV", "Jain", "thr(phit)"
    );
    for (cell, r) in cells.iter().zip(results) {
        println!(
            "{:>12} {} {:>8.4} {:>10.4}",
            cell.label("mechanism"),
            fairness_columns(r),
            r.fairness.jain,
            r.throughput
        );
    }
}

/// Extension A: age-based arbitration — the explicit fairness mechanism
/// the paper names as future work (Abts & Weisser, SC'07). The in-transit
/// mechanisms at ADVc @ 0.4 across the three arbiter policies
/// (`--priority` does not enter).
fn ablation_age_cells(args: &Args) -> Vec<Cell> {
    let arbiters = [
        (ArbiterPolicy::TransitPriority, "transit-prio"),
        (ArbiterPolicy::RoundRobin, "round-robin"),
        (ArbiterPolicy::AgeBased, "age-based"),
    ];
    let mechanisms =
        [MechanismSpec::InTransitRrg, MechanismSpec::InTransitCrg, MechanismSpec::InTransitMm];
    mechanisms
        .iter()
        .flat_map(|&m| {
            arbiters.iter().map(move |&(arbiter, label)| {
                let mut c = cell(args, m, LOAD, &[("arbiter", label.into())]);
                c.config.arbiter = arbiter;
                c
            })
        })
        .collect()
}

fn ablation_age_print(args: &Args, cells: &[Cell], results: &[AveragedResult]) {
    println!(
        "Ablation — arbiter policy vs fairness, ADVc @ {LOAD} ({} scale, {} seeds)",
        scale_label(args),
        args.seeds.len(),
    );
    println!(
        "\n{:>12} {:>13} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "mechanism", "arbiter", "Min inj", "Max/Min", "CoV", "thr", "latency"
    );
    for (cell, r) in cells.iter().zip(results) {
        println!(
            "{:>12} {:>13} {} {:>10.4} {:>10.1}",
            cell.label("mechanism"),
            cell.label("arbiter"),
            fairness_columns(r),
            r.throughput,
            r.avg_latency
        );
    }
}

/// Extension B: ADVc's total minimal/non-minimal overlap at a single
/// bottleneck router is a property of the palmtree arrangement; this
/// grid measures how the consecutive and random arrangements change the
/// fairness picture under the same traffic. `total_overlap_groups`
/// counts the groups that route all h consecutive destinations through
/// one router under the arrangement.
fn ablation_arrangement_cells(args: &Args) -> Vec<Cell> {
    let arrangements = [
        (Arrangement::Palmtree, "palmtree"),
        (Arrangement::Consecutive, "consecutive"),
        (Arrangement::Random { seed: 12345 }, "random"),
    ];
    let mechanisms = [MechanismSpec::InTransitMm, MechanismSpec::ObliviousRrg];
    arrangements
        .iter()
        .flat_map(|&(arrangement, label)| {
            mechanisms.iter().map(move |&m| {
                let mut c = cell(args, m, LOAD, &[("arrangement", label.into())]);
                c.config.arrangement = arrangement;
                let params = c.config.params;
                let topo = Topology::new(params, arrangement);
                let overlap =
                    (0..params.groups()).filter(|&g| topo.advc_overlap_is_total(GroupId(g)));
                c.labels.push(Label {
                    name: "total_overlap_groups",
                    value: overlap.count().to_string(),
                });
                c
            })
        })
        .collect()
}

fn ablation_arrangement_print(args: &Args, cells: &[Cell], results: &[AveragedResult]) {
    println!(
        "Ablation — arrangement vs ADVc fairness @ {LOAD}, {} ({} scale)",
        priority_label(args),
        scale_label(args),
    );
    println!(
        "\n{:>12} {:>12} {:>9} {:>10} {:>10} {:>8} {:>10}",
        "arrangement", "mechanism", "overlap", "Min inj", "Max/Min", "CoV", "thr"
    );
    for (cell, r) in cells.iter().zip(results) {
        println!(
            "{:>12} {:>12} {:>9} {} {:>10.4}",
            cell.label("arrangement"),
            cell.label("mechanism"),
            cell.label("total_overlap_groups"),
            fairness_columns(r),
            r.throughput
        );
    }
}

/// The `--out` document: one shape for every artifact.
#[derive(Serialize)]
struct Document {
    artifact: String,
    seeds: Vec<u64>,
    cells: Vec<CellDocument>,
}

#[derive(Serialize)]
struct CellDocument {
    labels: Vec<Label>,
    result: AveragedResult,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: figure <name> [--paper-scale] [--priority transit|none|age] \
         [--pattern un|adv1|advc] [--quick] [--seeds N] [--out PATH]\n\
         artifacts (--pattern applies to fig2 only):\n",
    );
    for a in &ARTIFACTS {
        text += &format!("  {:<21} {}\n", a.name, a.title);
    }
    text
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprint!("{}", usage());
    std::process::exit(2);
}

/// Parse the argument list (without the program name).
fn parse(mut it: impl Iterator<Item = String>) -> Result<(&'static Artifact, Args), String> {
    let mut artifact: Option<&'static Artifact> = None;
    let mut pattern = None;
    let mut args = Args {
        paper_scale: false,
        arbiter: ArbiterPolicy::TransitPriority,
        pattern: PatternSpec::AdvConsecutive { spread: None },
        quick: false,
        seeds: Vec::new(),
        out: None,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--paper-scale" => args.paper_scale = true,
            "--quick" => args.quick = true,
            "--priority" => {
                args.arbiter = match flag_value(&mut it, &flag, "transit|none|age")?.as_str() {
                    "transit" => ArbiterPolicy::TransitPriority,
                    "none" => ArbiterPolicy::RoundRobin,
                    "age" => ArbiterPolicy::AgeBased,
                    other => return Err(format!("unknown --priority {other}")),
                };
            }
            "--pattern" => {
                pattern = Some(match flag_value(&mut it, &flag, "un|adv1|advc")?.as_str() {
                    "un" => PatternSpec::Uniform,
                    "adv1" => PatternSpec::Adversarial { offset: 1 },
                    "advc" => PatternSpec::AdvConsecutive { spread: None },
                    other => return Err(format!("unknown --pattern {other}")),
                });
            }
            "--seeds" => args.seeds = flag_seeds(&mut it)?,
            "--out" => args.out = Some(flag_path(&mut it, &flag)?),
            name if !name.starts_with('-') && artifact.is_none() => {
                artifact = Some(
                    ARTIFACTS
                        .iter()
                        .find(|a| a.name == name)
                        .ok_or_else(|| format!("unknown artifact {name}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let artifact = artifact.ok_or("missing artifact name")?;
    if let Some(pattern) = pattern {
        if artifact.name != "fig2" {
            return Err(format!(
                "--pattern does not apply to {}: it is defined for ADVc (fig2 takes a pattern)",
                artifact.name
            ));
        }
        args.pattern = pattern;
    }
    // Seed defaulting is order-independent: --quick only trims the seed
    // set when --seeds was not given explicitly.
    if args.seeds.is_empty() {
        args.seeds = default_seeds(args.quick);
    }
    Ok((artifact, args))
}

fn main() {
    let (artifact, args) = parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    let cells = (artifact.cells)(&args);
    let configs: Vec<SimConfig> = cells.iter().map(|c| c.config.clone()).collect();
    eprintln!("{}: {} cells x {} seeds", artifact.name, cells.len(), args.seeds.len());
    let results = run_grid(&configs, &args.seeds);
    (artifact.print)(&args, &cells, &results);

    if let Some(out) = &args.out {
        let document = Document {
            artifact: artifact.name.into(),
            seeds: args.seeds,
            cells: cells
                .into_iter()
                .zip(results)
                .map(|(cell, result)| CellDocument { labels: cell.labels, result })
                .collect(),
        };
        write_json(out, &document).unwrap_or_else(|e| fail(&e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(list: &[&str]) -> Result<(&'static Artifact, Args), String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_args_mirror_paper_protocol() {
        let (artifact, a) = parsed(&["table2"]).unwrap();
        assert_eq!(artifact.name, "table2");
        assert_eq!(a.seeds, DEFAULT_SEEDS);
        assert_eq!(a.arbiter, ArbiterPolicy::TransitPriority);
        assert!(matches!(a.pattern, PatternSpec::AdvConsecutive { spread: None }));
        assert_eq!(parsed(&["table2", "--seeds", "3"]).unwrap().1.seeds, DEFAULT_SEEDS);
        assert_eq!(parsed(&["--quick", "table2"]).unwrap().1.seeds, [DEFAULT_SEEDS[0]]);
    }

    #[test]
    fn explicit_seeds_survive_quick_in_either_order() {
        for order in [["--seeds", "2", "--quick"], ["--quick", "--seeds", "2"]] {
            let mut list = vec!["fig3"];
            list.extend(order);
            let (_, a) = parsed(&list).unwrap();
            assert!(a.quick);
            assert_eq!(a.seeds, [11, 23], "{order:?}");
        }
        assert!(parsed(&["fig3", "--seeds", "0"]).unwrap_err().contains("positive"));
    }

    #[test]
    fn pattern_is_fig2_only() {
        let (_, a) = parsed(&["fig2", "--pattern", "un"]).unwrap();
        assert!(matches!(a.pattern, PatternSpec::Uniform));
        for artifact in ARTIFACTS.iter().filter(|a| a.name != "fig2") {
            let err = parsed(&[artifact.name, "--pattern", "un"]).unwrap_err();
            assert!(err.contains("--pattern") && err.contains(artifact.name), "{err}");
        }
        assert!(parsed(&["nosuch"]).unwrap_err().contains("unknown artifact nosuch"));
        assert!(parsed(&["--quick"]).unwrap_err().contains("missing artifact"));
        assert!(parsed(&["fig2", "fig3"]).unwrap_err().contains("unknown flag fig3"));
    }

    #[test]
    fn cells_scale_with_paper_scale() {
        let (_, mut a) = parsed(&["table2"]).unwrap();
        assert_eq!(paper_set_cells(&a)[0].config.params.nodes(), 342);
        a.paper_scale = true;
        assert_eq!(paper_set_cells(&a)[0].config.params.nodes(), 5256);
    }

    #[test]
    fn standard_grid_spans_unit_interval_and_quick_grid_is_coarser() {
        let g = standard_load_grid();
        assert_eq!(g.len(), 20);
        assert!((g[0] - 0.05).abs() < 1e-12);
        assert!((g[19] - 1.0).abs() < 1e-12);
        let (_, quick) = parsed(&["fig2", "--quick"]).unwrap();
        assert!(load_grid(&quick).len() < g.len());
    }

    /// The table itself: unique names, the quick-grid cell counts, and
    /// every label a printer looks up present on every cell.
    #[test]
    fn artifact_table_grids_and_labels() {
        let expected: [(&str, usize, &[&str]); 6] = [
            ("fig2", 8 * 6, &["mechanism", "load"]),
            ("fig3", 1 + 6, &["mechanism", "load"]),
            ("fig4", 7, &["mechanism"]),
            ("table2", 7, &["mechanism"]),
            ("ablation_age", 3 * 3, &["mechanism", "arbiter"]),
            ("ablation_arrangement", 3 * 2, &["mechanism", "arrangement", "total_overlap_groups"]),
        ];
        assert_eq!(ARTIFACTS.len(), expected.len());
        for (artifact, (name, count, labels)) in ARTIFACTS.iter().zip(expected) {
            assert_eq!(artifact.name, name);
            let (_, args) = parsed(&[name, "--quick"]).unwrap();
            let cells = (artifact.cells)(&args);
            assert_eq!(cells.len(), count, "{name}");
            for cell in &cells {
                let names: Vec<&str> = cell.labels.iter().map(|l| l.name).collect();
                assert_eq!(names, labels, "{name}");
                cell.config.validate().unwrap();
            }
        }
        // Grid order: fig2 is mechanism-major, fig3 starts at 0.01, the
        // ablations vary their second axis fastest.
        let (_, quick) = parsed(&["fig2", "--quick"]).unwrap();
        let fig2 = fig2_cells(&quick);
        assert_eq!((fig2[0].label("mechanism"), fig2[0].label("load")), ("MIN", "0.10"));
        assert_eq!((fig2[6].label("mechanism"), fig2[5].label("load")), ("Obl-RRG", "0.80"));
        assert_eq!(fig3_cells(&quick)[0].config.load, 0.01);
        let age = ablation_age_cells(&quick);
        assert_eq!(age[1].config.arbiter, ArbiterPolicy::RoundRobin);
        assert_eq!(
            (age[3].label("mechanism"), age[3].label("arbiter")),
            ("In-Trns-CRG", "transit-prio")
        );
        let arrangement = ablation_arrangement_cells(&quick);
        assert_eq!(arrangement[0].label("total_overlap_groups"), "19");
        assert_eq!(arrangement[3].config.arrangement, Arrangement::Consecutive);
        assert_eq!(arrangement[3].label("mechanism"), "Obl-RRG");
    }

    #[test]
    fn usage_lists_every_artifact() {
        let text = usage();
        for artifact in &ARTIFACTS {
            assert!(text.contains(artifact.name), "{}", artifact.name);
        }
    }
}
