//! Anatomy of the ADVc traffic pattern (the paper's Figure 1, on the same
//! 9-group, 72-node Dragonfly): shows why the h consecutive destination
//! groups funnel through one bottleneck router under the palmtree
//! arrangement, and how other arrangements scatter them.
//!
//! ```text
//! cargo run --release --example advc_anatomy
//! ```

use dragonfly_core::prelude::*;

fn describe(topo: &Topology, label: &str) {
    let params = topo.params();
    println!("\n=== {label} ===");
    let g0 = GroupId(0);
    println!("group 0 exit routers for the {} consecutive groups:", params.h);
    for k in 1..=params.h {
        let dst = GroupId(k % params.groups());
        let (exit, port) = topo.exit_to_group(g0, dst);
        let (entry, _) = topo.global_peer(exit, port);
        println!(
            "  +{k}: exits via R{} (global port {port}), enters group {k} at R{}",
            exit.local_index(params),
            entry.local_index(params),
        );
    }
    let total = (0..params.groups()).filter(|&g| topo.advc_overlap_is_total(GroupId(g))).count();
    println!(
        "groups whose h consecutive destinations share one exit router: {total}/{}",
        params.groups()
    );
}

fn main() {
    // The paper's Figure 1 network: h = 2, 9 groups, 72 nodes.
    let params = DragonflyParams::figure1();
    println!(
        "Dragonfly p={} a={} h={}: {} groups, {} routers, {} nodes",
        params.p,
        params.a,
        params.h,
        params.groups(),
        params.routers(),
        params.nodes()
    );

    describe(&Topology::new(params, Arrangement::Palmtree), "palmtree (paper)");
    describe(&Topology::new(params, Arrangement::Consecutive), "consecutive");
    describe(&Topology::new(params, Arrangement::Random { seed: 7 }), "random");

    // Where does ADVc traffic actually go? Sample the generator.
    println!("\n=== ADVc destination histogram (source = node 0, group 0) ===");
    let mut pattern = PatternSpec::AdvConsecutive { spread: None }.build(params, 42);
    let mut per_group = vec![0u32; params.groups() as usize];
    for _ in 0..2000 {
        let dst = pattern.dest(NodeId(0));
        per_group[dst.group(&params).idx()] += 1;
    }
    for (g, count) in per_group.iter().enumerate() {
        if *count > 0 {
            println!("  group {g}: {count:>5}  {}", "#".repeat((count / 40) as usize));
        }
    }
    println!(
        "\nMIN-routing throughput caps: ADV+1 = 1/(a*p) = {:.4}, ADVc = h/(a*p) = {:.4} phits/node/cycle",
        1.0 / (params.a * params.p) as f64,
        params.h as f64 / (params.a * params.p) as f64,
    );
}
