//! The destination generator: a [`PatternSpec`] compiled onto a node set.

use crate::seed::derive_seed;
use crate::spec::PatternSpec;
use df_topology::{DragonflyParams, NodeId, RouterTraffic};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// A [`PatternSpec`] remapped onto a node set — the one destination
/// generator of the workspace. It owns its RNG, so a pattern with a fixed
/// seed produces a deterministic destination stream.
///
/// The nodes form a *virtual machine*: virtual index = position in
/// `nodes`, virtual group = chunk of `group_size` consecutive indices
/// (one allocated machine group per chunk for group-granular
/// placements). Patterns act on the virtual geometry: a job running
/// `Uniform` on consecutive groups produces exactly the paper's §III
/// network-level ADVc hazard, and a job running `AdvConsecutive` attacks
/// the groups *it* occupies. A whole-machine pattern
/// ([`PatternSpec::build`]) is the same generator at the identity
/// placement: every node in id order, one machine group per virtual
/// group.
///
/// Each pattern's destination law is also stated exactly, once:
/// [`JobTraffic::for_each_dest`] enumerates the distribution
/// [`JobTraffic::dest`] draws from, and [`JobTraffic::router_traffic`]
/// sums it into the router-level matrix that
/// [`df_topology::channel_load`] turns into expected channel loads.
///
/// # Examples
///
/// A uniform pattern over the sixteen nodes of machine groups 1 and 2 of
/// the figure1 network; destinations stay inside the node set:
///
/// ```
/// use df_topology::{DragonflyParams, NodeId};
/// use df_traffic::{JobTraffic, PatternSpec};
///
/// let params = DragonflyParams::figure1();
/// let nodes: Vec<NodeId> = (8..24).map(NodeId).collect();
/// let mut traffic =
///     JobTraffic::new(&PatternSpec::Uniform, nodes.clone(), 8, &params, 7).unwrap();
/// for &src in &nodes {
///     let dst = traffic.dest(src);
///     assert!(nodes.contains(&dst) && dst != src);
/// }
/// ```
pub struct JobTraffic {
    /// The nodes in virtual-index order.
    nodes: Vec<NodeId>,
    /// `node.0 → virtual index`, `u32::MAX` outside the node set.
    index_of: Vec<u32>,
    geometry: Geometry,
    gen: PatternGen,
}

/// The virtual geometry a pattern is compiled against.
#[derive(Clone, Copy)]
struct Geometry {
    /// Node count.
    m: u32,
    /// Virtual-group size (the last group may be partial).
    gs: u32,
    /// Virtual-group count.
    k: u32,
}

impl Geometry {
    fn new(nodes: u32, group_size: u32) -> Result<Self, String> {
        if nodes < 2 {
            return Err("a traffic pattern needs at least two nodes".into());
        }
        if group_size == 0 {
            return Err("virtual group size must be nonzero".into());
        }
        Ok(Self { m: nodes, gs: group_size, k: nodes.div_ceil(group_size) })
    }

    /// The virtual indices of virtual group `g`.
    fn group(self, g: u32) -> Range<u32> {
        let base = g * self.gs;
        base..(base + self.gs).min(self.m)
    }

    /// Uniform virtual index within virtual group `g`.
    fn node_in_group(self, rng: &mut SmallRng, g: u32) -> u32 {
        let group = self.group(g);
        group.start + rng.gen_range(0..group.len() as u32)
    }

    /// Uniform virtual index other than `vsrc`.
    fn node_except(self, rng: &mut SmallRng, vsrc: u32) -> u32 {
        loop {
            let v = rng.gen_range(0..self.m);
            if v != vsrc {
                return v;
            }
        }
    }
}

enum PatternGen {
    Uniform(SmallRng),
    Adversarial { offset: u32, rng: SmallRng },
    AdvConsecutive { spread: u32, rng: SmallRng },
    GroupLocal(SmallRng),
    Permutation(Vec<u32>),
    HotSpot { hot: u32, fraction: f64, rng: SmallRng },
    Mix { first: Box<PatternGen>, second: Box<PatternGen>, first_fraction: f64, rng: SmallRng },
}

impl PatternGen {
    /// Check `spec` against the geometry and build its generator. The one
    /// place a pattern's ranges are decided: [`PatternSpec::check`] — and
    /// through it config, scenario and service admission — is this
    /// function with the generator dropped. `h` is the default ADVc
    /// spread.
    fn compile(spec: &PatternSpec, geo: Geometry, h: u32, seed: u64) -> Result<Self, String> {
        let Geometry { m, k, .. } = geo;
        let rng = SmallRng::seed_from_u64(seed);
        Ok(match spec {
            PatternSpec::Uniform => PatternGen::Uniform(rng),
            PatternSpec::Adversarial { offset } => {
                if *offset == 0 || *offset >= k {
                    return Err(format!(
                        "adversarial `offset` {offset} out of range (1..{k} over {k} virtual groups)"
                    ));
                }
                PatternGen::Adversarial { offset: *offset, rng }
            }
            PatternSpec::AdvConsecutive { spread } => {
                if k < 2 {
                    return Err("adv_consecutive needs at least 2 virtual groups".into());
                }
                if *spread == Some(0) {
                    return Err("adv_consecutive `spread` must be at least 1".into());
                }
                // The default `h` legitimately exceeds a small job's group
                // count, so an over-large spread clamps instead of failing.
                PatternGen::AdvConsecutive { spread: spread.unwrap_or(h).clamp(1, k - 1), rng }
            }
            PatternSpec::GroupLocal => {
                // A node alone in its virtual group has nowhere to send.
                if let Some(g) = (0..k).find(|&g| geo.group(g).len() < 2) {
                    return Err(format!(
                        "group_local needs at least 2 nodes in every virtual group; virtual \
                         group {g} of {k} holds 1 (virtual groups of {} over {m} nodes)",
                        geo.gs
                    ));
                }
                PatternGen::GroupLocal(rng)
            }
            PatternSpec::Permutation => {
                let mut rng = rng;
                let mut table: Vec<u32> = (0..m).collect();
                for i in (1..m as usize).rev() {
                    let j = rng.gen_range(0..=i);
                    table.swap(i, j);
                }
                // Self-traffic would bypass the network entirely, so repair
                // any fixed point by swapping with its neighbour.
                for i in 0..m as usize {
                    if table[i] == i as u32 {
                        let j = (i + 1) % m as usize;
                        table.swap(i, j);
                    }
                }
                PatternGen::Permutation(table)
            }
            PatternSpec::HotSpot { hot, fraction } => {
                if *hot >= m {
                    return Err(format!(
                        "hot_spot `hot` {hot} out of range (virtual index over {m} nodes)"
                    ));
                }
                if !(0.0..=1.0).contains(fraction) {
                    return Err(format!("hot_spot `fraction` {fraction} must be in [0, 1]"));
                }
                PatternGen::HotSpot { hot: *hot, fraction: *fraction, rng }
            }
            PatternSpec::Mix { first, second, first_fraction } => {
                if !(0.0..=1.0).contains(first_fraction) {
                    return Err(format!("mix `first_fraction` {first_fraction} must be in [0, 1]"));
                }
                PatternGen::Mix {
                    first: Box::new(Self::compile(first, geo, h, derive_seed(seed, 1))?),
                    second: Box::new(Self::compile(second, geo, h, derive_seed(seed, 2))?),
                    first_fraction: *first_fraction,
                    rng,
                }
            }
        })
    }

    /// Destination (virtual index) for a packet generated at virtual
    /// index `vsrc`.
    fn dest(&mut self, vsrc: u32, geo: Geometry) -> u32 {
        let Geometry { gs, k, .. } = geo;
        match self {
            PatternGen::Uniform(rng) => geo.node_except(rng, vsrc),
            PatternGen::Adversarial { offset, rng } => {
                geo.node_in_group(rng, (vsrc / gs + *offset) % k)
            }
            PatternGen::AdvConsecutive { spread, rng } => {
                let step = rng.gen_range(1..=*spread);
                geo.node_in_group(rng, (vsrc / gs + step) % k)
            }
            PatternGen::GroupLocal(rng) => loop {
                let v = geo.node_in_group(rng, vsrc / gs);
                if v != vsrc {
                    return v;
                }
            },
            PatternGen::Permutation(table) => table[vsrc as usize],
            PatternGen::HotSpot { hot, fraction, rng } => {
                if vsrc != *hot && rng.gen_bool(*fraction) {
                    *hot
                } else {
                    geo.node_except(rng, vsrc)
                }
            }
            PatternGen::Mix { first, second, first_fraction, rng } => {
                if rng.gen_bool(*first_fraction) {
                    first.dest(vsrc, geo)
                } else {
                    second.dest(vsrc, geo)
                }
            }
        }
    }

    /// The law [`Self::dest`] draws from at `vsrc`: `f(v, p)` for every
    /// virtual index `v` of the support, `p` its probability times `mass`.
    /// An index may be reported more than once (HotSpot, Mix); its
    /// probability is the sum.
    fn for_each_dest(&self, vsrc: u32, geo: Geometry, mass: f64, f: &mut dyn FnMut(u32, f64)) {
        // `mass` spread evenly over `vs`, less `except`.
        fn even(vs: Range<u32>, except: Option<u32>, mass: f64, f: &mut dyn FnMut(u32, f64)) {
            let n = vs.len() - usize::from(except.is_some_and(|e| vs.contains(&e)));
            for v in vs.filter(|&v| Some(v) != except) {
                f(v, mass / n as f64);
            }
        }
        let Geometry { m, gs, k } = geo;
        match self {
            PatternGen::Uniform(_) => even(0..m, Some(vsrc), mass, f),
            PatternGen::Adversarial { offset, .. } => {
                even(geo.group((vsrc / gs + *offset) % k), None, mass, f);
            }
            PatternGen::AdvConsecutive { spread, .. } => {
                for step in 1..=*spread {
                    even(geo.group((vsrc / gs + step) % k), None, mass / f64::from(*spread), f);
                }
            }
            PatternGen::GroupLocal(_) => even(geo.group(vsrc / gs), Some(vsrc), mass, f),
            PatternGen::Permutation(table) => f(table[vsrc as usize], mass),
            PatternGen::HotSpot { hot, fraction, .. } if vsrc != *hot => {
                f(*hot, mass * fraction);
                even(0..m, Some(vsrc), mass * (1.0 - fraction), f);
            }
            PatternGen::HotSpot { .. } => even(0..m, Some(vsrc), mass, f),
            PatternGen::Mix { first, second, first_fraction, .. } => {
                first.for_each_dest(vsrc, geo, mass * first_fraction, f);
                second.for_each_dest(vsrc, geo, mass * (1.0 - first_fraction), f);
            }
        }
    }
}

impl PatternSpec {
    /// Whether this pattern can run over `nodes` nodes in virtual groups
    /// of `group_size`, with `h` the default ADVc spread; the error names
    /// the offending field. The rule [`JobTraffic::new`] applies, without
    /// keeping the generator.
    pub fn check(&self, nodes: u32, group_size: u32, h: u32) -> Result<(), String> {
        PatternGen::compile(self, Geometry::new(nodes, group_size)?, h, 0).map(drop)
    }
}

impl JobTraffic {
    /// Remap `spec` onto `nodes` (virtual-index order, virtual groups of
    /// `group_size`) with a deterministic `seed`. `params` sizes the
    /// inverse map and supplies the default ADVc spread `h`.
    pub fn new(
        spec: &PatternSpec,
        nodes: Vec<NodeId>,
        group_size: u32,
        params: &DragonflyParams,
        seed: u64,
    ) -> Result<Self, String> {
        let geometry = Geometry::new(nodes.len() as u32, group_size)?;
        let gen = PatternGen::compile(spec, geometry, params.h, seed)?;
        let mut index_of = vec![u32::MAX; params.nodes() as usize];
        for (v, n) in nodes.iter().enumerate() {
            match index_of.get_mut(n.idx()) {
                Some(slot) if *slot == u32::MAX => *slot = v as u32,
                Some(_) => return Err(format!("node {} listed twice", n.0)),
                None => return Err(format!("node {} out of range", n.0)),
            }
        }
        Ok(Self { nodes, index_of, geometry, gen })
    }

    /// Destination for a packet generated at `src`.
    ///
    /// # Panics
    /// Panics if `src` is not one of the generator's nodes.
    pub fn dest(&mut self, src: NodeId) -> NodeId {
        let vsrc = self.vsrc(src);
        self.nodes[self.gen.dest(vsrc, self.geometry) as usize]
    }

    /// The exact law of [`Self::dest`] at `src`: `f(dst, p)` for every
    /// destination drawn with probability `p > 0`. A destination may be
    /// reported more than once (hot spot, mix); its probability is the
    /// sum. Per pattern, over the `m` nodes of the set:
    ///
    /// * UN: every other node, `1/(m−1)`;
    /// * ADV+k: uniform over virtual group `(g+k) mod k_v`;
    /// * ADVc: `1/spread` per step `1..=spread`, uniform inside the group;
    /// * group-local: the own virtual group less the source, uniformly;
    /// * permutation: the table's point, with probability 1;
    /// * hot spot: `fraction + (1−fraction)/(m−1)` on the hot node and
    ///   `(1−fraction)/(m−1)` on every other one; UN from the hot node;
    /// * mix: `first_fraction` × the first law + the rest × the second.
    ///
    /// # Panics
    /// Panics if `src` is not one of the generator's nodes.
    pub fn for_each_dest(&self, src: NodeId, mut f: impl FnMut(NodeId, f64)) {
        let vsrc = self.vsrc(src);
        self.gen.for_each_dest(vsrc, self.geometry, 1.0, &mut |v, p| f(self.nodes[v as usize], p));
    }

    /// The router-level traffic matrix of this generator: each node's law
    /// weighted by `weight(node)`, summed by source and destination
    /// router. With weights in phits per cycle it is the expected traffic
    /// of those injection rates; unit weights give the load per unit of
    /// per-node injection, which [`df_topology::channel_load`] expects.
    /// `params` is the machine the generator was built for.
    pub fn router_traffic(
        &self,
        params: &DragonflyParams,
        weight: impl Fn(NodeId) -> f64,
    ) -> RouterTraffic {
        let routers = params.routers() as usize;
        let mut rates = vec![0.0; routers * routers];
        for &src in &self.nodes {
            let w = weight(src);
            if w != 0.0 {
                let row = src.router(params).idx() * routers;
                self.for_each_dest(src, |dst, p| rates[row + dst.router(params).idx()] += w * p);
            }
        }
        RouterTraffic::from_fn(params, |s, d| rates[s.idx() * routers + d.idx()])
    }

    /// Virtual index of `src`.
    fn vsrc(&self, src: NodeId) -> u32 {
        let vsrc = self.index_of[src.idx()];
        assert_ne!(vsrc, u32::MAX, "source {src:?} is not part of this node set");
        vsrc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DragonflyParams {
        DragonflyParams::small()
    }

    /// The exact law of `t` at `src` as a dense vector over node ids.
    fn law(t: &JobTraffic, src: NodeId) -> Vec<f64> {
        let mut p = vec![0.0; t.index_of.len()];
        t.for_each_dest(src, |d, q| p[d.idx()] += q);
        p
    }

    /// The law's mass per machine group.
    fn group_mass(p: &DragonflyParams, law: &[f64]) -> Vec<f64> {
        let mut mass = vec![0.0; p.groups() as usize];
        for (n, q) in law.iter().enumerate() {
            mass[NodeId(n as u32).group(p).idx()] += q;
        }
        mass
    }

    // Laws are sums of equal shares, so each entry is compared exactly and
    // only a sum of many shares gets a rounding allowance.
    fn assert_total(law: &[f64]) {
        let total: f64 = law.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "law sums to {total}");
    }

    #[test]
    fn uniform_never_self() {
        let p = params();
        let t = PatternSpec::Uniform.build(p, 1);
        for n in 0..p.nodes() {
            let law = law(&t, NodeId(n));
            assert_eq!(law[n as usize], 0.0);
            assert_total(&law);
        }
    }

    #[test]
    fn uniform_covers_many_destinations() {
        let p = params();
        let t = PatternSpec::Uniform.build(p, 2);
        let share = 1.0 / f64::from(p.nodes() - 1);
        let law = law(&t, NodeId(0));
        assert!(law[1..].iter().all(|&q| q == share), "every other node gets 1/(m-1)");
    }

    #[test]
    fn adversarial_targets_exact_group() {
        let p = params();
        let t = PatternSpec::Adversarial { offset: 1 }.build(p, 3);
        let share = 1.0 / f64::from(p.a * p.p);
        for n in (0..p.nodes()).step_by(5) {
            let src = NodeId(n);
            let target = (src.group(&p).0 + 1) % p.groups();
            for (d, &q) in law(&t, src).iter().enumerate() {
                let inside = NodeId(d as u32).group(&p).0 == target;
                assert_eq!(q, if inside { share } else { 0.0 }, "{n} -> {d}");
            }
        }
    }

    #[test]
    fn advc_targets_h_consecutive_groups_only() {
        // Equal mass on groups g+1 .. g+h only, uniform inside each.
        let p = params();
        let t = PatternSpec::AdvConsecutive { spread: None }.build(p, 4);
        let share = 1.0 / f64::from(p.h * p.a * p.p);
        let law = law(&t, NodeId(0));
        for (d, &q) in law.iter().enumerate() {
            let g = NodeId(d as u32).group(&p).0;
            assert_eq!(q, if (1..=p.h).contains(&g) { share } else { 0.0 }, "node {d}");
        }
        assert_total(&law);
    }

    #[test]
    fn advc_wraps_around_group_space() {
        let p = params();
        let t = PatternSpec::AdvConsecutive { spread: None }.build(p, 5);
        let mass = group_mass(&p, &law(&t, NodeId(p.nodes() - 1)));
        for (g, &m) in mass.iter().enumerate() {
            // The last group's steps 1..=h land on groups 0..h.
            let expect = if (g as u32) < p.h { 1.0 / f64::from(p.h) } else { 0.0 };
            assert!((m - expect).abs() < 1e-12, "group {g}: {m}");
        }
    }

    #[test]
    fn group_local_stays_in_group() {
        let p = params();
        let t = PatternSpec::GroupLocal.build(p, 6);
        let share = 1.0 / f64::from(p.a * p.p - 1);
        for n in (0..p.nodes()).step_by(7) {
            let src = NodeId(n);
            for (d, &q) in law(&t, src).iter().enumerate() {
                let dst = NodeId(d as u32);
                let inside = dst.group(&p) == src.group(&p) && dst != src;
                assert_eq!(q, if inside { share } else { 0.0 }, "{n} -> {d}");
            }
        }
    }

    #[test]
    fn permutation_is_bijective_and_fixed() {
        // Every row a point mass off the diagonal, every column summing to
        // one, and the point is what the generator draws, every time.
        let p = params();
        let mut t = PatternSpec::Permutation.build(p, 7);
        let mut column = vec![0.0; p.nodes() as usize];
        for n in 0..p.nodes() {
            let law = law(&t, NodeId(n));
            assert_eq!(law[n as usize], 0.0, "fixed point at {n}");
            let d = t.dest(NodeId(n));
            assert_eq!(law[d.idx()], 1.0, "{n} -> {}", d.0);
            assert_eq!(t.dest(NodeId(n)), d);
            for (c, q) in column.iter_mut().zip(law) {
                *c += q;
            }
        }
        assert!(column.iter().all(|&c| c == 1.0), "not a bijection: {column:?}");
    }

    #[test]
    fn hotspot_fraction_respected() {
        let p = params();
        let (hot, fraction) = (NodeId(10), 0.3);
        let t = PatternSpec::HotSpot { hot: hot.0, fraction }.build(p, 8);
        let other = (1.0 - fraction) / f64::from(p.nodes() - 1);
        let law0 = law(&t, NodeId(0));
        assert_eq!(law0[hot.idx()], fraction + other);
        assert_eq!((law0[0], law0[1]), (0.0, other));
        assert_total(&law0);
        // The hot node itself sends uniformly.
        let uniform = 1.0 / f64::from(p.nodes() - 1);
        let law_hot = law(&t, hot);
        assert!(law_hot.iter().enumerate().all(|(d, &q)| q == if d == 10 { 0.0 } else { uniform }));
    }

    #[test]
    fn mix_draws_from_both() {
        let p = params();
        let t = PatternSpec::Mix {
            first: Box::new(PatternSpec::Adversarial { offset: 1 }),
            second: Box::new(PatternSpec::Adversarial { offset: 2 }),
            first_fraction: 0.25,
        }
        .build(p, 9);
        let mass = group_mass(&p, &law(&t, NodeId(0)));
        for (g, &m) in mass.iter().enumerate() {
            let expect = [0.0, 0.25, 0.75].get(g).copied().unwrap_or(0.0);
            assert!((m - expect).abs() < 1e-12, "group {g}: {m}");
        }
    }

    /// One test per range the compile step rejects, by message: these are
    /// the specs `SimConfig::validate` used to wave through to an
    /// `assert!` in `Simulator::new` or, for the out-of-range hot node, to
    /// a topology panic cycles into the run.
    fn rejected(spec: PatternSpec) -> String {
        let p = params();
        spec.check(p.nodes(), p.a * p.p, p.h).expect_err("spec must be rejected")
    }

    #[test]
    fn adversarial_offset_zero_rejected() {
        let err = rejected(PatternSpec::Adversarial { offset: 0 });
        assert!(err.contains("`offset` 0 out of range"), "{err}");
    }

    #[test]
    fn adversarial_offset_beyond_groups_rejected() {
        let err = rejected(PatternSpec::Adversarial { offset: 19 });
        assert!(err.contains("`offset` 19 out of range"), "{err}");
    }

    #[test]
    fn advc_zero_spread_rejected() {
        let err = rejected(PatternSpec::AdvConsecutive { spread: Some(0) });
        assert!(err.contains("`spread` must be at least 1"), "{err}");
    }

    #[test]
    fn hotspot_fraction_out_of_range_rejected() {
        let err = rejected(PatternSpec::HotSpot { hot: 0, fraction: 1.5 });
        assert!(err.contains("`fraction` 1.5 must be in [0, 1]"), "{err}");
    }

    #[test]
    fn hotspot_node_out_of_range_rejected() {
        let err = rejected(PatternSpec::HotSpot { hot: 1_000_000, fraction: 0.1 });
        assert!(err.contains("`hot` 1000000 out of range"), "{err}");
    }

    #[test]
    fn mix_rejects_a_bad_child_and_a_bad_fraction() {
        let bad_child = PatternSpec::Mix {
            first: Box::new(PatternSpec::Uniform),
            second: Box::new(PatternSpec::Adversarial { offset: 0 }),
            first_fraction: 0.5,
        };
        assert!(rejected(bad_child).contains("`offset` 0"));
        let bad_fraction = PatternSpec::Mix {
            first: Box::new(PatternSpec::Uniform),
            second: Box::new(PatternSpec::GroupLocal),
            first_fraction: -0.1,
        };
        assert!(rejected(bad_fraction).contains("`first_fraction`"));
    }

    #[test]
    fn oversized_advc_spread_clamps_to_the_other_groups() {
        // One rule for the machine and the job path: a spread wider than
        // the `k - 1` other virtual groups clamps (the machine path used
        // to panic on it, the job path already clamped).
        let p = params();
        let t = PatternSpec::AdvConsecutive { spread: Some(1_000) }.build(p, 4);
        let mass = group_mass(&p, &law(&t, NodeId(0)));
        assert_eq!(mass[0], 0.0, "the source's own group is never a target");
        let even = 1.0 / f64::from(p.groups() - 1);
        assert!(mass[1..].iter().all(|&m| (m - even).abs() < 1e-12), "{mass:?}");
    }

    /// A virtual group of one node has no group-local destination: the
    /// generator would redraw that node forever. Round-robin placement of
    /// 5 routers' nodes, one per router, in groups of `a = 4`.
    #[test]
    fn group_local_needs_two_nodes_in_every_virtual_group() {
        let err = PatternSpec::GroupLocal.check(5, 4, 2).expect_err("a one-node virtual group");
        assert!(err.contains("virtual group 1 of 2 holds 1"), "{err}");
        assert!(PatternSpec::GroupLocal.check(6, 4, 2).is_ok());
        assert!(PatternSpec::GroupLocal.check(4, 1, 2).unwrap_err().contains("group 0 of 4"));
    }

    #[test]
    fn node_sets_are_checked() {
        let p = params();
        let new = |nodes: Vec<u32>| {
            let nodes = nodes.into_iter().map(NodeId).collect();
            JobTraffic::new(&PatternSpec::Uniform, nodes, 2, &p, 1).err()
        };
        assert!(new(vec![0, 1, 2]).is_none());
        assert!(new(vec![0]).unwrap().contains("at least two nodes"));
        assert!(new(vec![0, 5, 0]).unwrap().contains("node 0 listed twice"));
        assert!(new(vec![0, 9_999]).unwrap().contains("node 9999 out of range"));
    }
}
