//! The destination generator: a [`PatternSpec`] compiled onto a node set.

use crate::seed::derive_seed;
use crate::spec::PatternSpec;
use df_topology::{DragonflyParams, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

    /// Uniform virtual index within virtual group `g`.
    fn node_in_group(self, rng: &mut SmallRng, g: u32) -> u32 {
        let base = g * self.gs;
        let width = self.gs.min(self.m - base);
        base + rng.gen_range(0..width)
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
            PatternSpec::GroupLocal => PatternGen::GroupLocal(rng),
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
                if v != vsrc || gs == 1 {
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
        let vsrc = self.index_of[src.idx()];
        assert_ne!(vsrc, u32::MAX, "source {src:?} is not part of this node set");
        self.nodes[self.gen.dest(vsrc, self.geometry) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DragonflyParams {
        DragonflyParams::small()
    }

    #[test]
    fn uniform_never_self() {
        let p = params();
        let mut t = PatternSpec::Uniform.build(p, 1);
        for n in 0..p.nodes() {
            for _ in 0..10 {
                assert_ne!(t.dest(NodeId(n)), NodeId(n));
            }
        }
    }

    #[test]
    fn uniform_covers_many_destinations() {
        let p = params();
        let mut t = PatternSpec::Uniform.build(p, 2);
        let mut seen = vec![false; p.nodes() as usize];
        for _ in 0..20_000 {
            seen[t.dest(NodeId(0)).idx()] = true;
        }
        let covered = seen.iter().filter(|&&b| b).count();
        assert!(covered as u32 > p.nodes() * 9 / 10, "covered {covered}");
    }

    #[test]
    fn adversarial_targets_exact_group() {
        let p = params();
        let mut t = PatternSpec::Adversarial { offset: 1 }.build(p, 3);
        for n in (0..p.nodes()).step_by(5) {
            let src = NodeId(n);
            let dst = t.dest(src);
            let expect = (src.group(&p).0 + 1) % p.groups();
            assert_eq!(dst.group(&p).0, expect);
        }
    }

    #[test]
    fn advc_targets_h_consecutive_groups_only() {
        let p = params();
        let mut t = PatternSpec::AdvConsecutive { spread: None }.build(p, 4);
        let src = NodeId(0);
        let mut hit = vec![0u32; p.groups() as usize];
        for _ in 0..6000 {
            hit[t.dest(src).group(&p).idx()] += 1;
        }
        for g in 0..p.groups() {
            if g >= 1 && g <= p.h {
                assert!(hit[g as usize] > 0, "group {g} never targeted");
                // Roughly uniform across the h groups.
                let expected = 6000 / p.h;
                assert!(
                    (hit[g as usize] as i64 - expected as i64).abs() < expected as i64 / 2,
                    "group {g}: {}",
                    hit[g as usize]
                );
            } else {
                assert_eq!(hit[g as usize], 0, "group {g} wrongly targeted");
            }
        }
    }

    #[test]
    fn advc_wraps_around_group_space() {
        let p = params();
        let mut t = PatternSpec::AdvConsecutive { spread: None }.build(p, 5);
        let last_group_node = NodeId(p.nodes() - 1);
        for _ in 0..100 {
            let dst = t.dest(last_group_node);
            let off = (dst.group(&p).0 + p.groups() - (p.groups() - 1)) % p.groups();
            assert!(off >= 1 && off <= p.h);
        }
    }

    #[test]
    fn group_local_stays_in_group() {
        let p = params();
        let mut t = PatternSpec::GroupLocal.build(p, 6);
        for n in (0..p.nodes()).step_by(7) {
            let src = NodeId(n);
            let dst = t.dest(src);
            assert_eq!(dst.group(&p), src.group(&p));
            assert_ne!(dst, src);
        }
    }

    #[test]
    fn permutation_is_bijective_and_fixed() {
        let p = params();
        let mut t = PatternSpec::Permutation.build(p, 7);
        let mut seen = vec![false; p.nodes() as usize];
        for n in 0..p.nodes() {
            let d = t.dest(NodeId(n));
            assert_ne!(d, NodeId(n), "fixed point at {n}");
            assert!(!seen[d.idx()], "node {} targeted twice", d.0);
            seen[d.idx()] = true;
            // Stable across calls.
            assert_eq!(t.dest(NodeId(n)), d);
        }
    }

    #[test]
    fn hotspot_fraction_respected() {
        let p = params();
        let hot = NodeId(10);
        let mut t = PatternSpec::HotSpot { hot: hot.0, fraction: 0.3 }.build(p, 8);
        let mut hits = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if t.dest(NodeId(0)) == hot {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        // Uniform fallback also occasionally hits the hot node.
        assert!((0.27..0.36).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn mix_draws_from_both() {
        let p = params();
        let mut t = PatternSpec::Mix {
            first: Box::new(PatternSpec::Adversarial { offset: 1 }),
            second: Box::new(PatternSpec::Adversarial { offset: 2 }),
            first_fraction: 0.5,
        }
        .build(p, 9);
        let (mut g1, mut g2) = (0, 0);
        for _ in 0..1000 {
            match t.dest(NodeId(0)).group(&p).0 {
                1 => g1 += 1,
                2 => g2 += 1,
                g => panic!("unexpected group {g}"),
            }
        }
        assert!(g1 > 300 && g2 > 300, "g1={g1} g2={g2}");
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
        let mut t = PatternSpec::AdvConsecutive { spread: Some(1_000) }.build(p, 4);
        let mut hit = vec![false; p.groups() as usize];
        for _ in 0..4_000 {
            hit[t.dest(NodeId(0)).group(&p).idx()] = true;
        }
        assert!(!hit[0], "the source's own group is never a target");
        assert!(hit[1..].iter().all(|&h| h), "every other group is a target");
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
