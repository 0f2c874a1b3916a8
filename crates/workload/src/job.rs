//! Jobs: a placement, a traffic pattern remapped into the job's node
//! set, an injection process, a load, and a lifetime.

use crate::injection::InjectionSpec;
use crate::placement::{PlacementSpec, ResolvedPlacement};
use df_topology::{DragonflyParams, NodeId};
use df_traffic::{derive_seed, PatternSpec, Traffic};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Declarative description of one job in a scenario.
///
/// # Examples
///
/// A job with a bounded lifetime generates only inside its
/// `[start_cycle, stop_cycle)` window — the scenario runner gates
/// generation with [`JobSpec::active`] and frees the job's node slots
/// at departure for reuse by later arrivals:
///
/// ```
/// use df_traffic::PatternSpec;
/// use df_workload::{InjectionSpec, JobSpec, PlacementSpec};
///
/// let job = JobSpec {
///     name: "burst".into(),
///     placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 2, slots: None },
///     pattern: PatternSpec::Uniform,
///     injection: InjectionSpec::Bernoulli,
///     load: 0.3,
///     start_cycle: Some(1_000),
///     stop_cycle: Some(5_000),
/// };
/// assert!(!job.active(999));
/// assert!(job.active(1_000) && job.active(4_999));
/// assert!(!job.active(5_000));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job name (used in result tables).
    pub name: String,
    /// Where the job's processes run.
    pub placement: PlacementSpec,
    /// Communication pattern *within* the job (remapped onto its nodes).
    pub pattern: PatternSpec,
    /// When packets are generated.
    pub injection: InjectionSpec,
    /// Offered load in phits/(job node·cycle).
    pub load: f64,
    /// First driver cycle (warm-up included) the job generates at
    /// (`None` = 0).
    pub start_cycle: Option<u64>,
    /// Driver cycle the job stops generating at (`None` = never).
    pub stop_cycle: Option<u64>,
}

impl JobSpec {
    /// Whether the job generates traffic at driver cycle `cycle`.
    #[inline]
    pub fn active(&self, cycle: u64) -> bool {
        cycle >= self.start_cycle.unwrap_or(0)
            && self.stop_cycle.is_none_or(|stop| cycle < stop)
    }

    /// The job's half-open lifetime `[start, stop)` with defaults
    /// resolved (`0` / `u64::MAX`).
    #[inline]
    pub fn lifetime(&self) -> (u64, u64) {
        (self.start_cycle.unwrap_or(0), self.stop_cycle.unwrap_or(u64::MAX))
    }
}

/// Whether two half-open `[start, stop)` lifetimes overlap. *The*
/// predicate deciding when two jobs may share nodes (they may iff their
/// lifetimes do **not** overlap) — `ScenarioSpec::validate` and the
/// driven-mode simulator's schedule check both use it, so the `Err` path
/// and the panic path can never drift apart.
#[inline]
pub fn lifetimes_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// A [`PatternSpec`] remapped into a job's node set.
///
/// The job's nodes form a *virtual machine*: virtual index = position in
/// the placement's node order, virtual group = chunk of
/// `placement.group_size` consecutive indices (one allocated machine
/// group per chunk for group-granular placements). Patterns then act on
/// the virtual geometry: a job running `Uniform` on consecutive groups
/// produces exactly the paper's §III network-level ADVc hazard, and a job
/// running `AdvConsecutive` attacks the groups *it* occupies.
///
/// # Examples
///
/// Remap a uniform pattern onto a two-group placement; destinations
/// stay inside the job:
///
/// ```
/// use df_topology::DragonflyParams;
/// use df_traffic::PatternSpec;
/// use df_workload::{JobTraffic, PlacementSpec};
///
/// let params = DragonflyParams::figure1();
/// let placement = PlacementSpec::ConsecutiveGroups { first: 1, count: 2, slots: None }
///     .resolve(&params, 0)
///     .unwrap();
/// let mut traffic = JobTraffic::new(&PatternSpec::Uniform, &placement, &params, 7).unwrap();
/// for vsrc in 0..16 {
///     let dst = traffic.dest_of_virtual(vsrc);
///     assert!(placement.nodes.contains(&dst));
/// }
/// ```
pub struct JobTraffic {
    nodes: Vec<NodeId>,
    group_size: u32,
    /// Virtual group count.
    k: u32,
    gen: PatternGen,
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

impl JobTraffic {
    /// Remap `spec` onto `placement` with a deterministic `seed`.
    /// `params.h` supplies the default ADVc spread.
    pub fn new(
        spec: &PatternSpec,
        placement: &ResolvedPlacement,
        params: &DragonflyParams,
        seed: u64,
    ) -> Result<Self, String> {
        let m = placement.nodes.len() as u32;
        if m < 2 {
            return Err("a job needs at least two nodes".into());
        }
        let k = placement.virtual_groups();
        let gen = Self::compile(spec, m, k, params.h, seed)?;
        Ok(Self {
            nodes: placement.nodes.clone(),
            group_size: placement.group_size,
            k,
            gen,
        })
    }

    fn compile(
        spec: &PatternSpec,
        m: u32,
        k: u32,
        h: u32,
        seed: u64,
    ) -> Result<PatternGen, String> {
        Ok(match spec {
            PatternSpec::Uniform => PatternGen::Uniform(SmallRng::seed_from_u64(seed)),
            PatternSpec::Adversarial { offset } => {
                if k < 2 {
                    return Err("adversarial pattern needs >= 2 virtual groups".into());
                }
                if *offset == 0 || *offset >= k {
                    return Err(format!("ADV offset {offset} out of range for {k} groups"));
                }
                PatternGen::Adversarial { offset: *offset, rng: SmallRng::seed_from_u64(seed) }
            }
            PatternSpec::AdvConsecutive { spread } => {
                if k < 2 {
                    return Err("ADVc pattern needs >= 2 virtual groups".into());
                }
                let spread = spread.unwrap_or(h).clamp(1, k - 1);
                PatternGen::AdvConsecutive { spread, rng: SmallRng::seed_from_u64(seed) }
            }
            PatternSpec::GroupLocal => PatternGen::GroupLocal(SmallRng::seed_from_u64(seed)),
            PatternSpec::Permutation => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut table: Vec<u32> = (0..m).collect();
                for i in (1..m as usize).rev() {
                    let j = rng.gen_range(0..=i);
                    table.swap(i, j);
                }
                // Repair fixed points so no node talks to itself.
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
                    return Err(format!("hot virtual index {hot} out of range ({m} nodes)"));
                }
                if !(0.0..=1.0).contains(fraction) {
                    return Err("hot-spot fraction must be in [0, 1]".into());
                }
                PatternGen::HotSpot {
                    hot: *hot,
                    fraction: *fraction,
                    rng: SmallRng::seed_from_u64(seed),
                }
            }
            PatternSpec::Mix { first, second, first_fraction } => {
                if !(0.0..=1.0).contains(first_fraction) {
                    return Err("mix fraction must be in [0, 1]".into());
                }
                PatternGen::Mix {
                    first: Box::new(Self::compile(first, m, k, h, derive_seed(seed, 1))?),
                    second: Box::new(Self::compile(second, m, k, h, derive_seed(seed, 2))?),
                    first_fraction: *first_fraction,
                    rng: SmallRng::seed_from_u64(seed),
                }
            }
        })
    }

    /// Destination for a packet generated at virtual index `vsrc`.
    pub fn dest_virtual(&mut self, vsrc: u32) -> u32 {
        let (m, gs, k) = (self.nodes.len() as u32, self.group_size, self.k);
        Self::gen_dest(&mut self.gen, vsrc, m, gs, k)
    }

    /// Uniform virtual index within virtual group `g` (the last group may
    /// be partial).
    fn node_in_group(rng: &mut SmallRng, g: u32, m: u32, gs: u32) -> u32 {
        let base = g * gs;
        let width = gs.min(m - base);
        base + rng.gen_range(0..width)
    }

    fn gen_dest(gen: &mut PatternGen, vsrc: u32, m: u32, gs: u32, k: u32) -> u32 {
        match gen {
            PatternGen::Uniform(rng) => loop {
                let v = rng.gen_range(0..m);
                if v != vsrc {
                    return v;
                }
            },
            PatternGen::Adversarial { offset, rng } => {
                let g = (vsrc / gs + *offset) % k;
                Self::node_in_group(rng, g, m, gs)
            }
            PatternGen::AdvConsecutive { spread, rng } => {
                let step = rng.gen_range(1..=*spread);
                let g = (vsrc / gs + step) % k;
                Self::node_in_group(rng, g, m, gs)
            }
            PatternGen::GroupLocal(rng) => loop {
                let v = Self::node_in_group(rng, vsrc / gs, m, gs);
                if v != vsrc || gs == 1 {
                    return v;
                }
            },
            PatternGen::Permutation(table) => table[vsrc as usize],
            PatternGen::HotSpot { hot, fraction, rng } => {
                if vsrc != *hot && rng.gen_bool(*fraction) {
                    *hot
                } else {
                    loop {
                        let v = rng.gen_range(0..m);
                        if v != vsrc {
                            return v;
                        }
                    }
                }
            }
            PatternGen::Mix { first, second, first_fraction, rng } => {
                if rng.gen_bool(*first_fraction) {
                    Self::gen_dest(first, vsrc, m, gs, k)
                } else {
                    Self::gen_dest(second, vsrc, m, gs, k)
                }
            }
        }
    }

    /// The job's nodes in virtual order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Destination node for a packet generated at the node with virtual
    /// index `vsrc` (panics if out of range).
    pub fn dest_of_virtual(&mut self, vsrc: u32) -> NodeId {
        let v = self.dest_virtual(vsrc);
        self.nodes[v as usize]
    }
}

/// Adapter so a remapped job pattern can drive any consumer of the
/// [`Traffic`] trait. Holds the node→virtual-index inverse map.
pub struct JobTrafficAdapter {
    inner: JobTraffic,
    /// `node.0 → virtual index`, `u32::MAX` outside the job.
    index_of: Vec<u32>,
}

impl JobTrafficAdapter {
    /// Build the adapter (inverse map sized to the whole machine).
    pub fn new(inner: JobTraffic, params: &DragonflyParams) -> Self {
        let mut index_of = vec![u32::MAX; params.nodes() as usize];
        for (v, n) in inner.nodes().iter().enumerate() {
            index_of[n.idx()] = v as u32;
        }
        Self { inner, index_of }
    }
}

impl Traffic for JobTrafficAdapter {
    fn dest(&mut self, src: NodeId) -> NodeId {
        let v = self.index_of[src.idx()];
        assert_ne!(v, u32::MAX, "source {src:?} is not part of this job");
        self.inner.dest_of_virtual(v)
    }

    fn name(&self) -> &'static str {
        "JOB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementSpec;

    fn params() -> DragonflyParams {
        DragonflyParams::small()
    }

    fn consecutive(count: u32) -> ResolvedPlacement {
        PlacementSpec::ConsecutiveGroups { first: 0, count, slots: None }
            .resolve(&params(), 0)
            .unwrap()
    }

    #[test]
    fn uniform_job_on_consecutive_groups_is_network_level_advc() {
        // The paper's §III anatomy: a job on h+1 consecutive groups with
        // *uniform* in-job traffic sends all its inter-group packets to
        // nearby consecutive groups.
        let p = params();
        let placement = consecutive(p.h + 1);
        let t = JobTraffic::new(&PatternSpec::Uniform, &placement, &p, 3).unwrap();
        let mut adapter = JobTrafficAdapter::new(t, &p);
        let mut cross_group = 0;
        for _ in 0..5_000 {
            let src = NodeId(0); // group 0
            let dst = adapter.dest(src);
            let g = dst.group(&p).0;
            assert!(g <= p.h, "destination group {g} outside the job");
            if g != 0 {
                cross_group += 1;
            }
        }
        assert!(cross_group > 3_000, "job traffic should be mostly inter-group");
    }

    #[test]
    fn remapped_advc_targets_following_job_groups() {
        let p = params();
        let placement = consecutive(6);
        let t = JobTraffic::new(&PatternSpec::AdvConsecutive { spread: None }, &placement, &p, 5)
            .unwrap();
        let mut adapter = JobTrafficAdapter::new(t, &p);
        // A node of job group 2 targets job groups 3..=5 only (spread h=3).
        let src = placement.nodes[(2 * placement.group_size) as usize];
        for _ in 0..2_000 {
            let dst = adapter.dest(src);
            let g = dst.group(&p).0;
            assert!((3..=5).contains(&g), "dst group {g}");
        }
    }

    #[test]
    fn destinations_stay_inside_the_job() {
        let p = params();
        let placement = PlacementSpec::RandomGroups { count: 4, slots: Some(vec![0, 2]) }
            .resolve(&p, 9)
            .unwrap();
        let member: Vec<bool> = {
            let mut v = vec![false; p.nodes() as usize];
            for n in &placement.nodes {
                v[n.idx()] = true;
            }
            v
        };
        for spec in [
            PatternSpec::Uniform,
            PatternSpec::Adversarial { offset: 1 },
            PatternSpec::AdvConsecutive { spread: Some(2) },
            PatternSpec::GroupLocal,
            PatternSpec::Permutation,
            PatternSpec::HotSpot { hot: 3, fraction: 0.3 },
            PatternSpec::Mix {
                first: Box::new(PatternSpec::Uniform),
                second: Box::new(PatternSpec::AdvConsecutive { spread: None }),
                first_fraction: 0.5,
            },
        ] {
            let t = JobTraffic::new(&spec, &placement, &p, 11).unwrap();
            let mut adapter = JobTrafficAdapter::new(t, &p);
            for i in (0..placement.nodes.len()).step_by(3) {
                let src = placement.nodes[i];
                let dst = adapter.dest(src);
                assert!(member[dst.idx()], "{}: {dst:?} outside job", spec.label());
            }
        }
    }

    #[test]
    fn permutation_is_bijective_over_the_job() {
        let p = params();
        let placement = consecutive(2);
        let t = JobTraffic::new(&PatternSpec::Permutation, &placement, &p, 7).unwrap();
        let mut adapter = JobTrafficAdapter::new(t, &p);
        let mut seen = vec![false; p.nodes() as usize];
        for &src in &placement.nodes {
            let dst = adapter.dest(src);
            assert_ne!(dst, src);
            assert!(!std::mem::replace(&mut seen[dst.idx()], true));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = params();
        let placement = consecutive(3);
        let mut a = JobTrafficAdapter::new(
            JobTraffic::new(&PatternSpec::Uniform, &placement, &p, 42).unwrap(),
            &p,
        );
        let mut b = JobTrafficAdapter::new(
            JobTraffic::new(&PatternSpec::Uniform, &placement, &p, 42).unwrap(),
            &p,
        );
        for &n in placement.nodes.iter().step_by(5) {
            assert_eq!(a.dest(n), b.dest(n));
        }
    }

    #[test]
    fn job_activity_window() {
        let job = JobSpec {
            name: "j".into(),
            placement: PlacementSpec::ConsecutiveGroups { first: 0, count: 2, slots: None },
            pattern: PatternSpec::Uniform,
            injection: InjectionSpec::Bernoulli,
            load: 0.2,
            start_cycle: Some(100),
            stop_cycle: Some(200),
        };
        assert!(!job.active(99));
        assert!(job.active(100));
        assert!(job.active(199));
        assert!(!job.active(200));
    }
}
