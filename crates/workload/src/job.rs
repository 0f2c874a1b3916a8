//! Jobs: a placement, a traffic pattern remapped into the job's node
//! set (by [`df_traffic::JobTraffic`]), an injection process, a load, and
//! a lifetime.

use crate::injection::InjectionSpec;
use crate::placement::PlacementSpec;
use df_traffic::PatternSpec;
use serde::{Deserialize, Serialize};

/// Declarative description of one job in a scenario.
///
/// # Examples
///
/// A job with a bounded lifetime generates only inside its
/// `[start_cycle, stop_cycle)` window — the simulator gates the job's
/// generation source with it and frees the job's node slots at departure
/// for reuse by later arrivals:
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
/// assert_eq!(job.lifetime(), (1_000, 5_000));
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
    /// The job's half-open lifetime `[start, stop)` with defaults
    /// resolved (`0` / `u64::MAX`).
    #[inline]
    pub fn lifetime(&self) -> (u64, u64) {
        (self.start_cycle.unwrap_or(0), self.stop_cycle.unwrap_or(u64::MAX))
    }
}

/// Whether two half-open `[start, stop)` lifetimes overlap: the
/// predicate `ScenarioSpec::validate` decides with when two jobs may
/// share nodes (they may iff their lifetimes do **not** overlap).
#[inline]
pub(crate) fn lifetimes_overlap(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::ResolvedPlacement;
    use df_topology::{DragonflyParams, NodeId};
    use df_traffic::JobTraffic;

    fn params() -> DragonflyParams {
        DragonflyParams::small()
    }

    fn consecutive(count: u32) -> ResolvedPlacement {
        PlacementSpec::ConsecutiveGroups { first: 0, count, slots: None }
            .resolve(&params(), 0)
            .unwrap()
    }

    fn traffic(spec: &PatternSpec, placement: &ResolvedPlacement, seed: u64) -> JobTraffic {
        JobTraffic::new(spec, placement.nodes.clone(), placement.group_size, &params(), seed)
            .unwrap()
    }

    fn all_variants() -> [PatternSpec; 8] {
        [
            PatternSpec::Uniform,
            PatternSpec::Adversarial { offset: 1 },
            PatternSpec::AdvConsecutive { spread: None },
            PatternSpec::AdvConsecutive { spread: Some(2) },
            PatternSpec::GroupLocal,
            PatternSpec::Permutation,
            PatternSpec::HotSpot { hot: 0, fraction: 0.2 },
            PatternSpec::Mix {
                first: Box::new(PatternSpec::Uniform),
                second: Box::new(PatternSpec::AdvConsecutive { spread: None }),
                first_fraction: 0.5,
            },
        ]
    }

    #[test]
    fn uniform_job_on_consecutive_groups_is_network_level_advc() {
        // The paper's §III anatomy: a job on h+1 consecutive groups with
        // *uniform* in-job traffic sends all its inter-group packets to
        // nearby consecutive groups.
        let p = params();
        let mut t = traffic(&PatternSpec::Uniform, &consecutive(p.h + 1), 3);
        let mut cross_group = 0;
        for _ in 0..5_000 {
            let src = NodeId(0); // group 0
            let dst = t.dest(src);
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
        let mut t = traffic(&PatternSpec::AdvConsecutive { spread: None }, &placement, 5);
        // A node of job group 2 targets job groups 3..=5 only (spread h=3).
        let src = placement.nodes[(2 * placement.group_size) as usize];
        for _ in 0..2_000 {
            let dst = t.dest(src);
            let g = dst.group(&p).0;
            assert!((3..=5).contains(&g), "dst group {g}");
        }
    }

    fn scattered() -> ResolvedPlacement {
        PlacementSpec::RandomGroups { count: 4, slots: Some(vec![0, 2]) }
            .resolve(&params(), 9)
            .unwrap()
    }

    #[test]
    fn destinations_stay_inside_the_job() {
        let p = params();
        let placement = scattered();
        let member: Vec<bool> = {
            let mut v = vec![false; p.nodes() as usize];
            for n in &placement.nodes {
                v[n.idx()] = true;
            }
            v
        };
        for spec in all_variants() {
            let mut t = traffic(&spec, &placement, 11);
            for i in (0..placement.nodes.len()).step_by(3) {
                let src = placement.nodes[i];
                let dst = t.dest(src);
                assert!(member[dst.idx()], "{}: {dst:?} outside job", spec.label());
            }
        }
    }

    /// The remapped destination streams, pinned: the first 24 draws (seed
    /// 11) over every third node, wrapping, of four random groups at
    /// slots 0 and 2 of the 342-node machine. Recorded at the commit
    /// before the generator moved from this crate into `df-traffic`;
    /// every row is as it was — these are the streams behind every
    /// scenario golden and every result `df-service` has cached.
    #[test]
    fn job_streams_are_pinned() {
        #[rustfmt::skip]
        let expected: [[u32; 24]; 8] = [
            [204, 212, 296, 200, 69, 66, 198, 297, 138, 288, 305, 300, 63, 204, 303, 203, 206, 63, 69, 129, 302, 140, 134, 294],
            [204, 212, 206, 200, 69, 66, 54, 68, 297, 300, 288, 305, 138, 135, 132, 141, 203, 206, 207, 213, 57, 68, 68, 62],
            [68, 290, 66, 212, 66, 71, 135, 303, 296, 303, 212, 296, 209, 129, 215, 209, 288, 62, 60, 203, 290, 143, 71, 63],
            [212, 56, 210, 212, 66, 71, 63, 69, 134, 303, 302, 134, 137, 201, 215, 209, 54, 62, 60, 203, 56, 305, 71, 297],
            [132, 140, 134, 128, 213, 210, 198, 207, 66, 54, 71, 66, 297, 294, 303, 293, 134, 135, 141, 129, 212, 212, 206, 204],
            [60, 129, 206, 69, 212, 63, 132, 200, 143, 213, 57, 135, 68, 207, 290, 140, 60, 129, 206, 69, 212, 63, 132, 200],
            [204, 296, 69, 198, 126, 138, 305, 63, 126, 203, 69, 126, 140, 294, 140, 56, 215, 137, 288, 126, 290, 63, 294, 296],
            [68, 59, 210, 288, 62, 299, 65, 128, 201, 290, 198, 60, 60, 59, 206, 71, 56, 299, 299, 132, 126, 141, 62, 131],
        ];
        let placement = scattered();
        let m = placement.nodes.len();
        for (spec, want) in all_variants().iter().zip(&expected) {
            let mut t = traffic(spec, &placement, 11);
            let got: Vec<u32> = (0..24).map(|i| t.dest(placement.nodes[(3 * i) % m]).0).collect();
            assert_eq!(got, want, "{} stream moved", spec.label());
        }
    }

    #[test]
    fn permutation_is_bijective_over_the_job() {
        let p = params();
        let placement = consecutive(2);
        let mut t = traffic(&PatternSpec::Permutation, &placement, 7);
        let mut seen = vec![false; p.nodes() as usize];
        for &src in &placement.nodes {
            let dst = t.dest(src);
            assert_ne!(dst, src);
            assert!(!std::mem::replace(&mut seen[dst.idx()], true));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let placement = consecutive(3);
        let mut a = traffic(&PatternSpec::Uniform, &placement, 42);
        let mut b = traffic(&PatternSpec::Uniform, &placement, 42);
        for &n in placement.nodes.iter().step_by(5) {
            assert_eq!(a.dest(n), b.dest(n));
        }
    }
}
