//! Job placements: which nodes of the machine a job occupies, and the
//! *virtual geometry* its traffic pattern is remapped onto.

use df_topology::{DragonflyParams, NodeId};
use df_traffic::derive_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Declarative placement of a job onto the machine.
///
/// Group-granular placements (`ConsecutiveGroups`, `Groups`,
/// `RandomGroups`) optionally restrict the job to a subset of the `p`
/// node slots on every router — this is how two jobs share every router
/// of the machine while staying node-disjoint (interference studies).
///
/// # Examples
///
/// Resolve a two-group allocation on the figure1 machine (`p=2, a=4`:
/// 8 nodes per group) and inspect its virtual geometry:
///
/// ```
/// use df_topology::DragonflyParams;
/// use df_workload::PlacementSpec;
///
/// let params = DragonflyParams::figure1();
/// let spec = PlacementSpec::ConsecutiveGroups { first: 1, count: 2, slots: None };
/// let placement = spec.resolve(&params, 0).unwrap();
/// assert_eq!(placement.nodes.len(), 16);
/// // One allocated machine group per virtual group.
/// assert_eq!(placement.group_size, 8);
/// assert_eq!(placement.virtual_groups(), 2);
///
/// // The same spec round-trips through the scenario JSON format.
/// let json = serde_json::to_string(&spec).unwrap();
/// assert!(json.contains("\"placement\":\"consecutive_groups\""));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "placement", rename_all = "snake_case")]
pub enum PlacementSpec {
    /// `count` consecutive groups starting at `first` — the scheduler's
    /// simplest choice and the paper's §III hazard.
    ConsecutiveGroups {
        /// First group of the allocation.
        first: u32,
        /// Number of consecutive groups.
        count: u32,
        /// Node slots used on every router (`None` = all `p`).
        slots: Option<Vec<u32>>,
    },
    /// An explicit group list (e.g. a scattered allocation).
    Groups {
        /// The groups, in job order.
        groups: Vec<u32>,
        /// Node slots used on every router (`None` = all `p`).
        slots: Option<Vec<u32>>,
    },
    /// `count` groups drawn without replacement from a seeded shuffle.
    RandomGroups {
        /// Number of groups.
        count: u32,
        /// Node slots used on every router (`None` = all `p`).
        slots: Option<Vec<u32>>,
    },
    /// `count` nodes dealt round-robin over all routers of the machine
    /// (slot-major: one node per router, then a second slot, …),
    /// starting `offset` deals in.
    RoundRobinRouters {
        /// Number of nodes.
        count: u32,
        /// Deals skipped before the first node (`None` = 0).
        offset: Option<u32>,
    },
    /// An explicit node list, in job order.
    Nodes {
        /// Raw node ids.
        nodes: Vec<u32>,
    },
}

/// A placement resolved against a concrete machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPlacement {
    /// The job's nodes, in virtual-index order.
    pub nodes: Vec<NodeId>,
    /// Virtual-group size for pattern remapping: group-granular
    /// placements put one allocated group's nodes in each virtual group;
    /// round-robin placements put one *machine group's routers* (at one
    /// slot) in each.
    pub group_size: u32,
}

impl ResolvedPlacement {
    /// Number of virtual groups (the last one may be partial).
    pub fn virtual_groups(&self) -> u32 {
        (self.nodes.len() as u32).div_ceil(self.group_size)
    }
}

fn resolve_slots(slots: &Option<Vec<u32>>, params: &DragonflyParams) -> Result<Vec<u32>, String> {
    match slots {
        None => Ok((0..params.p).collect()),
        Some(s) => {
            if s.is_empty() {
                return Err("slots list must not be empty".into());
            }
            let mut seen = vec![false; params.p as usize];
            for &slot in s {
                if slot >= params.p {
                    return Err(format!("slot {slot} out of range (p = {})", params.p));
                }
                if std::mem::replace(&mut seen[slot as usize], true) {
                    return Err(format!("slot {slot} listed twice"));
                }
            }
            Ok(s.clone())
        }
    }
}

fn group_nodes(params: &DragonflyParams, group: u32, slots: &[u32], out: &mut Vec<NodeId>) {
    for local in 0..params.a {
        let router = group * params.a + local;
        for &slot in slots {
            out.push(NodeId(router * params.p + slot));
        }
    }
}

impl PlacementSpec {
    /// Resolve to a concrete node set on `params`. `seed` only affects
    /// [`PlacementSpec::RandomGroups`].
    pub fn resolve(
        &self,
        params: &DragonflyParams,
        seed: u64,
    ) -> Result<ResolvedPlacement, String> {
        match self {
            PlacementSpec::ConsecutiveGroups { first, count, slots } => {
                if *count == 0 || first + count > params.groups() {
                    return Err(format!(
                        "groups {first}..{} out of range (machine has {})",
                        first + count,
                        params.groups()
                    ));
                }
                let groups: Vec<u32> = (*first..first + count).collect();
                Self::resolve_group_list(params, &groups, slots)
            }
            PlacementSpec::Groups { groups, slots } => {
                let mut seen = vec![false; params.groups() as usize];
                for &g in groups {
                    if g >= params.groups() {
                        return Err(format!("group {g} out of range"));
                    }
                    if std::mem::replace(&mut seen[g as usize], true) {
                        return Err(format!("group {g} listed twice"));
                    }
                }
                if groups.is_empty() {
                    return Err("group list must not be empty".into());
                }
                Self::resolve_group_list(params, groups, slots)
            }
            PlacementSpec::RandomGroups { count, slots } => {
                if *count == 0 || *count > params.groups() {
                    return Err(format!("cannot pick {count} of {} groups", params.groups()));
                }
                let mut all: Vec<u32> = (0..params.groups()).collect();
                let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 0xD15C));
                for i in (1..all.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    all.swap(i, j);
                }
                all.truncate(*count as usize);
                Self::resolve_group_list(params, &all, slots)
            }
            PlacementSpec::RoundRobinRouters { count, offset } => {
                let routers = params.routers();
                let offset = offset.unwrap_or(0);
                if *count == 0 || offset + count > routers * params.p {
                    return Err(format!(
                        "round-robin range {offset}..{} exceeds {} node deals",
                        offset + count,
                        routers * params.p
                    ));
                }
                let nodes = (offset..offset + count)
                    .map(|k| {
                        let router = k % routers;
                        let slot = k / routers;
                        NodeId(router * params.p + slot)
                    })
                    .collect();
                // One deal covers a group's `a` routers consecutively, so
                // chunks of `a` nodes are group-aligned.
                Ok(ResolvedPlacement { nodes, group_size: params.a })
            }
            PlacementSpec::Nodes { nodes } => {
                let mut seen = vec![false; params.nodes() as usize];
                for &n in nodes {
                    if n >= params.nodes() {
                        return Err(format!("node {n} out of range"));
                    }
                    if std::mem::replace(&mut seen[n as usize], true) {
                        return Err(format!("node {n} listed twice"));
                    }
                }
                if nodes.is_empty() {
                    return Err("node list must not be empty".into());
                }
                let m = nodes.len() as u32;
                Ok(ResolvedPlacement {
                    nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
                    group_size: (params.a * params.p).min(m),
                })
            }
        }
    }

    fn resolve_group_list(
        params: &DragonflyParams,
        groups: &[u32],
        slots: &Option<Vec<u32>>,
    ) -> Result<ResolvedPlacement, String> {
        let slots = resolve_slots(slots, params)?;
        let mut nodes = Vec::with_capacity(groups.len() * (params.a * slots.len() as u32) as usize);
        for &g in groups {
            group_nodes(params, g, &slots, &mut nodes);
        }
        Ok(ResolvedPlacement { nodes, group_size: params.a * slots.len() as u32 })
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            PlacementSpec::ConsecutiveGroups { first, count, .. } => {
                format!("groups[{first}..{}]", first + count)
            }
            PlacementSpec::Groups { groups, .. } => format!("groups{groups:?}"),
            PlacementSpec::RandomGroups { count, .. } => format!("random-{count}-groups"),
            PlacementSpec::RoundRobinRouters { count, .. } => format!("rr-{count}-nodes"),
            PlacementSpec::Nodes { nodes } => format!("{}-explicit-nodes", nodes.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DragonflyParams {
        DragonflyParams::small() // p=3, a=6, h=3, 19 groups, 342 nodes
    }

    #[test]
    fn consecutive_groups_cover_their_nodes_in_group_major_order() {
        let p = params();
        let r = PlacementSpec::ConsecutiveGroups { first: 1, count: 2, slots: None }
            .resolve(&p, 0)
            .unwrap();
        assert_eq!(r.nodes.len(), (2 * p.a * p.p) as usize);
        assert_eq!(r.group_size, p.a * p.p);
        assert_eq!(r.virtual_groups(), 2);
        // First virtual group is exactly machine group 1.
        for (i, n) in r.nodes.iter().take(r.group_size as usize).enumerate() {
            assert_eq!(n.group(&p).0, 1, "entry {i}");
        }
        assert!(r.nodes[r.group_size as usize..].iter().all(|n| n.group(&p).0 == 2));
    }

    #[test]
    fn slot_subsets_share_routers_disjointly() {
        let p = params();
        let a = PlacementSpec::ConsecutiveGroups { first: 0, count: 19, slots: Some(vec![0, 1]) }
            .resolve(&p, 0)
            .unwrap();
        let b = PlacementSpec::ConsecutiveGroups { first: 0, count: 19, slots: Some(vec![2]) }
            .resolve(&p, 0)
            .unwrap();
        assert_eq!(a.nodes.len() + b.nodes.len(), p.nodes() as usize);
        let mut seen = vec![false; p.nodes() as usize];
        for n in a.nodes.iter().chain(&b.nodes) {
            assert!(!std::mem::replace(&mut seen[n.idx()], true), "overlap at {n:?}");
        }
        assert_eq!(a.group_size, p.a * 2);
        assert_eq!(b.group_size, p.a);
    }

    #[test]
    fn random_groups_deterministic_per_seed_and_distinct() {
        let p = params();
        let spec = PlacementSpec::RandomGroups { count: 4, slots: None };
        let a = spec.resolve(&p, 7).unwrap();
        let b = spec.resolve(&p, 7).unwrap();
        let c = spec.resolve(&p, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.nodes, c.nodes);
        assert_eq!(a.virtual_groups(), 4);
    }

    #[test]
    fn round_robin_deals_one_node_per_router() {
        let p = params();
        let routers = p.routers();
        let r = PlacementSpec::RoundRobinRouters { count: routers, offset: None }
            .resolve(&p, 0)
            .unwrap();
        assert_eq!(r.nodes.len(), routers as usize);
        for (k, n) in r.nodes.iter().enumerate() {
            assert_eq!(n.router(&p).0, k as u32);
            assert_eq!(n.slot(&p), 0);
        }
        // Offset by one full deal lands on slot 1.
        let r2 = PlacementSpec::RoundRobinRouters { count: routers, offset: Some(routers) }
            .resolve(&p, 0)
            .unwrap();
        assert!(r2.nodes.iter().all(|n| n.slot(&p) == 1));
    }

    #[test]
    fn invalid_specs_rejected() {
        let p = params();
        assert!(PlacementSpec::ConsecutiveGroups { first: 18, count: 2, slots: None }
            .resolve(&p, 0)
            .is_err());
        assert!(PlacementSpec::Groups { groups: vec![1, 1], slots: None }.resolve(&p, 0).is_err());
        assert!(PlacementSpec::ConsecutiveGroups { first: 0, count: 1, slots: Some(vec![3]) }
            .resolve(&p, 0)
            .is_err());
        assert!(PlacementSpec::Nodes { nodes: vec![999] }.resolve(&p, 0).is_err());
        assert!(PlacementSpec::RoundRobinRouters { count: 0, offset: None }
            .resolve(&p, 0)
            .is_err());
    }
}
