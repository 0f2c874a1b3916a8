//! Group→shard partitioning for sharded simulation.
//!
//! A [`ShardPlan`] splits the dragonfly's groups into `S` contiguous,
//! balanced ranges. Contiguity matters: routers and nodes are numbered
//! group-major (`RouterId = group·a + local`, `NodeId = router·p + slot`),
//! so a contiguous group range is also a contiguous router range and a
//! contiguous node range — each shard owns a *slice* of every per-router
//! and per-node array, and global arrays can be reassembled by splicing
//! the slices back at their base offsets.
//!
//! The plan is a pure function of `(groups, shards)`; it contains no
//! state of its own, so it is trivially `Copy` and can be consulted from
//! any thread.

use crate::ids::{GroupId, NodeId, RouterId};
use crate::params::DragonflyParams;
use std::ops::Range;

/// A balanced contiguous partition of dragonfly groups into shards.
///
/// Shard `s` owns groups `[s·G/S, (s+1)·G/S)` (integer division), which
/// differs in size by at most one group across shards. The inverse map
/// `shard_of_group` is closed-form (no table): group `g` lives in shard
/// `((g+1)·S − 1) / G`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    params: DragonflyParams,
    groups: u32,
    shards: u32,
}

impl ShardPlan {
    /// Build a plan for `shards` shards over `params`' groups. A request
    /// for more shards than groups is clamped (an empty shard would be
    /// pure overhead), and `0` is treated as `1`.
    pub fn new(params: DragonflyParams, shards: u32) -> Self {
        let groups = params.groups();
        Self { params, groups, shards: shards.clamp(1, groups) }
    }

    /// Number of shards in the plan (after clamping).
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of groups being partitioned.
    #[inline]
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// The sizing parameters the plan was built for.
    #[inline]
    pub fn params(&self) -> &DragonflyParams {
        &self.params
    }

    /// First group owned by shard `s` (equals `groups()` for `s == shards()`).
    #[inline]
    pub fn group_start(&self, s: u32) -> u32 {
        debug_assert!(s <= self.shards);
        ((s as u64 * self.groups as u64) / self.shards as u64) as u32
    }

    /// Groups owned by shard `s`.
    #[inline]
    pub fn group_range(&self, s: u32) -> Range<u32> {
        self.group_start(s)..self.group_start(s + 1)
    }

    /// Routers owned by shard `s` (contiguous because ids are group-major).
    #[inline]
    pub fn router_range(&self, s: u32) -> Range<u32> {
        let r = self.group_range(s);
        r.start * self.params.a..r.end * self.params.a
    }

    /// Nodes owned by shard `s` (contiguous because ids are router-major).
    #[inline]
    pub fn node_range(&self, s: u32) -> Range<u32> {
        let r = self.router_range(s);
        r.start * self.params.p..r.end * self.params.p
    }

    /// The shard owning group `g`. Closed form: the largest `s` with
    /// `group_start(s) <= g`, i.e. `((g+1)·S − 1) / G`.
    #[inline]
    pub fn shard_of_group(&self, g: GroupId) -> u32 {
        debug_assert!(g.0 < self.groups);
        (((g.0 as u64 + 1) * self.shards as u64 - 1) / self.groups as u64) as u32
    }

    /// The shard owning router `r`.
    #[inline]
    pub fn shard_of_router(&self, r: RouterId) -> u32 {
        self.shard_of_group(GroupId(r.0 / self.params.a))
    }

    /// The shard owning node `n`.
    #[inline]
    pub fn shard_of_node(&self, n: NodeId) -> u32 {
        self.shard_of_group(GroupId(n.0 / (self.params.a * self.params.p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_balanced_contiguous_and_exhaustive() {
        for params in
            [DragonflyParams::figure1(), DragonflyParams::small(), DragonflyParams::paper()]
        {
            let groups = params.groups();
            for shards in 1..=groups.min(16) {
                let plan = ShardPlan::new(params, shards);
                assert_eq!(plan.group_start(0), 0);
                assert_eq!(plan.group_start(shards), groups);
                let mut covered = 0;
                for s in 0..shards {
                    let r = plan.group_range(s);
                    assert_eq!(r.start, covered, "contiguous at shard {s}");
                    let len = r.end - r.start;
                    // Balanced: sizes differ by at most one.
                    assert!(len >= groups / shards && len <= groups / shards + 1);
                    covered = r.end;
                }
                assert_eq!(covered, groups);
            }
        }
    }

    #[test]
    fn shard_of_group_matches_linear_scan() {
        for params in [DragonflyParams::figure1(), DragonflyParams::paper()] {
            let groups = params.groups();
            for shards in [1, 2, 3, 5, groups] {
                let plan = ShardPlan::new(params, shards);
                for g in 0..groups {
                    let by_scan = (0..shards)
                        .find(|&s| plan.group_range(s).contains(&g))
                        .expect("every group is owned");
                    assert_eq!(plan.shard_of_group(GroupId(g)), by_scan, "g={g} S={shards}");
                }
            }
        }
    }

    #[test]
    fn router_and_node_ranges_follow_group_major_ids() {
        let params = DragonflyParams::figure1();
        let plan = ShardPlan::new(params, 2);
        // 9 groups → shard 0 owns [0,4), shard 1 owns [4,9).
        assert_eq!(plan.group_range(0), 0..4);
        assert_eq!(plan.group_range(1), 4..9);
        assert_eq!(plan.router_range(0), 0..16);
        assert_eq!(plan.router_range(1), 16..36);
        assert_eq!(plan.node_range(0), 0..32);
        assert_eq!(plan.node_range(1), 32..72);
        for r in 0..params.routers() {
            let s = plan.shard_of_router(RouterId(r));
            assert!(plan.router_range(s).contains(&r));
        }
        for n in 0..params.nodes() {
            let s = plan.shard_of_node(NodeId(n));
            assert!(plan.node_range(s).contains(&n));
        }
    }

    #[test]
    fn shard_count_is_clamped_to_groups() {
        let params = DragonflyParams::figure1();
        assert_eq!(ShardPlan::new(params, 0).shards(), 1);
        assert_eq!(ShardPlan::new(params, 9).shards(), 9);
        assert_eq!(ShardPlan::new(params, 100).shards(), 9);
        // Clamped plans still partition exhaustively with 1 group each.
        let plan = ShardPlan::new(params, 100);
        for s in 0..9 {
            assert_eq!(plan.group_range(s).len(), 1);
        }
    }
}
