//! The assembled Dragonfly topology: wiring queries and minimal routes.

use crate::arrangement::Arrangement;
use crate::ids::{GroupId, NodeId, Port, PortKind, RouterId};
use crate::params::DragonflyParams;
use serde::{Deserialize, Serialize};

/// What sits at the far end of a router port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortTarget {
    /// Injection port: the attached compute node.
    Node(NodeId),
    /// Local or global port: a peer router, entered through `port`.
    Router {
        /// Peer router.
        router: RouterId,
        /// The peer's port on the shared link.
        port: Port,
    },
}

/// A fully-resolved canonical Dragonfly topology.
///
/// Construction precomputes, for every group, the bijection between group
/// offsets and global-link slots in both directions, so all wiring queries
/// are O(1) table lookups.
#[derive(Debug, Clone)]
pub struct Topology {
    params: DragonflyParams,
    arrangement: Arrangement,
    /// `offset_to_slot[g][k-1] = i*h + j` for destination group `(g+k) % G`.
    offset_to_slot: Vec<Vec<u32>>,
    /// `slot_to_offset[g][i*h + j] = k`.
    slot_to_offset: Vec<Vec<u32>>,
}

impl Topology {
    /// Build a topology for `params` under `arrangement`.
    pub fn new(params: DragonflyParams, arrangement: Arrangement) -> Self {
        let groups = params.groups();
        let links = params.global_links_per_group();
        let mut offset_to_slot = Vec::with_capacity(groups as usize);
        let mut slot_to_offset = Vec::with_capacity(groups as usize);
        for g in 0..groups {
            let table = arrangement.offset_to_slot_table(g, groups);
            debug_assert_eq!(table.len(), links as usize);
            let mut inv = vec![u32::MAX; links as usize];
            for (k_minus_1, &slot) in table.iter().enumerate() {
                inv[slot as usize] = k_minus_1 as u32 + 1;
            }
            debug_assert!(inv.iter().all(|&k| k != u32::MAX));
            offset_to_slot.push(table);
            slot_to_offset.push(inv);
        }
        Self { params, arrangement, offset_to_slot, slot_to_offset }
    }

    /// The sizing parameters.
    #[inline]
    pub fn params(&self) -> &DragonflyParams {
        &self.params
    }

    /// The arrangement in use.
    #[inline]
    pub fn arrangement(&self) -> Arrangement {
        self.arrangement
    }

    /// Group offset `(dst - src) mod G`, in `0..G`.
    #[inline]
    pub fn group_offset(&self, src: GroupId, dst: GroupId) -> u32 {
        let g = self.params.groups();
        (dst.0 + g - src.0) % g
    }

    /// The router (by global id) and global-port index `j` in group `g`
    /// owning the link to group `dst`.
    ///
    /// # Panics
    /// Panics in debug builds if `g == dst` (no self-link exists).
    #[inline]
    pub fn exit_to_group(&self, g: GroupId, dst: GroupId) -> (RouterId, u32) {
        let k = self.group_offset(g, dst);
        debug_assert!(k != 0, "no global link from a group to itself");
        let slot = self.offset_to_slot[g.idx()][(k - 1) as usize];
        let (i, j) = (slot / self.params.h, slot % self.params.h);
        (RouterId::from_group_local(&self.params, g, i), j)
    }

    /// Destination group of global port `j` on router `r`.
    #[inline]
    pub fn global_port_target_group(&self, r: RouterId, j: u32) -> GroupId {
        let g = r.group(&self.params);
        let slot = r.local_index(&self.params) * self.params.h + j;
        let k = self.slot_to_offset[g.idx()][slot as usize];
        GroupId((g.0 + k) % self.params.groups())
    }

    /// Peer endpoint (router, global-port index) of global port `j` on
    /// router `r`.
    pub fn global_peer(&self, r: RouterId, j: u32) -> (RouterId, u32) {
        let dst_group = self.global_port_target_group(r, j);
        let src_group = r.group(&self.params);
        // The same physical link is the one the peer group stores under the
        // complementary offset G - k.
        let (peer, pj) = self.exit_to_group(dst_group, src_group);
        debug_assert_eq!(self.global_port_target_group(peer, pj), src_group);
        (peer, pj)
    }

    /// Full wiring query: what is connected to `port` of `router`?
    pub fn port_target(&self, router: RouterId, port: Port) -> PortTarget {
        let p = &self.params;
        match p.port_kind(port) {
            PortKind::Injection => PortTarget::Node(NodeId::from_router_slot(p, router, port.0)),
            PortKind::Local => {
                let my = router.local_index(p);
                let peer_local = p.local_port_peer(my, port);
                let peer = RouterId::from_group_local(p, router.group(p), peer_local);
                PortTarget::Router { router: peer, port: p.local_port(peer_local, my) }
            }
            PortKind::Global => {
                let j = p.global_port_offset(port);
                let (peer, pj) = self.global_peer(router, j);
                PortTarget::Router { router: peer, port: p.global_port(pj) }
            }
        }
    }

    /// The *bottleneck router* of group `g` under ADVc traffic: the router
    /// owning the global link to group `g+1`. Under palmtree it owns the
    /// links to **all** of `g+1..g+h`.
    pub fn advc_bottleneck(&self, g: GroupId) -> RouterId {
        let next = GroupId((g.0 + 1) % self.params.groups());
        self.exit_to_group(g, next).0
    }

    /// Whether all `h` consecutive groups after `g` are reached through a
    /// single router (true for palmtree; generally false for random).
    pub fn advc_overlap_is_total(&self, g: GroupId) -> bool {
        let first = self.advc_bottleneck(g);
        (2..=self.params.h).all(|k| {
            let dst = GroupId((g.0 + k) % self.params.groups());
            self.exit_to_group(g, dst).0 == first
        })
    }

    /// Local and global link counts on the minimal path between two nodes
    /// (excluding the injection/ejection links). At most `(2, 1)`.
    pub fn min_path_links(&self, src: NodeId, dst: NodeId) -> (u32, u32) {
        let p = &self.params;
        let (sr, dr) = (src.router(p), dst.router(p));
        if sr == dr {
            return (0, 0);
        }
        let (sg, dg) = (sr.group(p), dr.group(p));
        if sg == dg {
            return (1, 0);
        }
        let (exit, j) = self.exit_to_group(sg, dg);
        let (entry, _) = self.global_peer(exit, j);
        let locals = u32::from(exit != sr) + u32::from(entry != dr);
        (locals, 1)
    }

    /// Number of link hops on the minimal path between two nodes
    /// (0 if same router — no network traversal; up to 3: local, global,
    /// local, always excluding the injection link).
    pub fn min_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        let (l, g) = self.min_path_links(src, dst);
        l + g
    }

    /// Iterate over every router id.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> {
        (0..self.params.routers()).map(RouterId)
    }

    /// Iterate over every node id.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.params.nodes()).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(DragonflyParams::paper(), Arrangement::Palmtree)
    }

    #[test]
    fn global_peer_is_involution() {
        let t = topo();
        for r in t.routers() {
            for j in 0..t.params().h {
                let (pr, pj) = t.global_peer(r, j);
                assert_eq!(t.global_peer(pr, pj), (r, j));
                assert_ne!(pr.group(t.params()), r.group(t.params()));
            }
        }
    }

    #[test]
    fn every_group_pair_connected_once() {
        let t = topo();
        let g = t.params().groups();
        let mut seen = vec![false; (g * g) as usize];
        for r in t.routers() {
            for j in 0..t.params().h {
                let src = r.group(t.params());
                let dst = t.global_port_target_group(r, j);
                let key = (src.0 * g + dst.0) as usize;
                assert!(!seen[key], "duplicate link {src:?}->{dst:?}");
                seen[key] = true;
            }
        }
        // All off-diagonal ordered pairs covered.
        for a in 0..g {
            for b in 0..g {
                assert_eq!(seen[(a * g + b) as usize], a != b);
            }
        }
    }

    #[test]
    fn palmtree_bottleneck_is_last_router() {
        let t = topo();
        for g in 0..t.params().groups() {
            let b = t.advc_bottleneck(GroupId(g));
            assert_eq!(b.local_index(t.params()), t.params().a - 1);
            assert!(t.advc_overlap_is_total(GroupId(g)));
        }
    }

    #[test]
    fn palmtree_receiver_is_router_zero() {
        // Traffic from g to g+1 exits via router a-1 and must *enter* group
        // g+1 at router 0 (the paper's R0 observation).
        let t = topo();
        let (exit, j) = t.exit_to_group(GroupId(0), GroupId(1));
        let (entry, _) = t.global_peer(exit, j);
        assert_eq!(entry.local_index(t.params()), 0);
    }

    #[test]
    fn random_arrangement_breaks_total_overlap() {
        let t = Topology::new(DragonflyParams::paper(), Arrangement::Random { seed: 3 });
        let total =
            (0..t.params().groups()).filter(|&g| t.advc_overlap_is_total(GroupId(g))).count();
        assert_eq!(total, 0, "random arrangement should scatter consecutive groups");
    }

    #[test]
    fn port_target_symmetry() {
        let t = topo();
        for r in t.routers().take(50) {
            for q in 0..t.params().radix() {
                match t.port_target(r, Port(q)) {
                    PortTarget::Node(n) => {
                        assert_eq!(n.router(t.params()), r);
                    }
                    PortTarget::Router { router, port } => match t.port_target(router, port) {
                        PortTarget::Router { router: back, port: bp } => {
                            assert_eq!((back, bp), (r, Port(q)));
                        }
                        _ => panic!("asymmetric wiring"),
                    },
                }
            }
        }
    }

    #[test]
    fn min_hops_bounds() {
        let t = Topology::new(DragonflyParams::small(), Arrangement::Palmtree);
        for s in t.nodes() {
            for d in t.nodes().step_by(17) {
                let h = t.min_hops(s, d);
                assert!(h <= 3);
                if s.router(t.params()) == d.router(t.params()) {
                    assert_eq!(h, 0);
                }
            }
        }
    }
}
