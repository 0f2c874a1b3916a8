//! Typed identifiers for network entities.
//!
//! All identifiers are thin `u32` newtypes so they stay `Copy` and cheap to
//! store in per-packet state, while preventing the classic "router index
//! used as group index" bug family.

use crate::params::DragonflyParams;
use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Raw index as `usize`, for table lookups.
            #[inline]
            pub fn idx(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// A group of the Dragonfly network, in `0..params.groups()`.
    GroupId
);
id_type!(
    /// A router identified *globally*, in `0..params.routers()`.
    /// `RouterId = group * a + local_index`.
    RouterId
);
id_type!(
    /// A compute node identified globally, in `0..params.nodes()`.
    /// `NodeId = router * p + slot`.
    NodeId
);

/// A port of a router. Ports are laid out contiguously:
/// `[0, p)` injection, `[p, p + a - 1)` local, `[p + a - 1, radix)` global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Port(pub u32);

impl Port {
    /// Raw index as `usize`, for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The three classes of router port, in the order they are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortKind {
    /// Connects a compute node to its router.
    Injection,
    /// Intra-group link to another router of the same group.
    Local,
    /// Inter-group link.
    Global,
}

impl RouterId {
    /// Build from a group and the router's index within it.
    #[inline]
    pub fn from_group_local(params: &DragonflyParams, group: GroupId, local: u32) -> Self {
        debug_assert!(local < params.a);
        RouterId(group.0 * params.a + local)
    }

    /// The group this router belongs to.
    #[inline]
    pub fn group(self, params: &DragonflyParams) -> GroupId {
        GroupId(self.0 / params.a)
    }

    /// The router's index within its group, in `0..a`.
    #[inline]
    pub fn local_index(self, params: &DragonflyParams) -> u32 {
        self.0 % params.a
    }
}

impl NodeId {
    /// Build from a router and the node's slot on it.
    #[inline]
    pub fn from_router_slot(params: &DragonflyParams, router: RouterId, slot: u32) -> Self {
        debug_assert!(slot < params.p);
        NodeId(router.0 * params.p + slot)
    }

    /// The router this node is attached to.
    #[inline]
    pub fn router(self, params: &DragonflyParams) -> RouterId {
        RouterId(self.0 / params.p)
    }

    /// The node's slot on its router, in `0..p` — also its injection port.
    #[inline]
    pub fn slot(self, params: &DragonflyParams) -> u32 {
        self.0 % params.p
    }

    /// The group this node belongs to.
    #[inline]
    pub fn group(self, params: &DragonflyParams) -> GroupId {
        self.router(params).group(params)
    }
}

/// Port-layout helpers.
impl DragonflyParams {
    /// Classify a port.
    #[inline]
    pub fn port_kind(&self, port: Port) -> PortKind {
        debug_assert!(port.0 < self.radix());
        if port.0 < self.p {
            PortKind::Injection
        } else if port.0 < self.p + self.a - 1 {
            PortKind::Local
        } else {
            PortKind::Global
        }
    }

    /// Injection port for node slot `s`.
    #[inline]
    pub fn injection_port(&self, slot: u32) -> Port {
        debug_assert!(slot < self.p);
        Port(slot)
    }

    /// Local port on router `r` (local index) leading to router `peer`
    /// (local index) in the same group.
    #[inline]
    pub fn local_port(&self, r: u32, peer: u32) -> Port {
        debug_assert!(r != peer, "no local port to self");
        debug_assert!(r < self.a && peer < self.a);
        // Skip the router's own slot so the a-1 local ports stay dense.
        let rel = if peer < r { peer } else { peer - 1 };
        Port(self.p + rel)
    }

    /// Peer router (local index) reached through local port `port` of
    /// router `r` (local index).
    #[inline]
    pub fn local_port_peer(&self, r: u32, port: Port) -> u32 {
        debug_assert_eq!(self.port_kind(port), PortKind::Local);
        let rel = port.0 - self.p;
        if rel < r {
            rel
        } else {
            rel + 1
        }
    }

    /// Global port number `j` (`0..h`) as a router [`Port`].
    #[inline]
    pub fn global_port(&self, j: u32) -> Port {
        debug_assert!(j < self.h);
        Port(self.p + self.a - 1 + j)
    }

    /// The global-port index `j` of a global [`Port`].
    #[inline]
    pub fn global_port_offset(&self, port: Port) -> u32 {
        debug_assert_eq!(self.port_kind(port), PortKind::Global);
        port.0 - (self.p + self.a - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DragonflyParams {
        DragonflyParams::paper()
    }

    #[test]
    fn router_group_roundtrip() {
        let p = params();
        for g in 0..p.groups() {
            for i in 0..p.a {
                let r = RouterId::from_group_local(&p, GroupId(g), i);
                assert_eq!(r.group(&p), GroupId(g));
                assert_eq!(r.local_index(&p), i);
            }
        }
    }

    #[test]
    fn node_router_roundtrip() {
        let p = params();
        for r in [0u32, 1, 875] {
            for s in 0..p.p {
                let n = NodeId::from_router_slot(&p, RouterId(r), s);
                assert_eq!(n.router(&p), RouterId(r));
                assert_eq!(n.slot(&p), s);
            }
        }
    }

    #[test]
    fn port_kinds_partition_radix() {
        let p = params();
        let mut counts = [0u32; 3];
        for q in 0..p.radix() {
            match p.port_kind(Port(q)) {
                PortKind::Injection => counts[0] += 1,
                PortKind::Local => counts[1] += 1,
                PortKind::Global => counts[2] += 1,
            }
        }
        assert_eq!(counts, [p.p, p.a - 1, p.h]);
    }

    #[test]
    fn local_port_roundtrip() {
        let p = params();
        for r in 0..p.a {
            for peer in 0..p.a {
                if r == peer {
                    continue;
                }
                let port = p.local_port(r, peer);
                assert_eq!(p.port_kind(port), PortKind::Local);
                assert_eq!(p.local_port_peer(r, port), peer);
            }
        }
    }

    #[test]
    fn global_port_roundtrip() {
        let p = params();
        for j in 0..p.h {
            let port = p.global_port(j);
            assert_eq!(p.port_kind(port), PortKind::Global);
            assert_eq!(p.global_port_offset(port), j);
        }
    }
}
