//! Channel-load bounds: what the topology itself allows a traffic
//! pattern to carry.
//!
//! A router-level traffic matrix and a path class fix the expected load
//! γ on every directed channel per unit of per-node injection. A channel
//! carries at most one phit per cycle, so no run of that traffic under
//! that path class accepts more than Θ = 1 / max γ phits per node per
//! cycle ([`saturation_bound`]). These bounds are computed from the
//! wiring alone: they are a reference no simulation output feeds.

use crate::ids::RouterId;
use crate::params::DragonflyParams;
use crate::topology::Topology;

/// A router-level traffic matrix, in units of one node's injection rate:
/// `rate(s, d)` is what the nodes of router `s` send to the nodes of
/// router `d` when every node injects at rate 1. A router whose nodes
/// send all their traffic elsewhere has a row sum of `p`.
#[derive(Debug, Clone)]
pub struct RouterTraffic {
    routers: usize,
    /// Row-major `[s * routers + d]`.
    rates: Vec<f64>,
}

impl RouterTraffic {
    /// The matrix of `rate(src, dst)` over every ordered router pair of
    /// `params`.
    ///
    /// # Panics
    /// Panics if a rate is negative or not finite.
    pub fn from_fn(
        params: &DragonflyParams,
        mut rate: impl FnMut(RouterId, RouterId) -> f64,
    ) -> Self {
        let routers = params.routers();
        let mut rates = Vec::with_capacity((routers * routers) as usize);
        for s in 0..routers {
            for d in 0..routers {
                let x = rate(RouterId(s), RouterId(d));
                assert!(x.is_finite() && x >= 0.0, "rate {x} from router {s} to router {d}");
                rates.push(x);
            }
        }
        Self { routers: routers as usize, rates }
    }

    /// Traffic from router `src` to router `dst`.
    #[inline]
    pub fn rate(&self, src: RouterId, dst: RouterId) -> f64 {
        self.rates[src.idx() * self.routers + dst.idx()]
    }
}

/// How a packet travels from its source router to its destination
/// router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathClass {
    /// The minimal route of [`Topology::min_path_links`]: at most local,
    /// global, local.
    Minimal,
    /// Valiant as source routing draws it (Obl-RRG): a pair in one group
    /// stays minimal; any other goes minimally to a router drawn
    /// uniformly from outside the source group, then minimally to the
    /// destination.
    Valiant,
}

/// Expected load γ on every directed channel per unit of per-node
/// injection, for `traffic` routed by `class`. Indexed
/// `router * radix + port` by the channel's sending end, as the engine
/// indexes its wiring. Local and global channels are filled; ejection
/// channels (the injection ports' entries) read 0, since a router-level
/// matrix does not say which of the router's nodes a packet leaves to.
///
/// Cost: one walk of at most three channels per router pair, for either
/// class. Valiant needs no per-intermediate loop: the first leg sends
/// each router's inter-group outflow evenly to every router outside its
/// group, and the second leg sends each destination's inter-group inflow
/// evenly from every router outside the source's group. Both legs are
/// router-pair matrices built from row and column sums, and γ is linear
/// in the matrix, so Valiant's γ is the minimal γ of their sum.
///
/// # Panics
/// Panics if `traffic` was built for a machine of another size.
pub fn channel_load(topo: &Topology, traffic: &RouterTraffic, class: PathClass) -> Vec<f64> {
    let params = topo.params();
    let routers = params.routers() as usize;
    assert_eq!(traffic.routers, routers, "traffic matrix of another machine size");
    match class {
        PathClass::Minimal => minimal_load(topo, &traffic.rates),
        PathClass::Valiant => minimal_load(topo, &valiant_legs(params, traffic)),
    }
}

/// Θ = 1 / max γ: the per-node injection rate (phits per node per cycle)
/// at which the busiest channel of `gamma` saturates. Infinite when no
/// channel carries load.
pub fn saturation_bound(gamma: &[f64]) -> f64 {
    1.0 / gamma.iter().copied().fold(0.0, f64::max)
}

/// The router-pair matrix whose minimal load is `traffic`'s Valiant load:
/// intra-group pairs as they are, plus both legs of every inter-group
/// pair.
fn valiant_legs(params: &DragonflyParams, traffic: &RouterTraffic) -> Vec<f64> {
    let routers = traffic.routers;
    let groups = params.groups() as usize;
    let group = |r: usize| RouterId(r as u32).group(params).idx();
    // Routers an intermediate is drawn from: every router outside one group.
    let outside = (routers - params.a as usize) as f64;
    // Per source router, its inter-group outflow; per (group, destination),
    // the inter-group inflow from that group; per destination, the total.
    let mut out_flow = vec![0.0; routers];
    let mut in_from = vec![0.0; groups * routers];
    let mut in_flow = vec![0.0; routers];
    let mut legs = vec![0.0; routers * routers];
    for s in 0..routers {
        for d in 0..routers {
            let x = traffic.rates[s * routers + d];
            if group(s) == group(d) {
                legs[s * routers + d] += x;
            } else {
                out_flow[s] += x;
                in_from[group(s) * routers + d] += x;
                in_flow[d] += x;
            }
        }
    }
    for s in 0..routers {
        for i in 0..routers {
            if group(i) != group(s) {
                // First leg: s to intermediate i.
                legs[s * routers + i] += out_flow[s] / outside;
            }
            // Second leg: intermediate s to destination i, from every
            // source outside the intermediate's group (and, being
            // inter-group traffic, outside the destination's).
            legs[s * routers + i] += (in_flow[i] - in_from[group(s) * routers + i]) / outside;
        }
    }
    legs
}

/// Minimal-route load of a row-major router-pair matrix.
fn minimal_load(topo: &Topology, rates: &[f64]) -> Vec<f64> {
    let params = topo.params();
    let routers = params.routers();
    let radix = params.radix() as usize;
    let mut gamma = vec![0.0; routers as usize * radix];
    // The local channel from `from` to `to`, routers of one group.
    let local = |from: RouterId, to: RouterId| {
        let port = params.local_port(from.local_index(params), to.local_index(params));
        from.idx() * radix + port.idx()
    };
    for s in (0..routers).map(RouterId) {
        for d in (0..routers).map(RouterId) {
            let x = rates[s.idx() * routers as usize + d.idx()];
            if x == 0.0 || s == d {
                continue;
            }
            let mut at = s;
            let (sg, dg) = (s.group(params), d.group(params));
            if sg != dg {
                let (exit, j) = topo.exit_to_group(sg, dg);
                if exit != s {
                    gamma[local(s, exit)] += x;
                }
                gamma[exit.idx() * radix + params.global_port(j).idx()] += x;
                at = topo.global_peer(exit, j).0;
            }
            if at != d {
                gamma[local(at, d)] += x;
            }
        }
    }
    gamma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arrangement, NodeId, Port, PortKind};

    fn figure1() -> Topology {
        Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree)
    }

    #[test]
    fn minimal_load_conserves_every_packet_hop() {
        // Each pair's minimal path has min_path_links' channel counts, so
        // the loads sum to the traffic-weighted hop count.
        let topo = figure1();
        let params = *topo.params();
        let traffic = RouterTraffic::from_fn(&params, |s, d| f64::from((s.0 * 7 + d.0 * 3) % 5));
        let gamma = channel_load(&topo, &traffic, PathClass::Minimal);
        let mut hops = 0.0;
        for s in topo.routers() {
            for d in topo.routers() {
                let (a, b) = (
                    NodeId::from_router_slot(&params, s, 0),
                    NodeId::from_router_slot(&params, d, 0),
                );
                hops += traffic.rate(s, d) * f64::from(topo.min_hops(a, b));
            }
        }
        let total: f64 = gamma.iter().sum();
        assert!((total - hops).abs() < 1e-9 * hops, "{total} vs {hops}");
        // Ejection channels read 0.
        for r in 0..params.routers() as usize {
            for q in 0..params.p {
                assert_eq!(params.port_kind(Port(q)), PortKind::Injection);
                assert_eq!(gamma[r * params.radix() as usize + q as usize], 0.0);
            }
        }
    }

    #[test]
    fn valiant_legs_keep_every_routers_outflow() {
        // Both legs carry the whole inter-group traffic: the legs matrix
        // sums to intra + 2 × inter. Here every router sends its `p` units
        // evenly to the routers of the next group.
        let params = DragonflyParams::figure1();
        let traffic = RouterTraffic::from_fn(&params, |s, d| {
            let next = (s.group(&params).0 + 1) % params.groups();
            if d.group(&params).0 == next {
                f64::from(params.p) / f64::from(params.a)
            } else {
                0.0
            }
        });
        let legs = valiant_legs(&params, &traffic);
        let inter: f64 = f64::from(params.routers() * params.p);
        let total: f64 = legs.iter().sum();
        assert!((total - 2.0 * inter).abs() < 1e-9 * inter, "{total} vs {}", 2.0 * inter);
    }

    #[test]
    fn idle_traffic_has_no_bound() {
        let topo = figure1();
        let idle = RouterTraffic::from_fn(topo.params(), |_, _| 0.0);
        let gamma = channel_load(&topo, &idle, PathClass::Valiant);
        assert!(saturation_bound(&gamma).is_infinite());
    }

    #[test]
    #[should_panic(expected = "another machine size")]
    fn matrix_of_another_machine_is_rejected() {
        let small = RouterTraffic::from_fn(&DragonflyParams::small(), |_, _| 1.0);
        channel_load(&figure1(), &small, PathClass::Minimal);
    }
}
