//! Serializable mechanism specifications — the seven mechanism × policy
//! combinations evaluated in the paper, plus constructors.

use crate::in_transit::{GlobalMisrouting, InTransit};
use crate::source::{Flavor, Rule, Saturation, SourceRouting};
use df_engine::{EngineConfig, RoutingPolicy};
use df_topology::{PathClass, Topology};
use serde::{Deserialize, Serialize};

/// The routing mechanisms of the paper's evaluation (Figures 2/4-6,
/// Tables II/III). `Min` doubles as the `MIN/Obl-RRG` reference under UN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum MechanismSpec {
    /// Minimal routing.
    Min,
    /// Oblivious Valiant, random intermediate anywhere.
    ObliviousRrg,
    /// Oblivious Valiant, intermediate behind the source router.
    ObliviousCrg,
    /// PiggyBack source-adaptive, RRG nonminimal paths.
    SourceRrg,
    /// PiggyBack source-adaptive, CRG nonminimal paths.
    SourceCrg,
    /// In-transit adaptive, RRG global misrouting.
    InTransitRrg,
    /// In-transit adaptive, CRG global misrouting.
    InTransitCrg,
    /// In-transit adaptive, Mixed-mode global misrouting.
    InTransitMm,
    /// In-transit adaptive, CRG global misrouting with the deterministic
    /// least-recently-granted escape tie-break instead of random
    /// candidate sampling (not part of the paper's set).
    InTransitLru,
}

impl MechanismSpec {
    /// All seven mechanisms of the paper's figures, in plot order.
    pub const PAPER_SET: [MechanismSpec; 7] = [
        MechanismSpec::ObliviousRrg,
        MechanismSpec::ObliviousCrg,
        MechanismSpec::SourceRrg,
        MechanismSpec::SourceCrg,
        MechanismSpec::InTransitRrg,
        MechanismSpec::InTransitCrg,
        MechanismSpec::InTransitMm,
    ];

    /// Local VCs the mechanism's worst-case path shape needs (Table I:
    /// 4 for oblivious and source-adaptive Valiant `lgl-lgl` paths, 3
    /// otherwise).
    pub fn required_local_vcs(&self) -> u8 {
        match self {
            MechanismSpec::Min => 3,
            MechanismSpec::ObliviousRrg
            | MechanismSpec::ObliviousCrg
            | MechanismSpec::SourceRrg
            | MechanismSpec::SourceCrg => 4,
            MechanismSpec::InTransitRrg
            | MechanismSpec::InTransitCrg
            | MechanismSpec::InTransitMm
            | MechanismSpec::InTransitLru => 3,
        }
    }

    /// The one path class every packet of an oblivious mechanism takes,
    /// as [`df_topology::channel_load`] models it: MIN's minimal route
    /// and Obl-RRG's Valiant. `None` for the mechanisms whose path depends
    /// on congestion, and for Obl-CRG, whose intermediate sits behind the
    /// source router (a class `channel_load` does not model).
    pub fn path_class(&self) -> Option<PathClass> {
        match self {
            MechanismSpec::Min => Some(PathClass::Minimal),
            MechanismSpec::ObliviousRrg => Some(PathClass::Valiant),
            _ => None,
        }
    }

    /// Instantiate the policy for `topo` under `cfg` with a deterministic
    /// seed.
    ///
    /// # Panics
    /// Panics if `cfg.vcs_local` is below
    /// [`MechanismSpec::required_local_vcs`].
    pub fn build(
        &self,
        topo: Topology,
        cfg: &EngineConfig,
        seed: u64,
    ) -> Box<dyn RoutingPolicy + Send> {
        assert!(
            cfg.vcs_local >= self.required_local_vcs(),
            "{} needs {} local VCs, config provides {}",
            self.label(),
            self.required_local_vcs(),
            cfg.vcs_local
        );
        let name = self.label();
        let in_transit = |topo, policy| Box::new(InTransit::new(name, topo, cfg, policy, seed));
        let rule = match self {
            MechanismSpec::Min => Rule::Minimal,
            MechanismSpec::ObliviousRrg => Rule::Oblivious(Flavor::Rrg),
            MechanismSpec::ObliviousCrg => Rule::Oblivious(Flavor::Crg),
            MechanismSpec::SourceRrg => Rule::PiggyBack(Flavor::Rrg, Saturation::new(&topo, cfg)),
            MechanismSpec::SourceCrg => Rule::PiggyBack(Flavor::Crg, Saturation::new(&topo, cfg)),
            MechanismSpec::InTransitRrg => return in_transit(topo, GlobalMisrouting::Rrg),
            MechanismSpec::InTransitCrg => return in_transit(topo, GlobalMisrouting::Crg),
            MechanismSpec::InTransitMm => return in_transit(topo, GlobalMisrouting::Mm),
            MechanismSpec::InTransitLru => return in_transit(topo, GlobalMisrouting::Lru),
        };
        Box::new(SourceRouting::new(name, topo, cfg, rule, seed))
    }

    /// The paper's label for this mechanism.
    pub fn label(&self) -> &'static str {
        match self {
            MechanismSpec::Min => "MIN",
            MechanismSpec::ObliviousRrg => "Obl-RRG",
            MechanismSpec::ObliviousCrg => "Obl-CRG",
            MechanismSpec::SourceRrg => "Src-RRG",
            MechanismSpec::SourceCrg => "Src-CRG",
            MechanismSpec::InTransitRrg => "In-Trns-RRG",
            MechanismSpec::InTransitCrg => "In-Trns-CRG",
            MechanismSpec::InTransitMm => "In-Trns-MM",
            MechanismSpec::InTransitLru => "In-Trns-LRU",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::{ArbiterPolicy, Network, NullSink};
    use df_topology::{Arrangement, DragonflyParams, NodeId};

    #[test]
    fn every_mechanism_builds_and_delivers() {
        let params = DragonflyParams::figure1();
        for spec in MechanismSpec::PAPER_SET
            .iter()
            .chain([&MechanismSpec::Min, &MechanismSpec::InTransitLru])
        {
            let topo = Topology::new(params, Arrangement::Palmtree);
            let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, spec.required_local_vcs());
            let policy = spec.build(topo.clone(), &cfg, 3);
            assert_eq!(policy.name(), spec.label());
            let mut net = Network::new(topo, cfg, policy, NullSink);
            for n in 0..params.nodes() {
                net.offer(NodeId(n), NodeId((n + params.a * params.p) % params.nodes()));
            }
            assert!(net.drain(100_000), "{} must drain", spec.label());
            assert_eq!(net.counters().delivered_packets as u32, params.nodes());
        }
    }

    #[test]
    fn vc_requirements_enforced() {
        let params = DragonflyParams::figure1();
        let topo = Topology::new(params, Arrangement::Palmtree);
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        let result = std::panic::catch_unwind(|| MechanismSpec::ObliviousRrg.build(topo, &cfg, 0));
        assert!(result.is_err(), "oblivious with 3 local VCs must be rejected");
    }

    #[test]
    fn serde_roundtrip() {
        for spec in MechanismSpec::PAPER_SET {
            let json = serde_json::to_string(&spec).unwrap();
            let back: MechanismSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
        }
    }
}
