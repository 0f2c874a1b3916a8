//! # df-routing
//!
//! The routing mechanisms evaluated by Fuentes et al. (CLUSTER 2015),
//! implemented against the `df-engine` [`RoutingPolicy`] interface:
//!
//! | Mechanism | Class | Global misrouting |
//! |---|---|---|
//! | [`MinRouting`] | oblivious | — |
//! | [`Oblivious`] (RRG/CRG) | oblivious non-minimal (Valiant) | intermediate selection |
//! | [`PiggyBack`] (RRG/CRG) | source-adaptive | intermediate selection |
//! | [`InTransit`] (RRG/CRG/MM) | in-transit adaptive (PAR + OLM) | per-hop candidates |
//!
//! [`MechanismSpec`] is the serializable umbrella used by experiment
//! configs; [`MechanismSpec::PAPER_SET`] lists the seven combinations the
//! paper plots.
//!
//! [`RoutingPolicy`]: df_engine::RoutingPolicy

#![warn(missing_docs)]

mod common;
mod in_transit;
mod min;
mod oblivious;
mod piggyback;
mod spec;

pub use common::{
    current_target, entry_node_of_group, make_decision, minimal_out, normalize_route_state,
    vc_for, VcPlan,
};
pub use in_transit::{EscapeSelect, GlobalMisrouting, InTransit, MISROUTE_THRESHOLD};
pub use min::MinRouting;
pub use oblivious::{Oblivious, ObliviousFlavor};
pub use piggyback::PiggyBack;
pub use spec::MechanismSpec;
