//! # df-routing
//!
//! The routing mechanisms evaluated by Fuentes et al. (CLUSTER 2015),
//! implemented against the `df-engine` [`RoutingPolicy`] interface. Two
//! policies cover all of them:
//!
//! | Mechanism | Policy | Rule: when the path goes non-minimal |
//! |---|---|---|
//! | MIN | source routing | never |
//! | Obl-RRG/CRG | source routing | always (Valiant intermediate per flavour) |
//! | Src-RRG/CRG (PiggyBack) | source routing | when the minimal path is saturated |
//! | In-Trns-RRG/CRG/MM | in-transit adaptive (PAR + OLM) | per hop, by congestion |
//!
//! A source-routed path is fixed once, at injection; an in-transit path
//! is re-decided at every router the packet visits.
//!
//! [`MechanismSpec`] is the one way in: the serializable mechanism name
//! used by experiment configs, whose [`MechanismSpec::build`] constructs
//! the policy; [`MechanismSpec::PAPER_SET`] lists the seven combinations
//! the paper plots.
//!
//! [`RoutingPolicy`]: df_engine::RoutingPolicy

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod common;
mod in_transit;
mod source;
mod spec;

pub use in_transit::MISROUTE_THRESHOLD;
pub use spec::MechanismSpec;
