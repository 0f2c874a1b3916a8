//! # df-traffic
//!
//! Synthetic traffic for Dragonfly networks: *where* packets go
//! ([`PatternSpec`] → [`JobTraffic`]) and the paper's *when*
//! ([`BernoulliInjector`]).
//!
//! A [`PatternSpec`] names a pattern over a virtual geometry — a node
//! list chunked into virtual groups:
//!
//! * **UN** — uniform random destinations,
//! * **ADV+k** — every node of virtual group *g* sends to random nodes of
//!   group *g+k* (the classic adversarial pattern; the paper uses
//!   `k = 1`),
//! * **ADVc** — *adversarial consecutive*: every node of group *g* sends
//!   to random nodes of the `h` consecutive groups `g+1 … g+h`, whose
//!   minimal paths all meet in one bottleneck router under palmtree,
//! * extensions beyond the paper: group-local traffic, a fixed random
//!   node permutation, a hot-spot pattern, and pattern mixes.
//!
//! There is exactly one generator, [`JobTraffic`]: the spec compiled onto
//! a node set. The paper's §III argument is an equivalence —
//! network-level ADVc is what a uniform job on `h+1` consecutive groups
//! produces — and the code says the same thing: a whole-machine pattern
//! ([`PatternSpec::build`]) *is* the job generator at the identity
//! placement (all nodes in id order, one machine group per virtual
//! group), not a second implementation of it.
//!
//! Packet generation follows a Bernoulli process per node with an
//! adjustable injection probability in phits/(node·cycle), as in §IV-A.
//! Every RNG in the workspace is seeded through [`derive_seed`]; the
//! substream numbering is tabulated in `docs/DETERMINISM.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bernoulli;
mod patterns;
mod seed;
mod spec;

pub use bernoulli::BernoulliInjector;
pub use patterns::JobTraffic;
pub use seed::derive_seed;
pub use spec::PatternSpec;
