//! Bernoulli packet generation (§IV-A), with one RNG substream per node.

use crate::seed::derive_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates packets per node per cycle with probability
/// `load / packet_size`, so the *offered* load in phits/(node·cycle)
/// equals `load` in expectation.
///
/// Every node draws from its own RNG substream derived as
/// `derive_seed(seed, node)`, so a node's injection sequence is a pure
/// function of `(seed, node)` — independent of how many other nodes exist
/// or in which order they are polled. This keeps recorded traces and
/// per-job runs stable under placement changes.
#[derive(Debug, Clone)]
pub struct BernoulliInjector {
    prob: f64,
    seed: u64,
    rngs: Vec<SmallRng>,
}

impl BernoulliInjector {
    /// `load` in phits/(node·cycle), `packet_size` in phits.
    ///
    /// # Panics
    /// Panics if the resulting per-cycle probability exceeds 1 (a node
    /// cannot source more than one packet per cycle) or `load` is
    /// negative.
    pub fn new(load: f64, packet_size: u32, seed: u64) -> Self {
        assert!(load >= 0.0, "load must be non-negative");
        let prob = load / packet_size as f64;
        assert!(prob <= 1.0, "load {load} phits/node/cycle exceeds one packet per cycle");
        Self { prob, seed, rngs: Vec::new() }
    }

    /// Should `node` generate a packet this cycle? Substreams are grown
    /// lazily, so the injector needs no up-front node count.
    #[inline]
    pub fn fire(&mut self, node: u32) -> bool {
        if self.prob <= 0.0 {
            return false;
        }
        let idx = node as usize;
        if idx >= self.rngs.len() {
            let seed = self.seed;
            self.rngs.extend(
                (self.rngs.len()..=idx)
                    .map(|n| SmallRng::seed_from_u64(derive_seed(seed, n as u64))),
            );
        }
        self.rngs[idx].gen_bool(self.prob)
    }

    /// The per-cycle generation probability.
    pub fn probability(&self) -> f64 {
        self.prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_rate_within_tolerance() {
        let mut b = BernoulliInjector::new(0.4, 8, 11);
        let trials = 200_000;
        let fired = (0..trials).filter(|_| b.fire(0)).count();
        let rate = fired as f64 / trials as f64;
        assert!((rate - 0.05).abs() < 0.003, "rate {rate}");
    }

    #[test]
    fn zero_load_never_fires() {
        let mut b = BernoulliInjector::new(0.0, 8, 1);
        assert!((0..1000).all(|_| !b.fire(0)));
    }

    #[test]
    fn full_load_is_one_packet_every_size_cycles() {
        let mut b = BernoulliInjector::new(8.0, 8, 1);
        assert_eq!(b.probability(), 1.0);
        assert!((0..100).all(|_| b.fire(3)));
    }

    #[test]
    #[should_panic(expected = "exceeds one packet")]
    fn overload_rejected() {
        BernoulliInjector::new(9.0, 8, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = BernoulliInjector::new(0.4, 8, 99);
        let mut b = BernoulliInjector::new(0.4, 8, 99);
        for _ in 0..1000 {
            for n in 0..4 {
                assert_eq!(a.fire(n), b.fire(n));
            }
        }
    }

    #[test]
    fn node_stream_independent_of_polling_set() {
        // Node 7's sequence must not change when other nodes are polled
        // (or not) around it — the per-node substream property.
        let mut alone = BernoulliInjector::new(0.4, 8, 5);
        let solo: Vec<bool> = (0..500).map(|_| alone.fire(7)).collect();
        let mut crowded = BernoulliInjector::new(0.4, 8, 5);
        let mixed: Vec<bool> = (0..500)
            .map(|_| {
                for n in 0..7 {
                    crowded.fire(n);
                }
                let hit = crowded.fire(7);
                crowded.fire(8);
                hit
            })
            .collect();
        assert_eq!(solo, mixed);
    }

    #[test]
    fn distinct_nodes_distinct_streams() {
        let mut b = BernoulliInjector::new(2.0, 8, 42);
        let s0: Vec<bool> = (0..256).map(|_| b.fire(0)).collect();
        let s1: Vec<bool> = (0..256).map(|_| b.fire(1)).collect();
        assert_ne!(s0, s1);
    }
}
