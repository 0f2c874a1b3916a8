//! Deterministic sub-seed derivation shared by every stochastic component.

/// Derive an independent sub-seed from a master seed (SplitMix64 steps) so
/// each RNG consumer — and, crucially, each *node* — gets its own stream.
///
/// Per-node streams make injection sequences independent of node count and
/// iteration order: node `n`'s Bernoulli draws are a pure function of
/// `(master, n)`, so traces and per-job runs stay stable when a job is
/// re-placed onto a different node set of the same size.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_streams() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0));
    }
}
