//! Streaming mean (Welford's update) without storing samples.

use serde::{Deserialize, Serialize};

/// Online mean accumulator.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_match_direct() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.count(), xs.len() as u64);
    }

    #[test]
    fn empty_and_single_sample() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
        s.add(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.count(), 1);
    }
}
