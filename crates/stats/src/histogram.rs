//! Fixed-width histogram for latency distributions.

use serde::{Deserialize, Serialize};

/// Histogram over `[0, bin_width * bins)` with an overflow bucket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bin_width: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `bins` buckets of `bin_width` cycles each.
    ///
    /// # Panics
    /// Panics if `bin_width` or `bins` is zero.
    pub fn new(bin_width: u64, bins: usize) -> Self {
        assert!(bin_width > 0 && bins > 0);
        Self { bin_width, counts: vec![0; bins], overflow: 0, total: 0 }
    }

    /// Record a sample.
    pub fn add(&mut self, value: u64) {
        let idx = (value / self.bin_width) as usize;
        match self.counts.get_mut(idx) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The smallest value `v` such that at least `q` (0..=1) of samples
    /// are `<= v` (bucket upper bound). `None` only when the histogram is
    /// empty; a quantile falling in the overflow bucket clamps to the
    /// histogram range cap (`bins * bin_width`) — a lower bound on the
    /// true quantile — so the metric stays total and monotone for
    /// heavy-tailed distributions instead of conflating "tail beyond the
    /// range" with "no samples".
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some((i as u64 + 1) * self.bin_width);
            }
        }
        // In overflow: clamp to the range cap.
        Some(self.counts.len() as u64 * self.bin_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_and_overflow() {
        let mut h = Histogram::new(10, 5);
        for v in [0, 9, 10, 49, 50, 1000] {
            h.add(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100 {
            h.add(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn overflow_quantiles_clamp_to_range_cap() {
        let mut h = Histogram::new(10, 5); // range [0, 50)
        for _ in 0..9 {
            h.add(5);
        }
        h.add(1_000_000); // heavy tail beyond the range
        assert_eq!(h.quantile(0.5), Some(10));
        // p99 lands on the overflow sample: clamped, not None.
        assert_eq!(h.quantile(0.99), Some(50));
        assert_eq!(h.quantile(1.0), Some(50));
    }

    #[test]
    fn empty_quantile_is_none() {
        let h = Histogram::new(1, 10);
        assert_eq!(h.quantile(0.5), None);
    }
}
