//! Throughput-fairness metrics (§IV-B): minimum injections, max/min
//! ratio, coefficient of variation — plus Jain's index as an extension.

use serde::{Deserialize, Serialize};

/// Fairness summary over per-router injection counts.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FairnessReport {
    /// Lowest injection count of any router ("Min inj").
    pub min: f64,
    /// Highest injection count of any router.
    pub max: f64,
    /// Mean injections per router.
    pub mean: f64,
    /// `max / min` ("Max/Min"); `f64::INFINITY` when some router injected
    /// nothing at all.
    pub max_min_ratio: f64,
    /// Coefficient of variation `σ/µ` ("CoV").
    pub cov: f64,
    /// Jain's fairness index `(Σx)² / (n·Σx²)` ∈ (0, 1]; 1 is perfectly
    /// fair. Not in the paper — included as a widely-used complement.
    pub jain: f64,
}

impl FairnessReport {
    /// Compute all metrics from per-router injection counts.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn from_counts(counts: &[f64]) -> Self {
        assert!(!counts.is_empty(), "fairness over zero routers is undefined");
        let n = counts.len() as f64;
        let sum: f64 = counts.iter().sum();
        let sum_sq: f64 = counts.iter().map(|x| x * x).sum();
        let mean = sum / n;
        let min = counts.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = counts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let var = (sum_sq / n - mean * mean).max(0.0);
        let cov = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        let max_min_ratio = if min > 0.0 {
            max / min
        } else if max > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let jain = if sum_sq > 0.0 { sum * sum / (n * sum_sq) } else { 1.0 };
        Self { min, max, mean, max_min_ratio, cov, jain }
    }

    /// Convenience: from integer counters (e.g. the engine's
    /// `injected_per_router`).
    pub fn from_u64(counts: &[u64]) -> Self {
        let v: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        Self::from_counts(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_fair() {
        let r = FairnessReport::from_counts(&[100.0; 12]);
        assert_eq!(r.min, 100.0);
        assert_eq!(r.max_min_ratio, 1.0);
        assert_eq!(r.cov, 0.0);
        assert!((r.jain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn starved_router_shows_up() {
        let mut counts = vec![4000.0; 12];
        counts[11] = 40.0; // starved bottleneck
        let r = FairnessReport::from_counts(&counts);
        assert_eq!(r.min, 40.0);
        assert!((r.max_min_ratio - 100.0).abs() < 1e-9);
        assert!(r.cov > 0.2);
        assert!(r.jain < 0.95);
    }

    #[test]
    fn zero_injections_give_infinite_ratio() {
        let r = FairnessReport::from_counts(&[0.0, 10.0]);
        assert!(r.max_min_ratio.is_infinite());
    }

    #[test]
    fn all_zero_is_degenerate_but_defined() {
        let r = FairnessReport::from_counts(&[0.0, 0.0]);
        assert_eq!(r.max_min_ratio, 1.0);
        assert_eq!(r.cov, 0.0);
        assert_eq!(r.jain, 1.0);
    }

    #[test]
    fn cov_distinguishes_isolated_from_widespread() {
        // One starved + one favoured router...
        let mut isolated = vec![1000.0; 12];
        isolated[0] = 100.0;
        isolated[11] = 1900.0;
        // ...versus half starving, half favoured (same total).
        let widespread: Vec<f64> = (0..12).map(|i| if i < 6 { 100.0 } else { 1900.0 }).collect();
        let ri = FairnessReport::from_counts(&isolated);
        let rw = FairnessReport::from_counts(&widespread);
        assert!(
            rw.cov > ri.cov * 1.5,
            "CoV must flag widespread unfairness harder: {} vs {}",
            rw.cov,
            ri.cov
        );
        // Max/Min alone cannot distinguish the two — the paper's point.
        assert_eq!(ri.max_min_ratio, rw.max_min_ratio);
    }

    #[test]
    fn from_u64_matches_f64() {
        let a = FairnessReport::from_u64(&[10, 20, 30]);
        let b = FairnessReport::from_counts(&[10.0, 20.0, 30.0]);
        assert_eq!(a.cov, b.cov);
        assert_eq!(a.min, b.min);
    }
}
