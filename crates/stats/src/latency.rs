//! Latency aggregation with the paper's five-component breakdown
//! (Figure 3): base, misrouting, local-queue, global-queue, and
//! injection-queue cycles.

/// Accumulates per-packet latency components: one packet count and a
/// running mean of the end-to-end latency and of each component
/// (Welford's update), without storing samples.
#[derive(Debug, Clone, Default)]
pub struct LatencyAccumulator {
    count: u64,
    /// Mean end-to-end latency.
    total: f64,
    /// Mean of each component, in [`Self::component_means`]' order.
    components: [f64; 5],
}

impl LatencyAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one delivered packet's components, all in cycles.
    pub fn add(&mut self, base: u64, misroute: u64, inj: u64, local: u64, global: u64) {
        self.count += 1;
        let n = self.count as f64;
        let step = |mean: &mut f64, x: u64| *mean += (x as f64 - *mean) / n;
        step(&mut self.total, base + misroute + inj + local + global);
        for (mean, x) in self.components.iter_mut().zip([base, misroute, local, global, inj]) {
            step(mean, x);
        }
    }

    /// Packets recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean end-to-end latency (0 for an empty accumulator).
    pub fn mean_latency(&self) -> f64 {
        self.total
    }

    /// Mean of each component, in the paper's Figure 3 stacking order:
    /// `[base, misroute, local_queue, global_queue, injection_queue]`.
    pub fn component_means(&self) -> [f64; 5] {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum_to_total() {
        let mut acc = LatencyAccumulator::new();
        acc.add(130, 100, 20, 5, 3);
        acc.add(130, 0, 0, 0, 0);
        let sum: f64 = acc.component_means().iter().sum();
        assert!((sum - acc.mean_latency()).abs() < 1e-9);
        assert_eq!(acc.count(), 2);
    }

    #[test]
    fn stacking_order_matches_figure3() {
        let mut acc = LatencyAccumulator::new();
        acc.add(1, 2, 3, 4, 5);
        let [base, mis, lq, gq, inj] = acc.component_means();
        assert_eq!((base, mis, lq, gq, inj), (1.0, 2.0, 4.0, 5.0, 3.0));
    }

    #[test]
    fn an_empty_accumulator_reads_zero() {
        let acc = LatencyAccumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean_latency(), 0.0);
        assert_eq!(acc.component_means(), [0.0; 5]);
    }

    #[test]
    fn means_over_a_known_list() {
        let xs = [2, 4, 4, 4, 5, 5, 7, 9];
        let mut acc = LatencyAccumulator::new();
        for &x in &xs {
            // `x` as the base, `2x` as the injection wait: total 3x.
            acc.add(x, 0, 2 * x, 0, 0);
        }
        assert_eq!(acc.count(), xs.len() as u64);
        let [base, mis, lq, gq, inj] = acc.component_means();
        assert!((base - 5.0).abs() < 1e-12, "{base}");
        assert!((inj - 10.0).abs() < 1e-12, "{inj}");
        assert_eq!((mis, lq, gq), (0.0, 0.0, 0.0));
        assert!((acc.mean_latency() - 15.0).abs() < 1e-12);
    }
}
