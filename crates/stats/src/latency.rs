//! Latency aggregation with the paper's five-component breakdown
//! (Figure 3): base, misrouting, local-queue, global-queue, and
//! injection-queue cycles.

use crate::online::OnlineStats;
use serde::{Deserialize, Serialize};

/// Accumulates per-packet latency components.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyAccumulator {
    /// Full end-to-end latency.
    pub total: OnlineStats,
    /// Minimal-path traversal ("Base latency").
    pub base: OnlineStats,
    /// Extra traversal from non-minimal hops ("Misrouting").
    pub misroute: OnlineStats,
    /// Queueing at local transit ports ("Congestion, local queues").
    pub local_queue: OnlineStats,
    /// Queueing at global transit ports ("Congestion, global queues").
    pub global_queue: OnlineStats,
    /// Source-queue plus injection-port queueing ("Injection queues").
    pub injection_queue: OnlineStats,
}

impl LatencyAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one delivered packet's components, all in cycles.
    pub fn add(&mut self, base: u64, misroute: u64, inj: u64, local: u64, global: u64) {
        let total = base + misroute + inj + local + global;
        self.total.add(total as f64);
        self.base.add(base as f64);
        self.misroute.add(misroute as f64);
        self.local_queue.add(local as f64);
        self.global_queue.add(global as f64);
        self.injection_queue.add(inj as f64);
    }

    /// Packets recorded.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Mean end-to-end latency.
    pub fn mean_latency(&self) -> f64 {
        self.total.mean()
    }

    /// Mean of each component, in the paper's Figure 3 stacking order:
    /// `[base, misroute, local_queue, global_queue, injection_queue]`.
    pub fn component_means(&self) -> [f64; 5] {
        [
            self.base.mean(),
            self.misroute.mean(),
            self.local_queue.mean(),
            self.global_queue.mean(),
            self.injection_queue.mean(),
        ]
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
}
