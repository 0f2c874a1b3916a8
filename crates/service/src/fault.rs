//! Deterministic fault injection.
//!
//! Every robustness claim the service makes is exercised by a fault
//! that can be switched on per submission: a worker panic at a chosen
//! cycle (panic isolation + retry), an artificial stall that pushes the
//! run past its deadline (cooperative timeout), and a corrupted cache
//! entry (digest check + recompute). Faults key off *simulated* cycle
//! numbers, so the injection point is reproducible run to run.

use serde::{Deserialize, Serialize};

/// Fault-injection knobs, submitted alongside a job (tests and the CI
/// harness only — an omitted `fault` field injects nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Panic inside the run loop when a cell of the job reaches this
    /// driver cycle — the "poisoned job" that must not take down the
    /// service.
    pub panic_at_cycle: Option<u64>,
    /// How many attempts the panic fires on (default 1): with the
    /// default, the first retry runs clean and succeeds; set it at or
    /// above the retry cap to exhaust retries deterministically.
    pub panic_attempts: Option<u32>,
    /// Stall (sleep on the worker thread) once, when a cell of the job
    /// reaches this driver cycle — used with a short `deadline_ms` to
    /// force a `timed_out` event deterministically.
    pub stall_at_cycle: Option<u64>,
    /// Stall duration in milliseconds (default 100).
    pub stall_ms: Option<u64>,
    /// After the job's result lands in the cache, flip a byte of the
    /// stored entry (and of its spill file when the service is
    /// state-backed), so the *next* submission of the same key — or the
    /// next restart's startup scan — exercises the digest check and
    /// recompute path.
    pub corrupt_cache: Option<bool>,
    /// Kill the whole process (`abort`, the `kill -9` equivalent) right
    /// after the Nth `(cell, seed)` sweep unit commits to the
    /// checkpoint file. The restart harness in ci.sh uses this to die
    /// mid-sweep deterministically.
    pub crash_after_cells: Option<u32>,
    /// Cooperatively cancel the job right after the Nth sweep unit
    /// commits — the in-process stand-in for `crash_after_cells`, so
    /// restart-shaped integration tests can exercise checkpoint
    /// recovery without killing the test binary. At least N units are
    /// durable when the `cancelled` event lands (parallel units already
    /// past their last checkpoint may still commit).
    pub cancel_after_cells: Option<u32>,
    /// Kill the process between a completed result's tempfile write and
    /// its rename into the cache — the torn-spill crash point. The
    /// restart must treat the result as never promised: the `.tmp`
    /// debris is deleted and the key recomputes.
    pub crash_mid_spill: Option<bool>,
    /// Flip a byte of the checkpoint line whose 1-based commit ordinal
    /// (within this job) equals N, right after it is appended. Recovery
    /// must drop exactly that line's unit and recompute it.
    pub rot_checkpoint_line: Option<u32>,
}

impl FaultSpec {
    /// The cycle the panic fault fires at during `attempt` (1-based),
    /// or `None` when this attempt runs clean.
    pub fn panic_cycle(&self, attempt: u32) -> Option<u64> {
        let cycle = self.panic_at_cycle?;
        (attempt <= self.panic_attempts.unwrap_or(1)).then_some(cycle)
    }

    /// The stall as `(cycle, duration_ms)`, if configured.
    pub fn stall(&self) -> Option<(u64, u64)> {
        self.stall_at_cycle.map(|c| (c, self.stall_ms.unwrap_or(100)))
    }

    /// Should the cache entry be corrupted after a completed run?
    pub fn corrupts_cache(&self) -> bool {
        self.corrupt_cache.unwrap_or(false)
    }

    /// Should the process die between spill write and rename?
    pub fn crashes_mid_spill(&self) -> bool {
        self.crash_mid_spill.unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_fires_on_configured_attempts_only() {
        let f = FaultSpec { panic_at_cycle: Some(40), ..FaultSpec::default() };
        assert_eq!(f.panic_cycle(1), Some(40));
        assert_eq!(f.panic_cycle(2), None);
        let always = FaultSpec {
            panic_at_cycle: Some(40),
            panic_attempts: Some(u32::MAX),
            ..FaultSpec::default()
        };
        assert_eq!(always.panic_cycle(7), Some(40));
        assert_eq!(FaultSpec::default().panic_cycle(1), None);
    }

    #[test]
    fn stall_defaults_its_duration() {
        let f = FaultSpec { stall_at_cycle: Some(5), ..FaultSpec::default() };
        assert_eq!(f.stall(), Some((5, 100)));
        let g = FaultSpec { stall_at_cycle: Some(5), stall_ms: Some(250), ..f };
        assert_eq!(g.stall(), Some((5, 250)));
        assert_eq!(FaultSpec::default().stall(), None);
    }

    #[test]
    fn omitted_json_fields_inject_nothing() {
        let f: FaultSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(f, FaultSpec::default());
        assert!(!f.corrupts_cache());
        assert!(!f.crashes_mid_spill());
        assert_eq!(
            (f.crash_after_cells, f.cancel_after_cells, f.rot_checkpoint_line),
            (None, None, None)
        );
        let g: FaultSpec =
            serde_json::from_str(r#"{"panic_at_cycle": 12, "corrupt_cache": true}"#).unwrap();
        assert_eq!(g.panic_cycle(1), Some(12));
        assert!(g.corrupts_cache());
    }

    #[test]
    fn crash_point_fields_roundtrip_from_json() {
        let f: FaultSpec = serde_json::from_str(
            r#"{"crash_after_cells": 3, "cancel_after_cells": 2,
                "crash_mid_spill": true, "rot_checkpoint_line": 1}"#,
        )
        .unwrap();
        assert_eq!(f.crash_after_cells, Some(3));
        assert_eq!(f.cancel_after_cells, Some(2));
        assert!(f.crashes_mid_spill());
        assert_eq!(f.rot_checkpoint_line, Some(1));
    }
}
