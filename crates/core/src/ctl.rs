//! Cooperative run control: cancellation tokens, deadlines, and a
//! per-cycle hook, checked by the scenario/sweep drivers at cycle
//! granularity.
//!
//! A long simulation must be interruptible without leaving partial
//! output behind: the driver loop calls [`RunCtl::checkpoint`] once per
//! driver cycle and aborts with a structured [`ScenarioError`] the
//! moment a token fires or the wall-clock deadline passes. Because
//! results only materialize when a run completes, an interrupted run
//! produces *nothing* — no partial tables, no cache entries.
//!
//! The hook exists for observers that need cycle-granular access to a
//! running job from outside the engine: progress accounting in
//! `df-service`, and its fault-injection harness (a hook that panics or
//! stalls at a chosen cycle exercises the service's panic isolation and
//! deadline paths deterministically).

use crate::error::ScenarioError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shareable cancellation flag. Clones observe the same flag, so a
/// controller thread can cancel a run executing on a worker thread.
///
/// ```
/// use dragonfly_core::CancelToken;
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trigger the token. Every clone observes the cancellation at its
    /// next checkpoint. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has [`CancelToken::cancel`] been called (on any clone)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Per-run control block handed to the controllable runner entry points
/// ([`crate::run_scenario_ctl`], [`crate::run_cell`] via
/// [`crate::CellOptions`], [`crate::run_sweep_hooked`]). All fields are
/// optional; the empty [`RunCtl::NONE`] makes every checkpoint a no-op.
#[derive(Clone, Copy, Default)]
pub struct RunCtl<'a> {
    /// Cooperative cancellation; checked every driver cycle.
    pub cancel: Option<&'a CancelToken>,
    /// Wall-clock deadline; checked every driver cycle. Exceeding it
    /// aborts the run with [`ScenarioError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Called once per driver cycle with the cycle number, before the
    /// cancellation and deadline checks. May panic or block: the service
    /// layer's fault-injection harness relies on exactly that.
    pub on_cycle: Option<&'a (dyn Fn(u64) + Sync)>,
}

impl RunCtl<'_> {
    /// The empty control block: no cancellation, no deadline, no hook.
    pub const NONE: RunCtl<'static> =
        RunCtl { cancel: None, deadline: None, on_cycle: None };

    /// One per-cycle checkpoint: run the hook, then fail fast on
    /// cancellation or a passed deadline. The driver loops call this at
    /// the top of every cycle, so an interrupted run stops within one
    /// cycle of the trigger.
    #[inline]
    pub fn checkpoint(&self, cycle: u64) -> Result<(), ScenarioError> {
        if let Some(hook) = self.on_cycle {
            hook(cycle);
        }
        if let Some(token) = self.cancel {
            if token.is_cancelled() {
                return Err(ScenarioError::Cancelled { at_cycle: cycle });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(ScenarioError::DeadlineExceeded { at_cycle: cycle });
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for RunCtl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCtl")
            .field("cancel", &self.cancel)
            .field("deadline", &self.deadline)
            .field("on_cycle", &self.on_cycle.map(|_| "Fn(u64)"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn empty_ctl_always_passes() {
        for cycle in 0..10 {
            RunCtl::NONE.checkpoint(cycle).unwrap();
        }
    }

    #[test]
    fn cancellation_fires_at_the_reporting_cycle() {
        let token = CancelToken::new();
        let ctl = RunCtl { cancel: Some(&token), ..RunCtl::NONE };
        ctl.checkpoint(5).unwrap();
        token.cancel();
        assert_eq!(
            ctl.checkpoint(6).unwrap_err(),
            ScenarioError::Cancelled { at_cycle: 6 }
        );
    }

    #[test]
    fn past_deadline_fails_future_deadline_passes() {
        let past = RunCtl {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..RunCtl::NONE
        };
        assert_eq!(
            past.checkpoint(3).unwrap_err(),
            ScenarioError::DeadlineExceeded { at_cycle: 3 }
        );
        let future = RunCtl {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            ..RunCtl::NONE
        };
        future.checkpoint(3).unwrap();
    }

    #[test]
    fn hook_runs_before_the_checks() {
        let count = AtomicU64::new(0);
        let hook = |cycle: u64| {
            count.fetch_add(cycle, Ordering::Relaxed);
        };
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunCtl { cancel: Some(&token), on_cycle: Some(&hook), ..RunCtl::NONE };
        // The hook observes the cycle even though the checkpoint fails.
        assert!(ctl.checkpoint(4).is_err());
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }
}
