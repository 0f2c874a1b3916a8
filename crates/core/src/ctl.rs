//! Cooperative run control: one checkpoint closure, asked by the
//! scenario/sweep drivers once per driver cycle.
//!
//! A long simulation must be interruptible without leaving partial
//! output behind: the driver loop calls the checkpoint at the top of
//! every driver cycle and aborts with its [`ScenarioError`] the moment
//! it returns one. Because results only materialize when a run
//! completes, an interrupted run produces *nothing* — no partial
//! tables, no cache entries.
//!
//! What the checkpoint decides is the controller's business: the core
//! keeps no cancel flag and no wall clock. `df-service` answers with its
//! fault injection (a checkpoint that panics or stalls at a chosen cycle
//! exercises the service's panic isolation and deadline paths
//! deterministically), its progress accounting, its cancel flag and its
//! deadline, returning [`ScenarioError::Cancelled`] or
//! [`ScenarioError::DeadlineExceeded`].

use crate::error::ScenarioError;

/// Per-cycle run control handed to the controllable runner entry points
/// ([`crate::run_scenario_ctl`], [`crate::run_cell`] via
/// [`crate::CellOptions`], [`crate::run_sweep_hooked`]): called with the
/// driver cycle at the top of every cycle of every cell, so an
/// interrupted run stops within one cycle of the trigger. An `Err` stops
/// the cell and is returned unchanged; the checkpoint may also panic or
/// block. `None` is the uncontrolled run.
pub type RunCtl<'a> = Option<&'a (dyn Fn(u64) -> Result<(), ScenarioError> + Sync)>;
