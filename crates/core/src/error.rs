//! Structured errors for the scenario/sweep runners.
//!
//! The runners used to report every failure as a bare `String`; callers
//! (CLIs, and above all the `df-service` job server) need to distinguish
//! *bad input* from *interrupted work*: an invalid spec is the
//! submitter's fault and must never be retried, while a cancellation or
//! a missed deadline says nothing about the spec and maps to its own
//! structured job event.

use std::fmt;

/// Why a scenario or sweep run did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec failed validation, or generation derived from it was
    /// impossible (out-of-range nodes, unresolvable placement, …). The
    /// message is human-readable and stable enough to print verbatim.
    InvalidSpec(String),
    /// The [`crate::RunCtl`] checkpoint reported a cancellation; the run
    /// stopped at the given driver cycle without producing any output.
    Cancelled {
        /// Driver cycle at which the cancellation was observed.
        at_cycle: u64,
    },
    /// The [`crate::RunCtl`] checkpoint reported a passed deadline at the
    /// given driver cycle; the run stopped without producing any output.
    DeadlineExceeded {
        /// Driver cycle at which the deadline check fired.
        at_cycle: u64,
    },
}

impl ScenarioError {
    /// Wrap a validation/generation message.
    pub fn spec(msg: impl Into<String>) -> Self {
        ScenarioError::InvalidSpec(msg.into())
    }

    /// Prefix spec errors with `ctx` (e.g. a sweep-cell coordinate).
    /// Interrupts ([`ScenarioError::Cancelled`] /
    /// [`ScenarioError::DeadlineExceeded`]) pass through unchanged so a
    /// service layer can still map them to their own events.
    pub fn context(self, ctx: &str) -> Self {
        match self {
            ScenarioError::InvalidSpec(msg) => ScenarioError::InvalidSpec(format!("{ctx}: {msg}")),
            other => other,
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::InvalidSpec(msg) => write!(f, "{msg}"),
            ScenarioError::Cancelled { at_cycle } => {
                write!(f, "cancelled at cycle {at_cycle}")
            }
            ScenarioError::DeadlineExceeded { at_cycle } => {
                write!(f, "deadline exceeded at cycle {at_cycle}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<String> for ScenarioError {
    fn from(msg: String) -> Self {
        ScenarioError::InvalidSpec(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_wraps_only_spec_errors() {
        let e = ScenarioError::spec("bad load").context("cell 3");
        assert_eq!(e.to_string(), "cell 3: bad load");
        let c = ScenarioError::Cancelled { at_cycle: 7 }.context("cell 3");
        assert_eq!(c, ScenarioError::Cancelled { at_cycle: 7 });
        let d = ScenarioError::DeadlineExceeded { at_cycle: 7 }.context("cell 3");
        assert_eq!(d, ScenarioError::DeadlineExceeded { at_cycle: 7 });
    }

    #[test]
    fn string_conversion_is_invalid_spec() {
        let e: ScenarioError = String::from("nope").into();
        assert_eq!(e, ScenarioError::InvalidSpec("nope".into()));
        assert_eq!(
            ScenarioError::DeadlineExceeded { at_cycle: 10 }.to_string(),
            "deadline exceeded at cycle 10"
        );
    }
}
