//! Trace recording and replay.
//!
//! A trace is a chronological list of `(cycle, src, dst)` generation
//! events. Any scenario run can record one (the scenario runner offers a
//! [`TraceRecorder`] hook), and a recorded trace replayed through
//! [`InjectionSpec::Trace`](crate::InjectionSpec::Trace) against the same
//! configuration reproduces the original run bit-for-bit: generation is
//! the only external input to the deterministic engine.

use crate::injection::Arrival;
use df_topology::NodeId;
use serde::{Deserialize, Serialize};

/// One recorded generation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Driver cycle (0-based from the start of the run, warm-up included).
    pub cycle: u64,
    /// Generating node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
}

/// Collects generation events during a run.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one generation event.
    #[inline]
    pub fn record(&mut self, cycle: u64, src: NodeId, dst: NodeId) {
        self.events.push(TraceEvent { cycle, src: src.0, dst: dst.0 });
    }

    /// The events recorded so far, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Serialize the trace as JSON text.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.events).expect("serialize trace")
    }

    /// Write the trace to `path` as JSON.
    pub fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("cannot write trace {path}: {e}"))
    }
}

/// Load a JSON trace file written by [`TraceRecorder::save`].
pub fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("malformed trace {path}: {e}"))
}

/// Replays a trace: every event fires at its recorded cycle with its
/// recorded destination.
pub(crate) struct TraceReplay {
    events: Vec<TraceEvent>,
    cursor: usize,
}

impl TraceReplay {
    /// Build a replay over `events` (sorted by cycle if not already).
    pub(crate) fn from_events(mut events: Vec<TraceEvent>) -> Self {
        if !events.windows(2).all(|w| w[0].cycle <= w[1].cycle) {
            events.sort_by_key(|e| e.cycle);
        }
        Self { events, cursor: 0 }
    }

    /// Append every event recorded at or before `cycle` not yet replayed.
    pub(crate) fn arrivals(&mut self, cycle: u64, out: &mut Vec<Arrival>) {
        while let Some(e) = self.events.get(self.cursor) {
            if e.cycle > cycle {
                break;
            }
            // Events at an already-passed cycle (driver skipped ahead)
            // fire now rather than being dropped silently.
            out.push(Arrival { src: NodeId(e.src), dst: Some(NodeId(e.dst)) });
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_through_json() {
        let mut rec = TraceRecorder::new();
        rec.record(0, NodeId(1), NodeId(2));
        rec.record(5, NodeId(3), NodeId(4));
        let json = rec.to_json();
        let back: Vec<TraceEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec.events());
    }

    #[test]
    fn replay_fires_at_recorded_cycles() {
        let events = vec![
            TraceEvent { cycle: 2, src: 0, dst: 9 },
            TraceEvent { cycle: 2, src: 1, dst: 8 },
            TraceEvent { cycle: 7, src: 2, dst: 7 },
        ];
        let mut replay = TraceReplay::from_events(events);
        let mut out = Vec::new();
        for t in 0..10u64 {
            out.clear();
            replay.arrivals(t, &mut out);
            match t {
                2 => {
                    assert_eq!(out.len(), 2);
                    assert_eq!(out[0], Arrival { src: NodeId(0), dst: Some(NodeId(9)) });
                }
                7 => assert_eq!(out.len(), 1),
                _ => assert!(out.is_empty()),
            }
        }
        assert_eq!(replay.cursor, replay.events.len());
    }

    #[test]
    fn unsorted_events_are_sorted() {
        let events =
            vec![TraceEvent { cycle: 9, src: 0, dst: 1 }, TraceEvent { cycle: 1, src: 2, dst: 3 }];
        let mut replay = TraceReplay::from_events(events);
        let mut out = Vec::new();
        replay.arrivals(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, NodeId(2));
    }
}
