//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! layers' public functions (spans inside the crates are a later issue),
//! kept in memory, and written as JSON lines when the run ends. A span
//! is either a plain interval (`busy_ns == end_ns - start_ns`) or an
//! *aggregate* over a window — e.g. "the routing layer during cycles
//! 300..400" — whose `busy_ns` is the time actually spent in the layer
//! and `calls` how often it was entered. A span's self time is its
//! `busy_ns` minus its direct children's.

use serde::Serialize;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Index in the trace (parents refer to it).
    pub id: u32,
    /// Layer or stage name.
    pub name: String,
    /// Window start, ns since the trace origin.
    pub start_ns: u64,
    /// Window end, ns since the trace origin.
    pub end_ns: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    /// Time spent inside the layer during the window.
    pub busy_ns: u64,
    /// Entries into the layer during the window.
    pub calls: u64,
    /// Service job id shared by all stage spans of one job.
    pub job: Option<u64>,
}

/// The spans of one traced run.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// Empty trace; timestamps count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `instant` on the trace clock (0 if it predates the origin).
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record an aggregate span; returns its id.
    pub fn aggregate(
        &mut self,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<u32>,
        busy_ns: u64,
        calls: u64,
        job: Option<u64>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            busy_ns,
            calls,
            job,
        });
        id
    }

    /// Record a plain interval span (busy for its whole window).
    pub fn interval(
        &mut self,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<u32>,
        job: Option<u64>,
    ) -> u32 {
        self.aggregate(
            name,
            (start_ns, end_ns),
            parent,
            end_ns.saturating_sub(start_ns),
            1,
            job,
        )
    }

    /// Run `f` inside a plain interval span under `parent`; returns its
    /// result and the span's length in microseconds.
    pub fn timed<T>(
        &mut self,
        name: &str,
        parent: u32,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.interval(name, (start, end), Some(parent), Some(job));
        (out, (end - start) as f64 / 1e3)
    }

    /// Close a root opened with a placeholder end: set its window end and
    /// busy time to "until now".
    pub fn close(&mut self, id: u32) {
        let now = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.busy_ns = now.saturating_sub(s.start_ns);
    }

    /// Open a root span starting now (close it with [`Trace::close`]).
    pub fn open_root(&mut self, name: &str) -> u32 {
        let now = self.now();
        self.interval(name, (now, now), None, None)
    }

    /// Share of the roots' time that no child span accounts for: the
    /// roots' summed self time over their summed busy time. The traced
    /// pass must keep this under 5 %, or the per-layer rows do not
    /// explain the run.
    pub fn unattributed_frac(&self) -> f64 {
        let mut root_busy = 0u64;
        let mut child_busy = 0u64;
        for s in &self.spans {
            match s.parent {
                None => root_busy += s.busy_ns,
                Some(p) if self.spans[p as usize].parent.is_none() => child_busy += s.busy_ns,
                Some(_) => {}
            }
        }
        if root_busy == 0 {
            0.0
        } else {
            root_busy.saturating_sub(child_busy) as f64 / root_busy as f64
        }
    }

    /// Write the trace as JSON lines, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line =
                serde_json::to_string(s).map_err(|e| std::io::Error::other(e.to_string()))?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_is_root_self_time_share() {
        let mut t = Trace::new();
        let root = t.aggregate("run", (0, 1_000), None, 1_000, 1, None);
        let engine = t.aggregate("engine", (0, 1_000), Some(root), 700, 10, None);
        // A grandchild refines its parent; it must not count twice.
        t.aggregate("routing", (0, 1_000), Some(engine), 300, 50, None);
        t.aggregate("traffic", (0, 1_000), Some(root), 260, 10, None);
        assert!((t.unattributed_frac() - 0.04).abs() < 1e-12);
    }
}
