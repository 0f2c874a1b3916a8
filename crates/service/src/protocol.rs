//! The wire protocol: newline-delimited JSON requests and structured
//! job events.
//!
//! A client connects to the service socket, writes one [`Request`] per
//! line, and reads back a stream of [`JobEvent`] lines. Every event
//! carries the job id it belongs to, so several jobs may interleave on
//! one connection; a job's stream ends with exactly one *terminal*
//! event ([`JobEvent::is_terminal`]). Integration tests — and the CI
//! smoke gate — assert on this event stream, never on timing.
//!
//! See `docs/SERVICE.md` for the full schema reference.

use crate::fault::FaultSpec;
use df_workload::{ScenarioSpec, SweepSpec};
use dragonfly_core::SweepRow;
use serde::{Deserialize, Serialize};

/// One client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Request {
    /// Run (or serve from cache) a multi-job scenario.
    SubmitScenario {
        /// The scenario to run.
        spec: ScenarioSpec,
        /// Seeds, deadline, and fault-injection knobs.
        options: SubmitOptions,
    },
    /// Run (or serve from cache) a sweep grid.
    SubmitSweep {
        /// The sweep to expand and run.
        spec: SweepSpec,
        /// Seeds, deadline, and fault-injection knobs.
        options: SubmitOptions,
    },
    /// Cooperatively cancel a queued or running job by id.
    Cancel {
        /// The id from the job's `accepted` event.
        job: u64,
    },
    /// Liveness probe; answered with [`JobEvent::Pong`].
    Ping,
    /// Drain in-flight and queued jobs, then stop the server.
    Shutdown,
}

/// Per-submission options. Every field is optional — an omitted JSON
/// key deserializes to `None` and picks the documented default.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubmitOptions {
    /// Master seeds to run (default: the paper's three-seed protocol,
    /// [`dragonfly_core::DEFAULT_SEEDS`]). Part of the cache key.
    pub seeds: Option<Vec<u64>>,
    /// Per-attempt wall-clock deadline in milliseconds, measured from
    /// the attempt's `started` event and checked at cycle granularity.
    /// Exceeding it cancels the run cooperatively (`timed_out`).
    pub deadline_ms: Option<u64>,
    /// Deterministic fault injection (tests and the CI harness only).
    pub fault: Option<FaultSpec>,
}

/// One structured event in a job's lifecycle (or a connection-level
/// response). Serialized as one JSON object per line, tagged `event`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum JobEvent {
    /// The job passed validation and admission and is queued.
    Accepted {
        /// Job id; all later events for this submission carry it.
        job: u64,
        /// Content-address cache key the result will be stored under.
        key: String,
        /// Jobs ahead of this one in the queue (including it).
        queue_depth: u64,
    },
    /// The queue is at its depth cap; the job was *not* admitted.
    /// Terminal: resubmit later. This is the admission-control backstop
    /// against unbounded memory growth under a submission burst.
    RejectedOverload {
        /// Job id of the rejected submission.
        job: u64,
        /// Jobs already queued when the submission arrived.
        queued: u64,
        /// The configured queue-depth cap.
        limit: u64,
    },
    /// The spec failed validation (or the service is shutting down).
    /// Terminal; nothing ran.
    Rejected {
        /// Job id of the rejected submission.
        job: u64,
        /// Human-readable reason.
        error: String,
    },
    /// Cache hit: the byte-identical result of an earlier run of the
    /// same `(spec hash, seeds, engine version)` key. Terminal.
    Cached {
        /// Job id.
        job: u64,
        /// The cache key that hit.
        key: String,
        /// Digest of `result` (matches the `completed` event that
        /// populated the entry).
        digest: String,
        /// The stored result document (JSON text).
        result: String,
    },
    /// A cache entry for this key existed but failed its digest check;
    /// the entry was evicted and the job recomputes. Non-terminal.
    CacheCorrupt {
        /// Job id.
        job: u64,
        /// The key whose entry was evicted.
        key: String,
    },
    /// A worker began executing the job (attempt 1) or re-executing it
    /// after a retry (attempt ≥ 2).
    Started {
        /// Job id.
        job: u64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Periodic progress, emitted every 1,000 simulated cycles (summed
    /// over the job's parallel cells — the telemetry timelines' default
    /// window).
    Progress {
        /// Job id.
        job: u64,
        /// Simulated cycles completed so far, across all cells.
        done_cycles: u64,
        /// Total cycles the job will simulate (cells × seeds × protocol).
        total_cycles: u64,
    },
    /// Checkpointed rows from an earlier interrupted run of this key
    /// were verified (digest-checked per line) and will be reused: only
    /// the remaining units recompute. Non-terminal; sweep submissions
    /// on a state-backed server only.
    Recovered {
        /// Job id.
        job: u64,
        /// The cache key whose checkpoint was recovered.
        key: String,
        /// `(cell, seed)` units recovered from the checkpoint.
        cells_done: u64,
        /// Total `(cell, seed)` units in the sweep grid.
        cells_total: u64,
    },
    /// One sweep `(cell, seed)` unit finished: its long-format rows
    /// stream here as cells complete, before the final table exists.
    /// Non-terminal; sweep submissions only. Units recovered from a
    /// checkpoint do *not* re-emit their rows — count these events to
    /// measure how much of a resumed sweep actually recomputed.
    SweepRows {
        /// Job id.
        job: u64,
        /// Cell index in expansion order.
        cell: u32,
        /// Master seed of the unit.
        seed: u64,
        /// The unit's rows, in the same order they hold in the final
        /// table (network scope first, then jobs in spec order).
        rows: Vec<SweepRow>,
    },
    /// The attempt died to a panic and the job will re-run after a
    /// capped exponential backoff. Non-terminal.
    Retried {
        /// Job id.
        job: u64,
        /// The attempt that failed (the next `started` carries +1).
        attempt: u32,
        /// Backoff slept before the retry, in milliseconds.
        backoff_ms: u64,
        /// The panic message of the failed attempt.
        error: String,
    },
    /// The job finished; its result is cached under `key`. Terminal.
    Completed {
        /// Job id.
        job: u64,
        /// Cache key the result was stored under.
        key: String,
        /// Digest of `result` (the corruption check re-derives this).
        digest: String,
        /// The result document (JSON text): a scenario summary or a
        /// sweep table.
        result: String,
    },
    /// The per-attempt deadline passed; the run was cancelled
    /// cooperatively and produced no output. Terminal.
    TimedOut {
        /// Job id.
        job: u64,
        /// Driver cycle at which the deadline check fired.
        at_cycle: u64,
    },
    /// The job was cancelled via [`Request::Cancel`] (or the in-process
    /// API) and produced no output. Terminal.
    Cancelled {
        /// Job id.
        job: u64,
        /// Driver cycle at which the cancellation was observed.
        at_cycle: u64,
    },
    /// Retries exhausted (or a non-retryable error). Terminal.
    Failed {
        /// Job id.
        job: u64,
        /// Attempts consumed.
        attempts: u32,
        /// The final error.
        error: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Shutdown`], sent *after* the drain: every
    /// in-flight and queued job ran to its terminal event.
    ShuttingDown {
        /// Jobs that were still queued or running when the shutdown
        /// arrived and were drained to completion.
        drained: u64,
    },
    /// The request line could not be parsed or referenced an unknown
    /// job. Connection-level; not part of any job's stream.
    ProtocolError {
        /// What was wrong with the request.
        error: String,
    },
}

impl JobEvent {
    /// The job id this event belongs to (`None` for connection-level
    /// events like `pong`).
    pub fn job(&self) -> Option<u64> {
        match self {
            JobEvent::Accepted { job, .. }
            | JobEvent::RejectedOverload { job, .. }
            | JobEvent::Rejected { job, .. }
            | JobEvent::Cached { job, .. }
            | JobEvent::CacheCorrupt { job, .. }
            | JobEvent::Started { job, .. }
            | JobEvent::Progress { job, .. }
            | JobEvent::Recovered { job, .. }
            | JobEvent::SweepRows { job, .. }
            | JobEvent::Retried { job, .. }
            | JobEvent::Completed { job, .. }
            | JobEvent::TimedOut { job, .. }
            | JobEvent::Cancelled { job, .. }
            | JobEvent::Failed { job, .. } => Some(*job),
            JobEvent::Pong | JobEvent::ShuttingDown { .. } | JobEvent::ProtocolError { .. } => None,
        }
    }

    /// Does this event end its job's stream?
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobEvent::RejectedOverload { .. }
                | JobEvent::Rejected { .. }
                | JobEvent::Cached { .. }
                | JobEvent::Completed { .. }
                | JobEvent::TimedOut { .. }
                | JobEvent::Cancelled { .. }
                | JobEvent::Failed { .. }
        )
    }

    /// The wire tag of this event (the serialized `event` field).
    pub fn label(&self) -> &'static str {
        match self {
            JobEvent::Accepted { .. } => "accepted",
            JobEvent::RejectedOverload { .. } => "rejected_overload",
            JobEvent::Rejected { .. } => "rejected",
            JobEvent::Cached { .. } => "cached",
            JobEvent::CacheCorrupt { .. } => "cache_corrupt",
            JobEvent::Started { .. } => "started",
            JobEvent::Progress { .. } => "progress",
            JobEvent::Recovered { .. } => "recovered",
            JobEvent::SweepRows { .. } => "sweep_rows",
            JobEvent::Retried { .. } => "retried",
            JobEvent::Completed { .. } => "completed",
            JobEvent::TimedOut { .. } => "timed_out",
            JobEvent::Cancelled { .. } => "cancelled",
            JobEvent::Failed { .. } => "failed",
            JobEvent::Pong => "pong",
            JobEvent::ShuttingDown { .. } => "shutting_down",
            JobEvent::ProtocolError { .. } => "protocol_error",
        }
    }
}

/// FNV-1a 64-bit hash — the service's content digest. Collisions are a
/// non-issue for corruption *detection* (a flipped byte changes the
/// digest with overwhelming probability), and the function is tiny,
/// allocation-free, and stable across platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv1a64`] as a fixed-width lowercase hex string.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// The content-address cache key of a submission:
/// `(kind, spec hash, seeds, engine version)`. Determinism
/// (docs/DETERMINISM.md) makes the key sound — the same key always
/// produces a byte-identical result document — and the engine version
/// component invalidates every entry when an engine change moves
/// same-seed outputs.
pub fn cache_key(kind: &str, spec_json: &str, seeds: &[u64]) -> String {
    let mut seed_list = String::new();
    for (i, s) in seeds.iter().enumerate() {
        if i > 0 {
            seed_list.push(',');
        }
        seed_list.push_str(&s.to_string());
    }
    format!(
        "{kind}:{spec}:seeds[{seed_list}]:{engine}",
        spec = digest_hex(spec_json.as_bytes()),
        engine = dragonfly_core::ENGINE_VERSION,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_sensitive() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"result-a"), fnv1a64(b"result-b"));
        assert_eq!(digest_hex(b"").len(), 16);
    }

    #[test]
    fn cache_key_separates_kind_spec_and_seeds() {
        let a = cache_key("scenario", "{\"x\":1}", &[1, 2]);
        let b = cache_key("scenario", "{\"x\":2}", &[1, 2]);
        let c = cache_key("scenario", "{\"x\":1}", &[1]);
        let d = cache_key("sweep", "{\"x\":1}", &[1, 2]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(a.contains(dragonfly_core::ENGINE_VERSION));
        assert!(a.contains("seeds[1,2]"));
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            JobEvent::Accepted { job: 3, key: "k".into(), queue_depth: 2 },
            JobEvent::RejectedOverload { job: 4, queued: 8, limit: 8 },
            JobEvent::Progress { job: 3, done_cycles: 1000, total_cycles: 9000 },
            JobEvent::Recovered { job: 3, key: "k".into(), cells_done: 5, cells_total: 8 },
            JobEvent::SweepRows { job: 3, cell: 2, seed: 7, rows: vec![] },
            JobEvent::Retried { job: 3, attempt: 1, backoff_ms: 5, error: "boom".into() },
            JobEvent::Completed {
                job: 3,
                key: "k".into(),
                digest: "d".into(),
                result: "{\"rows\":[]}".into(),
            },
            JobEvent::Pong,
        ];
        for e in events {
            let line = serde_json::to_string(&e).unwrap();
            let back: JobEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn event_tags_match_labels() {
        let e = JobEvent::RejectedOverload { job: 1, queued: 2, limit: 2 };
        let line = serde_json::to_string(&e).unwrap();
        assert!(line.contains("\"event\":\"rejected_overload\""), "{line}");
        assert!(e.is_terminal());
        assert_eq!(e.job(), Some(1));
        let p = JobEvent::Progress { job: 1, done_cycles: 0, total_cycles: 1 };
        assert!(!p.is_terminal());
        assert_eq!(JobEvent::Pong.job(), None);
        // The streaming/recovery events belong to their job but never
        // end its stream.
        let r = JobEvent::Recovered { job: 2, key: "k".into(), cells_done: 1, cells_total: 4 };
        assert!(!r.is_terminal());
        assert_eq!(r.job(), Some(2));
        assert_eq!(r.label(), "recovered");
        let s = JobEvent::SweepRows { job: 2, cell: 0, seed: 1, rows: vec![] };
        assert!(!s.is_terminal());
        assert_eq!(s.job(), Some(2));
        let line = serde_json::to_string(&s).unwrap();
        assert!(line.contains("\"event\":\"sweep_rows\""), "{line}");
    }

    /// Python's `json.dumps` writes a character outside the BMP as a
    /// UTF-16 surrogate pair; a job named that way reaches the spec as the
    /// one character, parsed as the server parses every request line.
    #[test]
    fn a_job_name_written_as_a_surrogate_pair_parses() {
        let spec = include_str!("../../../scenarios/paper_job_anatomy.json")
            .replace(r#""hpc-app""#, r#""crab \ud83e\udd80""#);
        let line = format!(r#"{{"type":"submit_scenario","spec":{spec},"options":{{}}}}"#);
        let Ok(Request::SubmitScenario { spec, .. }) = serde_json::from_str(&line) else {
            panic!("not a scenario submission: {line}");
        };
        assert_eq!(spec.jobs[0].name, "crab 🦀");
    }

    #[test]
    fn requests_roundtrip_through_json() {
        for r in [Request::Ping, Request::Shutdown, Request::Cancel { job: 9 }] {
            let line = serde_json::to_string(&r).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
    }
}
