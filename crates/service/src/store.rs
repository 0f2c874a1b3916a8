//! Durable service state: crash-safe result-cache spill files and
//! per-job sweep checkpoints under a `--state-dir`.
//!
//! Layout (all paths relative to the state dir):
//!
//! ```text
//! cache/<digest_hex(key)>.json         one completed result per file
//! cache/<name>.json.tmp                in-flight spill (crash debris)
//! cache/<name>.json.corrupt            quarantined torn/rotted file
//! checkpoints/<digest_hex(key)>.jsonl  one committed (cell, seed) unit
//!                                      of an in-flight sweep per line
//! ```
//!
//! Every write is tempfile-then-rename, so a result file is either the
//! complete document or absent — a `kill -9` mid-spill leaves only a
//! `.tmp` that the next startup deletes. Every read re-derives content
//! digests: a cache file whose payload no longer hashes to its recorded
//! digest (or whose key no longer hashes to its file name) is
//! quarantined with a `.corrupt` suffix, never loaded; a checkpoint
//! line that fails its digest is dropped, so its unit recomputes.
//! Determinism (docs/DETERMINISM.md) is what makes replaying either
//! kind of state sound: the recomputed bytes are provably identical to
//! the recovered ones.

use crate::cache::CacheEntry;
use crate::protocol::digest_hex;
use dragonfly_core::SweepRow;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One persisted cache entry, as serialized into its spill file. The
/// digest is re-derived on load; the key's own digest must also match
/// the file name, so a file can neither be renamed onto another key nor
/// partially overwritten without detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PersistedEntry {
    /// The full cache key (`kind:spec-digest:seeds[..]:engine`).
    key: String,
    /// [`digest_hex`] of `result` at spill time.
    digest: String,
    /// The result document, byte-exact.
    result: String,
}

/// One committed sweep unit, as serialized into a checkpoint line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CheckpointLine {
    /// Cell index in expansion order.
    cell: u32,
    /// Master seed of the unit.
    seed: u64,
    /// [`digest_hex`] of the compact-JSON serialization of `rows`.
    digest: String,
    /// The unit's finished long-format rows.
    rows: Vec<SweepRow>,
}

/// What a startup scan of the cache directory found.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Verified entries, in file-name (digest) order.
    pub entries: Vec<(String, CacheEntry)>,
    /// File names quarantined with a `.corrupt` suffix (torn, rotted,
    /// or mismatched), reported as `cache_corrupt` startup events.
    pub quarantined: Vec<String>,
}

/// A verified checkpoint load: the recoverable units of one sweep key.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLoad {
    /// Rows per committed `(cell, seed)` unit (last write wins when a
    /// retried attempt re-committed a unit).
    pub units: HashMap<(u32, u64), Vec<SweepRow>>,
    /// Lines dropped for failing to parse or hash — their units simply
    /// recompute.
    pub dropped: usize,
}

/// Handle on a service state directory.
#[derive(Debug)]
pub struct StateDir {
    root: PathBuf,
}

impl StateDir {
    /// Open (creating if needed) a state directory and its `cache/` and
    /// `checkpoints/` subdirectories.
    pub fn open(root: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(root.join("cache"))?;
        std::fs::create_dir_all(root.join("checkpoints"))?;
        Ok(Self { root: root.to_path_buf() })
    }

    fn cache_file(&self, key: &str) -> PathBuf {
        self.root.join("cache").join(format!("{}.json", digest_hex(key.as_bytes())))
    }

    fn checkpoint_file(&self, key: &str) -> PathBuf {
        self.root.join("checkpoints").join(format!("{}.jsonl", digest_hex(key.as_bytes())))
    }

    // ----------------------------------------------------------------
    // Result-cache spill files
    // ----------------------------------------------------------------

    /// Persist a completed entry: write `<file>.tmp`, then rename into
    /// place. A crash at any point leaves either the old state or the
    /// new — never a half-written result file.
    pub fn spill(&self, key: &str, entry: &CacheEntry) -> std::io::Result<()> {
        let tmp = self.write_spill_tmp(key, entry)?;
        std::fs::rename(&tmp, self.cache_file(key))
    }

    /// The crash-mid-spill fault point: the tempfile half of
    /// [`StateDir::spill`] without the rename. The stray `.tmp` is
    /// exactly what a process killed between write and rename leaves
    /// behind; the next startup scan deletes it.
    pub fn spill_torn(&self, key: &str, entry: &CacheEntry) -> std::io::Result<()> {
        self.write_spill_tmp(key, entry).map(|_| ())
    }

    fn write_spill_tmp(&self, key: &str, entry: &CacheEntry) -> std::io::Result<PathBuf> {
        let persisted = PersistedEntry {
            key: key.to_string(),
            digest: entry.digest.clone(),
            result: entry.result.clone(),
        };
        let json =
            serde_json::to_string(&persisted).map_err(|e| std::io::Error::other(e.to_string()))?;
        // Unique tmp name: two racing completions of the same key must
        // not scribble over each other's half-written spill (whichever
        // rename lands last wins, and both documents are identical by
        // determinism anyway).
        static SPILL_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SPILL_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let target = self.cache_file(key);
        let tmp = target.with_extension(format!("json.{seq}.tmp"));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
        Ok(tmp)
    }

    /// Remove a key's spill file (cache eviction, or a corrupt entry
    /// detected in memory). Missing files are fine.
    pub fn unspill(&self, key: &str) {
        let _ = std::fs::remove_file(self.cache_file(key));
    }

    /// Fault-injection hook: flip one byte of a key's persisted spill
    /// file, so the next startup scan must quarantine it. Returns
    /// `false` when no file exists.
    pub fn rot_entry(&self, key: &str) -> bool {
        let path = self.cache_file(key);
        match std::fs::read(&path) {
            Ok(mut bytes) if !bytes.is_empty() => {
                bytes[0] ^= 0x01;
                std::fs::write(&path, bytes).is_ok()
            }
            _ => false,
        }
    }

    /// Scan the cache directory: delete crash debris (`*.tmp`), verify
    /// every `*.json` spill file (parse, re-derive the result digest,
    /// and check the key hashes to the file name), quarantine failures
    /// as `*.corrupt`, and return the verified entries in file-name
    /// order (deterministic across restarts).
    pub fn load_cache(&self) -> LoadReport {
        let mut report = LoadReport::default();
        let dir = self.root.join("cache");
        let Ok(read) = std::fs::read_dir(&dir) else { return report };
        let mut names: Vec<String> =
            read.filter_map(|e| e.ok()).filter_map(|e| e.file_name().into_string().ok()).collect();
        names.sort();
        for name in names {
            let path = dir.join(&name);
            if name.ends_with(".tmp") {
                // Interrupted spill: the rename never happened, so the
                // entry was never promised. Delete the debris.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if !name.ends_with(".json") {
                continue; // `.corrupt` quarantine from an earlier scan
            }
            let stem = name.trim_end_matches(".json");
            match std::fs::read(&path).ok().and_then(|bytes| parse_entry(&bytes, stem)) {
                Some((key, entry)) => report.entries.push((key, entry)),
                None => {
                    let _ = std::fs::rename(&path, path.with_extension("json.corrupt"));
                    report.quarantined.push(name);
                }
            }
        }
        report
    }

    // ----------------------------------------------------------------
    // Sweep checkpoints
    // ----------------------------------------------------------------

    /// Append one committed `(cell, seed)` unit to a sweep's checkpoint
    /// file. Callers serialize appends (the service commits under its
    /// recovered-rows lock), so lines never interleave.
    pub fn append_checkpoint(
        &self,
        key: &str,
        cell: u32,
        seed: u64,
        rows: &[SweepRow],
    ) -> std::io::Result<()> {
        let rows = rows.to_vec();
        let digest = digest_hex(
            serde_json::to_string(&rows)
                .map_err(|e| std::io::Error::other(e.to_string()))?
                .as_bytes(),
        );
        let line = serde_json::to_string(&CheckpointLine { cell, seed, digest, rows })
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.checkpoint_file(key))?;
        writeln!(f, "{line}")
    }

    /// Load and verify a sweep's checkpoint: every line must parse and
    /// its rows must re-hash to the recorded digest; failures are
    /// dropped (counted), so their units recompute. A missing file is
    /// an empty load.
    pub fn load_checkpoint(&self, key: &str) -> CheckpointLoad {
        let mut load = CheckpointLoad::default();
        let Ok(bytes) = std::fs::read(self.checkpoint_file(key)) else { return load };
        for raw in bytes.split(|&b| b == b'\n') {
            if raw.is_empty() {
                continue;
            }
            match parse_checkpoint_line(raw) {
                Some(line) => {
                    load.units.insert((line.cell, line.seed), line.rows);
                }
                None => load.dropped += 1,
            }
        }
        load
    }

    /// Fault-injection hook: flip one byte of the *last* line of a
    /// sweep's checkpoint file (the line just committed), so recovery
    /// must drop that unit and recompute it. Returns `false` when no
    /// checkpoint exists.
    pub fn rot_last_checkpoint_line(&self, key: &str) -> bool {
        let path = self.checkpoint_file(key);
        let Ok(mut bytes) = std::fs::read(&path) else { return false };
        // Find the start of the last non-empty line (file ends "…\n").
        let end = bytes.iter().rposition(|&b| b != b'\n').map(|i| i + 1).unwrap_or(0);
        if end == 0 {
            return false;
        }
        let start = bytes[..end].iter().rposition(|&b| b == b'\n').map(|i| i + 1).unwrap_or(0);
        bytes[start] ^= 0x01;
        std::fs::write(&path, bytes).is_ok()
    }

    /// Remove a sweep's checkpoint (its result completed — the spill
    /// file now carries the durable state). Missing files are fine.
    pub fn remove_checkpoint(&self, key: &str) {
        let _ = std::fs::remove_file(self.checkpoint_file(key));
    }

    /// Does a checkpoint file exist for `key`?
    pub fn has_checkpoint(&self, key: &str) -> bool {
        self.checkpoint_file(key).exists()
    }
}

/// Verify one spill file's bytes against its file-name stem. Returns
/// the `(key, entry)` only when the payload re-hashes to its recorded
/// digest *and* the key re-hashes to the file name.
fn parse_entry(bytes: &[u8], stem: &str) -> Option<(String, CacheEntry)> {
    let text = std::str::from_utf8(bytes).ok()?;
    let persisted: PersistedEntry = serde_json::from_str(text).ok()?;
    (digest_hex(persisted.result.as_bytes()) == persisted.digest
        && digest_hex(persisted.key.as_bytes()) == stem)
        .then_some((
            persisted.key,
            CacheEntry { result: persisted.result, digest: persisted.digest },
        ))
}

/// Verify one checkpoint line: UTF-8, parses, and its rows re-hash to
/// the recorded digest.
fn parse_checkpoint_line(raw: &[u8]) -> Option<CheckpointLine> {
    let text = std::str::from_utf8(raw).ok()?;
    let line: CheckpointLine = serde_json::from_str(text).ok()?;
    let rehash = digest_hex(serde_json::to_string(&line.rows).ok()?.as_bytes());
    (rehash == line.digest).then_some(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("df-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(result: &str) -> CacheEntry {
        CacheEntry { result: result.into(), digest: digest_hex(result.as_bytes()) }
    }

    fn row(cell: u32, seed: u64) -> SweepRow {
        SweepRow {
            cell,
            mechanism: "In-Trns-MM".into(),
            load: 0.2,
            placement: "base".into(),
            pattern: "base".into(),
            seed,
            scope: "network".into(),
            nodes: 72,
            offered: 0.2,
            throughput: 0.19,
            avg_latency: 41.5,
            p50_latency: None,
            p95_latency: Some(88),
            p99_latency: Some(120),
            active_cycles: 200,
            delivered_packets: 1234,
            min_injections: 11.0,
            max_min_ratio: Some(1.4),
            cov: 0.1,
            jain: 0.99,
        }
    }

    #[test]
    fn spill_load_roundtrip_in_name_order() {
        let dir = tempdir("roundtrip");
        let state = StateDir::open(&dir).unwrap();
        state.spill("key-a", &entry("result-a")).unwrap();
        state.spill("key-b", &entry("result-b")).unwrap();
        let report = state.load_cache();
        assert!(report.quarantined.is_empty());
        assert_eq!(report.entries.len(), 2);
        let mut keys: Vec<&str> = report.entries.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort();
        assert_eq!(keys, ["key-a", "key-b"]);
        for (key, e) in &report.entries {
            assert_eq!(e.result, format!("result-{}", &key[4..]));
            assert_eq!(e.digest, digest_hex(e.result.as_bytes()));
        }
        // Loading is idempotent: nothing was consumed or quarantined.
        assert_eq!(state.load_cache().entries.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotted_spill_is_quarantined_not_loaded() {
        let dir = tempdir("rot");
        let state = StateDir::open(&dir).unwrap();
        state.spill("k", &entry("payload")).unwrap();
        assert!(state.rot_entry("k"));
        let report = state.load_cache();
        assert!(report.entries.is_empty(), "rotted entry must never load");
        assert_eq!(report.quarantined.len(), 1);
        // The quarantine file is preserved for post-mortems but ignored
        // by subsequent scans.
        let again = state.load_cache();
        assert!(again.entries.is_empty() && again.quarantined.is_empty());
        // A fresh spill of the same key recovers the slot.
        state.spill("k", &entry("payload")).unwrap();
        assert_eq!(state.load_cache().entries.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_spill_leaves_only_deletable_debris() {
        let dir = tempdir("torn");
        let state = StateDir::open(&dir).unwrap();
        state.spill_torn("k", &entry("payload")).unwrap();
        let report = state.load_cache();
        assert!(report.entries.is_empty() && report.quarantined.is_empty());
        // The `.tmp` was deleted by the scan.
        let left: Vec<_> = std::fs::read_dir(dir.join("cache")).unwrap().collect();
        assert!(left.is_empty(), "{left:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renamed_spill_file_fails_its_key_check() {
        let dir = tempdir("rename");
        let state = StateDir::open(&dir).unwrap();
        state.spill("k1", &entry("payload")).unwrap();
        // An attacker (or a confused backup restore) renames the file
        // onto another key's slot: content digest still matches, but the
        // key no longer hashes to the file name.
        let from = dir.join("cache").join(format!("{}.json", digest_hex(b"k1")));
        let to = dir.join("cache").join(format!("{}.json", digest_hex(b"k2")));
        std::fs::rename(from, to).unwrap();
        let report = state.load_cache();
        assert!(report.entries.is_empty());
        assert_eq!(report.quarantined.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_roundtrip_last_write_wins_and_rot_drops_a_line() {
        let dir = tempdir("ckpt");
        let state = StateDir::open(&dir).unwrap();
        assert!(state.load_checkpoint("swp").units.is_empty());
        state.append_checkpoint("swp", 0, 1, &[row(0, 1)]).unwrap();
        state.append_checkpoint("swp", 1, 1, &[row(1, 1)]).unwrap();
        // A retried attempt re-commits unit (0, 1): last write wins.
        let mut newer = row(0, 1);
        newer.delivered_packets += 1;
        state.append_checkpoint("swp", 0, 1, &[newer.clone()]).unwrap();
        let load = state.load_checkpoint("swp");
        assert_eq!(load.dropped, 0);
        assert_eq!(load.units.len(), 2);
        assert_eq!(load.units[&(0, 1)], vec![newer]);

        // Rot the last line: exactly that unit is dropped on load.
        assert!(state.rot_last_checkpoint_line("swp"));
        let load = state.load_checkpoint("swp");
        assert_eq!(load.dropped, 1);
        assert_eq!(load.units.len(), 2, "units 0 and 1 survive via earlier lines");
        assert_eq!(load.units[&(0, 1)], vec![row(0, 1)], "rotted re-commit fell back");

        assert!(state.has_checkpoint("swp"));
        state.remove_checkpoint("swp");
        assert!(!state.has_checkpoint("swp"));
        assert!(state.load_checkpoint("swp").units.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoint_tail_loses_only_the_torn_line() {
        let dir = tempdir("trunc");
        let state = StateDir::open(&dir).unwrap();
        state.append_checkpoint("swp", 0, 7, &[row(0, 7)]).unwrap();
        state.append_checkpoint("swp", 1, 7, &[row(1, 7)]).unwrap();
        let path = dir.join("checkpoints").join(format!("{}.jsonl", digest_hex(b"swp")));
        let bytes = std::fs::read(&path).unwrap();
        // Cut mid-way through the second line, as a crash mid-append
        // would.
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let load = state.load_checkpoint("swp");
        assert_eq!(load.dropped, 1);
        assert_eq!(load.units.len(), 1);
        assert_eq!(load.units[&(0, 7)], vec![row(0, 7)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
