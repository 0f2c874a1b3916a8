//! The content-addressed result cache.
//!
//! Entries are keyed by [`crate::protocol::cache_key`] — `(spec hash,
//! seeds, engine version)` — and hold the serialized result document
//! plus its digest. Determinism makes the cache sound: the same key
//! always reproduces the byte-identical document, so a hit may be
//! served without rerunning anything. Every lookup re-derives the
//! stored bytes' digest; a mismatch (bit rot, or the fault-injection
//! harness) evicts the entry and reports [`Lookup::Corrupt`] so the
//! caller recomputes instead of serving bad bytes.

use crate::lock;
use crate::protocol::digest_hex;
use crate::store::{LoadReport, StateDir};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// A cached result document and the digest it must hash to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The serialized result (JSON text, byte-exact).
    pub result: String,
    /// [`digest_hex`] of `result` at insertion time.
    pub digest: String,
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Entry present and its digest checks out.
    Hit(CacheEntry),
    /// Entry present but its bytes no longer match the stored digest;
    /// the entry has been evicted.
    Corrupt,
    /// No entry for this key.
    Miss,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<String, CacheEntry>,
    /// Insertion order for FIFO eviction at capacity.
    order: VecDeque<String>,
}

/// A bounded, thread-safe result cache with digest-checked reads,
/// optionally backed by a [`StateDir`] that spills every insertion to
/// disk and reloads verified entries at startup.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    state: Option<Arc<StateDir>>,
}

impl ResultCache {
    /// A memory-only cache holding at most `capacity` entries (oldest
    /// evicted first). `capacity` 0 disables caching: every probe
    /// misses.
    pub fn new(capacity: usize) -> Self {
        Self { inner: Mutex::default(), capacity, state: None }
    }

    /// A durable cache backed by `state`: the startup scan loads every
    /// verified spill file (in file-name order, up to `capacity`) and
    /// quarantines the rest; thereafter every insertion spills
    /// tempfile-then-rename, and evictions delete their spill files.
    /// Returns the cache and the scan's [`LoadReport`] so the server
    /// can surface what it recovered (and emit `cache_corrupt` for
    /// every quarantined file).
    pub fn with_state(capacity: usize, state: Arc<StateDir>) -> (Self, LoadReport) {
        let report = state.load_cache();
        let mut inner = CacheInner::default();
        for (key, entry) in report.entries.iter().take(capacity) {
            inner.order.push_back(key.clone());
            inner.map.insert(key.clone(), entry.clone());
        }
        (Self { inner: Mutex::new(inner), capacity, state: Some(state) }, report)
    }

    /// Probe `key`, re-verifying the stored digest.
    pub fn lookup(&self, key: &str) -> Lookup {
        let mut inner = lock(&self.inner);
        let Some(entry) = inner.map.get(key) else {
            return Lookup::Miss;
        };
        if digest_hex(entry.result.as_bytes()) == entry.digest {
            Lookup::Hit(entry.clone())
        } else {
            inner.map.remove(key);
            inner.order.retain(|k| k != key);
            if let Some(state) = &self.state {
                // The spill file backs the rotted memory entry; drop it
                // too so a restart cannot resurrect bad bytes (the
                // startup scan would quarantine them anyway).
                state.unspill(key);
            }
            Lookup::Corrupt
        }
    }

    /// Store `result` under `key`, returning its digest. Replaces any
    /// previous entry; evicts the oldest entry at capacity. When
    /// state-backed, the entry is spilled tempfile-then-rename before
    /// it becomes visible, and evicted entries lose their spill files;
    /// a spill I/O failure degrades the entry to memory-only.
    pub fn insert(&self, key: &str, result: String) -> String {
        let digest = digest_hex(result.as_bytes());
        if self.capacity == 0 {
            return digest;
        }
        let entry = CacheEntry { result, digest: digest.clone() };
        if let Some(state) = &self.state {
            let _ = state.spill(key, &entry);
        }
        let mut inner = lock(&self.inner);
        if inner.map.remove(key).is_some() {
            inner.order.retain(|k| k != key);
        }
        while inner.map.len() >= self.capacity {
            let Some(oldest) = inner.order.pop_front() else { break };
            inner.map.remove(&oldest);
            if let Some(state) = &self.state {
                state.unspill(&oldest);
            }
        }
        inner.order.push_back(key.to_string());
        inner.map.insert(key.to_string(), entry);
        digest
    }

    /// Fault-injection hook: flip a byte of the entry stored under
    /// `key` *without* updating its digest, so the next lookup detects
    /// the corruption. When state-backed, the key's spill file is
    /// rotted the same way, so a restart's startup scan must quarantine
    /// it. Returns `false` if the key is absent.
    pub fn corrupt(&self, key: &str) -> bool {
        let mut inner = lock(&self.inner);
        if let Some(state) = &self.state {
            state.rot_entry(key);
        }
        let Some(entry) = inner.map.get_mut(key) else {
            return false;
        };
        let mut bytes = std::mem::take(&mut entry.result).into_bytes();
        if let Some(b) = bytes.first_mut() {
            *b ^= 0x01;
        }
        entry.result = String::from_utf8_lossy(&bytes).into_owned();
        true
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_byte_identical_entry() {
        let cache = ResultCache::new(4);
        assert_eq!(cache.lookup("k"), Lookup::Miss);
        let digest = cache.insert("k", "{\"rows\":[1,2]}".into());
        match cache.lookup("k") {
            Lookup::Hit(e) => {
                assert_eq!(e.result, "{\"rows\":[1,2]}");
                assert_eq!(e.digest, digest);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_detected_and_evicted() {
        let cache = ResultCache::new(4);
        cache.insert("k", "payload".into());
        assert!(cache.corrupt("k"));
        assert_eq!(cache.lookup("k"), Lookup::Corrupt);
        // The corrupt entry is gone: the next probe is a clean miss and
        // a recompute repopulates it.
        assert_eq!(cache.lookup("k"), Lookup::Miss);
        cache.insert("k", "payload".into());
        assert!(matches!(cache.lookup("k"), Lookup::Hit(_)));
        assert!(!cache.corrupt("unknown"));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = ResultCache::new(2);
        cache.insert("a", "1".into());
        cache.insert("b", "2".into());
        cache.insert("c", "3".into());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup("a"), Lookup::Miss);
        assert!(matches!(cache.lookup("b"), Lookup::Hit(_)));
        assert!(matches!(cache.lookup("c"), Lookup::Hit(_)));
        // Reinserting an existing key refreshes its slot, not a second copy.
        cache.insert("b", "2b".into());
        assert_eq!(cache.len(), 2);
        cache.insert("d", "4".into());
        assert_eq!(cache.lookup("c"), Lookup::Miss, "c was oldest after b refresh");
    }

    #[test]
    fn state_backed_cache_survives_a_restart_and_evicts_spill_files() {
        let dir = std::env::temp_dir().join(format!("df-cache-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = Arc::new(StateDir::open(&dir).unwrap());

        let (cache, report) = ResultCache::with_state(2, Arc::clone(&state));
        assert!(report.entries.is_empty() && report.quarantined.is_empty());
        cache.insert("a", "result-a".into());
        cache.insert("b", "result-b".into());

        // "Restart": a fresh cache on the same dir reloads both entries.
        let (cache2, report2) = ResultCache::with_state(2, Arc::clone(&state));
        assert_eq!(report2.entries.len(), 2);
        match cache2.lookup("a") {
            Lookup::Hit(e) => assert_eq!(e.result, "result-a"),
            other => panic!("expected hit after reload, got {other:?}"),
        }

        // Eviction removes the spill file: the next restart only sees
        // the survivors.
        cache2.insert("c", "result-c".into()); // evicts the oldest
        let (_, report3) = ResultCache::with_state(2, Arc::clone(&state));
        assert_eq!(report3.entries.len(), 2);
        assert!(report3.entries.iter().all(|(k, _)| k != "a"), "{report3:?}");

        // Rot one entry on disk and in memory: a restart quarantines
        // the rotted file instead of loading it, so the key misses and
        // recomputes rather than serving bad bytes.
        assert!(cache2.corrupt("b"));
        let (cache4, report4) = ResultCache::with_state(2, Arc::clone(&state));
        assert_eq!(report4.entries.len(), 1);
        assert_eq!(report4.quarantined.len(), 1);
        assert_eq!(cache4.lookup("b"), Lookup::Miss);
        // And the live probe on the pre-restart cache detects it too,
        // dropping the (already-quarantined) disk state.
        assert_eq!(cache2.lookup("b"), Lookup::Corrupt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert("k", "1".into());
        assert_eq!(cache.lookup("k"), Lookup::Miss);
        assert!(cache.is_empty());
    }
}
