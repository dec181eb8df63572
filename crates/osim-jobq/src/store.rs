//! Two-tier content-addressed text store.
//!
//! Entries are UTF-8 text blobs addressed by [`CacheKey`]. Tier one is an
//! in-process map (`CacheKey → Arc<str>`); tier two is an optional
//! directory with one file per entry, named `<32-hex-key>.json`. Disk
//! writes go through a temp file + atomic rename, so readers — including
//! concurrent sweeps sharing the directory — only ever observe complete
//! entries. A torn write can at worst leave a stray temp file, never a
//! half-entry under the final name.
//!
//! The store itself is *format-agnostic*: it hands back whatever text was
//! stored. Decoding (and deciding that an entry is corrupt) belongs to the
//! caller, which reports it via [`TextStore::note_corrupt`] so the entry is
//! dropped and counted; every I/O anomaly is a miss, never an error.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use osim_metrics::{Histogram, Registry};

use crate::key::CacheKey;

/// Snapshot of a store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Lookups answered (from either tier).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Hits that had to read the disk tier.
    pub disk_hits: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries the caller reported as corrupt (each becomes a miss).
    pub corrupt: u64,
    /// Disk writes that failed (the memory tier still holds the entry).
    pub write_errors: u64,
}

/// A memory-first, optionally disk-backed text store.
pub struct TextStore {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<CacheKey, Arc<str>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    write_errors: AtomicU64,
    /// Wall time of successful entry reads (memory or disk), nanoseconds.
    read_ns: Mutex<Histogram>,
}

impl TextStore {
    /// A memory-only store (no persistence).
    pub fn memory() -> Self {
        Self::build(None)
    }

    /// A store persisting entries under `dir` (created on first write).
    pub fn at_dir(dir: impl Into<PathBuf>) -> Self {
        Self::build(Some(dir.into()))
    }

    fn build(dir: Option<PathBuf>) -> Self {
        TextStore {
            dir,
            mem: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            read_ns: Mutex::new(Histogram::new()),
        }
    }

    /// The disk tier's directory, if the store has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn path_of(&self, key: &CacheKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.hex())))
    }

    fn mem_lock(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Arc<str>>> {
        self.mem.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fetches an entry, promoting disk hits into the memory tier.
    /// Any read failure — missing file, unreadable bytes — is a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let started = std::time::Instant::now();
        if let Some(text) = self.mem_lock().get(key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.record_read(started);
            return Some(text);
        }
        let Some(path) = self.path_of(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let text: Arc<str> = text.into();
                self.mem_lock().insert(*key, Arc::clone(&text));
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.record_read(started);
                Some(text)
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn record_read(&self, started: std::time::Instant) {
        self.read_ns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(started.elapsed().as_nanos() as u64);
    }

    /// Stores an entry in both tiers. Disk failures are counted, not
    /// raised: the run already has its result, and a read-only or full
    /// disk must never fail a sweep.
    pub fn put(&self, key: &CacheKey, text: &str) {
        self.mem_lock().insert(*key, text.into());
        self.stores.fetch_add(1, Ordering::Relaxed);
        let Some(path) = self.path_of(key) else {
            return;
        };
        if self.write_atomic(&path, text).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn write_atomic(&self, path: &Path, text: &str) -> std::io::Result<()> {
        let dir = path.parent().expect("entry path always has a parent dir");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".{}.{}.tmp",
            path.file_stem().and_then(|s| s.to_str()).unwrap_or("entry"),
            std::process::id()
        ));
        std::fs::write(&tmp, text)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Drops a corrupt entry from both tiers and counts it. The caller
    /// decodes entries; this is how it reports a failure back.
    pub fn note_corrupt(&self, key: &CacheKey) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        self.mem_lock().remove(key);
        if let Some(path) = self.path_of(key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Paths of the disk tier's entry files, sorted by name. Temp files
    /// and foreign files are excluded.
    pub fn disk_entries(&self) -> Vec<PathBuf> {
        let Some(dir) = self.dir.as_ref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let Ok(rd) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        for entry in rd.flatten() {
            let path = entry.path();
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            let ext_ok = path.extension().and_then(|e| e.to_str()) == Some("json");
            if ext_ok && CacheKey::from_hex(stem).is_some() {
                out.push(path);
            }
        }
        out.sort();
        out
    }

    /// Removes every entry (both tiers), returning how many disk entry
    /// files were deleted.
    pub fn clear(&self) -> usize {
        self.mem_lock().clear();
        let entries = self.disk_entries();
        let mut removed = 0;
        for path in entries {
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Current counter values.
    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the entry-read latency histogram (nanoseconds).
    pub fn read_hist(&self) -> Histogram {
        self.read_ns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Exports the store's counters and read-latency histogram into an
    /// osim-metrics registry under `osim_cache_*`.
    pub fn fill_registry(&self, reg: &mut Registry) {
        let c = self.counts();
        reg.counter_add("osim_cache_hits_total", &[], c.hits);
        reg.counter_add("osim_cache_misses_total", &[], c.misses);
        reg.counter_add("osim_cache_disk_hits_total", &[], c.disk_hits);
        reg.counter_add("osim_cache_stores_total", &[], c.stores);
        reg.counter_add("osim_cache_corrupt_total", &[], c.corrupt);
        reg.counter_add("osim_cache_write_errors_total", &[], c.write_errors);
        let hist = self.read_hist();
        reg.hist_mut("osim_cache_read_ns", &[]).merge(&hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn key(i: u64) -> CacheKey {
        KeyBuilder::new("store-test", 1).u64_field("i", i).finish()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("osim-jobq-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn memory_round_trip_and_counts() {
        let s = TextStore::memory();
        assert!(s.get(&key(1)).is_none());
        s.put(&key(1), "hello");
        assert_eq!(s.get(&key(1)).as_deref(), Some("hello"));
        let c = s.counts();
        assert_eq!((c.hits, c.misses, c.stores, c.disk_hits), (1, 1, 1, 0));
        assert!(s.read_hist().count() >= 1);
    }

    #[test]
    fn disk_persists_across_store_instances() {
        let dir = tmp_dir("persist");
        {
            let s = TextStore::at_dir(&dir);
            s.put(&key(2), "{\"v\":2}");
        }
        let s2 = TextStore::at_dir(&dir);
        assert_eq!(s2.get(&key(2)).as_deref(), Some("{\"v\":2}"));
        assert_eq!(s2.counts().disk_hits, 1);
        // Promoted into memory: a second get is a memory hit.
        assert_eq!(s2.get(&key(2)).as_deref(), Some("{\"v\":2}"));
        assert_eq!(s2.counts().disk_hits, 1);
        assert_eq!(s2.disk_entries().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn note_corrupt_drops_both_tiers() {
        let dir = tmp_dir("corrupt");
        let s = TextStore::at_dir(&dir);
        s.put(&key(4), "bad");
        s.note_corrupt(&key(4));
        assert!(s.get(&key(4)).is_none());
        assert_eq!(s.counts().corrupt, 1);
        assert!(s.disk_entries().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_removes_entries_but_not_foreign_files() {
        let dir = tmp_dir("clear");
        let s = TextStore::at_dir(&dir);
        s.put(&key(5), "a");
        s.put(&key(6), "b");
        std::fs::write(dir.join("README.txt"), "keep me").expect("write foreign file");
        assert_eq!(s.disk_entries().len(), 2);
        assert_eq!(s.clear(), 2);
        assert!(s.disk_entries().is_empty());
        assert!(dir.join("README.txt").exists());
        assert!(s.get(&key(5)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_export_names_the_counters() {
        let s = TextStore::memory();
        s.put(&key(7), "x");
        let _ = s.get(&key(7));
        let mut reg = Registry::new();
        s.fill_registry(&mut reg);
        let prom = reg.to_prometheus();
        assert!(prom.contains("osim_cache_hits_total"), "{prom}");
        assert!(prom.contains("osim_cache_stores_total"), "{prom}");
    }
}
