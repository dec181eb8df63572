//! A snapshot-isolated concurrent map (Table I, "Concurrent DS" row).
//!
//! [`OMap`] stores one [`OCell`] per key, each holding the full version
//! history of that key's value (`None` = absent at that version). Writers
//! publish at their task version; readers iterate a *consistent snapshot*
//! at any version cap without locks — "renaming to isolate readers from
//! writers", which the paper lists as the concurrent-data-structure use
//! case for O-structures.
//!
//! # Sharding
//!
//! The key → cell index is split across a fixed power-of-two array of
//! shards selected by an fxhash of the key, each shard a
//! `RwLock<BTreeMap>`. Writers to different keys land on different shards
//! with high probability and never serialize on a global lock; per-key
//! version history still lives in the cell, so the index locks stay
//! uncontended and *brief*. The lock discipline is strict: no shard lock
//! is ever held across a cell operation that can block, because such an
//! operation can wait indefinitely (on an unwritten version) and a lock
//! held across one would wedge every unrelated key in the shard. Writers
//! and blocking readers take a cell *handle* out and release the shard
//! lock first. The non-blocking reads ([`OMap::get_arc`], the snapshots
//! and scans) resolve under the shard read guard instead, so they mint
//! no handle at all; the vacuum already takes a shard lock before a cell
//! mutex, and nothing takes them the other way round.
//!
//! # Values
//!
//! Values are stored once as `Arc<V>`. [`OMap::get_arc`] and
//! [`OMap::get_with`] read without cloning `V`; [`OMap::get`],
//! [`OMap::snapshot`], and [`OMap::scan`] are thin cloning wrappers kept
//! for the original API.
//!
//! Consistency contract (the same one the paper's runtime rules give):
//! writers use monotonically increasing versions (e.g. task ids), and a
//! snapshot at cap `c` reflects exactly the writes with version ≤ `c`.
//! Writers to the *same* key must be externally ordered (distinct
//! versions); writers to different keys need no coordination at all.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

use crate::cell::{OCell, Prune};
use crate::error::OError;
use crate::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use crate::Version;

/// Default shard count (power of two).
const DEFAULT_SHARDS: usize = 64;

/// Fx hash (the FireFox / rustc hasher): multiply-xor over machine words.
/// Inlined here because the crate must stay dependency-light and the
/// quality bar is only shard selection, not cryptography.
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn new() -> Self {
        FxHasher { hash: 0 }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type ShardMap<K, V> = BTreeMap<K, OCell<Option<Arc<V>>>>;
type Shard<K, V> = RwLock<ShardMap<K, V>>;

struct MapInner<K, V> {
    /// `shards.len()` is a power of two; selection is `hash & mask`.
    shards: Box<[Shard<K, V>]>,
    mask: u64,
}

impl<K, V> MapInner<K, V>
where
    K: Hash,
{
    fn shard(&self, key: &K) -> (usize, &Shard<K, V>) {
        let mut h = FxHasher::new();
        key.hash(&mut h);
        let idx = (h.finish() & self.mask) as usize;
        (idx, &self.shards[idx])
    }
}

/// Shard read lock with contention accounting: a failed try-lock counts
/// against the shard before falling back to the blocking acquire.
fn read_counted<K, V>(idx: usize, shard: &Shard<K, V>) -> RwLockReadGuard<'_, ShardMap<K, V>> {
    match shard.try_read() {
        Some(guard) => guard,
        None => {
            crate::metrics::note_shard_contention(idx);
            shard.read()
        }
    }
}

/// Shard write lock with contention accounting.
fn write_counted<K, V>(idx: usize, shard: &Shard<K, V>) -> RwLockWriteGuard<'_, ShardMap<K, V>> {
    match shard.try_write() {
        Some(guard) => guard,
        None => {
            crate::metrics::note_shard_contention(idx);
            shard.write()
        }
    }
}

/// The value `cell` holds in the snapshot at `cap` (`None` when absent).
/// Non-blocking, so a shard guard may be held across it; the value's
/// `Option` is cloned under the snapshot guard and its outer `Arc` is never
/// touched.
fn value_at<V>(cell: &OCell<Option<Arc<V>>>, cap: Version) -> Option<Arc<V>> {
    cell.try_load_latest_with(cap, |v| Option::clone(v))
        .and_then(|(_, v)| v)
}

impl<K, V> Prune for MapInner<K, V>
where
    K: Ord,
{
    /// Prunes every cell and drops cells absent in all surviving
    /// versions. Only non-blocking cell operations run under the shard
    /// write lock.
    fn prune_below(&self, boundary: Version) -> usize {
        let mut reclaimed = 0;
        for shard in self.shards.iter() {
            let mut w = shard.write();
            w.retain(|_, cell| {
                // Spent: every snapshot at or after the boundary sees the
                // key absent.
                let (n, spent) = cell.prune_below_spent(boundary, Option::is_none);
                reclaimed += n;
                // Keep any cell someone outside the index still holds a
                // handle to: `cell_for` hands out handles after releasing
                // the shard lock, so a writer (or `wait_version` waiter)
                // may be about to store into a cell that currently looks
                // empty — dropping it would orphan that store and strand
                // its waiters. The shard write lock held here keeps new
                // handles from being minted, so strong count == 1 proves
                // the index entry is the only reference.
                !spent || cell.handle_count() > 1
            });
        }
        reclaimed
    }
}

/// A sharded concurrent map with versioned values and snapshot reads.
///
/// ```
/// use ostructs_core::map::OMap;
///
/// let m: OMap<&str, u32> = OMap::new();
/// m.insert("x", 1, 10).unwrap();          // version 1
/// m.insert("y", 2, 20).unwrap();          // version 2
/// m.remove("x", 3).unwrap();              // version 3
///
/// assert_eq!(m.get("x", 2), Some(10));    // snapshot before the remove
/// assert_eq!(m.get("x", 3), None);
/// assert_eq!(m.snapshot(2), vec![("x", 10), ("y", 20)]);
/// assert_eq!(m.snapshot(9), vec![("y", 20)]);
/// ```
pub struct OMap<K, V> {
    inner: Arc<MapInner<K, V>>,
}

impl<K, V> Clone for OMap<K, V> {
    fn clone(&self) -> Self {
        OMap {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<K: Ord + Hash + Clone, V> Default for OMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Hash + Clone, V> OMap<K, V> {
    /// An empty map with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty map with at least `shards` shards (rounded up to a power
    /// of two). `with_shards(1)` degenerates to a single global lock —
    /// useful in tests that want maximum contention.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        OMap {
            inner: Arc::new(MapInner {
                shards: (0..n).map(|_| RwLock::new(BTreeMap::new())).collect(),
                mask: (n - 1) as u64,
            }),
        }
    }

    /// Number of shards the key space is split across.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Looks up or creates the cell for `key`, returning a *handle*; the
    /// shard lock is released before this returns, so callers may block
    /// on the cell freely.
    fn cell_for(&self, key: &K) -> OCell<Option<Arc<V>>> {
        let (idx, shard) = self.inner.shard(key);
        if let Some(cell) = read_counted(idx, shard).get(key) {
            return cell.clone();
        }
        let mut w = write_counted(idx, shard);
        w.entry(key.clone()).or_default().clone()
    }

    /// Publishes `key -> value` at `version`.
    pub fn insert(&self, key: K, version: Version, value: V) -> Result<(), OError> {
        self.insert_arc(key, version, Arc::new(value))
    }

    /// Publishes an already-shared value at `version` without re-boxing.
    pub fn insert_arc(&self, key: K, version: Version, value: Arc<V>) -> Result<(), OError> {
        self.cell_for(&key).store_version(version, Some(value))
    }

    /// Publishes the removal of `key` at `version` (an absence version —
    /// older snapshots still see the previous value).
    pub fn remove(&self, key: K, version: Version) -> Result<(), OError> {
        self.cell_for(&key).store_version(version, None)
    }

    /// The shared value of `key` in the snapshot at `cap`, without
    /// cloning `V` (non-blocking: a key with no version ≤ `cap` is simply
    /// absent from that snapshot).
    pub fn get_arc(&self, key: &K, cap: Version) -> Option<Arc<V>> {
        let (idx, shard) = self.inner.shard(key);
        value_at(read_counted(idx, shard).get(key)?, cap)
    }

    /// Borrowed visitation: applies `f` to the value of `key` at `cap`
    /// without cloning or sharing it.
    pub fn get_with<R>(&self, key: &K, cap: Version, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.get_arc(key, cap).map(|v| f(&v))
    }

    /// Blocks until `key` has version `version` published, and returns
    /// the shared value at exactly that version (`None` = the version is
    /// a removal). The blocking analogue of [`OMap::get_arc`] for
    /// dataflow-style consumers waiting on a specific writer. No shard
    /// lock is held while blocked.
    pub fn wait_version(&self, key: K, version: Version) -> Option<Arc<V>> {
        let cell = self.cell_for(&key);
        (*cell.load_version_arc(version)).clone()
    }

    /// The full snapshot at `cap` as shared values, in key order.
    pub fn snapshot_arc(&self, cap: Version) -> Vec<(K, Arc<V>)> {
        let mut out = Vec::new();
        for shard in self.inner.shards.iter() {
            let cells = shard.read();
            out.extend(
                cells
                    .iter()
                    .filter_map(|(k, cell)| Some((k.clone(), value_at(cell, cap)?))),
            );
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// A range scan over the snapshot at `cap`: up to `limit` entries
    /// with key ≥ `from` — the operation Figure 8 measures.
    pub fn scan_arc(&self, from: K, limit: usize, cap: Version) -> Vec<(K, Arc<V>)> {
        let mut out = Vec::new();
        for shard in self.inner.shards.iter() {
            let cells = shard.read();
            let found = cells.range(from.clone()..);
            out.extend(found.filter_map(|(k, cell)| Some((k.clone(), value_at(cell, cap)?))));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.truncate(limit);
        out
    }

    /// Garbage collection: drops versions below the newest one ≤
    /// `boundary` in every cell, and drops cells that are absent in every
    /// surviving version. Safe once no reader's cap can go below
    /// `boundary`.
    pub fn prune_below(&self, boundary: Version) -> usize {
        Prune::prune_below(&*self.inner, boundary)
    }

    /// A type-erased weak handle for the background
    /// [`crate::vacuum::Vacuum`].
    pub fn prune_handle(&self) -> Weak<dyn Prune + Send + Sync>
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        let arc: Arc<dyn Prune + Send + Sync> = Arc::clone(&self.inner) as _;
        Arc::downgrade(&arc)
    }

    /// Number of keys with any version history.
    pub fn tracked_keys(&self) -> usize {
        self.inner.shards.iter().map(|s| s.read().len()).sum()
    }
}

impl<K: Ord + Hash + Clone, V: Clone> OMap<K, V> {
    /// The value of `key` in the snapshot at `cap`, cloned out.
    pub fn get(&self, key: K, cap: Version) -> Option<V> {
        self.get_arc(&key, cap).map(|v| (*v).clone())
    }

    /// The full snapshot at `cap`, cloned, in key order.
    pub fn snapshot(&self, cap: Version) -> Vec<(K, V)> {
        self.snapshot_arc(cap)
            .into_iter()
            .map(|(k, v)| (k, (*v).clone()))
            .collect()
    }

    /// A cloned range scan; see [`OMap::scan_arc`].
    pub fn scan(&self, from: K, limit: usize, cap: Version) -> Vec<(K, V)> {
        self.scan_arc(from, limit, cap)
            .into_iter()
            .map(|(k, v)| (k, (*v).clone()))
            .collect()
    }
}

impl<K, V> crate::vacuum::Prunable for OMap<K, V>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn prune_weak(&self) -> Weak<dyn Prune + Send + Sync> {
        self.prune_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn insert_get_remove_snapshots() {
        let m: OMap<u32, &str> = OMap::new();
        m.insert(1, 1, "a").unwrap();
        m.insert(2, 2, "b").unwrap();
        m.remove(1, 3).unwrap();
        m.insert(1, 4, "a2").unwrap();
        assert_eq!(m.get(1, 1), Some("a"));
        assert_eq!(m.get(1, 3), None);
        assert_eq!(m.get(1, 4), Some("a2"));
        assert_eq!(m.get(2, 1), None, "not yet inserted at cap 1");
        assert_eq!(m.snapshot(2), vec![(1, "a"), (2, "b")]);
        assert_eq!(m.snapshot(3), vec![(2, "b")]);
        assert_eq!(m.snapshot(9), vec![(1, "a2"), (2, "b")]);
    }

    #[test]
    fn versions_are_write_once_per_key() {
        let m: OMap<u32, u32> = OMap::new();
        m.insert(1, 5, 50).unwrap();
        assert_eq!(m.insert(1, 5, 51), Err(OError::VersionExists(5)));
        // Different key, same version: fine (versions are per-cell).
        m.insert(2, 5, 52).unwrap();
    }

    #[test]
    fn scan_respects_range_limit_and_cap() {
        let m: OMap<u32, u32> = OMap::new();
        for k in 0..20u32 {
            m.insert(k, (k + 1) as u64, k * 10).unwrap();
        }
        let got = m.scan(5, 4, u64::MAX);
        assert_eq!(got, vec![(5, 50), (6, 60), (7, 70), (8, 80)]);
        // Cap 8 means only keys 0..=7 exist (version = key+1).
        let got = m.scan(5, 4, 8);
        assert_eq!(got, vec![(5, 50), (6, 60), (7, 70)]);
    }

    #[test]
    fn shard_counts_round_up_and_degenerate() {
        assert_eq!(OMap::<u32, u32>::with_shards(1).shard_count(), 1);
        assert_eq!(OMap::<u32, u32>::with_shards(3).shard_count(), 4);
        assert_eq!(OMap::<u32, u32>::with_shards(64).shard_count(), 64);
        // All operations still work on the degenerate single shard.
        let m: OMap<u32, u32> = OMap::with_shards(1);
        for k in 0..32 {
            m.insert(k, (k + 1) as u64, k).unwrap();
        }
        assert_eq!(m.snapshot(u64::MAX).len(), 32);
    }

    #[test]
    fn arc_reads_share_the_allocation() {
        let m: OMap<u32, String> = OMap::new();
        m.insert(1, 1, "shared".to_string()).unwrap();
        let a = m.get_arc(&1, 5).unwrap();
        let b = m.get_arc(&1, 5).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "reads share one allocation");
        let len = m.get_with(&1, 5, |s| s.len()).unwrap();
        assert_eq!(len, 6);
        assert_eq!(m.get_with(&2, 5, |s: &String| s.len()), None);
    }

    #[test]
    fn wait_version_blocks_until_publish() {
        let m: OMap<u32, u32> = OMap::new();
        let m2 = m.clone();
        let t = thread::spawn(move || m2.wait_version(7, 3).map(|v| *v));
        thread::sleep(std::time::Duration::from_millis(20));
        m.insert(7, 3, 30).unwrap();
        assert_eq!(t.join().unwrap(), Some(30));
    }

    #[test]
    fn concurrent_writers_and_snapshot_readers() {
        // Writers publish disjoint batches at increasing versions; every
        // reader snapshot must equal a prefix of the version order.
        let m: OMap<u32, u64> = OMap::new();
        let mut writers = Vec::new();
        for t in 1..=16u64 {
            let m = m.clone();
            writers.push(thread::spawn(move || {
                for k in 0..8u32 {
                    m.insert(t as u32 * 100 + k, t, t).unwrap();
                }
            }));
        }
        let readers: Vec<_> = (1..=16u64)
            .map(|cap| {
                let m = m.clone();
                thread::spawn(move || (cap, m.snapshot(cap)))
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for r in readers {
            let (cap, snap) = r.join().unwrap();
            for (k, v) in snap {
                assert!(v <= cap, "key {k}: version {v} leaked into snapshot {cap}");
                assert_eq!(k / 100, v as u32, "key batch matches its writer");
            }
        }
        // The final snapshot has every batch.
        assert_eq!(m.snapshot(u64::MAX).len(), 16 * 8);
    }

    #[test]
    fn prune_reclaims_history() {
        let m: OMap<u32, u32> = OMap::new();
        for ver in 1..=10u64 {
            m.insert(7, ver, ver as u32).unwrap();
        }
        let reclaimed = m.prune_below(8);
        assert_eq!(reclaimed, 7);
        assert_eq!(m.get(7, 8), Some(8));
        assert_eq!(m.get(7, u64::MAX), Some(10));
    }

    #[test]
    fn removed_keys_can_be_fully_dropped() {
        let m: OMap<u32, u32> = OMap::new();
        m.insert(1, 1, 10).unwrap();
        m.remove(1, 2).unwrap();
        m.insert(2, 3, 20).unwrap();
        assert_eq!(m.tracked_keys(), 2);
        m.prune_below(u64::MAX - 1);
        // Key 1's only surviving version is an absence: the cell may go.
        assert_eq!(m.get(1, u64::MAX), None);
        assert_eq!(m.get(2, u64::MAX), Some(20));
    }

    #[test]
    fn prune_keeps_cells_with_outstanding_handles() {
        // The vacuum-vs-writer race: a writer acquires the cell handle for
        // a fresh key (shard lock already released) but has not stored
        // yet; a vacuum pass in that window must not drop the cell from
        // the index, or the store lands in an orphan every later read
        // misses.
        let m: OMap<u32, u32> = OMap::new();
        let cell = m.cell_for(&1);
        m.prune_below(u64::MAX - 1);
        cell.store_version(1, Some(Arc::new(10))).unwrap();
        assert_eq!(m.get(1, u64::MAX), Some(10));
    }

    #[test]
    fn prune_does_not_strand_wait_version_waiters() {
        // Same race, waiter flavor: a wait_version parked on an unwritten
        // key materializes the cell; a vacuum pass must leave it indexed
        // so the eventual insert wakes the waiter instead of creating a
        // fresh cell (which would hang the waiter forever).
        let m: OMap<u32, u32> = OMap::new();
        let m2 = m.clone();
        let t = thread::spawn(move || m2.wait_version(5, 1).map(|v| *v));
        thread::sleep(std::time::Duration::from_millis(20));
        m.prune_below(u64::MAX - 1);
        m.insert(5, 1, 50).unwrap();
        assert_eq!(t.join().unwrap(), Some(50));
    }

    #[test]
    fn vacuum_tracks_whole_maps() {
        use crate::vacuum::{ReaderRegistry, Vacuum, VacuumCfg};
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), VacuumCfg::default());
        let m: OMap<u32, u64> = OMap::new();
        vac.track(&m);
        for _ in 0..20 {
            let v = reg.next_version();
            m.insert(1, v, v).unwrap();
        }
        let reclaimed = vac.run_pass();
        assert_eq!(reclaimed, 19);
        assert_eq!(m.get(1, u64::MAX), Some(20));
    }
}
