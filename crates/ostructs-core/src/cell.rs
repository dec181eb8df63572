//! The multi-version cell.
//!
//! # Hot-path layout (read-optimized split)
//!
//! The original prototype kept everything — version map, lock table,
//! waiter bookkeeping — behind one `Mutex<State>`, so every committed-read
//! serialized against every other operation on the cell. This version
//! splits the cell in two:
//!
//! * **Truth** stays in `Mutex<State>`: a `BTreeMap<Version, Slot>` plus
//!   the per-task lock table and the `Condvar` that blocking operations
//!   park on. All mutations and all *blocking* waits go through it. A
//!   load counts itself in `State::waiters` before it parks, and a store
//!   or unlock wakes the condvar only when that count, read under the
//!   mutex, is nonzero — an unwatched put makes no wake call.
//! * **A read-mostly snapshot** of the version list is published behind a
//!   `RwLock<Arc<Snapshot>>` and atomically swapped on every mutation.
//!   Loads of already-committed versions resolve entirely against the
//!   snapshot: a brief shared read guard, a binary search, and an `Arc`
//!   bump — no exclusive lock, and concurrent readers never serialize
//!   against each other.
//!
//! The snapshot stores the version list **path-compressed into runs**
//! (à la the `PersistentCell` of persistency): a run `[lo, hi]` covers
//! every one of the contiguous versions `lo..=hi`, all sharing one
//! `Arc<T>` value. Rename chains (`unlock_version(_, Some(v+1))` in a
//! hand-over-hand pipeline) therefore collapse to a single run — a
//! million-rename history is one entry and one heap allocation. The
//! snapshot keeps at most [`WINDOW_RUNS`] of the *newest* runs; anything
//! below that window falls back to the mutex slow path (the window is a
//! cache, never a semantic boundary). Values live in `Arc<T>` throughout,
//! so the `_arc` load variants return without cloning `T` at all.

use std::cell::UnsafeCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::OError;
use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::{TaskId, Version};

/// Maximum number of runs retained in the published read snapshot. A cell
/// whose history compresses to at most this many runs is fully answerable
/// on the fast path; older history past the window takes the slow path.
const WINDOW_RUNS: usize = 32;

struct Slot<T> {
    value: Arc<T>,
    locked_by: Option<TaskId>,
}

/// A maximal range of contiguous versions `lo..=hi` that all exist and
/// share one value allocation (renames reuse the predecessor's `Arc`).
struct Run<T> {
    lo: Version,
    hi: Version,
    value: Arc<T>,
}

impl<T> Clone for Run<T> {
    fn clone(&self) -> Self {
        Run {
            lo: self.lo,
            hi: self.hi,
            value: Arc::clone(&self.value),
        }
    }
}

/// The published read-mostly view: the newest runs plus the (small) set of
/// currently locked versions. Immutable once published; mutations build a
/// fresh snapshot and swap the `Arc`.
struct Snapshot<T> {
    /// When true, `runs` covers *every* existing version; an absent lookup
    /// is authoritative. When false, only versions `>= floor()` are
    /// covered and anything below must consult the slow path.
    complete: bool,
    /// Sorted by `lo`, disjoint, covering all versions `>= floor()`.
    runs: Vec<Run<T>>,
    /// Sorted; every currently locked version of the whole cell.
    locked: Vec<Version>,
}

/// What a load resolves: one exact version (`LOAD-VERSION`), or the
/// newest version ≤ a cap (`LOAD-LATEST`).
#[derive(Clone, Copy)]
enum Target {
    Exact(Version),
    Latest(Version),
}

/// How long a load waits for its target to exist and be unlocked.
#[derive(Clone, Copy)]
enum Wait {
    /// Until it resolves.
    Block,
    /// Until it resolves or the deadline passes.
    Until(Instant),
    /// Not at all: answer from the current state.
    Never,
}

use Target::{Exact, Latest};
use Wait::{Block, Never, Until};

/// Fast-path resolution against a [`Snapshot`]. Borrows the snapshot, so
/// hits can be consumed (cloned, `Arc`-bumped, or just read) while the
/// snap guard is held — the cloning load paths copy `T` without ever
/// touching the value `Arc`'s refcount.
enum FastRead<'a, T> {
    /// Committed and unlocked: the authoritative answer.
    Hit(Version, &'a Arc<T>),
    /// Authoritatively absent right now (no such version / none <= cap).
    Absent,
    /// The target version exists but is locked right now.
    Locked,
    /// Below the snapshot window; only the slow path knows.
    Unknown,
}

impl<T> Snapshot<T> {
    fn empty() -> Self {
        Snapshot {
            complete: true,
            runs: Vec::new(),
            locked: Vec::new(),
        }
    }

    /// Lowest version the window covers (0 when complete or empty).
    fn floor(&self) -> Version {
        if self.complete {
            0
        } else {
            self.runs.first().map_or(0, |r| r.lo)
        }
    }

    fn is_locked(&self, v: Version) -> bool {
        self.locked.binary_search(&v).is_ok()
    }

    /// Resolves `target` if the window can answer.
    fn read(&self, target: Target) -> FastRead<'_, T> {
        let (Exact(key) | Latest(key)) = target;
        let i = self.runs.partition_point(|r| r.lo <= key);
        let Some(run) = i.checked_sub(1).map(|i| &self.runs[i]) else {
            // No covered version <= key (so an exact key is below the
            // floor): authoritative only if the window covers everything.
            return if self.complete {
                FastRead::Absent
            } else {
                FastRead::Unknown
            };
        };
        let v = match target {
            Latest(cap) => run.hi.min(cap),
            Exact(v) if v <= run.hi => v,
            Exact(_) => return FastRead::Absent,
        };
        if self.is_locked(v) {
            FastRead::Locked
        } else {
            FastRead::Hit(v, &run.value)
        }
    }
}

struct State<T> {
    versions: BTreeMap<Version, Slot<T>>,
    /// Which version each task currently holds locked (at most one lock
    /// per task per cell, as in the Fig. 1 API).
    held: HashMap<TaskId, Version>,
    /// Mirror of the published runs, maintained incrementally so the
    /// common append (store at a new maximum version) publishes in O(1)
    /// amortized instead of rewalking the map.
    window: Vec<Run<T>>,
    window_complete: bool,
    /// Threads parked on `Inner::changed`. A mutation that could unblock
    /// a load reads this under the mutex and skips the wake when it is 0.
    waiters: usize,
}

impl<T> State<T> {
    /// The version `target` resolves to and its slot, locked or not.
    fn find(&self, target: Target) -> Option<(Version, &Slot<T>)> {
        let found = match target {
            Exact(v) => self.versions.get_key_value(&v),
            Latest(cap) => self.versions.range(..=cap).next_back(),
        };
        found.map(|(&v, slot)| (v, slot))
    }

    /// Rebuilds the window by walking the newest versions of the map,
    /// coalescing contiguous same-value versions into runs. Used after
    /// out-of-order stores and pruning; the append path updates in place.
    fn rebuild_window(&mut self) {
        self.window.clear();
        self.window_complete = true;
        for (&v, slot) in self.versions.iter().rev() {
            if let Some(lowest) = self.window.last_mut() {
                if lowest.lo == v + 1 && Arc::ptr_eq(&lowest.value, &slot.value) {
                    lowest.lo = v;
                    continue;
                }
                if self.window.len() == WINDOW_RUNS {
                    self.window_complete = false;
                    break;
                }
            }
            self.window.push(Run {
                lo: v,
                hi: v,
                value: Arc::clone(&slot.value),
            });
        }
        // Built newest-first; publish ascending.
        self.window.reverse();
    }

    /// Records a freshly inserted version in the window.
    fn window_note_store(&mut self, v: Version, value: &Arc<T>) {
        match self.window.last_mut() {
            Some(last) if v > last.hi => {
                if v == last.hi + 1 && Arc::ptr_eq(&last.value, value) {
                    last.hi = v; // rename chain: extend the run in place
                } else {
                    self.window.push(Run {
                        lo: v,
                        hi: v,
                        value: Arc::clone(value),
                    });
                    if self.window.len() > WINDOW_RUNS {
                        self.window.remove(0);
                        self.window_complete = false;
                    }
                }
            }
            Some(_) => {
                // Out-of-order store. Below the window floor it is already
                // slow-path territory and the window stays valid; inside
                // the window's span, rebuild.
                let floor = self.window.first().map_or(0, |r| r.lo);
                if self.window_complete || v >= floor {
                    self.rebuild_window();
                }
            }
            None => {
                self.window.push(Run {
                    lo: v,
                    hi: v,
                    value: Arc::clone(value),
                });
            }
        }
    }

    fn snapshot(&self) -> Snapshot<T> {
        let mut locked: Vec<Version> = self.held.values().copied().collect();
        locked.sort_unstable();
        Snapshot {
            complete: self.window_complete,
            runs: self.window.clone(),
            locked,
        }
    }
}

/// A minimal reader-count guard for the published snapshot — the
/// "seqlock-style guard" of the design: two uncontended atomic RMWs per
/// read (no pthread rwlock, no syscall path), and writers — always
/// serialized by the cell's state mutex — briefly drain readers before
/// swapping the `Arc`. Reads never block writers for longer than a
/// snapshot lookup; the writer critical section is a pointer swap.
///
/// `state` encoding: bit 0 = writer present, bits 1.. = reader count × 2.
struct SnapLock<T> {
    state: AtomicU32,
    slot: UnsafeCell<Arc<Snapshot<T>>>,
}

// Safety: `slot` is only written in `set()` with the writer bit held and
// all readers drained, and only read through `SnapGuard` while a reader
// increment holds the writer out. The contained `Arc<Snapshot<T>>` is
// shared across threads, hence the `Send + Sync` bounds.
unsafe impl<T: Send + Sync> Sync for SnapLock<T> {}
unsafe impl<T: Send> Send for SnapLock<T> {}

const WRITER_BIT: u32 = 1;

struct SnapGuard<'a, T> {
    lock: &'a SnapLock<T>,
}

impl<T> std::ops::Deref for SnapGuard<'_, T> {
    type Target = Snapshot<T>;
    fn deref(&self) -> &Snapshot<T> {
        // Safety: the reader increment taken in `read()` keeps writers
        // out until this guard drops.
        unsafe { &*self.lock.slot.get() }
    }
}

impl<T> Drop for SnapGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.state.fetch_sub(2, Ordering::Release);
    }
}

impl<T> SnapLock<T> {
    fn new(snap: Arc<Snapshot<T>>) -> Self {
        SnapLock {
            state: AtomicU32::new(0),
            slot: UnsafeCell::new(snap),
        }
    }

    fn read(&self) -> SnapGuard<'_, T> {
        loop {
            let s = self.state.fetch_add(2, Ordering::Acquire);
            if s & WRITER_BIT == 0 {
                return SnapGuard { lock: self };
            }
            // A writer is mid-swap: back out and wait for it. The writer
            // section is a pointer swap, so spinning is the common case;
            // yield covers a preempted writer.
            self.state.fetch_sub(2, Ordering::Release);
            let mut spins = 0u32;
            while self.state.load(Ordering::Relaxed) & WRITER_BIT != 0 {
                spins += 1;
                if spins > 128 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Replaces the snapshot. Callers must already be serialized (the
    /// cell publishes only under its state mutex).
    fn set(&self, snap: Arc<Snapshot<T>>) {
        let prev = self.state.fetch_or(WRITER_BIT, Ordering::Acquire);
        debug_assert_eq!(prev & WRITER_BIT, 0, "publishers must be serialized");
        let mut spins = 0u32;
        while self.state.load(Ordering::Acquire) != WRITER_BIT {
            spins += 1;
            if spins > 128 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Safety: writer bit held and all readers drained — exclusive.
        unsafe {
            *self.slot.get() = snap;
        }
        self.state.fetch_and(!WRITER_BIT, Ordering::Release);
    }
}

struct Inner<T> {
    state: Mutex<State<T>>,
    /// The atomically swapped read snapshot. Lock order: `state` is held
    /// while publishing; readers take the snap guard alone and always
    /// release it before touching `state`.
    published: SnapLock<T>,
    changed: Condvar,
}

impl<T> Inner<T> {
    /// Publishes the current state as a fresh snapshot. Callers hold the
    /// state mutex, so publications are totally ordered.
    fn publish(&self, st: &State<T>) {
        crate::metrics::note_publish();
        self.published.set(Arc::new(st.snapshot()));
    }

    /// The load core: resolves `target` on the published snapshot when it
    /// can, else under the state mutex, waiting per `wait` for the target
    /// to exist and be unlocked. `project` turns the value into the
    /// result; it runs under the snapshot guard on the fast path, so a
    /// cloning projection copies `T` without touching the `Arc`'s
    /// refcount. `None` only when `wait` gave up.
    fn load<R>(
        &self,
        target: Target,
        wait: Wait,
        project: impl Fn(&Arc<T>) -> R,
    ) -> Option<(Version, R)> {
        // The snap guard must drop before the state mutex is taken (the
        // explicit block), or a concurrent publisher draining readers
        // while holding the state mutex would deadlock with us.
        {
            let snap = self.published.read();
            match snap.read(target) {
                FastRead::Hit(v, value) => return Some((v, project(value))),
                FastRead::Absent | FastRead::Locked if matches!(wait, Never) => return None,
                _ => {}
            }
        }
        self.wait_for(wait, |st| {
            let (v, slot) = st.find(target)?;
            slot.locked_by.is_none().then(|| (v, project(&slot.value)))
        })
    }

    /// The lock-load core: like [`Inner::load`] but always under the state
    /// mutex, and the resolved version is locked as `tid`.
    fn lock_load<R>(
        &self,
        target: Target,
        tid: TaskId,
        wait: Wait,
        project: impl Fn(&Arc<T>) -> R,
    ) -> Option<(Version, R)> {
        self.wait_for(wait, |st| {
            let (v, slot) = st.find(target)?;
            if slot.locked_by.is_some() {
                return None;
            }
            // Project before marking the lock: a panicking `T::clone` must
            // not leave the version locked with no held record.
            let value = project(&slot.value);
            st.versions.get_mut(&v).expect("just found").locked_by = Some(tid);
            st.held.insert(tid, v);
            self.publish(st);
            Some((v, value))
        })
    }

    /// The slow path shared by both cores: retries `attempt` under the
    /// state mutex, parking on the condvar between tries as `wait` allows.
    fn wait_for<R>(
        &self,
        wait: Wait,
        mut attempt: impl FnMut(&mut State<T>) -> Option<R>,
    ) -> Option<R> {
        let mut st = self.state.lock();
        let mut timer = crate::metrics::WaitTimer::new();
        loop {
            if let Some(r) = attempt(&mut st) {
                return Some(r);
            }
            if let Never = wait {
                return None;
            }
            timer.note_wait();
            st.waiters += 1;
            let timed_out;
            (st, timed_out) = match wait {
                Until(deadline) => self.changed.wait_until(st, deadline),
                _ => (self.changed.wait(st), false),
            };
            st.waiters -= 1;
            if timed_out {
                return None;
            }
        }
    }

    /// Releases the state mutex after a mutation that may unblock a load,
    /// waking the parked loads if there are any. The count is read under
    /// the mutex, and a load raises it under the same mutex before it
    /// parks, so a load that checked the state before this mutation is
    /// already counted.
    fn wake_waiters(&self, st: MutexGuard<'_, State<T>>) {
        let parked = st.waiters > 0;
        drop(st);
        if parked {
            self.changed.notify_all();
        }
    }
}

/// The cloning projection for [`Inner::load`].
fn cloned<T: Clone>(value: &Arc<T>) -> T {
    T::clone(value)
}

/// Unwraps a [`Block`] load, which only returns once resolved.
fn resolved<R>(r: Option<R>) -> R {
    r.expect("a blocking load returns only once resolved")
}

/// Type-erased garbage-collection interface; the reclaimer behind the
/// runtime and the vacuum holds tracked stores as `Weak<dyn Prune>` so one
/// collector can prune cells (or whole maps) of any value type.
pub trait Prune {
    /// See [`OCell::prune_below`].
    fn prune_below(&self, boundary: Version) -> usize;
}

impl<T> Prune for Inner<T> {
    fn prune_below(&self, boundary: Version) -> usize {
        let mut st = self.state.lock();
        let Some((&keep, _)) = st.versions.range(..=boundary).next_back() else {
            return 0;
        };
        let before = st.versions.len();
        st.versions
            .retain(|&v, slot| v >= keep || slot.locked_by.is_some());
        let reclaimed = before - st.versions.len();
        if reclaimed > 0 {
            st.rebuild_window();
            self.publish(&st);
        }
        reclaimed
    }
}

/// A software O-structure: one memory location, many ordered versions.
///
/// Cheap to clone (a handle); all clones refer to the same cell. Values
/// are stored once in an `Arc<T>`: the `_arc` load variants share that
/// allocation, while the plain load variants clone `T` out of it (so `T:
/// Clone` is only required where a copy is actually returned).
///
/// # Blocking semantics (§II-A of the paper)
///
/// * [`OCell::load_version`] blocks until the exact version exists and is
///   unlocked. Locks on *other* versions are ignored.
/// * [`OCell::load_latest`] blocks until some version ≤ the cap exists and
///   the highest such version is unlocked. It never falls back to an older
///   unlocked version — that would break ordering.
/// * [`OCell::store_version`] creates a version (versions are write-once).
/// * The `lock_` flavours additionally acquire the version's lock; locking
///   an already-locked version blocks.
/// * [`OCell::unlock_version`] releases the caller's lock and can
///   atomically create a successor version carrying the same value — the
///   rename step of hand-over-hand pipelining. The successor shares the
///   predecessor's value allocation, so rename chains cost no value
///   clones and compress to a single run in the read snapshot.
pub struct OCell<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for OCell<T> {
    fn clone(&self) -> Self {
        OCell {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for OCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OCell<T> {
    /// An empty cell (no versions yet; all loads block).
    pub fn new() -> Self {
        OCell {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    versions: BTreeMap::new(),
                    held: HashMap::new(),
                    window: Vec::new(),
                    window_complete: true,
                    waiters: 0,
                }),
                published: SnapLock::new(Arc::new(Snapshot::empty())),
                changed: Condvar::new(),
            }),
        }
    }

    /// A cell with one initial version.
    pub fn with_initial(version: Version, value: T) -> Self {
        let cell = Self::new();
        cell.store_version(version, value)
            .expect("fresh cell accepts any version");
        cell
    }

    /// `STORE-VERSION`: creates `version` holding `value` and wakes every
    /// blocked load. Versions are immutable once created.
    pub fn store_version(&self, version: Version, value: T) -> Result<(), OError> {
        self.store_version_arc(version, Arc::new(value))
    }

    /// `STORE-VERSION` from an existing allocation: shares `value` instead
    /// of re-boxing it (the zero-copy publish path).
    pub fn store_version_arc(&self, version: Version, value: Arc<T>) -> Result<(), OError> {
        let mut st = self.inner.state.lock();
        match st.versions.entry(version) {
            Entry::Occupied(_) => return Err(OError::VersionExists(version)),
            Entry::Vacant(slot) => {
                slot.insert(Slot {
                    value: Arc::clone(&value),
                    locked_by: None,
                });
            }
        }
        st.window_note_store(version, &value);
        self.inner.publish(&st);
        self.inner.wake_waiters(st);
        Ok(())
    }

    /// `LOAD-VERSION` returning the shared allocation: blocks until
    /// `version` exists and is unlocked, without cloning `T`.
    pub fn load_version_arc(&self, version: Version) -> Arc<T> {
        resolved(self.inner.load(Exact(version), Block, Arc::clone)).1
    }

    /// Non-blocking `LOAD-VERSION` returning the shared allocation.
    pub fn try_load_version_arc(&self, version: Version) -> Option<Arc<T>> {
        self.inner
            .load(Exact(version), Never, Arc::clone)
            .map(|(_, v)| v)
    }

    /// `LOAD-LATEST` returning the shared allocation: blocks until some
    /// version ≤ `cap` exists and the newest such version is unlocked.
    pub fn load_latest_arc(&self, cap: Version) -> (Version, Arc<T>) {
        resolved(self.inner.load(Latest(cap), Block, Arc::clone))
    }

    /// Non-blocking `LOAD-LATEST` returning the shared allocation.
    pub fn try_load_latest_arc(&self, cap: Version) -> Option<(Version, Arc<T>)> {
        self.inner.load(Latest(cap), Never, Arc::clone)
    }

    /// The version `tid` currently holds locked, if any.
    pub fn held_by(&self, tid: TaskId) -> Option<Version> {
        self.inner.state.lock().held.get(&tid).copied()
    }

    /// Invariant oracle: cross-checks the lock bookkeeping both ways —
    /// every held-lock record must point at a version locked by exactly
    /// that task, and every locked version must have a matching held
    /// record — and then validates the published read snapshot against the
    /// version map: every run must cover exactly the contiguous versions
    /// it claims (sharing their value allocation), the window must cover
    /// every version above its floor, and the locked list must mirror the
    /// lock table. Returns the first inconsistency. The software twin of
    /// the simulator's lock-exclusion oracle; the stress harness's test
    /// suites call it after perturbed interleavings.
    pub fn check_invariants(&self) -> Result<(), String> {
        let st = self.inner.state.lock();
        for (&tid, &v) in &st.held {
            match st.versions.get(&v) {
                Some(slot) if slot.locked_by == Some(tid) => {}
                Some(slot) => {
                    return Err(format!(
                        "task {tid} records a lock on version {v}, but the \
                         version is held by {:?}",
                        slot.locked_by
                    ))
                }
                None => {
                    return Err(format!(
                        "task {tid} records a lock on version {v}, which does \
                         not exist"
                    ))
                }
            }
        }
        for (&v, slot) in &st.versions {
            if let Some(tid) = slot.locked_by {
                if st.held.get(&tid) != Some(&v) {
                    return Err(format!(
                        "version {v} is locked by task {tid}, which has no \
                         matching held record"
                    ));
                }
            }
        }
        // Snapshot-vs-truth cross-check. The publication happens under the
        // state mutex, so under this lock the published view must agree.
        let snap = self.inner.published.read();
        if snap.complete != st.window_complete || snap.runs.len() != st.window.len() {
            return Err("published snapshot lags the state window".to_string());
        }
        let mut covered = 0usize;
        let mut prev_hi: Option<Version> = None;
        for run in &snap.runs {
            if run.lo > run.hi {
                return Err(format!("run [{}, {}] is inverted", run.lo, run.hi));
            }
            if let Some(p) = prev_hi {
                if run.lo <= p {
                    return Err(format!("run [{}, {}] overlaps predecessor", run.lo, run.hi));
                }
            }
            prev_hi = Some(run.hi);
            // One ordered range pass per run instead of a per-version map
            // lookup: a million-rename run costs one linear walk, not 10^6
            // O(log n) probes, so the oracle stays usable on the long
            // chains the runs exist to compress.
            let span = (run.hi - run.lo + 1) as usize;
            let mut present = 0usize;
            for (&v, slot) in st.versions.range(run.lo..=run.hi) {
                present += 1;
                if !Arc::ptr_eq(&slot.value, &run.value) {
                    return Err(format!(
                        "run [{}, {}] does not share version {v}'s value",
                        run.lo, run.hi
                    ));
                }
            }
            if present != span {
                return Err(format!(
                    "run [{}, {}] claims {span} contiguous versions but only \
                     {present} exist",
                    run.lo, run.hi
                ));
            }
            covered += span;
        }
        let floor = snap.floor();
        let above_floor = st.versions.range(floor..).count();
        if covered != above_floor || (snap.complete && covered != st.versions.len()) {
            return Err(format!(
                "window covers {covered} versions but {above_floor} exist at or \
                 above its floor {floor} (complete={})",
                snap.complete
            ));
        }
        let mut locked: Vec<Version> = st.held.values().copied().collect();
        locked.sort_unstable();
        if snap.locked != locked {
            return Err(format!(
                "published locked set {:?} does not match lock table {:?}",
                snap.locked, locked
            ));
        }
        Ok(())
    }

    /// All existing versions, ascending (diagnostics / tests).
    pub fn versions(&self) -> Vec<Version> {
        self.inner.state.lock().versions.keys().copied().collect()
    }

    /// Number of live versions.
    pub fn version_count(&self) -> usize {
        self.inner.state.lock().versions.len()
    }

    /// Garbage collection: drops every version strictly older than the
    /// newest version ≤ `boundary`, i.e. the versions shadowed for every
    /// task whose cap is ≥ `boundary`. Locked versions are never dropped.
    /// Returns how many versions were reclaimed.
    ///
    /// Safety is the caller's contract (the runtime's rules 1–3, or the
    /// vacuum's reader watermark): no active or future task may load below
    /// `boundary` afterwards.
    pub fn prune_below(&self, boundary: Version) -> usize {
        Prune::prune_below(&*self.inner, boundary)
    }

    /// A type-erased weak handle for the runtime's collector or the
    /// background [`crate::vacuum::Vacuum`].
    pub fn prune_handle(&self) -> std::sync::Weak<dyn Prune + Send + Sync>
    where
        T: Send + Sync + 'static,
    {
        let arc: Arc<dyn Prune + Send + Sync> = Arc::clone(&self.inner) as _;
        Arc::downgrade(&arc)
    }

    /// Number of live handles to this cell (the strong count of the shared
    /// inner, including `self`). A container that indexes cells can use
    /// this to tell whether anyone outside the index still holds the cell:
    /// while the container's lock keeps new handles from being minted, a
    /// count of exactly one means the index entry is the only reference.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

impl<T: Clone> OCell<T> {
    /// `LOAD-VERSION`: blocks until `version` exists and is unlocked.
    pub fn load_version(&self, version: Version) -> T {
        resolved(self.inner.load(Exact(version), Block, cloned)).1
    }

    /// Non-blocking `LOAD-VERSION`: `None` if absent or locked.
    pub fn try_load_version(&self, version: Version) -> Option<T> {
        self.inner
            .load(Exact(version), Never, cloned)
            .map(|(_, v)| v)
    }

    /// `LOAD-VERSION` with a timeout — mainly for tests that must detect a
    /// stall without hanging. `None` on timeout.
    pub fn load_version_timeout(&self, version: Version, dur: Duration) -> Option<T> {
        let wait = Until(Instant::now() + dur);
        self.inner
            .load(Exact(version), wait, cloned)
            .map(|(_, v)| v)
    }

    /// `LOAD-LATEST`: blocks until some version ≤ `cap` exists and the
    /// newest such version is unlocked. Returns `(version, value)`.
    pub fn load_latest(&self, cap: Version) -> (Version, T) {
        resolved(self.inner.load(Latest(cap), Block, cloned))
    }

    /// Non-blocking `LOAD-LATEST`.
    pub fn try_load_latest(&self, cap: Version) -> Option<(Version, T)> {
        self.inner.load(Latest(cap), Never, cloned)
    }

    /// `LOCK-LOAD-VERSION`: exact load + lock as `tid`. Blocks while the
    /// version is absent or locked (by anyone, including `tid`).
    pub fn lock_load_version(&self, version: Version, tid: TaskId) -> Result<T, OError> {
        if tid == 0 {
            return Err(OError::ReservedTaskId);
        }
        Ok(resolved(self.inner.lock_load(Exact(version), tid, Block, cloned)).1)
    }

    /// Non-blocking `LOCK-LOAD-LATEST`: `None` when the newest version ≤
    /// `cap` is absent or already locked.
    pub fn try_lock_load_latest(&self, cap: Version, tid: TaskId) -> Option<(Version, T)> {
        if tid == 0 {
            return None;
        }
        self.inner.lock_load(Latest(cap), tid, Never, cloned)
    }

    /// `LOCK-LOAD-LATEST`: capped load + lock as `tid`.
    /// Returns `(version, value)`.
    pub fn lock_load_latest(&self, cap: Version, tid: TaskId) -> Result<(Version, T), OError> {
        if tid == 0 {
            return Err(OError::ReservedTaskId);
        }
        Ok(resolved(self.inner.lock_load(
            Latest(cap),
            tid,
            Block,
            cloned,
        )))
    }

    /// `UNLOCK-VERSION`: releases `tid`'s lock on this cell; with
    /// `create = Some(vn)` also creates unlocked version `vn` carrying the
    /// just-unlocked value (the rename — sharing the value allocation).
    /// Wakes all waiters.
    pub fn unlock_version(&self, tid: TaskId, create: Option<Version>) -> Result<(), OError> {
        let mut st = self.inner.state.lock();
        let Some(vl) = st.held.remove(&tid) else {
            return Err(OError::NotLockOwner(tid));
        };
        let value = {
            let slot = st.versions.get_mut(&vl).expect("held version exists");
            debug_assert_eq!(slot.locked_by, Some(tid));
            slot.locked_by = None;
            Arc::clone(&slot.value)
        };
        if let Some(vn) = create {
            if st.versions.contains_key(&vn) {
                // Roll the unlock forward anyway; the create is the error.
                self.inner.publish(&st);
                self.inner.wake_waiters(st);
                return Err(OError::VersionExists(vn));
            }
            st.versions.insert(
                vn,
                Slot {
                    value: Arc::clone(&value),
                    locked_by: None,
                },
            );
            st.window_note_store(vn, &value);
        }
        self.inner.publish(&st);
        self.inner.wake_waiters(st);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    const T50: Duration = Duration::from_millis(200);

    #[test]
    fn store_then_load_exact() {
        let c = OCell::new();
        c.store_version(3, 42).unwrap();
        assert_eq!(c.load_version(3), 42);
        c.check_invariants().unwrap();
    }

    #[test]
    fn versions_are_write_once() {
        let c = OCell::new();
        c.store_version(1, 5).unwrap();
        assert_eq!(c.store_version(1, 6), Err(OError::VersionExists(1)));
        assert_eq!(c.load_version(1), 5);
    }

    #[test]
    fn load_blocks_until_store() {
        let c = OCell::new();
        let c2 = c.clone();
        let t = thread::spawn(move || c2.load_version(1));
        thread::sleep(Duration::from_millis(20));
        c.store_version(1, 9).unwrap();
        assert_eq!(t.join().unwrap(), 9);
    }

    #[test]
    fn out_of_order_creation() {
        let c = OCell::new();
        c.store_version(2, 22).unwrap();
        assert_eq!(c.try_load_version(2), Some(22));
        assert_eq!(c.try_load_version(1), None, "version 1 not created yet");
        c.store_version(1, 11).unwrap();
        assert_eq!(c.load_version(1), 11);
        assert_eq!(c.versions(), vec![1, 2]);
        c.check_invariants().unwrap();
    }

    #[test]
    fn load_latest_caps() {
        let c = OCell::new();
        for v in [2u64, 5, 9] {
            c.store_version(v, v as u32).unwrap();
        }
        assert_eq!(c.load_latest(9), (9, 9));
        assert_eq!(c.load_latest(8), (5, 5));
        assert_eq!(c.load_latest(2), (2, 2));
        assert_eq!(c.try_load_latest(1), None);
    }

    #[test]
    fn locked_version_blocks_exact_loads_only() {
        let c = OCell::new();
        c.store_version(1, 10).unwrap();
        c.store_version(2, 20).unwrap();
        c.lock_load_version(1, 7).unwrap();
        assert_eq!(c.try_load_version(1), None, "locked");
        assert_eq!(
            c.try_load_version(2),
            Some(20),
            "other versions ignore the lock"
        );
        c.unlock_version(7, None).unwrap();
        assert_eq!(c.try_load_version(1), Some(10));
    }

    #[test]
    fn load_latest_blocks_on_locked_latest() {
        let c = OCell::new();
        c.store_version(1, 10).unwrap();
        c.store_version(5, 50).unwrap();
        c.lock_load_version(5, 9).unwrap();
        assert_eq!(c.try_load_latest(7), None, "latest ≤ 7 is locked");
        assert_eq!(c.try_load_latest(4), Some((1, 10)));
    }

    #[test]
    fn unlock_rename_orders_a_follower() {
        let c = OCell::with_initial(1, 77u32);
        let (v1, _) = c.lock_load_latest(1, 1).unwrap();
        assert_eq!(v1, 1);
        let c2 = c.clone();
        let follower = thread::spawn(move || c2.lock_load_latest(2, 2).unwrap());
        thread::sleep(Duration::from_millis(20));
        // Predecessor renames on unlock; follower locks version 2.
        c.unlock_version(1, Some(2)).unwrap();
        let (v2, val) = follower.join().unwrap();
        assert_eq!((v2, val), (2, 77));
        c.unlock_version(2, None).unwrap();
    }

    #[test]
    fn unlock_requires_ownership() {
        let c = OCell::with_initial(1, 0u32);
        assert_eq!(c.unlock_version(9, None), Err(OError::NotLockOwner(9)));
        c.lock_load_version(1, 3).unwrap();
        assert_eq!(c.unlock_version(4, None), Err(OError::NotLockOwner(4)));
        c.unlock_version(3, None).unwrap();
    }

    #[test]
    fn held_by_tracks_lock() {
        let c = OCell::with_initial(4, 0u32);
        assert_eq!(c.held_by(2), None);
        c.lock_load_version(4, 2).unwrap();
        assert_eq!(c.held_by(2), Some(4));
        c.unlock_version(2, None).unwrap();
        assert_eq!(c.held_by(2), None);
    }

    #[test]
    fn invariants_hold_through_lock_lifecycle() {
        let c = OCell::with_initial(1, 0u32);
        c.check_invariants().unwrap();
        c.lock_load_version(1, 3).unwrap();
        c.check_invariants().unwrap();
        c.unlock_version(3, Some(2)).unwrap();
        c.check_invariants().unwrap();
        c.lock_load_version(2, 4).unwrap();
        c.prune_below(2);
        c.check_invariants().unwrap();
        c.unlock_version(4, None).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn timeout_detects_stall() {
        let c: OCell<u32> = OCell::new();
        assert_eq!(c.load_version_timeout(1, Duration::from_millis(30)), None);
        c.store_version(1, 1).unwrap();
        assert_eq!(c.load_version_timeout(1, T50), Some(1));
    }

    #[test]
    fn prune_below_keeps_newest_at_or_under_boundary() {
        let c = OCell::new();
        for v in 1..=10u64 {
            c.store_version(v, v as u32).unwrap();
        }
        let reclaimed = c.prune_below(7);
        assert_eq!(reclaimed, 6, "versions 1..=6 dropped, 7 kept");
        assert_eq!(c.versions(), vec![7, 8, 9, 10]);
        // A task with cap 7 still gets the right answer.
        assert_eq!(c.load_latest(7), (7, 7));
        c.check_invariants().unwrap();
    }

    #[test]
    fn prune_spares_locked_versions() {
        let c = OCell::new();
        for v in 1..=5u64 {
            c.store_version(v, v as u32).unwrap();
        }
        c.lock_load_version(2, 8).unwrap();
        c.prune_below(5);
        assert_eq!(c.versions(), vec![2, 5], "locked version 2 survives");
        c.check_invariants().unwrap();
        c.unlock_version(8, None).unwrap();
    }

    #[test]
    fn concurrent_producers_and_consumers() {
        let c: OCell<u64> = OCell::new();
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let c = c.clone();
            handles.push(thread::spawn(move || {
                // Each consumer waits for its producer's version.
                c.load_version(t)
            }));
        }
        for t in (1..=8u64).rev() {
            let c = c.clone();
            thread::spawn(move || c.store_version(t, t * 100).unwrap());
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), (i as u64 + 1) * 100);
        }
    }

    #[test]
    fn exact_entry_chain_orders_threads() {
        // N threads pipeline through one cell in task order regardless of
        // OS scheduling: each locks exactly its own entry version, which
        // only its predecessor's rename creates.
        let c = OCell::with_initial(2, 0u64);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for tid in 2..=9u64 {
            let c = c.clone();
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                c.lock_load_version(tid, tid).unwrap();
                order.lock().push(tid);
                c.unlock_version(tid, Some(tid + 1)).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), (2..=9u64).collect::<Vec<_>>());
    }

    #[test]
    fn rename_chain_compresses_to_one_run() {
        // A long rename pipeline shares one allocation and one run; every
        // intermediate version stays loadable on the fast path.
        let c = OCell::with_initial(1, 7u32);
        for tid in 1..=200u64 {
            c.lock_load_version(tid, tid).unwrap();
            c.unlock_version(tid, Some(tid + 1)).unwrap();
        }
        assert_eq!(c.version_count(), 201);
        c.check_invariants().unwrap();
        for v in [1u64, 50, 199, 201] {
            assert_eq!(c.try_load_version(v), Some(7));
        }
        let a = c.load_version_arc(1);
        let b = c.load_version_arc(201);
        assert!(Arc::ptr_eq(&a, &b), "renames share the value allocation");
    }

    #[test]
    fn window_overflow_falls_back_to_slow_path() {
        // >WINDOW_RUNS distinct-value versions: old versions leave the
        // published window but remain loadable (slow path), and lookups
        // above the floor stay authoritative.
        let c = OCell::new();
        let n = (WINDOW_RUNS as u64) * 3;
        for v in 1..=n {
            c.store_version(v * 2, v as u32).unwrap(); // gaps: no coalescing
        }
        c.check_invariants().unwrap();
        for v in 1..=n {
            assert_eq!(c.try_load_version(v * 2), Some(v as u32));
            assert_eq!(c.try_load_version(v * 2 + 1), None);
        }
        assert_eq!(c.load_latest(u64::MAX), (n * 2, n as u32));
        assert_eq!(c.try_load_latest(1), None);
    }

    #[test]
    fn panicking_clone_leaves_no_orphan_lock() {
        // A value whose next clone panics once armed: each lock-load must
        // unwind without leaving the version locked by a task that has no
        // held record (which would wedge every later lock-load of it).
        struct Fuse(Arc<AtomicBool>);
        impl Clone for Fuse {
            fn clone(&self) -> Self {
                assert!(!self.0.swap(false, Ordering::Relaxed), "armed clone");
                Fuse(Arc::clone(&self.0))
            }
        }
        let armed = Arc::new(AtomicBool::new(false));
        let c = OCell::with_initial(1, Fuse(Arc::clone(&armed)));
        let lock_loads: [fn(&OCell<Fuse>); 3] = [
            |c| drop(c.lock_load_version(1, 5)),
            |c| drop(c.lock_load_latest(1, 5)),
            |c| drop(c.try_lock_load_latest(1, 5)),
        ];
        for (i, lock_load) in lock_loads.into_iter().enumerate() {
            armed.store(true, Ordering::Relaxed);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lock_load(&c)));
            assert!(unwound.is_err(), "lock-load {i} cloned under the lock");
            c.check_invariants().unwrap();
            for tid in [5, 6] {
                c.lock_load_version(1, tid).unwrap();
                c.unlock_version(tid, None).unwrap();
            }
            // The panic poisoned the state mutex; the cell must not care.
            c.store_version(10 + i as u64, Fuse(Arc::clone(&armed)))
                .unwrap();
        }
    }

    fn parked(c: &OCell<u32>) -> usize {
        c.inner.state.lock().waiters
    }

    /// Waits until `n` loads are parked on `c`'s condvar.
    fn until_parked(c: &OCell<u32>, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while parked(c) != n {
            assert!(Instant::now() < deadline, "{} parked, want {n}", parked(c));
            thread::yield_now();
        }
    }

    /// Runs `op` on a thread, waits until it is parked, runs `wake`, and
    /// returns what `op` returned — or fails if the wake was lost.
    fn woken_by<R: Send + 'static>(
        c: &OCell<u32>,
        op: impl FnOnce(&OCell<u32>) -> R + Send + 'static,
        wake: impl FnOnce(&OCell<u32>),
    ) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let c2 = c.clone();
        thread::spawn(move || tx.send(op(&c2)).unwrap());
        until_parked(c, 1);
        wake(c);
        let r = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("parked load was never woken");
        assert_eq!(parked(c), 0, "waiter count left stale");
        r
    }

    #[test]
    fn every_wake_site_wakes_every_kind_of_parked_load() {
        // Each site, with a cell on which all three loads of version 2
        // block: absent for the store, locked by task 5 for the unlocks.
        type Site = (fn() -> OCell<u32>, fn(&OCell<u32>));
        let locked = || {
            let c = OCell::new();
            c.store_version(2, 20).unwrap();
            c.store_version(3, 30).unwrap();
            c.lock_load_version(2, 5).unwrap();
            c
        };
        let sites: [(&str, Site); 3] = [
            ("store", (OCell::new, |c| c.store_version(2, 20).unwrap())),
            ("unlock", (locked, |c| c.unlock_version(5, None).unwrap())),
            (
                "unlock with an existing rename target",
                (locked, |c| {
                    assert_eq!(c.unlock_version(5, Some(3)), Err(OError::VersionExists(3)))
                }),
            ),
        ];
        for (site, (make, wake)) in sites {
            let c = make();
            assert_eq!(woken_by(&c, |c| c.load_version(2), wake), 20, "{site}");
            let c = make();
            assert_eq!(woken_by(&c, |c| c.load_latest(2), wake), (2, 20), "{site}");
            let c = make();
            let got = woken_by(&c, |c| c.lock_load_version(2, 9), wake);
            assert_eq!(got, Ok(20), "{site}");
            assert_eq!(c.held_by(9), Some(2), "{site}");
            c.check_invariants().unwrap();
        }
    }

    #[test]
    fn timed_out_load_leaves_the_waiter_count_exact() {
        let c: OCell<u32> = OCell::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let early = {
            let (c, tx) = (c.clone(), tx.clone());
            thread::spawn(move || tx.send(c.load_version(1)).unwrap())
        };
        until_parked(&c, 1);
        assert_eq!(c.load_version_timeout(2, Duration::from_millis(30)), None);
        assert_eq!(parked(&c), 1, "the timeout lowered the count it raised");
        let late = {
            let c = c.clone();
            thread::spawn(move || tx.send(c.load_version(3)).unwrap())
        };
        until_parked(&c, 2);
        for v in [1, 3] {
            c.store_version(v, v as u32 * 10).unwrap();
            let got = rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(got, Ok(v as u32 * 10), "waiter on {v} never woken");
        }
        early.join().unwrap();
        late.join().unwrap();
        assert_eq!(parked(&c), 0);
    }

    #[test]
    fn arc_loads_share_the_allocation() {
        let c = OCell::with_initial(3, String::from("value"));
        let a = c.load_latest_arc(10).1;
        let b = c.try_load_version_arc(3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, "value");
    }
}
