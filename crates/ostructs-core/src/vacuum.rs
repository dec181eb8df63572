//! The one version reclaimer: the reader registry, the prune pass, and
//! the background vacuum.
//!
//! The paper's §III-B garbage collector relies on three rules: versions
//! are accessed by task id, the memory system is told when each task
//! begins and ends, and no task is created below the oldest active one.
//! That is a registry of live readers, each pinning a snapshot cap —
//! which is also what free-threaded users of [`crate::OCell`] /
//! [`crate::map::OMap`] (long-lived services where readers come and go)
//! need. Everything strictly below the oldest pinned cap (the
//! *watermark*) is unreachable and can be pruned. This is the
//! `running_transactions` + `Vacuum` pattern of xdb's `VersionManager`,
//! and one engine serves both users: [`Vacuum`] runs its passes on a
//! background thread, [`crate::ORuntime`] after task completions (task
//! begin is [`ReaderRegistry::pin_at`] of the task id, task end drops
//! the guard).
//!
//! Protocol:
//!
//! 1. Writers allocate versions from the registry's monotone
//!    [`ReaderRegistry::next_version`] clock (or advance it past
//!    externally chosen versions with [`ReaderRegistry::advance_to`]).
//! 2. Readers call [`ReaderRegistry::pin`] *before* choosing a snapshot
//!    cap and hold the returned [`ReaderGuard`] for the duration; the cap
//!    is the guard's pinned version. Dropping the guard unpins.
//! 3. A pass computes the watermark — the oldest pinned cap, or the
//!    current clock when no reader is live — and calls
//!    [`crate::cell::Prune::prune_below`] on every tracked store.
//!    `prune_below` keeps the newest version ≤ the boundary, so a reader
//!    pinned exactly *at* the watermark still resolves every load.
//!
//! The pins are striped so that readers on different threads share
//! nothing: each thread takes one of a fixed set of cache-line-aligned
//! stripes, round-robin on its first pin, and a pin or unpin locks only
//! that stripe (a guard remembers its stripe, so it may be dropped on
//! any thread). A pin chooses its cap while holding its stripe. The
//! watermark, the reader count, the pin ages and a pass lock every
//! stripe in index order; an idle pass (no live pin) keeps them all
//! locked until it has pruned, so no pin can cap below its boundary.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::cell::Prune;
use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::Version;

/// Number of pin stripes per registry. Threads take stripes round-robin,
/// so up to this many threads pin without sharing a lock or a cache line.
const STRIPES: usize = 16;

/// Registry of live readers; the source of the vacuum's watermark and of
/// writers' monotone versions.
///
/// Cheap to clone (a handle); all clones share one registry.
pub struct ReaderRegistry {
    inner: Arc<RegistryInner>,
}

struct RegistryInner {
    /// Monotone version clock: the next version a writer should use.
    clock: AtomicU64,
    /// The live pins, striped so a pin or unpin touches only its own
    /// thread's stripe.
    stripes: [Stripe; STRIPES],
}

/// One stripe on its own cache lines (128 bytes: x86 prefetches lines in
/// pairs), so pins on different stripes never share a line.
#[repr(align(128))]
struct Stripe(Mutex<Pins>);

#[derive(Default)]
struct Pins {
    /// Live pins: the cap and the pin's creation instant, so pin ages are
    /// observable while the guard is still parked. Unordered, and a cap
    /// may appear several times.
    live: Vec<(Version, Instant)>,
    /// Completed pin lifetimes, recorded at unpin.
    age_us: osim_metrics::Histogram,
}

/// Every stripe, locked. Only [`ReaderRegistry::lock_all`] holds more
/// than one stripe, so all such holders lock in one order and cannot
/// deadlock each other.
type AllPins<'a> = [MutexGuard<'a, Pins>; STRIPES];

/// The calling thread's stripe, assigned round-robin on first use.
fn my_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

impl Clone for ReaderRegistry {
    fn clone(&self) -> Self {
        ReaderRegistry {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Default for ReaderRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ReaderRegistry {
    /// An empty registry with the version clock at 1 (version 0 is the
    /// conventional "initial value" version).
    pub fn new() -> Self {
        ReaderRegistry {
            inner: Arc::new(RegistryInner {
                clock: AtomicU64::new(1),
                stripes: std::array::from_fn(|_| Stripe(Mutex::new(Pins::default()))),
            }),
        }
    }

    /// Allocates the next writer version (monotone, never reused).
    ///
    /// Allocate-then-publish: a reader pinning between the allocation and
    /// the store may watch version ≤ its cap *appear* (its observed
    /// latest version only ever grows toward the cap — reclamation safety
    /// is unaffected). A single writer wanting pin-stable snapshots can
    /// instead publish at [`ReaderRegistry::current`] and then
    /// [`ReaderRegistry::advance_to`] it, so caps only ever cover
    /// published versions.
    pub fn next_version(&self) -> Version {
        self.take_versions(1)
    }

    /// Allocates `n` consecutive versions in one step and returns the
    /// first (the runtime's block of task ids).
    pub(crate) fn take_versions(&self, n: u64) -> Version {
        self.inner.clock.fetch_add(n, Ordering::Relaxed)
    }

    /// The newest version the clock has moved past (i.e. every allocated
    /// version is `< current()`).
    pub fn current(&self) -> Version {
        self.inner.clock.load(Ordering::Relaxed)
    }

    /// Advances the clock to at least `version + 1`, for writers that
    /// choose versions externally (e.g. task ids). Never moves backwards.
    pub fn advance_to(&self, version: Version) {
        self.inner
            .clock
            .fetch_max(version.saturating_add(1), Ordering::Relaxed);
    }

    /// Pins the newest allocated version as a snapshot cap and returns
    /// the guard holding it live. Read with `guard.cap()` as the version
    /// cap; the vacuum will not reclaim anything such a read could
    /// observe until the guard drops. Writers that allocate *after* the
    /// pin get versions above the cap, so the snapshot is stable.
    pub fn pin(&self) -> ReaderGuard<'_> {
        // Pin first, read the clock inside the stripe lock: a concurrent
        // vacuum computing the watermark holds every stripe, so it can
        // never observe "no readers" after this reader chose its cap.
        self.pin_with(|| self.inner.clock.load(Ordering::Relaxed).saturating_sub(1))
    }

    /// Pins an explicit cap (for readers replaying a historical snapshot
    /// they know is still live).
    pub fn pin_at(&self, cap: Version) -> ReaderGuard<'_> {
        self.pin_with(|| cap)
    }

    /// Records a pin on the calling thread's stripe, choosing its cap
    /// under the stripe lock.
    fn pin_with(&self, cap: impl FnOnce() -> Version) -> ReaderGuard<'_> {
        let stripe = my_stripe();
        let mut pins = self.inner.stripes[stripe].0.lock();
        let (cap, pinned_at) = (cap(), Instant::now());
        pins.live.push((cap, pinned_at));
        drop(pins);
        ReaderGuard {
            registry: self,
            stripe,
            cap,
            pinned_at,
        }
    }

    /// Locks every stripe, in index order.
    fn lock_all(&self) -> AllPins<'_> {
        std::array::from_fn(|i| self.inner.stripes[i].0.lock())
    }

    /// The reclamation boundary: the oldest pinned cap, or the current
    /// clock when no reader is live. Versions strictly below the newest
    /// version ≤ this value are unreachable by any current or future
    /// reader (a reader pinning while a pass prunes at the clock waits
    /// for that pass).
    pub fn watermark(&self) -> Version {
        self.watermark_of(&self.lock_all())
    }

    fn watermark_of(&self, all: &AllPins<'_>) -> Version {
        all.iter()
            .flat_map(|pins| pins.live.iter().map(|&(cap, _)| cap))
            .min()
            .unwrap_or_else(|| self.inner.clock.load(Ordering::Relaxed))
    }

    /// Number of live reader guards.
    pub fn live_readers(&self) -> usize {
        self.lock_all().iter().map(|pins| pins.live.len()).sum()
    }

    /// How far the version clock has run ahead of the reclamation
    /// boundary: 0 when no reader holds the watermark back, growing while
    /// a parked guard pins an old cap and writers keep allocating. The
    /// software analogue of Louvre-style version-table occupancy.
    pub fn watermark_lag(&self) -> u64 {
        self.current().saturating_sub(self.watermark())
    }

    /// Pin-age distribution in microseconds: completed pin lifetimes plus
    /// the *current* age of every live pin, so a parked guard is visible
    /// before it unpins.
    pub fn pin_ages_us(&self) -> osim_metrics::Histogram {
        let mut h = osim_metrics::Histogram::new();
        for pins in &self.lock_all() {
            h.merge(&pins.age_us);
            for (_, t0) in &pins.live {
                h.record(t0.elapsed().as_micros() as u64);
            }
        }
        h
    }

    fn unpin(&self, guard: &ReaderGuard) {
        let mut pins = self.inner.stripes[guard.stripe].0.lock();
        let me = (guard.cap, guard.pinned_at);
        if let Some(i) = pins.live.iter().rposition(|&pin| pin == me) {
            pins.live.swap_remove(i);
            pins.age_us.record(me.1.elapsed().as_micros() as u64);
        }
    }
}

/// RAII pin on a snapshot cap; see [`ReaderRegistry::pin`]. It unpins
/// from the stripe it pinned on, whichever thread drops it. It borrows
/// the registry rather than cloning the handle, so a pin bumps no shared
/// reference count.
pub struct ReaderGuard<'a> {
    registry: &'a ReaderRegistry,
    stripe: usize,
    cap: Version,
    pinned_at: Instant,
}

impl ReaderGuard<'_> {
    /// The pinned snapshot cap — use it as the version cap for every load
    /// performed under this guard.
    pub fn cap(&self) -> Version {
        self.cap
    }
}

impl Drop for ReaderGuard<'_> {
    fn drop(&mut self) {
        self.registry.unpin(self);
    }
}

/// Vacuum configuration.
#[derive(Debug, Clone)]
pub struct VacuumCfg {
    /// Sleep between passes.
    pub interval: Duration,
}

impl Default for VacuumCfg {
    fn default() -> Self {
        VacuumCfg {
            interval: Duration::from_millis(10),
        }
    }
}

/// Counters for one vacuum's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumStats {
    /// Passes executed (including ones that reclaimed nothing).
    pub passes: u64,
    /// Total versions reclaimed.
    pub reclaimed: u64,
    /// The boundary used by the most recent pass.
    pub last_watermark: Version,
}

/// The one reclamation engine: the tracked stores, the prune pass and
/// its counters. [`Vacuum`] runs passes on a background cadence;
/// [`crate::ORuntime`] runs them on task completions.
pub(crate) struct Reclaimer {
    registry: ReaderRegistry,
    tracked: Mutex<Vec<Weak<dyn Prune + Send + Sync>>>,
    stats: Mutex<VacuumStats>,
    /// Per-pass duration in microseconds, merged into `osim-metrics`
    /// output via [`Vacuum::fill_registry`].
    pause_us: Mutex<osim_metrics::Histogram>,
}

impl Reclaimer {
    pub(crate) fn new(registry: ReaderRegistry) -> Self {
        Reclaimer {
            registry,
            tracked: Mutex::new(Vec::new()),
            stats: Mutex::new(VacuumStats::default()),
            pause_us: Mutex::new(osim_metrics::Histogram::new()),
        }
    }

    pub(crate) fn registry(&self) -> &ReaderRegistry {
        &self.registry
    }

    /// Tracks `store` by weak reference: dropping the store untracks it.
    pub(crate) fn track<S: Prunable>(&self, store: &S) {
        self.tracked.lock().push(store.prune_weak());
    }

    pub(crate) fn stats(&self) -> VacuumStats {
        *self.stats.lock()
    }

    /// Prunes every live tracked store below the registry's watermark;
    /// returns the number of versions reclaimed.
    pub(crate) fn pass(&self) -> u64 {
        let started = Instant::now();
        // With no reader live the boundary is the clock, yet a reader
        // pinning now would cap one below it, at a version this pass may
        // drop once a writer publishes at the clock. So an idle pass keeps
        // pins out until it has pruned. A live pin needs no such hold: no
        // later pin caps below it.
        let all = self.registry.lock_all();
        let boundary = self.registry.watermark_of(&all);
        let idle_hold = all.iter().all(|pins| pins.live.is_empty()).then_some(all);
        // Snapshot the tracked set without holding its lock while pruning
        // (pruning takes per-cell locks).
        let cells: Vec<_> = {
            let mut tracked = self.tracked.lock();
            tracked.retain(|w| w.strong_count() > 0);
            tracked.clone()
        };
        let mut reclaimed = 0u64;
        for weak in cells {
            if let Some(cell) = weak.upgrade() {
                reclaimed += cell.prune_below(boundary) as u64;
            }
        }
        drop(idle_hold);
        {
            let mut stats = self.stats.lock();
            stats.passes += 1;
            stats.reclaimed += reclaimed;
            stats.last_watermark = boundary;
        }
        let pause = started.elapsed().as_micros() as u64;
        self.pause_us.lock().record(pause);
        let g = global();
        g.passes.fetch_add(1, Ordering::Relaxed);
        g.reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        g.last_watermark.store(boundary, Ordering::Relaxed);
        g.watermark_lag
            .store(self.registry.watermark_lag(), Ordering::Relaxed);
        g.pause_us.lock().record(pause);
        if osim_metrics::host_trace_armed() {
            osim_metrics::host_trace_span("vacuum", "pass", 0, started);
        }
        reclaimed
    }
}

struct VacuumShared {
    reclaimer: Reclaimer,
    stop: Mutex<bool>,
    wake: Condvar,
}

/// Process-global roll-up across every vacuum instance, so the scrape
/// plane can export vacuum activity without holding a handle on each
/// [`Vacuum`]. Per-instance telemetry stays on
/// [`Vacuum::fill_registry`] under the `ostructs_vacuum_*` names.
struct GlobalVacuum {
    passes: AtomicU64,
    reclaimed: AtomicU64,
    last_watermark: AtomicU64,
    watermark_lag: AtomicU64,
    pause_us: Mutex<osim_metrics::Histogram>,
}

fn global() -> &'static GlobalVacuum {
    static GLOBAL: std::sync::OnceLock<GlobalVacuum> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(|| GlobalVacuum {
        passes: AtomicU64::new(0),
        reclaimed: AtomicU64::new(0),
        last_watermark: AtomicU64::new(0),
        watermark_lag: AtomicU64::new(0),
        pause_us: Mutex::new(osim_metrics::Histogram::new()),
    })
}

/// Snapshots the process-global vacuum roll-up into `reg` under the
/// `osim_vacuum_*` family names.
pub fn fill_vacuum_registry(reg: &mut osim_metrics::Registry) {
    let g = global();
    reg.counter_add(
        "osim_vacuum_passes_total",
        &[],
        g.passes.load(Ordering::Relaxed),
    );
    reg.counter_add(
        "osim_vacuum_reclaimed_total",
        &[],
        g.reclaimed.load(Ordering::Relaxed),
    );
    reg.gauge_set(
        "osim_vacuum_watermark",
        &[],
        g.last_watermark.load(Ordering::Relaxed) as f64,
    );
    reg.gauge_set(
        "osim_vacuum_watermark_lag",
        &[],
        g.watermark_lag.load(Ordering::Relaxed) as f64,
    );
    reg.hist_mut("osim_vacuum_pause_us", &[])
        .merge(&g.pause_us.lock());
}

/// Background reclamation daemon over a [`ReaderRegistry`].
///
/// ```
/// use std::time::Duration;
/// use ostructs_core::vacuum::{ReaderRegistry, Vacuum, VacuumCfg};
/// use ostructs_core::OCell;
///
/// let registry = ReaderRegistry::new();
/// let vac = Vacuum::start(
///     registry.clone(),
///     VacuumCfg { interval: Duration::from_millis(1) },
/// );
/// let cell = OCell::with_initial(0, 0u64);
/// vac.track(&cell);
/// for _ in 0..100 {
///     let v = registry.next_version();
///     cell.store_version(v, v).unwrap();
/// }
/// vac.run_pass(); // or just wait for the background cadence
/// assert_eq!(cell.version_count(), 1);
/// drop(vac); // clean shutdown: joins the background thread
/// ```
pub struct Vacuum {
    shared: Arc<VacuumShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Vacuum {
    /// Starts the background thread pruning every `cfg.interval`.
    pub fn start(registry: ReaderRegistry, cfg: VacuumCfg) -> Self {
        let shared = Arc::new(VacuumShared {
            reclaimer: Reclaimer::new(registry),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let bg = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("ostructs-vacuum".into())
            .spawn(move || loop {
                {
                    let mut stop = bg.stop.lock();
                    if !*stop {
                        let deadline = Instant::now() + cfg.interval;
                        stop = bg.wake.wait_until(stop, deadline).0;
                    }
                    if *stop {
                        return;
                    }
                }
                bg.reclaimer.pass();
            })
            .expect("spawn vacuum thread");
        Vacuum {
            shared,
            thread: Some(thread),
        }
    }

    /// Registers a prunable store (a cell, map, or anything exposing a
    /// [`Prune`] handle). Tracking is by weak reference — dropping the
    /// store untracks it.
    pub fn track<S: Prunable>(&self, store: &S) {
        self.shared.reclaimer.track(store);
    }

    /// Runs one pass synchronously on the calling thread; returns the
    /// number of versions reclaimed.
    pub fn run_pass(&self) -> u64 {
        self.shared.reclaimer.pass()
    }

    /// Counters so far.
    pub fn stats(&self) -> VacuumStats {
        self.shared.reclaimer.stats()
    }

    /// The registry this vacuum reclaims against.
    pub fn registry(&self) -> &ReaderRegistry {
        self.shared.reclaimer.registry()
    }

    /// Folds the vacuum's telemetry into an `osim-metrics` registry:
    /// `ostructs_vacuum_passes_total`, `ostructs_vacuum_reclaimed_total`,
    /// `ostructs_vacuum_watermark`, the live
    /// `ostructs_vacuum_watermark_lag` (clock minus watermark — how much
    /// history a parked reader is holding back), the per-pass
    /// `ostructs_vacuum_pause_us` histogram, and the
    /// `ostructs_vacuum_reader_pin_age_us` pin-age distribution (live pins
    /// included).
    pub fn fill_registry(&self, reg: &mut osim_metrics::Registry) {
        let stats = self.stats();
        reg.counter_add("ostructs_vacuum_passes_total", &[], stats.passes);
        reg.counter_add("ostructs_vacuum_reclaimed_total", &[], stats.reclaimed);
        reg.gauge_set(
            "ostructs_vacuum_watermark",
            &[],
            stats.last_watermark as f64,
        );
        reg.gauge_set(
            "ostructs_vacuum_watermark_lag",
            &[],
            self.registry().watermark_lag() as f64,
        );
        reg.hist_mut("ostructs_vacuum_pause_us", &[])
            .merge(&self.shared.reclaimer.pause_us.lock());
        reg.hist_mut("ostructs_vacuum_reader_pin_age_us", &[])
            .merge(&self.registry().pin_ages_us());
    }

    /// Stops the background thread and joins it. Idempotent; also run by
    /// `Drop`.
    pub fn stop(&mut self) {
        *self.shared.stop.lock() = true;
        self.shared.wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Vacuum {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Anything the vacuum can track: exposes a weak, type-erased [`Prune`]
/// handle.
pub trait Prunable {
    fn prune_weak(&self) -> Weak<dyn Prune + Send + Sync>;
}

impl<T: Send + Sync + 'static> Prunable for crate::OCell<T> {
    fn prune_weak(&self) -> Weak<dyn Prune + Send + Sync> {
        self.prune_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OCell;

    fn fast_cfg() -> VacuumCfg {
        VacuumCfg {
            interval: Duration::from_millis(1),
        }
    }

    #[test]
    fn watermark_follows_oldest_pin() {
        let reg = ReaderRegistry::new();
        assert_eq!(reg.watermark(), 1, "clock starts at 1");
        for _ in 0..9 {
            reg.next_version();
        }
        assert_eq!(reg.watermark(), 10, "no readers: watermark = clock");
        let old = reg.pin();
        assert_eq!(old.cap(), 9, "caps at the newest allocated version");
        for _ in 0..5 {
            reg.next_version();
        }
        let newer = reg.pin();
        assert_eq!(newer.cap(), 14);
        assert_eq!(reg.watermark(), old.cap());
        drop(old);
        assert_eq!(reg.watermark(), newer.cap());
        drop(newer);
        assert_eq!(reg.watermark(), 15);
        assert_eq!(reg.live_readers(), 0);
    }

    #[test]
    fn duplicate_caps_unpin_one_at_a_time() {
        let reg = ReaderRegistry::new();
        let a = reg.pin();
        let b = reg.pin();
        assert_eq!(a.cap(), b.cap());
        assert_eq!(reg.live_readers(), 2);
        drop(a);
        assert_eq!(reg.watermark(), b.cap(), "second pin still holds");
        drop(b);
        assert_eq!(reg.live_readers(), 0);
    }

    #[test]
    fn advance_to_never_regresses() {
        let reg = ReaderRegistry::new();
        reg.advance_to(100);
        assert_eq!(reg.current(), 101);
        reg.advance_to(50);
        assert_eq!(reg.current(), 101);
    }

    #[test]
    fn advance_to_saturates_at_the_last_version() {
        let reg = ReaderRegistry::new();
        reg.advance_to(Version::MAX);
        assert_eq!(reg.current(), Version::MAX);
        reg.advance_to(Version::MAX - 7);
        assert_eq!(reg.current(), Version::MAX);
    }

    #[test]
    fn vacuum_prunes_unpinned_history() {
        let reg = ReaderRegistry::new();
        let mut vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        for _ in 0..50 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        let reclaimed = vac.run_pass();
        assert_eq!(reclaimed, 50, "all but the newest version reclaimed");
        assert_eq!(cell.version_count(), 1);
        cell.check_invariants().unwrap();
        vac.stop();
        let stats = vac.stats();
        assert!(stats.passes >= 1);
        assert_eq!(stats.reclaimed, 50);
    }

    #[test]
    fn vacuum_never_reclaims_pinned_snapshots() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        let v1 = reg.next_version();
        cell.store_version(v1, 111).unwrap();
        let pin = reg.pin(); // caps at the clock after v1
        for _ in 0..20 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        vac.run_pass();
        // The pinned snapshot still resolves: newest version ≤ cap is v1.
        assert_eq!(cell.try_load_latest(pin.cap()), Some((v1, 111)));
        drop(pin);
        vac.run_pass();
        assert_eq!(cell.version_count(), 1, "history drains after unpin");
    }

    #[test]
    fn idle_pass_holds_new_pins_until_pruned() {
        // An idle pass prunes at the clock while a new pin caps one below
        // it. A probe tracked ahead of the cell lets a reader try to pin
        // inside the pass, then publishes at the clock before the cell is
        // pruned: a pin that got in would see its snapshot change.
        struct Probe<F>(F);
        impl<F: Fn() + Send + Sync> Prune for Probe<F> {
            fn prune_below(&self, _: Version) -> usize {
                (self.0)();
                0
            }
        }
        impl<F: Fn() + Send + Sync + 'static> Prunable for Arc<Probe<F>> {
            fn prune_weak(&self) -> Weak<dyn Prune + Send + Sync> {
                let probe: Arc<dyn Prune + Send + Sync> = self.clone();
                Arc::downgrade(&probe)
            }
        }
        let reg = ReaderRegistry::new();
        let idle = VacuumCfg {
            interval: Duration::from_secs(3600),
        };
        let vac = Vacuum::start(reg.clone(), idle);
        let cell = OCell::with_initial(0, 0u64);
        let (go_tx, go_rx) = std::sync::mpsc::channel();
        let (read_tx, read_rx) = std::sync::mpsc::channel();
        let (pruned_tx, pruned_rx) = std::sync::mpsc::channel();
        let reader = {
            let (reg, cell) = (reg.clone(), cell.clone());
            std::thread::spawn(move || {
                go_rx.recv().unwrap();
                let pin = reg.pin();
                let first = cell.try_load_latest(pin.cap());
                read_tx.send(()).unwrap();
                pruned_rx.recv().unwrap();
                (first, cell.try_load_latest(pin.cap()))
            })
        };
        let writer = cell.clone();
        let read_rx = Mutex::new(read_rx);
        let probe = Arc::new(Probe(move || {
            go_tx.send(()).unwrap();
            // Times out when the pass keeps the reader's pin out.
            let _ = read_rx.lock().recv_timeout(Duration::from_millis(200));
            writer.store_version(reg.current(), 1).unwrap();
        }));
        vac.track(&probe);
        vac.track(&cell);
        vac.run_pass();
        pruned_tx.send(()).unwrap();
        let (first, second) = reader.join().unwrap();
        assert_eq!(first, second, "pinned snapshot changed underfoot");
    }

    #[test]
    fn background_cadence_prunes_without_explicit_passes() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        for _ in 0..100 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while cell.version_count() > 1 {
            assert!(Instant::now() < deadline, "vacuum never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn stop_is_clean_and_idempotent() {
        let reg = ReaderRegistry::new();
        let mut vac = Vacuum::start(reg, fast_cfg());
        vac.stop();
        vac.stop();
        assert!(vac.thread.is_none());
    }

    #[test]
    fn dropped_cells_are_untracked() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg, fast_cfg());
        {
            let cell = OCell::with_initial(0, 0u32);
            vac.track(&cell);
        }
        assert_eq!(vac.run_pass(), 0, "dead weak refs are skipped");
    }

    #[test]
    fn parked_reader_grows_watermark_lag() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        for _ in 0..5 {
            reg.next_version();
        }
        let parked = reg.pin();
        let mut m0 = osim_metrics::Registry::new();
        vac.fill_registry(&mut m0);
        let lag0 = m0.gauge("ostructs_vacuum_watermark_lag", &[]).unwrap();
        // Writers keep allocating while the guard stays parked: the lag
        // must grow with every allocation the pin holds back.
        for _ in 0..40 {
            reg.next_version();
        }
        std::thread::sleep(Duration::from_millis(2));
        let mut m1 = osim_metrics::Registry::new();
        vac.fill_registry(&mut m1);
        let lag1 = m1.gauge("ostructs_vacuum_watermark_lag", &[]).unwrap();
        assert!(
            lag1 >= lag0 + 40.0,
            "parked guard must make the lag grow: {lag0} -> {lag1}"
        );
        let ages = m1
            .hist("ostructs_vacuum_reader_pin_age_us", &[])
            .expect("pin-age histogram present");
        assert!(ages.count() >= 1, "live pin must appear in the age hist");
        drop(parked);
        let mut m2 = osim_metrics::Registry::new();
        vac.fill_registry(&mut m2);
        let lag2 = m2.gauge("ostructs_vacuum_watermark_lag", &[]).unwrap();
        assert_eq!(lag2, 0.0, "lag collapses once the guard drops");
    }

    #[test]
    fn global_rollup_ticks_on_every_pass() {
        let mut before = osim_metrics::Registry::new();
        fill_vacuum_registry(&mut before);
        let passes0 = before.counter("osim_vacuum_passes_total", &[]);

        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        for _ in 0..10 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        vac.run_pass();
        vac.run_pass();

        let mut after = osim_metrics::Registry::new();
        fill_vacuum_registry(&mut after);
        assert!(after.counter("osim_vacuum_passes_total", &[]) >= passes0 + 2);
        assert!(after.counter("osim_vacuum_reclaimed_total", &[]) >= 10);
        let h = after.hist("osim_vacuum_pause_us", &[]).unwrap();
        assert!(h.count() >= 2);
        assert!(after.gauge("osim_vacuum_watermark", &[]).is_some());
        assert!(after.gauge("osim_vacuum_watermark_lag", &[]).is_some());
    }

    /// Pins `cap` on a fresh thread and hands the guard back, so the pin
    /// sits on that thread's stripe.
    fn pin_elsewhere(reg: &ReaderRegistry, cap: Version) -> ReaderGuard<'_> {
        std::thread::scope(|s| s.spawn(|| reg.pin_at(cap)).join().unwrap())
    }

    fn live_on(reg: &ReaderRegistry, stripe: usize) -> Vec<Version> {
        let pins = reg.inner.stripes[stripe].0.lock();
        pins.live.iter().map(|&(cap, _)| cap).collect()
    }

    #[test]
    fn guard_dropped_on_another_thread_unpins_its_own_stripe() {
        let reg = ReaderRegistry::new();
        let held = reg.pin_at(3);
        let moved = reg.pin_at(5);
        assert_eq!(live_on(&reg, moved.stripe), vec![3, 5]);
        let other = std::thread::scope(|s| {
            s.spawn(|| {
                let mine = reg.pin_at(9);
                drop(moved);
                mine
            })
            .join()
            .unwrap()
        });
        assert_eq!(live_on(&reg, held.stripe), vec![3], "unpinned at home");
        assert_eq!(reg.live_readers(), 2);
        assert_eq!(reg.watermark(), 3);
        drop(held);
        assert_eq!(reg.watermark(), 9, "the other thread's pin remains");
        drop(other);
        assert_eq!(reg.live_readers(), 0);
        assert_eq!(reg.pin_ages_us().count(), 3);
    }

    #[test]
    fn more_pinning_threads_than_stripes_share_stripes() {
        let reg = ReaderRegistry::new();
        let n = 2 * STRIPES + 3;
        let pinned = std::sync::Barrier::new(n + 1);
        let checked = std::sync::Barrier::new(n + 1);
        std::thread::scope(|s| {
            for i in 0..n {
                let (reg, pinned, checked) = (&reg, &pinned, &checked);
                s.spawn(move || {
                    let guard = reg.pin_at(100 + i as Version);
                    pinned.wait();
                    checked.wait();
                    drop(guard);
                });
            }
            pinned.wait();
            assert_eq!(reg.live_readers(), n);
            assert_eq!(reg.watermark(), 100);
            let fullest = (0..STRIPES).map(|i| live_on(&reg, i).len()).max();
            assert!(fullest >= Some(2), "{n} pins on {STRIPES} stripes");
            checked.wait();
        });
        assert_eq!(reg.live_readers(), 0);
        assert_eq!(reg.watermark(), reg.current());
        assert_eq!(reg.pin_ages_us().count(), n as u64);
    }

    #[test]
    fn duplicate_caps_on_different_stripes_unpin_separately() {
        let reg = ReaderRegistry::new();
        let here = reg.pin_at(7);
        let there = std::iter::repeat_with(|| pin_elsewhere(&reg, 7))
            .find(|g| g.stripe != here.stripe)
            .unwrap();
        assert_eq!(reg.live_readers(), 2);
        drop(here);
        assert_eq!(reg.watermark(), 7, "the other stripe's pin still holds");
        assert_eq!(live_on(&reg, there.stripe), vec![7]);
        drop(there);
        assert_eq!(reg.live_readers(), 0);
        assert_eq!(reg.watermark(), reg.current());
    }

    #[test]
    fn watermark_is_the_minimum_across_stripes() {
        let reg = ReaderRegistry::new();
        reg.advance_to(200);
        let here = reg.pin_at(50);
        let low = pin_elsewhere(&reg, 20);
        let high = pin_elsewhere(&reg, 90);
        assert_eq!(reg.watermark(), 20);
        drop(low);
        assert_eq!(reg.watermark(), 50);
        drop(here);
        assert_eq!(reg.watermark(), 90);
        assert_eq!(reg.watermark_lag(), 201 - 90);
        drop(high);
        assert_eq!(reg.watermark(), 201);
    }

    #[test]
    fn readers_and_pin_ages_sum_across_stripes() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        let done: Vec<_> = (0..4).map(|cap| pin_elsewhere(&reg, cap)).collect();
        drop(done);
        let live: Vec<_> = (0..3).map(|cap| pin_elsewhere(&reg, cap)).collect();
        let here = reg.pin();
        assert_eq!(reg.live_readers(), 4);
        assert_eq!(reg.pin_ages_us().count(), 4 + 4, "completed + live");
        let mut m = osim_metrics::Registry::new();
        vac.fill_registry(&mut m);
        let ages = m.hist("ostructs_vacuum_reader_pin_age_us", &[]).unwrap();
        assert_eq!(ages.count(), 8, "live pins on every stripe are exported");
        drop((live, here));
        assert_eq!(reg.live_readers(), 0);
        assert_eq!(reg.pin_ages_us().count(), 8);
    }

    #[test]
    fn metrics_surface() {
        let reg = ReaderRegistry::new();
        let vac = Vacuum::start(reg.clone(), fast_cfg());
        let cell = OCell::with_initial(0, 0u64);
        vac.track(&cell);
        for _ in 0..10 {
            let v = reg.next_version();
            cell.store_version(v, v).unwrap();
        }
        vac.run_pass();
        let mut m = osim_metrics::Registry::new();
        vac.fill_registry(&mut m);
        assert!(m.counter("ostructs_vacuum_passes_total", &[]) >= 1);
        assert_eq!(m.counter("ostructs_vacuum_reclaimed_total", &[]), 10);
        let h = m.hist("ostructs_vacuum_pause_us", &[]).unwrap();
        assert!(h.count() >= 1);
    }
}
