//! Allocation bounds of the store's write side: a warm vacuum pass over
//! clean map cells allocates nothing, and the bytes one store at a new
//! maximum allocates do not grow with the cell's history depth.
//!
//! The counting `#[global_allocator]` counts per thread: a test arms its
//! own thread around the code it measures, so the tests of this file may
//! run in parallel without polluting each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ostructs_core::{OCell, OMap};

struct CountingAlloc;

thread_local! {
    /// `(allocations, bytes)` while this thread is armed.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

impl CountingAlloc {
    fn count(&self, bytes: usize) {
        // `try_with`: the allocator also runs while thread locals are torn
        // down.
        let _ = COUNT.try_with(|c| {
            if let Some((n, total)) = c.get() {
                c.set(Some((n + 1, total + bytes as u64)));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counter armed; returns what `f` returned
/// and the `(allocations, bytes)` it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let r = f();
    let count = COUNT.with(|c| c.take()).expect("armed");
    (r, count)
}

#[test]
fn warm_map_prune_allocates_nothing() {
    const KEYS: u32 = 1024;
    let map: OMap<u32, u64> = OMap::new();
    for k in 0..KEYS {
        map.insert(k, u64::from(k) + 1, 7).unwrap();
    }
    // Every key holds one live version: nothing to reclaim, nothing to
    // drop, this pass or the next.
    let boundary = u64::from(KEYS) * 2;
    assert_eq!(map.prune_below(boundary), 0);
    let (reclaimed, (allocs, bytes)) = counted(|| map.prune_below(boundary));
    assert_eq!(reclaimed, 0);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "a clean prune pass over {KEYS} cells allocated"
    );
    assert_eq!(map.tracked_keys(), KEYS as usize);
}

#[test]
fn publish_bytes_do_not_grow_with_history_depth() {
    const DEPTH: u64 = 64;
    const STORES: u64 = 16;
    // Both cells hold versions 1..=DEPTH, so their version maps grow
    // alike; only the runs differ: a fresh value per version makes DEPTH
    // runs, one shared value makes a single run.
    let deep = OCell::new();
    let shallow = OCell::new();
    let shared = Arc::new(0u64);
    for v in 1..=DEPTH {
        deep.store_version(v, v).unwrap();
        shallow.store_version_arc(v, Arc::clone(&shared)).unwrap();
    }
    let stores = |cell: &OCell<u64>| {
        let values: Vec<Arc<u64>> = (0..STORES).map(Arc::new).collect();
        let ((), (_, bytes)) = counted(|| {
            for (v, value) in (DEPTH + 1..).zip(values) {
                cell.store_version_arc(v, value).unwrap();
            }
        });
        cell.check_invariants().unwrap();
        bytes
    };
    let (deep_bytes, shallow_bytes) = (stores(&deep), stores(&shallow));
    assert!(
        deep_bytes <= shallow_bytes,
        "{STORES} stores allocated {deep_bytes} B on a {DEPTH}-run cell but \
         {shallow_bytes} B on a 1-run cell"
    );
}
