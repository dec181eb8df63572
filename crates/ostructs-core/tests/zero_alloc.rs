//! Proof that a committed read allocates nothing once warm: a pin on the
//! reader registry, an `OMap::get_arc` under its cap, and the unpin. Each
//! read pins a cap no earlier read pinned, since a writer's version
//! allocation sits between every two reads.
//!
//! A counting `#[global_allocator]` is armed after a warm-up (the thread's
//! stripe chosen, its pin list sized) and disarmed before teardown; the
//! count inside the window must be exactly zero. This file holds a single
//! test and starts no other thread, so nothing else can pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ostructs_core::{OMap, ReaderRegistry};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    fn count(&self) {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn pinned_reads_are_allocation_free() {
    const KEYS: u32 = 64;
    const READS: u32 = 10_000;

    let reg = ReaderRegistry::new();
    let map = OMap::new();
    for k in 0..KEYS {
        let v = reg.next_version();
        map.insert(k, v, v).unwrap();
    }
    let read = |k: u32| {
        let guard = reg.pin();
        let cap = guard.cap();
        let got = map.get_arc(&k, cap).map(|v| *v);
        drop(guard);
        matches!(got, Some(v) if v <= cap)
    };
    for k in 0..KEYS {
        assert!(read(k), "warm-up read of key {k}");
    }

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut ok = 0u32;
    for i in 0..READS {
        reg.next_version();
        ok += u32::from(read(i % KEYS));
    }
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(ok, READS, "every read finds its key at or below its cap");
    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "pin -> get_arc -> unpin allocated"
    );
    assert_eq!(reg.live_readers(), 0);
}
