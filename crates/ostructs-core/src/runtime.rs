//! Task-parallel runtime for software O-structures.
//!
//! Mirrors the execution model the paper's garbage collector assumes
//! (§III-B): a sequential program split into tasks whose ids reflect
//! program order, run across worker threads with static assignment, with
//! the runtime obeying the three GC rules — versions are accessed with
//! task ids, the memory system is told when tasks begin and end, and no
//! task is created below the oldest active id.
//!
//! Those rules make a task a reader of the [`crate::vacuum`] registry:
//! task ids are a block taken from the registry's version clock,
//! `TASK-BEGIN` pins the task's id and `TASK-END` drops the pin, so the
//! oldest running task is the watermark. Collection is the same pass the
//! background [`crate::Vacuum`] runs, here triggered by task completions.
//! It is the software rendition of the hardware two-list protocol, which
//! exists because hardware cannot atomically check reachability: it
//! collapses to a single atomic prune under each cell mutex — the
//! `osim-uarch` crate models the full shadowed/pending mechanism.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::vacuum::{Prunable, ReaderGuard, ReaderRegistry, Reclaimer, VacuumStats};
use crate::TaskId;

/// The task runtime.
///
/// ```
/// use ostructs_core::{ORuntime, OCell};
///
/// let rt = ORuntime::new(4);
/// let cell = OCell::with_initial(0, 0u32);
/// rt.track(&cell);
/// let results: Vec<_> = (0..8)
///     .map(|_| {
///         let cell = cell.clone();
///         Box::new(move |tid: u64| {
///             // version = task id (rule 1); the exact load pins the
///             // true dependency on the predecessor task
///             let prev = cell.load_version(tid - 1);
///             cell.store_version(tid, prev + 1).unwrap();
///         }) as Box<dyn FnOnce(u64) + Send>
///     })
///     .collect();
/// rt.run(results);
/// assert_eq!(cell.load_latest(u64::MAX).1, 8);
/// ```
pub struct ORuntime {
    reclaimer: Reclaimer,
    threads: usize,
    /// Run a collection pass every this many task completions
    /// (`None` = only on [`ORuntime::collect_now`]).
    gc_every: Option<u64>,
    /// Task completions so far, for the `gc_every` cadence.
    ends: AtomicU64,
}

impl ORuntime {
    /// A runtime with `threads` workers and GC every 64 task completions.
    pub fn new(threads: usize) -> Self {
        Self::with_gc_interval(threads, Some(64))
    }

    /// A runtime with an explicit collection cadence.
    pub fn with_gc_interval(threads: usize, gc_every: Option<u64>) -> Self {
        ORuntime {
            reclaimer: Reclaimer::new(ReaderRegistry::new()),
            threads: threads.max(1),
            gc_every,
            ends: AtomicU64::new(0),
        }
    }

    /// Registers a cell, a whole [`crate::map::OMap`], or any other
    /// prunable store for garbage collection. Tracking is by weak
    /// reference — dropping the store untracks it.
    pub fn track<S: Prunable>(&self, store: &S) {
        self.reclaimer.track(store);
    }

    /// Collection counters so far; `last_watermark` is the boundary of
    /// the most recent pass (the oldest running task id, or
    /// [`ORuntime::next_tid`] when idle).
    pub fn gc_stats(&self) -> VacuumStats {
        self.reclaimer.stats()
    }

    /// The task id the next [`ORuntime::run`] will start at.
    pub fn next_tid(&self) -> TaskId {
        self.reclaimer.registry().current()
    }

    /// Runs `tasks` to completion. Task `i` gets id `next_tid + i` and runs
    /// on worker `i % threads`; each worker executes its share in order,
    /// and `TASK-END` of one task is reported only after `TASK-BEGIN` of
    /// the worker's next (so a queued task is always protected by an
    /// active lower id — the window can never slide past it).
    pub fn run(&self, tasks: Vec<Box<dyn FnOnce(TaskId) + Send>>) {
        let registry = self.reclaimer.registry();
        let first = registry.take_versions(tasks.len() as TaskId);
        type Queue = Vec<(TaskId, Box<dyn FnOnce(TaskId) + Send>)>;
        let mut queues: Vec<Queue> = (0..self.threads).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            queues[i % self.threads].push((first + i as TaskId, t));
        }
        // Every worker's first task begins before any worker runs, so no
        // early completion can slide the window past a queued task.
        let workers: Vec<(ReaderGuard, Queue)> = queues
            .into_iter()
            .filter_map(|q| Some((registry.pin_at(q.first()?.0), q)))
            .collect();
        std::thread::scope(|scope| {
            for (mut running, queue) in workers {
                scope.spawn(move || {
                    for (tid, body) in queue {
                        if tid != running.cap() {
                            let next = registry.pin_at(tid);
                            self.end_task(std::mem::replace(&mut running, next));
                        }
                        body(tid);
                    }
                    self.end_task(running);
                });
            }
        });
    }

    /// `TASK-END`: drops the task's pin, then runs the cadence's pass.
    fn end_task(&self, task: ReaderGuard) {
        drop(task);
        let ends = self.ends.fetch_add(1, Ordering::Relaxed) + 1;
        if matches!(self.gc_every, Some(n) if ends.is_multiple_of(n.max(1))) {
            self.reclaimer.pass();
        }
    }

    /// Runs one collection pass immediately.
    pub fn collect_now(&self) {
        self.reclaimer.pass();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::OCell;
    use crate::sync::Mutex;
    use std::sync::Arc;

    #[test]
    fn tasks_get_sequential_ids_and_all_run() {
        let rt = ORuntime::new(4);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..16)
            .map(|_| {
                let seen = Arc::clone(&seen);
                Box::new(move |tid: TaskId| {
                    seen.lock().push(tid);
                }) as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        let mut ids = seen.lock().clone();
        ids.sort_unstable();
        assert_eq!(ids, (1..=16).collect::<Vec<_>>());
        assert_eq!(rt.next_tid(), 17);
    }

    #[test]
    fn producer_consumer_pipeline() {
        let rt = ORuntime::new(4);
        let cell = OCell::with_initial(0, 0u64);
        rt.track(&cell);
        let total = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..32)
            .map(|_| {
                let cell = cell.clone();
                let total = Arc::clone(&total);
                Box::new(move |tid: TaskId| {
                    let prev = cell.load_version(tid - 1);
                    cell.store_version(tid, prev + 1).unwrap();
                    total.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        assert_eq!(total.load(Ordering::Relaxed), 32);
        // Chained increments must be fully ordered.
        assert_eq!(cell.load_latest(u64::MAX), (32, 32));
    }

    #[test]
    fn gc_reclaims_old_versions() {
        let rt = ORuntime::with_gc_interval(2, Some(8));
        let cell = OCell::with_initial(0, 0u64);
        rt.track(&cell);
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = (0..64)
            .map(|_| {
                let cell = cell.clone();
                Box::new(move |tid: TaskId| {
                    let prev = cell.load_version(tid - 1);
                    cell.store_version(tid, prev + 1).unwrap();
                }) as Box<dyn FnOnce(TaskId) + Send>
            })
            .collect();
        rt.run(tasks);
        rt.collect_now();
        let stats = rt.gc_stats();
        assert!(stats.passes >= 8, "{stats:?}");
        assert!(stats.reclaimed >= 56, "{stats:?}");
        assert_eq!(cell.version_count(), 1, "only the newest version survives");
        assert_eq!(cell.load_latest(u64::MAX), (64, 64));
    }

    #[test]
    fn gc_never_breaks_active_readers() {
        // A slow low-id reader pins its snapshot while later writers churn.
        let rt = Arc::new(ORuntime::with_gc_interval(4, Some(1)));
        let cell = OCell::with_initial(0, 100u64);
        rt.track(&cell);
        let mut tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> = Vec::new();
        // Task 1: slow reader with cap 0 (sees the initial value). It waits
        // until the other three workers have finished their 24 writers,
        // each end running a pass, so every pass ran while task 1 was the
        // oldest running task.
        {
            let cell = cell.clone();
            let rt = Arc::clone(&rt);
            tasks.push(Box::new(move |tid: TaskId| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while rt.gc_stats().passes < 24 {
                    assert!(std::time::Instant::now() < deadline, "writers stalled");
                    std::thread::yield_now();
                }
                assert_eq!(rt.gc_stats().last_watermark, tid, "the running task pins");
                let (v, val) = cell.load_latest(tid - 1);
                assert_eq!((v, val), (0, 100), "snapshot survived the churn");
            }));
        }
        // Tasks 2..32: writers that trigger collection constantly.
        for _ in 0..31 {
            let cell = cell.clone();
            tasks.push(Box::new(move |tid: TaskId| {
                cell.store_version(tid, tid).unwrap();
            }));
        }
        rt.run(tasks);
        rt.collect_now();
        assert_eq!(rt.gc_stats().last_watermark, rt.next_tid(), "idle: next id");
    }

    #[test]
    fn manual_collection_with_no_tasks_uses_next_tid() {
        let rt = ORuntime::with_gc_interval(1, None);
        let cell = OCell::with_initial(0, 1u32);
        for v in 1..=5u64 {
            cell.store_version(v, v as u32).unwrap();
        }
        rt.track(&cell);
        rt.collect_now();
        // next_tid is 1, so the newest version ≤ 1 (version 1) is kept along
        // with everything newer.
        assert_eq!(rt.gc_stats().last_watermark, 1);
        assert_eq!(cell.versions(), vec![1, 2, 3, 4, 5]);
        // After running tasks the boundary advances.
        let tasks: Vec<Box<dyn FnOnce(TaskId) + Send>> =
            vec![Box::new(|_| {}), Box::new(|_| {}), Box::new(|_| {})];
        rt.run(tasks);
        rt.collect_now();
        assert_eq!(rt.gc_stats().last_watermark, rt.next_tid());
        assert_eq!(rt.next_tid(), 4);
        assert_eq!(cell.versions(), vec![4, 5]);
    }

    #[test]
    fn dropped_cells_are_untracked() {
        let rt = ORuntime::with_gc_interval(1, None);
        {
            let cell = OCell::with_initial(0, 0u32);
            rt.track(&cell);
        }
        rt.collect_now(); // must not panic on the dead weak ref
        assert_eq!(rt.gc_stats().passes, 1);
    }
}
