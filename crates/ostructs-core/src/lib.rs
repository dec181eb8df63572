//! O-structures as a software library: unlimited memory versioning,
//! renaming and fine-grained locking for real threads.
//!
//! This crate is the *software* implementation of the paper's memory
//! interface (§II) — the place the authors themselves started ("we've
//! indeed started with a software prototype", §II-C). It provides:
//!
//! * [`OCell`] — a multi-version memory cell with the six O-structure
//!   operations: `LOAD-VERSION`, `LOAD-LATEST`, `STORE-VERSION`,
//!   `LOCK-LOAD-VERSION`, `LOCK-LOAD-LATEST`, `UNLOCK-VERSION`. Loads of
//!   versions that do not exist yet (or are locked) block the calling
//!   thread; stores and unlocks wake the waiters. Any number of cells and
//!   versions per cell, bounded only by memory.
//! * [`Versioned`] — the Fig. 1 library API (`versioned<T>`): per-task
//!   ergonomic wrappers (`store_ver`, `lock_load_last`, `unlock_ver`)
//!   where the cell remembers which version each task holds locked.
//! * [`map::OMap`] — a sharded, snapshot-isolated concurrent map (one
//!   cell per key, fxhash shard selection, per-shard locks).
//! * [`vacuum`] — the one version reclaimer: a
//!   [`vacuum::ReaderRegistry`] of pinned snapshot caps, and a prune
//!   pass below the oldest live pin with counters surfaced through
//!   `osim-metrics`. [`vacuum::Vacuum`] runs it on a background thread
//!   for free-threaded use.
//! * [`runtime::ORuntime`] — a task-parallel runtime that executes a
//!   sequential list of tasks across worker threads with task-id order.
//!   It is the §III-B garbage collector's setting: each running task pins
//!   its id in the registry, and every few task completions the runtime
//!   runs the same prune pass.
//!
//! Every lock is `std::sync`, taken through one crate-private module
//! that ignores lock poisoning.
//!
//! The cycle-level microarchitectural implementation that the paper's
//! evaluation is based on lives in the `osim-*` crates; this crate is the
//! adoption surface for programs that want O-structure semantics today, at
//! software speed (the paper's observation that software versioning is
//! substantially slower than hardware support still stands — see the
//! `software_cell` bench).

pub mod cell;
pub mod error;
pub mod istructs;
pub mod map;
pub mod metrics;
pub mod runtime;
mod sync;
pub mod vacuum;
pub mod versioned;

pub use cell::OCell;
pub use error::OError;
pub use map::OMap;
pub use metrics::fill_store_registry;
pub use runtime::ORuntime;
pub use vacuum::{
    fill_vacuum_registry, ReaderGuard, ReaderRegistry, Vacuum, VacuumCfg, VacuumStats,
};
pub use versioned::Versioned;

/// A version identifier. Under task-based execution these are task ids, so
/// version order mirrors sequential program order.
pub type Version = u64;

/// A task identifier. `0` is reserved (cells use it internally for
/// "unlocked").
pub type TaskId = u64;
