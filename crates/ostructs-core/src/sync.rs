//! The crate's locks: `std::sync` behind one door.
//!
//! Every mutex, reader-writer lock and condition variable in this crate
//! is one of these thin wrappers, for two reasons:
//!
//! * **No poisoning.** A panic while a lock is held (a user `T::clone` or
//!   `Drop` running under a cell's mutex, say) must not turn every later
//!   operation on that cell into a panic. Each critical section in the
//!   crate leaves its data valid at every step — a panicking clone runs
//!   before the state it guards is touched — so the guard is recovered
//!   from the poison error and used as is.
//! * **One swap point.** Tools that explore thread interleavings by
//!   replacing the lock primitives only need to change this module.

use std::sync::{self, PoisonError, TryLockError};
use std::time::Instant;

pub(crate) use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock that ignores poisoning.
pub(crate) struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock that ignores poisoning.
pub(crate) struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub(crate) fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// `None` only when the lock is held elsewhere.
    pub(crate) fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// `None` only when the lock is held elsewhere.
    pub(crate) fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// A condition variable over [`Mutex`] guards that ignores poisoning.
pub(crate) struct Condvar(sync::Condvar);

impl Condvar {
    pub(crate) fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits for a notification or `deadline`; the flag is true when the
    /// deadline passed.
    pub(crate) fn wait_until<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool) {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (guard, result) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (guard, result.timed_out())
    }

    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}
