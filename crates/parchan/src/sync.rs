//! The one `use` line the lock-free core switches on.
//!
//! `chan.rs`, `oneshot.rs`, `executor.rs`, `injector.rs`, and
//! `timer.rs` import their atomics, mutexes, and condvars from here
//! instead of `std::sync`, and the executor its worker threads, its
//! `block_on` park and its `catch_unwind`. The slots in which
//! `queue.rs`'s ring and the oneshot hand a value from one thread to
//! another are a [`ValueCell`] from here too. The
//! module is public so that code above parchan flips with it:
//! chanos-nr takes its atomics, `Mutex`, `RwLock` and `spin_loop` from
//! here, as `rt::sync`. In a normal build these re-exports *are* `std`
//! — zero cost, zero behavior change. Under `--features chanos_check`
//! the same names resolve to the `chanos-check` shim types, whose
//! every operation yields to a model-checking scheduler when the
//! calling thread belongs to an explorer execution (and passes through
//! to `std` otherwise): a `Runtime` made inside a model runs its
//! workers as model threads.
//!
//! Keep the split surgical: only the types whose operations are
//! *interleaving points* come from the shim. `Arc`, `Weak`, and
//! `OnceLock` are always `std` (refcounting and one-time init are
//! not schedules the checker explores), as are `Instant` and the
//! timer thread (`timer.rs` spawns its own `std` thread, so a check
//! uses no `sleep`/`after`).

#[cfg(not(feature = "chanos_check"))]
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
};
#[cfg(not(feature = "chanos_check"))]
pub use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockWriteGuard};
#[cfg(not(feature = "chanos_check"))]
pub use std::{hint::spin_loop, panic::catch_unwind, thread};

#[cfg(feature = "chanos_check")]
pub(crate) use chanos_check::sync::ValueCell;
#[cfg(feature = "chanos_check")]
pub use chanos_check::sync::{
    catch_unwind, fence, spin_loop, thread, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8,
    AtomicUsize, Condvar, Mutex, MutexGuard, RwLock, RwLockWriteGuard,
};

/// A value slot a protocol's atomics hand between threads (a cell
/// dropped full leaks); under `chanos_check`, the shim's checked cell.
#[cfg(not(feature = "chanos_check"))]
pub(crate) struct ValueCell<T>(std::cell::UnsafeCell<std::mem::MaybeUninit<T>>);

#[cfg(not(feature = "chanos_check"))]
impl<T> ValueCell<T> {
    pub(crate) const fn new() -> Self {
        ValueCell(std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit()))
    }

    /// # Safety
    /// The caller has exclusive access to the cell, and it is empty.
    pub(crate) unsafe fn put(&self, v: T) {
        // SAFETY: this fn's contract; `write` drops nothing.
        unsafe { (*self.0.get()).write(v) };
    }

    /// # Safety
    /// The caller has exclusive access to the cell, and it is full.
    pub(crate) unsafe fn take(&self) -> T {
        // SAFETY: this fn's contract; the read leaves the cell empty.
        unsafe { (*self.0.get()).assume_init_read() }
    }
}

pub use std::sync::atomic::Ordering;
pub use std::sync::{Arc, OnceLock, Weak};
