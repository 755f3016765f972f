//! The global lock-free injector: overflow from full local rings and
//! spawns/wakes from off-pool threads (`block_on` callers, the timer
//! thread).
//!
//! An intrusive Treiber stack over `TaskCell::next_injected`: `push`
//! leaks the `Arc` into a raw pointer and CASes it onto `head` —
//! **zero allocation**, which is what keeps the warm pipelined-
//! syscall path at one allocation a call (`tests/zero_alloc.rs`: every
//! off-pool wake of the server task goes through here). Consumers
//! take the *whole* stack with one `swap` and reverse it in place,
//! so each take yields one FIFO **burst** (the "bucket" granularity:
//! `sched.injector_bursts` counts these). Tasks a burst cannot fit
//! into the taker's local ring are spliced back with a single CAS as
//! a pre-linked chain.
//!
//! ABA is a non-issue: a node (TaskCell) can only be in one queue at
//! a time (`SCHEDULED` state exclusivity), and a popped node is only
//! re-pushed through the same ownership transfer, so a head pointer
//! seen twice still has a `next_injected` we wrote ourselves.
//!
//! The executor instantiates this type twice: the normal injector
//! described above, and the **high-priority lane** that
//! `Priority::High` spawns/wakes route through (checked before any
//! local queue on every dispatch — see the executor's `take_hi`).
//!
//! Zero `Mutex::lock` calls in this module (audited by the facade
//! lint's mutex-free rule).

// chanos-lint: allow — `AtomicPtr` comes from `std::sync::atomic`
// directly rather than the facade: the chanos-check shim wraps value
// atomics only (pointers aren't schedule points it models; the
// injector's push/take protocol is modeled separately in
// `check/src/models/steal.rs` at the value level).
use std::sync::atomic::AtomicPtr;

use crate::executor::TaskCell;
use crate::sync::{Arc, Ordering};

pub(crate) struct Injector {
    head: AtomicPtr<TaskCell>,
}

// SAFETY: the raw pointers are `Arc::into_raw` of `Send + Sync` task
// cells; ownership transfers atomically through the head CAS.
unsafe impl Send for Injector {}
unsafe impl Sync for Injector {}

impl Injector {
    pub(crate) fn new() -> Injector {
        Injector {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Cheap emptiness probe for `has_work` re-checks.
    pub(crate) fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire).is_null()
    }

    /// Pushes one task. Allocation-free: the `Arc` itself becomes the
    /// queue node.
    pub(crate) fn push(&self, task: Arc<TaskCell>) {
        let ptr = Arc::into_raw(task) as *mut TaskCell;
        let mut cur = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: we own `ptr` until the CAS below succeeds.
            unsafe { (*ptr).next_injected.store(cur, Ordering::Relaxed) };
            // Release publishes the `next_injected` link (and the
            // push itself) to the consumer's Acquire swap.
            match self
                .head
                .compare_exchange(cur, ptr, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(h) => cur = h,
            }
        }
    }

    /// Splices a pre-linked chain (head `first` .. tail `last`, linked
    /// through `next_injected`) in one CAS. Used by ring overflow to
    /// spill half a local queue, and by `Burst::put_back`.
    ///
    /// # Safety
    /// `first..last` must be a valid chain of leaked `Arc`s owned by
    /// the caller, `last`'s next link writable.
    unsafe fn push_chain(&self, first: *mut TaskCell, last: *mut TaskCell) {
        let mut cur = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: the chain is the caller's until the CAS below
            // publishes it (this fn's contract), so `last` is a live
            // `TaskCell` whose link nobody else reads yet.
            unsafe { (*last).next_injected.store(cur, Ordering::Relaxed) };
            match self
                .head
                .compare_exchange(cur, first, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(h) => cur = h,
            }
        }
    }

    /// Pushes a whole batch (FIFO order: `tasks[0]` should come out
    /// first) as one pre-linked chain with a single CAS. Used by ring
    /// overflow to spill half a local queue.
    pub(crate) fn push_batch(&self, tasks: Vec<Arc<TaskCell>>) {
        // Build the chain newest-at-head so the next `take_all`'s
        // reversal yields `tasks[0]` first.
        let mut head: *mut TaskCell = std::ptr::null_mut();
        let mut tail: *mut TaskCell = std::ptr::null_mut();
        for t in tasks {
            let ptr = Arc::into_raw(t) as *mut TaskCell;
            // SAFETY: we own `ptr` until the splice below.
            unsafe { (*ptr).next_injected.store(head, Ordering::Relaxed) };
            if tail.is_null() {
                tail = ptr;
            }
            head = ptr;
        }
        if head.is_null() {
            return;
        }
        // SAFETY: `head..tail` is the chain we just linked.
        unsafe { self.push_chain(head, tail) };
    }

    /// Takes everything in one swap and reverses the chain in place,
    /// yielding a FIFO [`Burst`] (oldest push first). Returns `None`
    /// when empty.
    pub(crate) fn take_all(&self) -> Option<Burst> {
        let top = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        if top.is_null() {
            return None;
        }
        // Reverse: `top` is the newest push; walk the chain flipping
        // links so the oldest comes out first.
        let mut prev: *mut TaskCell = std::ptr::null_mut();
        let mut cur = top;
        while !cur.is_null() {
            // SAFETY: we own the whole detached chain after the swap.
            let next = unsafe { (*cur).next_injected.load(Ordering::Relaxed) };
            unsafe { (*cur).next_injected.store(prev, Ordering::Relaxed) };
            prev = cur;
            cur = next;
        }
        Some(Burst { head: prev })
    }
}

impl Drop for Injector {
    fn drop(&mut self) {
        drop(self.take_all());
    }
}

/// One take-all's worth of injector tasks in FIFO order. Owns the
/// chain: dropping a non-empty burst releases the remaining refs.
pub(crate) struct Burst {
    head: *mut TaskCell,
}

// SAFETY: exclusive owner of a detached chain of leaked `Arc`s.
unsafe impl Send for Burst {}

impl Burst {
    /// Remaining chain length (O(n) walk; only used on the rare
    /// ring-overflow path for counter bookkeeping).
    pub(crate) fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head;
        while !cur.is_null() {
            n += 1;
            // SAFETY: exclusive chain walk.
            cur = unsafe { (*cur).next_injected.load(Ordering::Relaxed) };
        }
        n
    }

    pub(crate) fn pop(&mut self) -> Option<Arc<TaskCell>> {
        if self.head.is_null() {
            return None;
        }
        let ptr = self.head;
        // SAFETY: we own the chain; `ptr` came from `Arc::into_raw`.
        self.head = unsafe { (*ptr).next_injected.load(Ordering::Relaxed) };
        Some(unsafe { Arc::from_raw(ptr) })
    }

    /// Returns the remaining chain to `inj` with a single CAS. The
    /// chain is re-reversed while walking it so the *next* `take_all`
    /// (which reverses again) yields these leftovers in their
    /// original relative order. Interleaving with concurrent pushes
    /// is best-effort FIFO — `INJECTOR_INTERVAL` bounds starvation
    /// regardless.
    pub(crate) fn put_back(mut self, inj: &Injector) {
        if self.head.is_null() {
            return;
        }
        // SAFETY: exclusive chain walk; links are flipped in place.
        unsafe {
            let oldest = self.head; // becomes the chain tail (stack bottom)
            let mut prev: *mut TaskCell = std::ptr::null_mut();
            let mut cur = self.head;
            while !cur.is_null() {
                let next = (*cur).next_injected.load(Ordering::Relaxed);
                (*cur).next_injected.store(prev, Ordering::Relaxed);
                prev = cur;
                cur = next;
            }
            self.head = std::ptr::null_mut();
            inj.push_chain(prev, oldest);
        }
    }
}

impl Drop for Burst {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}
