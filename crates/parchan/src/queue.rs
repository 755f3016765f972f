//! Per-worker lock-free run queue: a fixed-size single-producer /
//! multi-consumer ring plus the unstealable LIFO slot.
//!
//! The layout is the tokio/nexosim idiom (SNIPPETS.md Snippet 3):
//! the owner pushes and pops at the `tail`/`real-head` end with plain
//! stores and a CAS; a thief claims a *batch* of half the ring from
//! the other end with a CAS on the packed head word and copies the
//! slots out before releasing its claim. Zero `Mutex::lock` calls on
//! any path in this module — that is audited by the facade lint's
//! mutex-free rule over `queue.rs` / `injector.rs` / `idle.rs`.
//!
//! ## The packed head word
//!
//! `head` packs two `u32` cursors into one `AtomicU64`:
//!
//! ```text
//!   63            32 31             0
//!   +---------------+---------------+
//!   |     steal     |     real      |
//!   +---------------+---------------+
//! ```
//!
//! * `real` is the logical front: the next slot the owner's `pop`
//!   consumes.
//! * `steal` trails `real` while a thief is mid-copy; slots in
//!   `[steal, real)` are claimed-but-not-yet-copied and must not be
//!   overwritten by `push` (capacity is measured against `steal`).
//! * `steal == real` means no steal is in flight; a thief's claim
//!   CAS requires it, so at most one thief works a victim at a time.
//!
//! All cursors are free-running `u32`s (wrap is harmless: the
//! capacity is a power of two and indices are masked). Orderings are
//! Acquire/Release pairs — slot contents are published by the
//! owner's `tail` release store and by the thief's release of the
//! `steal` cursor; no SeqCst is needed here because the queue never
//! participates in a Dekker-style flag handshake (that lives in
//! `idle.rs`).
//!
//! The steal-claim vs owner-pop race and the publish ordering are
//! model-checked in `crates/check/src/models/steal.rs` (mutants:
//! stale-head steal, publish-before-write).

use crate::sync::{Arc, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

use crate::executor::TaskCell;

/// Ring capacity per worker (power of two). Overflow beyond this
/// spills half the ring to the injector.
pub(crate) const LOCAL_QUEUE_CAP: usize = 256;
const MASK: u32 = (LOCAL_QUEUE_CAP - 1) as u32;

fn pack(steal: u32, real: u32) -> u64 {
    ((steal as u64) << 32) | real as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

struct Slot(UnsafeCell<MaybeUninit<Arc<TaskCell>>>);

/// The fixed-size SPMC ring. Owner-side methods are `unsafe fn`s
/// whose contract is "the calling thread is this ring's worker (or
/// holds otherwise-exclusive access, e.g. the post-join shutdown
/// sweep)" — the executor upholds it via `local_worker()` checks.
pub(crate) struct Ring {
    /// Packed `(steal, real)` cursor pair — see module docs.
    head: AtomicU64,
    /// Back cursor; written only by the owner, read by thieves.
    tail: AtomicU32,
    buffer: Box<[Slot]>,
}

// SAFETY: the raw slot cells are only touched under the cursor
// protocol above — the owner writes `[tail]` before releasing `tail`,
// readers (owner pop / thief copy) read a slot only after claiming
// its index through a head CAS, and capacity checks against `steal`
// keep the owner from overwriting a claimed-but-uncopied slot.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    pub(crate) fn new() -> Ring {
        let buffer = (0..LOCAL_QUEUE_CAP)
            .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
            .collect();
        Ring {
            head: AtomicU64::new(0),
            tail: AtomicU32::new(0),
            buffer,
        }
    }

    /// Approximate occupancy (exact when racing operations quiesce).
    /// Safe from any thread; used by `has_work` re-checks and steal
    /// victim selection.
    pub(crate) fn len(&self) -> usize {
        let (_, real) = unpack(self.head.load(Ordering::Acquire));
        let tail = self.tail.load(Ordering::Acquire);
        tail.wrapping_sub(real) as usize
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes at the back. On a full ring the task is handed back so
    /// the caller can spill to the injector.
    ///
    /// # Safety
    /// Caller must be the owning worker thread (single producer).
    pub(crate) unsafe fn push(&self, task: Arc<TaskCell>) -> Result<(), Arc<TaskCell>> {
        let (steal, _) = unpack(self.head.load(Ordering::Acquire));
        // Owner is the only tail writer, so a relaxed read sees its
        // own latest value.
        let tail = self.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(steal) >= LOCAL_QUEUE_CAP as u32 {
            // Full — counting from `steal`, not `real`: slots still
            // being copied out by a thief must not be reused yet.
            return Err(task);
        }
        let idx = (tail & MASK) as usize;
        // SAFETY: owner thread (this fn's contract), so nobody else
        // writes slots; `[tail]` is outside `[steal, tail)` by the
        // capacity check, so no reader has a claim on it, and it holds
        // no live value (`write` drops nothing).
        unsafe { (*self.buffer[idx].0.get()).write(task) };
        // Release publishes the slot write above to thieves that
        // Acquire-read `tail`.
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Pops from the front (FIFO relative to `push`).
    ///
    /// # Safety
    /// Caller must be the owning worker thread.
    pub(crate) unsafe fn pop(&self) -> Option<Arc<TaskCell>> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (steal, real) = unpack(head);
            let tail = self.tail.load(Ordering::Relaxed);
            if real == tail {
                return None;
            }
            let next_real = real.wrapping_add(1);
            // If no thief is mid-claim the two cursors move together;
            // otherwise only `real` advances and the thief's release
            // CAS will catch `steal` up.
            let next = if steal == real {
                pack(next_real, next_real)
            } else {
                pack(steal, next_real)
            };
            match self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    let idx = (real & MASK) as usize;
                    // SAFETY: the CAS moved `real` past this index, so
                    // it is claimed by us alone (a thief's claim CAS
                    // on the same `head` value failed); `real < tail`
                    // and we are the owner, so our own `push` wrote it.
                    return Some(unsafe { (*self.buffer[idx].0.get()).assume_init_read() });
                }
                Err(h) => head = h,
            }
        }
    }

    /// Steals half of this ring (round up) into `dst`, returning the
    /// first stolen task and how many were taken in the batch.
    /// Returns `None` if the ring is empty or another steal is in
    /// flight (one thief per victim at a time).
    ///
    /// # Safety
    /// Caller must be `dst`'s owning worker thread, and `dst` must
    /// have room for the batch (callers steal only when their own
    /// ring is empty; a batch is at most `LOCAL_QUEUE_CAP / 2`).
    pub(crate) unsafe fn steal_into(&self, dst: &Ring) -> Option<(Arc<TaskCell>, usize)> {
        // Room in `dst` is a lower bound: we are its owner (nobody
        // else pushes) and thieves only free slots. `+ 1` because the
        // first stolen task is returned, not deposited.
        let (dst_steal, _) = unpack(dst.head.load(Ordering::Acquire));
        let dst_tail = dst.tail.load(Ordering::Relaxed);
        let room = LOCAL_QUEUE_CAP as u32 - dst_tail.wrapping_sub(dst_steal) + 1;
        let mut prev = self.head.load(Ordering::Acquire);
        let (claim_start, n) = loop {
            let (steal, real) = unpack(prev);
            if steal != real {
                // Another thief is mid-copy; don't pile on.
                return None;
            }
            let tail = self.tail.load(Ordering::Acquire);
            let avail = tail.wrapping_sub(real);
            let n = (avail - avail / 2).min(room); // half, round up
            if n == 0 {
                return None;
            }
            // Claim `[real, real+n)`: advance `real` (so the owner
            // stops popping these slots) while `steal` pins them
            // against reuse until the copy below finishes. AcqRel:
            // acquires the slot writes published by `tail`, releases
            // nothing yet (the claim itself is invisible to readers
            // of the slots).
            match self.head.compare_exchange(
                prev,
                pack(steal, real.wrapping_add(n)),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break (real, n),
                Err(h) => prev = h,
            }
        };
        // SAFETY: (the three blocks below) the claim CAS gave this
        // thread `[claim_start, claim_start + n)`: the owner's `pop`
        // starts at the advanced `real`, another thief needs `steal ==
        // real`, and `push` counts capacity from `steal`, which stays
        // at `claim_start` until the release loop further down — so each
        // index is read once, by us. The slots are initialised: `n <=
        // tail - real` under an Acquire read of `tail`, which pairs
        // with the Release store in `push`. `dst.push`: the caller is
        // `dst`'s owner (this fn's contract).
        let first = {
            let idx = (claim_start & MASK) as usize;
            unsafe { (*self.buffer[idx].0.get()).assume_init_read() }
        };
        for i in 1..n {
            let idx = (claim_start.wrapping_add(i) & MASK) as usize;
            let t = unsafe { (*self.buffer[idx].0.get()).assume_init_read() };
            // Cannot fail: the batch was capped to `room` above.
            let pushed = unsafe { dst.push(t) };
            debug_assert!(pushed.is_ok(), "steal batch exceeds dst capacity");
        }
        // Release the claim: catch `steal` up to where the batch
        // ended. `real` may have moved (owner pops); keep it.
        // Release ordering publishes "these slots are reusable" to
        // the owner's next capacity check.
        let mut cur = self.head.load(Ordering::Acquire);
        loop {
            let (_, real) = unpack(cur);
            let next = pack(claim_start.wrapping_add(n), real);
            match self
                .head
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(h) => cur = h,
            }
        }
        Some((first, n as usize))
    }

    /// Drains every remaining task. `&mut self` proves exclusivity,
    /// so the owner-side protocol is trivially upheld.
    pub(crate) fn drain(&mut self) -> Vec<Arc<TaskCell>> {
        let mut out = Vec::new();
        // SAFETY: exclusive borrow — no concurrent owner or thief.
        while let Some(t) = unsafe { self.pop() } {
            out.push(t);
        }
        out
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        self.drain();
    }
}

/// The worker's LIFO slot: holds the task that woke most recently so
/// message ping-pong stays cache-hot. Owner-thread-only (never
/// stolen); the `occupied` flag is advisory (read by diagnostics and
/// the owner's own `has_work`).
pub(crate) struct LifoSlot {
    slot: UnsafeCell<Option<Arc<TaskCell>>>,
    occupied: AtomicBool,
}

// SAFETY: `slot` is only accessed by the owning worker thread (or
// under `&mut` exclusivity in `drain`); `occupied` is atomic.
unsafe impl Send for LifoSlot {}
unsafe impl Sync for LifoSlot {}

impl LifoSlot {
    pub(crate) fn new() -> LifoSlot {
        LifoSlot {
            slot: UnsafeCell::new(None),
            occupied: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_occupied(&self) -> bool {
        self.occupied.load(Ordering::Relaxed)
    }

    /// Installs `task`, returning the displaced previous occupant.
    ///
    /// # Safety
    /// Caller must be the owning worker thread.
    pub(crate) unsafe fn put(&self, task: Arc<TaskCell>) -> Option<Arc<TaskCell>> {
        // SAFETY: owner thread (this fn's contract): the slot has no
        // other reader or writer, the atomic flag is only advisory.
        let prev = unsafe { (*self.slot.get()).replace(task) };
        self.occupied.store(true, Ordering::Relaxed);
        prev
    }

    /// Takes the occupant out.
    ///
    /// # Safety
    /// Caller must be the owning worker thread.
    pub(crate) unsafe fn take(&self) -> Option<Arc<TaskCell>> {
        // SAFETY: owner thread, as in `put`.
        let t = unsafe { (*self.slot.get()).take() };
        if t.is_some() {
            self.occupied.store(false, Ordering::Relaxed);
        }
        t
    }
}
