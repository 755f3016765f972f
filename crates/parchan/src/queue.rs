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
//! The steal-claim vs owner-pop race, the publish ordering and the fill
//! path are model-checked on this code at capacity 2 (`--lib queue`),
//! where a slot read twice or before it is written panics.

use crate::sync::{Arc, AtomicBool, AtomicU32, AtomicU64, Ordering, ValueCell};
use std::cell::UnsafeCell;

use crate::executor::TaskCell;

/// Ring capacity per worker (power of two). Overflow beyond this
/// spills half the ring to the injector.
pub(crate) const LOCAL_QUEUE_CAP: usize = 256;

fn pack(steal: u32, real: u32) -> u64 {
    ((steal as u64) << 32) | real as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// The fixed-size SPMC ring of `CAP` slots (a power of two).
/// Owner-side methods are `unsafe fn`s whose contract is "the calling
/// thread is this ring's worker (or holds otherwise-exclusive access,
/// e.g. the post-join shutdown sweep)" — the executor upholds it via
/// `local_worker()` checks.
pub(crate) struct Ring<const CAP: usize = LOCAL_QUEUE_CAP> {
    /// Packed `(steal, real)` cursor pair — see module docs.
    head: AtomicU64,
    /// Back cursor; written only by the owner, read by thieves.
    tail: AtomicU32,
    buffer: Box<[ValueCell<Arc<TaskCell>>]>,
}

// SAFETY: the raw slot cells are only touched under the cursor
// protocol above — the owner writes `[tail]` before releasing `tail`,
// readers (owner pop / thief copy) read a slot only after claiming
// its index through a head CAS, and capacity checks against `steal`
// keep the owner from overwriting a claimed-but-uncopied slot.
unsafe impl<const CAP: usize> Send for Ring<CAP> {}
unsafe impl<const CAP: usize> Sync for Ring<CAP> {}

impl<const CAP: usize> Ring<CAP> {
    const MASK: u32 = (CAP - 1) as u32;

    pub(crate) fn new() -> Ring<CAP> {
        assert!(CAP.is_power_of_two() && CAP <= 1 << 31);
        let buffer = (0..CAP).map(|_| ValueCell::new()).collect();
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
        if tail.wrapping_sub(steal) >= CAP as u32 {
            // Full — counting from `steal`, not `real`: slots still
            // being copied out by a thief must not be reused yet.
            return Err(task);
        }
        let idx = (tail & Self::MASK) as usize;
        // SAFETY: owner thread (this fn's contract), so nobody else
        // writes slots; `[tail]` is outside `[steal, tail)` by the
        // capacity check, so no reader has a claim on it, and it is
        // empty (its last value was taken by the pop or steal that
        // moved `steal` past it).
        unsafe { self.buffer[idx].put(task) };
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
                    let idx = (real & Self::MASK) as usize;
                    // SAFETY: the CAS moved `real` past this index, so
                    // it is claimed by us alone (a thief's claim CAS
                    // on the same `head` value failed); `real < tail`
                    // and we are the owner, so our own `push` filled it.
                    return Some(unsafe { self.buffer[idx].take() });
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
    /// Caller must be `dst`'s owning worker thread. The batch is capped
    /// by `dst`'s room, so a full `dst` takes just the returned task.
    pub(crate) unsafe fn steal_into(&self, dst: &Ring<CAP>) -> Option<(Arc<TaskCell>, usize)> {
        // Room in `dst` is a lower bound: we are its owner (nobody
        // else pushes) and thieves only free slots. `+ 1` because the
        // first stolen task is returned, not deposited.
        let (dst_steal, _) = unpack(dst.head.load(Ordering::Acquire));
        let dst_tail = dst.tail.load(Ordering::Relaxed);
        let room = CAP as u32 - dst_tail.wrapping_sub(dst_steal) + 1;
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
        // index is read once, by us. The slots are full: `n <= tail -
        // real` under an Acquire read of `tail`, which pairs with the
        // Release store in `push`. `dst.push`: the caller is `dst`'s
        // owner (this fn's contract).
        let first = {
            let idx = (claim_start & Self::MASK) as usize;
            unsafe { self.buffer[idx].take() }
        };
        for i in 1..n {
            let idx = (claim_start.wrapping_add(i) & Self::MASK) as usize;
            let t = unsafe { self.buffer[idx].take() };
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

impl<const CAP: usize> Drop for Ring<CAP> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cells<const N: usize>() -> [Arc<TaskCell>; N] {
        std::array::from_fn(|_| TaskCell::detached())
    }

    /// Which of `of` each task is, by cell identity.
    fn ids(tasks: &[Arc<TaskCell>], of: &[Arc<TaskCell>]) -> Vec<usize> {
        tasks
            .iter()
            .map(|t| {
                of.iter()
                    .position(|c| Arc::ptr_eq(c, t))
                    .expect("known cell")
            })
            .collect()
    }

    // SAFETY: (the three helpers) every ring in these tests is pushed
    // to, popped from and stolen into only by the thread that made it,
    // which is therefore its owner.
    fn push<const C: usize>(q: &Ring<C>, t: Arc<TaskCell>) -> Result<(), Arc<TaskCell>> {
        unsafe { q.push(t) }
    }
    fn pop<const C: usize>(q: &Ring<C>) -> Option<Arc<TaskCell>> {
        unsafe { q.pop() }
    }
    fn steal<const C: usize>(from: &Ring<C>, to: &Ring<C>) -> Option<(Arc<TaskCell>, usize)> {
        unsafe { from.steal_into(to) }
    }

    #[test]
    fn pops_come_out_in_push_order() {
        let cs = cells::<6>();
        let q = Ring::<4>::new();
        let mut out = Vec::new();
        // Six through four slots: the cursors pass the end of the ring.
        for c in &cs[..4] {
            assert!(push(&q, c.clone()).is_ok());
        }
        out.extend(pop(&q));
        out.extend(pop(&q));
        for c in &cs[4..] {
            assert!(push(&q, c.clone()).is_ok());
        }
        assert_eq!(q.len(), 4);
        while let Some(t) = pop(&q) {
            out.push(t);
        }
        assert_eq!(ids(&out, &cs), [0, 1, 2, 3, 4, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_push_into_a_full_ring_hands_the_task_back() {
        let cs = cells::<3>();
        let q = Ring::<2>::new();
        assert!(push(&q, cs[0].clone()).is_ok());
        assert!(push(&q, cs[1].clone()).is_ok());
        let back = push(&q, cs[2].clone()).expect_err("the ring is full");
        assert!(Arc::ptr_eq(&back, &cs[2]));
        assert_eq!(ids(&[pop(&q).expect("oldest")], &cs), [0]);
        assert!(push(&q, back).is_ok());
    }

    #[test]
    fn a_steal_takes_half_rounded_up_and_at_most_the_thiefs_room() {
        let cs = cells::<8>();
        let (victim, thief) = (Ring::<8>::new(), Ring::<8>::new());
        for c in &cs[..5] {
            assert!(push(&victim, c.clone()).is_ok());
        }
        // Five queued: three stolen, the first returned, two deposited.
        let (first, n) = steal(&victim, &thief).expect("five queued");
        assert_eq!((ids(&[first], &cs), n), (vec![0], 3));
        assert_eq!((victim.len(), thief.len()), (2, 2));
        // Five queued again, and a thief with one free slot: it takes
        // two of the three, one for the slot and the one it returns.
        for c in &cs[5..] {
            assert!(push(&victim, c.clone()).is_ok());
        }
        let full = Ring::<8>::new();
        for c in cells::<7>() {
            assert!(push(&full, c).is_ok());
        }
        let (first, n) = steal(&victim, &full).expect("five queued");
        assert_eq!((ids(&[first], &cs), n), (vec![3], 2));
        assert_eq!((victim.len(), full.len()), (3, 8));
        assert!(
            steal(&Ring::<8>::new(), &thief).is_none(),
            "an empty victim"
        );
    }

    #[test]
    fn a_dropped_ring_releases_every_task() {
        let cs = cells::<3>();
        let (victim, thief) = (Ring::<4>::new(), Ring::<4>::new());
        for c in &cs {
            assert!(push(&victim, c.clone()).is_ok());
        }
        let (first, _) = steal(&victim, &thief).expect("three queued");
        drop(first);
        drop((victim, thief));
        for c in &cs {
            assert_eq!(Arc::strong_count(c), 1);
        }
    }

    /// The owner pushes three tasks through a 2-slot ring, popping to
    /// make room, while a thief steals into a ring of its own and
    /// drains it. At two slots the fill path is in reach: `push`
    /// counting capacity from `steal`, and `steal` pinned while the
    /// thief copies. Every task must come out exactly once.
    #[cfg(feature = "chanos_check")]
    #[test]
    fn a_thief_and_the_owner_take_each_task_once() {
        use chanos_check::{thread, Config, Explorer};
        let model = || {
            let cs = cells::<3>();
            let q = Arc::new(Ring::<2>::new());
            let thief = {
                let q = q.clone();
                thread::spawn(move || {
                    let mut mine = Ring::<2>::new();
                    let mut got: Vec<_> = steal(&q, &mine).map(|(t, _)| t).into_iter().collect();
                    got.extend(mine.drain());
                    got
                })
            };
            let mut got = Vec::new();
            for c in &cs {
                let mut t = c.clone();
                while let Err(back) = push(&q, t) {
                    t = back;
                    // Full but empty: a steal is mid-copy.
                    match pop(&q) {
                        Some(x) => got.push(x),
                        None => thread::yield_now(),
                    }
                }
            }
            got.extend(std::iter::from_fn(|| pop(&q)));
            got.extend(thief.join());
            let mut seen = ids(&got, &cs);
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 2], "a task was lost or taken twice");
        };
        let explorer = Explorer::new(Config {
            max_preemptions: 3,
            ..Config::default()
        });
        let report = explorer.check(model);
        if let Some(failure) = &report.failure {
            eprintln!("caught after {} schedules: {failure}", report.schedules);
            for _ in 0..2 {
                let again = explorer.replay(&failure.schedule, model);
                assert_eq!(
                    again.map(|f| f.kind),
                    Some(failure.kind.clone()),
                    "{failure} does not replay"
                );
            }
        }
        report.assert_ok();
        eprintln!(
            "verified at bound 3: {} schedules, {} pruned",
            report.schedules, report.pruned
        );
    }
}
