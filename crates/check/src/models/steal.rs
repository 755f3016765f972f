//! Models of the work-stealing scheduler's two lock-free protocols:
//! the owner-pop vs stealer-batch-claim race on the packed-head ring,
//! and the idle-bitmask / searching-count park handshake.
//!
//! mirrors: `parchan/src/queue.rs` — `Ring::push`, `Ring::pop`,
//! `Ring::steal_into`; `parchan/src/idle.rs` + `executor.rs` —
//! `IdleSet::{start_search,end_search,register,deregister,claim}`,
//! `RtInner::notify_work`, `worker_loop`'s park tail.
//!
//! As in the ring model, slot values live in atomics with `0` as the
//! "uninitialized" sentinel: reading a `0` out of a claimed slot is
//! the read-before-publish (or double-claim) bug surfacing as an
//! assertion instead of UB. The idle-mask model's lost wakes surface
//! as the checker's built-in parked-forever deadlock.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{fence, AtomicUsize};
use crate::thread;

/// Seeded bugs for [`steal_model`] and [`idle_mask_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The shipping protocols.
    None,
    /// Stealer claims its batch with a plain store computed from a
    /// possibly-stale head instead of a CAS: an owner pop that lands
    /// between the stealer's read and its store is overwritten, and
    /// the same slot is consumed twice (while another is never
    /// consumed at all).
    StaleHeadSteal,
    /// Owner publishes `tail` before writing the slot: a thief that
    /// acquires the new tail can batch-claim and read the slot before
    /// the value lands.
    PublishBeforeWrite,
    /// Producer scans `searching`/the idle mask *before* publishing
    /// work: a worker that registers and re-checks between the scan
    /// and the publish sleeps through the wake.
    ScanBeforePublish,
    /// Worker parks without the post-register re-check: work published
    /// just before its mask bit appeared is seen by neither side.
    NoRecheck,
    /// Worker registers idle without first clearing its `searching`
    /// increment: every later producer sees `searching > 0` and elides
    /// its wake forever.
    LostSearchingClear,
    /// Worker consumes a wake token without withdrawing its
    /// registration. A token left over from a claim that raced a
    /// self-rescue ends the *next* park at once, with the bit that park
    /// just set still up: the worker runs tasks while the mask says
    /// idle, and a producer's claim spends a wake on it.
    StaleTokenKeepsBit,
}

// --- the packed-head SPMC ring ------------------------------------------

const CAP: usize = 2;
const MASK: usize = CAP - 1;

/// `head` packs `(steal, real)` as `steal * 256 + real` (cursors stay
/// tiny in the model, so a byte each is plenty). `steal == real` means
/// no steal in flight; a thief's claim CAS requires it, exactly as in
/// `queue.rs`.
fn pack(steal: usize, real: usize) -> usize {
    steal * 256 + real
}

fn unpack(v: usize) -> (usize, usize) {
    (v / 256, v % 256)
}

/// A 2-slot miniature of `queue.rs::Ring`: same packed head word, same
/// owner-only tail, values in sentinel-checked atomics.
pub struct MSteal {
    head: AtomicUsize,
    tail: AtomicUsize,
    slots: [AtomicUsize; CAP],
}

impl Default for MSteal {
    fn default() -> Self {
        Self::new()
    }
}

impl MSteal {
    pub fn new() -> MSteal {
        MSteal {
            head: AtomicUsize::new(pack(0, 0)),
            tail: AtomicUsize::new(0),
            slots: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    /// Owner push; `false` means full (capacity measured against
    /// `steal`, so claimed-but-uncopied slots are not reused).
    pub fn push(&self, v: usize, mutant: Mutant) -> bool {
        assert_ne!(v, 0, "0 is the model's uninitialized sentinel");
        let (steal, _) = unpack(self.head.load(Ordering::Acquire));
        let tail = self.tail.load(Ordering::Relaxed);
        if tail - steal >= CAP {
            return false;
        }
        if mutant == Mutant::PublishBeforeWrite {
            // BUG (seeded): tail visible before the slot value.
            self.tail.store(tail + 1, Ordering::Release);
            self.slots[tail & MASK].store(v, Ordering::Relaxed);
        } else {
            self.slots[tail & MASK].store(v, Ordering::Relaxed);
            self.tail.store(tail + 1, Ordering::Release);
        }
        true
    }

    /// Owner pop: advance `real` by CAS; `steal` moves with it only
    /// when no thief is mid-claim.
    pub fn pop(&self) -> Option<usize> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let (steal, real) = unpack(head);
            let tail = self.tail.load(Ordering::Relaxed);
            if real == tail {
                return None;
            }
            let next = if steal == real {
                pack(real + 1, real + 1)
            } else {
                pack(steal, real + 1)
            };
            match self
                .head
                .compare_exchange(head, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    let v = self.slots[real & MASK].swap(0, Ordering::Relaxed);
                    assert_ne!(v, 0, "owner popped an unpublished or stolen slot");
                    return Some(v);
                }
                Err(h) => head = h,
            }
        }
    }

    /// Thief batch-claim: CAS `real` forward by half (round up) while
    /// `steal` pins the claimed slots, copy them out, then release the
    /// claim by catching `steal` up.
    pub fn steal_batch(&self, mutant: Mutant) -> Vec<usize> {
        let mut prev = self.head.load(Ordering::Acquire);
        let (start, n) = loop {
            let (steal, real) = unpack(prev);
            if steal != real {
                // Another thief is mid-copy; don't pile on.
                return Vec::new();
            }
            let tail = self.tail.load(Ordering::Acquire);
            let avail = tail - real;
            let n = avail - avail / 2; // half, round up
            if n == 0 {
                return Vec::new();
            }
            if mutant == Mutant::StaleHeadSteal {
                // BUG (seeded): claim with a plain store — no
                // exclusivity against a concurrent owner pop.
                self.head.store(pack(steal, real + n), Ordering::SeqCst);
                break (real, n);
            }
            match self.head.compare_exchange(
                prev,
                pack(steal, real + n),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break (real, n),
                Err(h) => prev = h,
            }
        };
        let mut out = Vec::new();
        for i in 0..n {
            let v = self.slots[(start + i) & MASK].swap(0, Ordering::Relaxed);
            assert_ne!(v, 0, "thief claimed an unpublished or double-claimed slot");
            out.push(v);
        }
        // Release the claim: catch `steal` up to the batch end; `real`
        // may have moved under owner pops, keep it.
        let mut cur = self.head.load(Ordering::Acquire);
        loop {
            let (_, real) = unpack(cur);
            match self.head.compare_exchange(
                cur,
                pack(start + n, real),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(h) => cur = h,
            }
        }
        out
    }
}

/// The owner (model root) pushes `1, 2, 3` through the 2-slot ring —
/// popping to make room when full — while a thief batch-claims
/// concurrently. Every schedule must consume each task exactly once:
/// duplication trips a slot sentinel, loss trips the final multiset
/// check.
pub fn steal_model(mutant: Mutant) {
    let q = Arc::new(MSteal::new());
    let q2 = q.clone();
    let thief = thread::spawn(move || q2.steal_batch(mutant));
    let mut got = Vec::new();
    for v in 1..=3usize {
        while !q.push(v, mutant) {
            match q.pop() {
                Some(x) => got.push(x),
                None => thread::yield_now(), // full but empty: steal in flight
            }
        }
    }
    while let Some(v) = q.pop() {
        got.push(v);
    }
    got.extend(thief.join());
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3], "steal lost or duplicated a task");
}

// --- the idle-bitmask park handshake ------------------------------------

struct MIdle {
    /// Published-work count (stands in for ring/injector occupancy).
    work: AtomicUsize,
    /// Bit 0 ⇔ the (single) worker is registered idle.
    mask: AtomicUsize,
    /// Workers inside the steal sweep.
    searching: AtomicUsize,
}

impl MIdle {
    fn try_take(&self) -> bool {
        let mut cur = self.work.load(Ordering::SeqCst);
        while cur > 0 {
            match self
                .work
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }
}

/// One producer publishes `n_msgs` tasks with `notify_work`'s
/// publish → fence → skip-if-searching → claim-bit → unpark protocol;
/// the worker (model root, thread 0) consumes them with `worker_loop`'s
/// search → register → fence → re-check → park descent. Every schedule
/// must deliver all tasks with nobody left parked, and the worker must
/// never leave the park loop with its mask bit set.
pub fn idle_mask_model(mutant: Mutant, n_msgs: usize) {
    let sh = Arc::new(MIdle {
        work: AtomicUsize::new(0),
        mask: AtomicUsize::new(0),
        searching: AtomicUsize::new(0),
    });

    let psh = sh.clone();
    let worker_tid = 0; // the model root runs the worker below
    let producer = thread::spawn(move || {
        for _ in 0..n_msgs {
            if mutant == Mutant::ScanBeforePublish {
                // BUG (seeded): scan-then-publish — the worker can
                // register between the scan and the publish.
                let elide = psh.searching.load(Ordering::SeqCst) > 0;
                let idle = psh.mask.load(Ordering::SeqCst) & 1 != 0;
                psh.work.fetch_add(1, Ordering::SeqCst);
                if !elide && idle && psh.mask.fetch_and(!1, Ordering::SeqCst) & 1 != 0 {
                    thread::unpark(worker_tid);
                }
            } else {
                // notify_work: publish, fence, elide if a searcher
                // will re-check, else claim the bit and deliver.
                psh.work.fetch_add(1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if psh.searching.load(Ordering::SeqCst) > 0 {
                    continue; // a searcher's re-check covers this work
                }
                if psh.mask.load(Ordering::SeqCst) & 1 != 0
                    && psh.mask.fetch_and(!1, Ordering::SeqCst) & 1 != 0
                {
                    thread::unpark(worker_tid);
                }
            }
        }
    });

    // Worker: take fast, else search → (retake) → register → fence →
    // re-check → park. A stale token from a producer claim racing the
    // self-rescue ends the next park early; consuming it withdraws the
    // registration that park made, as in the real executor.
    let mut got = 0;
    while got < n_msgs {
        if sh.try_take() {
            got += 1;
            continue;
        }
        // Enter the steal sweep.
        sh.searching.fetch_add(1, Ordering::SeqCst);
        if sh.try_take() {
            sh.searching.fetch_sub(1, Ordering::SeqCst);
            got += 1;
            continue;
        }
        if mutant != Mutant::LostSearchingClear {
            sh.searching.fetch_sub(1, Ordering::SeqCst);
        } // BUG (seeded) otherwise: producers elide wakes forever.
        sh.mask.fetch_or(1, Ordering::SeqCst); // register idle
        fence(Ordering::SeqCst);
        if mutant != Mutant::NoRecheck && sh.try_take() {
            // Self-rescue: deregister; if the producer won the bit its
            // token is pending and the next park consumes it.
            sh.mask.fetch_and(!1, Ordering::SeqCst);
            got += 1;
            continue;
        } // BUG (seeded) with NoRecheck: park blind.
        thread::park();
        if mutant != Mutant::StaleTokenKeepsBit {
            sh.mask.fetch_and(!1, Ordering::SeqCst);
        } // BUG (seeded) otherwise: only the claim that sent it cleared a bit.
        assert_eq!(
            sh.mask.load(Ordering::SeqCst) & 1,
            0,
            "left the park loop registered idle"
        );
    }
    producer.join();
    assert_eq!(
        sh.mask.load(Ordering::SeqCst),
        0,
        "idle registration leaked"
    );
}
