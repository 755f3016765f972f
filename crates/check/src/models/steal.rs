//! Model of the work-stealing ring's lock-free protocol: the owner-pop
//! vs stealer-batch-claim race on the packed head word.
//!
//! mirrors: `parchan/src/queue.rs` — `Ring::push`, `Ring::pop`,
//! `Ring::steal_into`.
//!
//! Slot values live in atomics with `0` as the "uninitialized"
//! sentinel: reading a `0` out of a claimed slot is the
//! read-before-publish (or double-claim) bug surfacing as an assertion
//! instead of UB.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::AtomicUsize;
use crate::thread;

/// Seeded bugs for [`steal_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The shipping protocol.
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
