//! The idle-worker bitmask and searching-worker counter: the atomic
//! half of the park/unpark protocol.
//!
//! Replaces the old per-worker `parked: AtomicBool` + global
//! `n_parked: AtomicUsize` pair with one `AtomicU64` bitmask (bit
//! *w* set ⇔ worker *w* is registered idle) plus a `searching`
//! count of workers currently in the steal sweep. The non-contended
//! producer fast path is now a single load: `mask == 0 && searching
//! == 0` means nobody needs waking (every running worker re-sweeps
//! before parking). `park_lock`/`park_cv` still exist in the
//! executor, but only for the actual OS block *after* this module's
//! lock-free handshake has decided a worker really must sleep.
//!
//! ## The Dekker pairing
//!
//! * Producer: **publish work, then** `fence(SeqCst)`, **then** read
//!   `searching` / `mask`.
//! * Worker: decrement `searching`, **register its mask bit, then**
//!   `fence(SeqCst)`, **then** re-check every queue, and only then
//!   block.
//!
//! In the SeqCst total order one side must see the other: a producer
//! that reads "no idle, no searching" ordered its publish before the
//! worker's registration, so the worker's post-registration re-check
//! finds the work; a producer that reads `searching > 0` knows that
//! searcher's final decrement → register → re-check is still ahead
//! of it and will find the work. Exactly one of {producer claim,
//! worker self-rescue} clears a registered bit because both use a
//! single RMW (`fetch_and`) on the same word.
//!
//! Both halves are checked as they ship: the executor checks in
//! `tests/protocols.rs` run `worker_loop` on model threads against
//! off-pool producers. Seeded on a scratch copy, each of these is
//! caught there: a producer scanning before it publishes, a worker
//! skipping the re-check or losing its searching-count clear
//! (`off_pool_spawns_meet_a_parking_worker`), a pinned wake elided
//! for a searcher or missing from the re-check
//! (`a_pinned_task_reaches_its_parking_worker_past_a_searching_sibling`),
//! and the high lane missing its wake or the re-check
//! (`a_high_task_reaches_a_parking_worker`). A worker that consumes a
//! wake token and keeps its bit only wastes a later wake, so under the
//! model checker `worker_loop` asserts the bit clear when it leaves
//! the park loop; the same check trips that assertion.

use crate::sync::{AtomicU64, AtomicUsize, Ordering};

/// Upper bound on pool size imposed by the one-word bitmask.
pub(crate) const MAX_WORKERS: usize = 64;

pub(crate) struct IdleSet {
    /// Bit `w` set ⇔ worker `w` registered idle and may block.
    mask: AtomicU64,
    /// Workers inside the steal sweep (between local-empty and
    /// park-or-found). Producers skip the wake when it is non-zero:
    /// a searcher is guaranteed to either find the new work or
    /// re-check for it after registering idle.
    searching: AtomicUsize,
    /// Rotates `claim_any`'s scan start across workers.
    rr: AtomicUsize,
}

impl IdleSet {
    pub(crate) fn new() -> IdleSet {
        IdleSet {
            mask: AtomicU64::new(0),
            searching: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
        }
    }

    /// Number of workers currently in the steal sweep.
    pub(crate) fn searching(&self) -> usize {
        // ordering: SeqCst load pairs with the SeqCst RMWs in
        // `start_search`/`end_search`: reading a stale zero here
        // after our publish is fine (we fall through to claiming a
        // parked worker), but the read must not float above the
        // caller's publish fence.
        self.searching.load(Ordering::SeqCst)
    }

    /// Worker enters the steal sweep.
    pub(crate) fn start_search(&self) {
        // ordering: SeqCst RMW — the increment must be globally
        // ordered against producer publish-then-read-searching so a
        // producer that skips its wake is guaranteed our sweep (or
        // our post-registration re-check) sees its work.
        self.searching.fetch_add(1, Ordering::SeqCst);
    }

    /// Worker leaves the steal sweep; returns `true` if it was the
    /// last searcher (caller may hand off a wake if work remains).
    pub(crate) fn end_search(&self) -> bool {
        // ordering: SeqCst RMW, same invariant as `start_search`:
        // after this decrement the worker either runs a found task or
        // registers idle and re-checks — both globally ordered after
        // any publish that observed `searching > 0`.
        self.searching.fetch_sub(1, Ordering::SeqCst) == 1
    }

    /// Worker `w` registers as idle. Callers must fence (SeqCst)
    /// after this and re-check every work source before blocking.
    pub(crate) fn register(&self, w: usize) {
        // ordering: SeqCst RMW is the worker's Dekker publication:
        // it must precede the post-registration re-check in the
        // global order so a producer that missed this bit published
        // its work where the re-check looks.
        self.mask.fetch_or(1 << w, Ordering::SeqCst);
    }

    /// Worker `w` withdraws its registration (self-rescue: the
    /// re-check found work, the park backstop fired, or the token that
    /// ended the park was owed to an earlier registration). Returns
    /// `true` if the bit was still set — i.e. *we* claimed it and no
    /// wake token is owed to us. `false` means a producer claimed the
    /// bit first and its token is (or will be) pending.
    pub(crate) fn deregister(&self, w: usize) -> bool {
        // ordering: SeqCst RMW — exactly one of {this, `claim`}
        // observes the set bit, which is what makes token
        // accounting exact (no double-consume, no lost token).
        self.mask.fetch_and(!(1 << w), Ordering::SeqCst) & (1 << w) != 0
    }

    /// Whether worker `w` is registered idle: the park loop's exit
    /// invariant, asserted only under the model checker.
    #[cfg(feature = "chanos_check")]
    pub(crate) fn is_registered(&self, w: usize) -> bool {
        self.mask.load(Ordering::Relaxed) & (1 << w) != 0
    }

    /// Producer claims a specific registered worker (pinned wakes:
    /// only worker `w` may run the task). Returns `true` if this call
    /// won the bit and owes `w` a wake token.
    pub(crate) fn claim(&self, w: usize) -> bool {
        // ordering: SeqCst RMW, same single-winner invariant as
        // `deregister`.
        self.mask.fetch_and(!(1 << w), Ordering::SeqCst) & (1 << w) != 0
    }

    /// Producer claims *some* registered worker, scanning from a
    /// rotating start. Returns the claimed worker, who is owed a wake
    /// token.
    pub(crate) fn claim_any(&self, n: usize) -> Option<usize> {
        // ordering: SeqCst load for the same Dekker reason as
        // `any_idle`; the claim itself re-validates per-bit via the
        // `claim` RMW, so a torn scan only costs a retry.
        let mut m = self.mask.load(Ordering::SeqCst);
        if m == 0 {
            return None;
        }
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        while m != 0 {
            for k in 0..n {
                let w = (start + k) % n;
                if m & (1 << w) != 0 && self.claim(w) {
                    return Some(w);
                }
            }
            // Lost every race in this pass; re-scan.
            m = self.mask.load(Ordering::SeqCst);
        }
        None
    }
}
