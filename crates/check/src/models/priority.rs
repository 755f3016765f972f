//! Model of the scheduler's high-priority lane: the claim protocol
//! on the lane itself and, more importantly, how the lane composes
//! with the idle-bitmask park handshake — the two seeded bugs here
//! are the two ways a priority lane classically goes wrong against a
//! parking scheduler.
//!
//! mirrors: `parchan/src/executor.rs` — `schedule`'s High fast path
//! (`rt.hi.push` + `notify_work`), `take_hi`, `find_task`'s
//! hi-lane-first dispatch, and `RtInner::has_work`'s hi-lane check
//! inside the register → fence → re-check → park descent.
//!
//! Lanes are occupancy counters (the injector's Treiber stack is
//! checked as it ships, in `parchan/src/injector.rs`'s unit tests;
//! what is new here is *which lanes* each side of the Dekker
//! handshake must observe).
//! Lost wakes surface as the checker's built-in parked-forever
//! deadlock.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{fence, AtomicUsize};
use crate::thread;

/// Seeded bugs for [`priority_lane_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The shipping protocol.
    None,
    /// The post-register re-check (`has_work`) scans only the normal
    /// lane: a High task published while the worker was descending
    /// into park is seen by neither side — the producer read the mask
    /// before the bit appeared, the worker re-checked the wrong lane.
    /// Priority inversion in its terminal form: the *urgent* task is
    /// exactly the one that can strand a parked worker.
    RecheckSkipsHighLane,
    /// Publishing into the high lane skips `notify_work` (say, on the
    /// assumption that the dispatch loop polls the lane every
    /// iteration — true, but only for workers that are *running*):
    /// a parked worker never learns about the High task.
    LostHighLaneWake,
}

/// Two work lanes plus the single-worker idle handshake state.
struct MPrio {
    /// High-priority lane occupancy (stands in for `RtInner::hi`).
    hi: AtomicUsize,
    /// Normal work occupancy (rings + normal injector).
    norm: AtomicUsize,
    /// Bit 0 ⇔ the worker is registered idle.
    mask: AtomicUsize,
    /// Workers inside the steal sweep.
    searching: AtomicUsize,
}

impl MPrio {
    fn try_take(lane: &AtomicUsize) -> bool {
        let mut cur = lane.load(Ordering::SeqCst);
        while cur > 0 {
            match lane.compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }

    /// `find_task`'s lane order: the high lane is checked first on
    /// every dispatch, normal work only after it comes up empty.
    fn take_any(&self) -> bool {
        Self::try_take(&self.hi) || Self::try_take(&self.norm)
    }

    /// `has_work`, as run between idle registration and park.
    fn recheck(&self, mutant: Mutant) -> bool {
        if mutant == Mutant::RecheckSkipsHighLane {
            // BUG (seeded): the re-check forgets the lane that was
            // bolted on after the handshake was written.
            Self::try_take(&self.norm)
        } else {
            self.take_any()
        }
    }
}

/// One producer publishes `n_norm` normal then `n_hi` High tasks
/// (normal first, so schedules exist where the worker drains the
/// normal work and parks with only High work outstanding — the case
/// both mutants get wrong); the worker (model root, thread 0) runs
/// `find_task`'s hi-first dispatch over the search → register →
/// fence → re-check → park descent. Every schedule must consume
/// every task with nobody left parked.
pub fn priority_lane_model(mutant: Mutant, n_hi: usize, n_norm: usize) {
    let sh = Arc::new(MPrio {
        hi: AtomicUsize::new(0),
        norm: AtomicUsize::new(0),
        mask: AtomicUsize::new(0),
        searching: AtomicUsize::new(0),
    });

    let psh = sh.clone();
    let worker_tid = 0; // the model root runs the worker below
    let producer = thread::spawn(move || {
        for i in 0..n_norm + n_hi {
            let high = i >= n_norm;
            if high {
                psh.hi.fetch_add(1, Ordering::SeqCst);
                if mutant == Mutant::LostHighLaneWake {
                    // BUG (seeded): publish to the hi lane without
                    // notify_work — running workers would poll it,
                    // a parked worker never will.
                    continue;
                }
            } else {
                psh.norm.fetch_add(1, Ordering::SeqCst);
            }
            // notify_work: publish, fence, elide if a searcher will
            // re-check, else claim the idle bit and deliver.
            fence(Ordering::SeqCst);
            if psh.searching.load(Ordering::SeqCst) > 0 {
                continue;
            }
            if psh.mask.load(Ordering::SeqCst) & 1 != 0
                && psh.mask.fetch_and(!1, Ordering::SeqCst) & 1 != 0
            {
                thread::unpark(worker_tid);
            }
        }
    });

    // Worker: hi-first take, else search → (retake) → register →
    // fence → re-check (hi lane included — the invariant under test)
    // → park.
    let total = n_hi + n_norm;
    let mut got = 0;
    while got < total {
        if sh.take_any() {
            got += 1;
            continue;
        }
        sh.searching.fetch_add(1, Ordering::SeqCst);
        if sh.take_any() {
            sh.searching.fetch_sub(1, Ordering::SeqCst);
            got += 1;
            continue;
        }
        sh.searching.fetch_sub(1, Ordering::SeqCst);
        sh.mask.fetch_or(1, Ordering::SeqCst); // register idle
        fence(Ordering::SeqCst);
        if sh.recheck(mutant) {
            sh.mask.fetch_and(!1, Ordering::SeqCst);
            got += 1;
            continue;
        }
        thread::park();
        sh.mask.fetch_and(!1, Ordering::SeqCst);
    }
    producer.join();
    assert_eq!(sh.hi.load(Ordering::SeqCst), 0, "high-priority task lost");
    assert_eq!(sh.norm.load(Ordering::SeqCst), 0, "normal task lost");
    assert_eq!(
        sh.mask.load(Ordering::SeqCst),
        0,
        "idle registration leaked"
    );
}
