//! Model of the pinned wake handshake: a task pinned to worker `w` is
//! run by `w` alone, so its wake must reach `w` itself — unlike
//! stealable work, a searching sibling is no cover for it.
//!
//! mirrors: `parchan/src/executor.rs` — `schedule`'s pinned branch
//! (`workers[w].pinned.push` then `notify_specific`),
//! `RtInner::notify_specific` (fence, then `IdleSet::claim(w)`, with
//! no searching elision), `pop_pinned` (the held burst, then one take
//! of the whole queue), `find_task`'s search phase (`start_search` …
//! `end_search`, which never looks at a pinned queue), and
//! `worker_loop`'s register → fence → `has_work` → park descent with
//! its stale-token consumption.
//!
//! The queue is an occupancy counter taken whole, as `take_all` takes
//! the stack (the injector itself is checked as it ships, in
//! `parchan/src/injector.rs`'s unit tests). At
//! this level the mutexed deque the injector replaced ran the same
//! protocol — its push and length store were the publish, its length
//! load the re-check — so the verdict covers both. Lost wakes surface
//! as the checker's built-in parked-forever deadlock; the park
//! backstop that would hide one on real hardware is not modeled.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{fence, AtomicUsize};
use crate::thread;

/// Seeded bugs for [`pinned_wake_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The shipping protocol.
    None,
    /// The post-register re-check (`has_work`) leaves out the pinned
    /// queue: a task pinned while its worker descended into park is
    /// seen by neither side.
    RecheckSkipsPinned,
    /// `notify_specific` elides its wake while any worker searches, as
    /// `notify_work` does — but the searcher may be a sibling, which
    /// can never run the pinned task, while its worker sleeps.
    ElidesForSearcher,
}

struct MPinned {
    /// Worker 0's pinned queue (`WorkerState::pinned`), as occupancy.
    pinned: AtomicUsize,
    /// Bit 0 ⇔ worker 0 is registered idle. A pinned wake claims no
    /// other bit, so the sibling's is left out.
    mask: AtomicUsize,
    /// Workers inside the search phase.
    searching: AtomicUsize,
}

/// A producer pins `n` tasks to worker 0, one wake each; worker 0
/// (model root, thread 0) runs them through `find_task`'s pinned take,
/// search phase and park descent; a sibling worker searches `n` times
/// meanwhile, finding nothing it may run. Every schedule must run
/// every pinned task and leave nobody parked or registered.
pub fn pinned_wake_model(mutant: Mutant, n: usize) {
    let sh = Arc::new(MPinned {
        pinned: AtomicUsize::new(0),
        mask: AtomicUsize::new(0),
        searching: AtomicUsize::new(0),
    });

    let ssh = sh.clone();
    let sibling = thread::spawn(move || {
        for _ in 0..n {
            // High lane, injector, sibling rings: never a pinned queue.
            ssh.searching.fetch_add(1, Ordering::SeqCst);
            ssh.searching.fetch_sub(1, Ordering::SeqCst);
        }
    });

    let psh = sh.clone();
    let worker_tid = 0; // the model root runs worker 0 below
    let producer = thread::spawn(move || {
        for _ in 0..n {
            // `pinned.push`, then notify_specific: fence, then claim
            // worker 0's bit.
            psh.pinned.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if mutant == Mutant::ElidesForSearcher && psh.searching.load(Ordering::SeqCst) > 0 {
                // BUG (seeded): a searcher cannot run this task.
                continue;
            }
            if psh.mask.fetch_and(!1, Ordering::SeqCst) & 1 != 0 {
                thread::unpark(worker_tid);
            }
        }
    });

    // Worker 0: the held burst, else a take of the whole queue; else
    // search → register → fence → re-check → park.
    let mut held = 0;
    let mut ran = 0;
    while ran < n {
        if held == 0 {
            held = sh.pinned.swap(0, Ordering::SeqCst);
        }
        if held > 0 {
            held -= 1;
            ran += 1;
            continue;
        }
        sh.searching.fetch_add(1, Ordering::SeqCst);
        sh.searching.fetch_sub(1, Ordering::SeqCst);
        sh.mask.fetch_or(1, Ordering::SeqCst); // register idle
        fence(Ordering::SeqCst);
        let has_work = mutant != Mutant::RecheckSkipsPinned // BUG (seeded) otherwise
            && sh.pinned.load(Ordering::SeqCst) > 0;
        if has_work {
            // Self-rescue; if the producer won the bit its token is
            // pending and ends the next park at once.
            sh.mask.fetch_and(!1, Ordering::SeqCst);
            continue;
        }
        thread::park();
        // The token may be owed to an earlier registration: withdraw
        // this one's bit either way.
        sh.mask.fetch_and(!1, Ordering::SeqCst);
    }
    producer.join();
    sibling.join();
    assert_eq!(sh.pinned.load(Ordering::SeqCst), 0, "pinned task lost");
    assert_eq!(
        sh.mask.load(Ordering::SeqCst),
        0,
        "idle registration leaked"
    );
}
