//! Model of a reply batch's held wakes against a concurrently parking
//! receiver.
//!
//! mirrors: `parchan/src/chan.rs` — `WakeBatch::hold`,
//! `deliver_recv_wake`, `WakeBatch::flush`, `Drop for WakeBatch`, with
//! the receiver running the same spin-then-park protocol as
//! `models::parking`.
//!
//! Inside a `hold`, a send that would wake a parked receiver *keeps*
//! the wake in the batch (deduplicated per task) instead of
//! delivering it. The batch belongs to the server task, so what it
//! holds must survive whatever the server does between two publishes
//! — it yields here, where the real one awaits — and must be
//! delivered when the server lets go of the batch, by `flush()` after
//! the burst or by a plain drop when the task returns mid-burst: a
//! held wake that is never fired strands the parked peer forever.
//! With the receiver free to park at any point between the server's
//! sends, every schedule must end with the receiver woken and all
//! replies taken. The seeded mutants are the ways the real code could
//! regress: a flush that wakes nobody, a drop that forgets what it
//! holds, and deduplicating so eagerly that the held wake is consumed
//! without ever being delivered.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{fence, AtomicUsize};
use crate::thread;

/// Seeded bugs for [`coalesce_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The shipping protocol.
    None,
    /// `flush` empties the buffer without waking anyone.
    FlushDropsWakes,
    /// `Drop` does not flush (the hazard `WakeBatch`'s doc comment
    /// warns about).
    DropForgetsWakes,
    /// Coalescing consumes the parked registration but counts the
    /// wake as a duplicate without buffering it: the dedup check
    /// mistakes "first wake" for "already pending".
    DedupSwallowsFirstWake,
}

/// How the server lets go of its batch once the burst is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// `replies.flush()`, the end of an ordinary burst.
    Flush,
    /// The server task returns with the batch unflushed (a vnode
    /// reaped mid-burst).
    Drop,
}

struct Chan {
    /// Published replies (the server's sends).
    msgs: AtomicUsize,
    /// The receiver's parked-registration count.
    recv_parked: AtomicUsize,
}

/// A server publishes `n_replies` replies to one client through one
/// batch, yielding between them, and lets go of the batch by `end`;
/// the client (model root, thread 0) takes them with spin-then-park.
/// Every schedule must deliver all replies with at most one wake
/// actually sent (the coalescing contract), and nobody left parked
/// (the flush-or-drop contract).
pub fn coalesce_model(mutant: Mutant, n_replies: usize, end: End) {
    let ch = Arc::new(Chan {
        msgs: AtomicUsize::new(0),
        recv_parked: AtomicUsize::new(0),
    });
    let client_tid = 0;

    let sch = ch.clone();
    let server = thread::spawn(move || {
        // The batch's buffer is a plain local: the real one is owned
        // by the server task and lent to its thread only while a
        // `hold` runs, so it needs no atomics here.
        let mut buffered_wake = false;
        let mut wakes_sent = 0usize;
        for _ in 0..n_replies {
            // `after_push` inside a `hold`: publish, fence, scan; a
            // positive scan claims the registration and holds (or
            // coalesces) the wake instead of delivering it.
            sch.msgs.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if sch.recv_parked.load(Ordering::SeqCst) > 0 {
                match mutant {
                    Mutant::DedupSwallowsFirstWake => {
                        // BUG (seeded): counted as coalesced, never
                        // buffered.
                    }
                    _ => {
                        if !buffered_wake {
                            buffered_wake = true;
                        }
                        // else: deduplicated (`will_wake` hit) — the
                        // one buffered wake covers this reply too.
                    }
                }
            }
            // The server's `.await` between two answers: the `hold` is
            // over, the wake stays in the batch, the client runs.
            thread::yield_now();
        }
        // `WakeBatch::flush`, or `Drop for WakeBatch` doing the same.
        let fires = match end {
            End::Flush => mutant != Mutant::FlushDropsWakes,
            End::Drop => mutant != Mutant::DropForgetsWakes,
        };
        if fires && buffered_wake {
            thread::unpark(client_tid);
            wakes_sent += 1;
        }
        wakes_sent
    });

    // Client: the same spin-then-park consumer as `models::parking`.
    let try_pop = |ch: &Chan| -> bool {
        let mut cur = ch.msgs.load(Ordering::SeqCst);
        while cur > 0 {
            match ch
                .msgs
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    };
    let mut got = 0;
    while got < n_replies {
        if try_pop(&ch) {
            got += 1;
            continue;
        }
        ch.recv_parked.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if try_pop(&ch) {
            ch.recv_parked.fetch_sub(1, Ordering::SeqCst);
            got += 1;
            continue;
        }
        thread::park();
        ch.recv_parked.fetch_sub(1, Ordering::SeqCst);
    }
    let wakes_sent = server.join();
    assert!(
        wakes_sent <= 1,
        "coalescing must collapse a reply burst into at most one wake"
    );
}
