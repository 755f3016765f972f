//! The shipping message protocols, model-checked: `chanos_check`'s
//! explorer drives parchan's own channel core, oneshot, reply batch
//! and executor through their public API from model
//! threads, and enumerates every interleaving of their atomics, locks
//! and condvars up to a preemption bound. Under `--features
//! chanos_check` those are the checker's shim types (`src/sync.rs`),
//! and a `Runtime`'s workers are model threads, so what is explored is
//! the code that ships, not a copy of it. Run with
//!
//! ```text
//! cargo test --release -p chanos-parchan --features chanos_check --test protocols
//! ```
//!
//! A future is polled by [`block_on`], whose waker unparks the model
//! thread that polls it; a wake that never comes leaves that thread
//! parked, and the explorer reports the schedule as a deadlock. Two
//! harness rules keep a seeded bug visible:
//!
//! * **Every channel check keeps a `Sender` clone alive** until its
//!   receivers are done. When the last sender drops, the channel's
//!   close wakes every parked receiver, and that wake would cover a
//!   lost one.
//! * **Channel values carry a per-execution nonce**, so a value that
//!   comes from an earlier execution's memory fails the check on its
//!   high bits.

#![cfg(feature = "chanos_check")]

use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use chanos_check::{thread, Config, Explorer};
use chanos_parchan::oneshot::oneshot;
use chanos_parchan::{
    channel, current_worker, join2, Capacity, Panicked, Priority, RecvError, Runtime, WakeBatch,
};

/// A waker that unparks the model thread it was made on.
struct Unpark(thread::ThreadId);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        thread::unpark(self.0);
    }
}

fn waker() -> Waker {
    Waker::from(Arc::new(Unpark(thread::current())))
}

/// Polls `fut` to completion on the calling model thread, parking
/// while it is pending. The first `Pending` is polled once more
/// before the thread parks: an executor may re-poll at any time, and
/// this re-poll is what makes a parked oneshot receiver take its
/// waker back (`WAITING → EMPTY`) while its sender may be resolving.
fn block_on<F: Future>(fut: F) -> F::Output {
    drive(fut, true)
}

/// [`block_on`], with the re-poll before the first park optional:
/// without it a `Pending` parks at once, as a task that is not woken
/// is not polled again.
fn drive<F: Future>(fut: F, repoll: bool) -> F::Output {
    let waker = waker();
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    let mut repolled = !repoll;
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        if std::mem::replace(&mut repolled, true) {
            thread::park();
        }
    }
}

/// Explores `model` up to `max_preemptions`, and fails on any
/// counterexample or on running out of budget (`CHANOS_CHECK_BUDGET`,
/// default 50 000 schedules) before the space is exhausted. A
/// counterexample is first replayed twice: one that does not come back
/// the same way is reported as such.
fn verify(max_preemptions: usize, model: impl Fn() + Clone + Send + Sync + 'static) {
    let explorer = Explorer::new(Config {
        max_preemptions,
        ..Config::default()
    });
    let report = explorer.check(model.clone());
    if let Some(failure) = &report.failure {
        eprintln!("caught after {} schedules: {failure}", report.schedules);
        for _ in 0..2 {
            let again = explorer.replay(&failure.schedule, model.clone());
            assert_eq!(
                again.map(|f| f.kind),
                Some(failure.kind.clone()),
                "{failure} does not replay"
            );
        }
    }
    report.assert_ok();
    eprintln!(
        "verified at bound {max_preemptions}: {} schedules, {} pruned",
        report.schedules, report.pruned
    );
}

/// The high bits of every value an execution sends (see the module
/// docs): a plain `std` counter, so it adds no scheduling point.
fn nonce() -> u64 {
    static EXECUTIONS: AtomicU64 = AtomicU64::new(1);
    EXECUTIONS.fetch_add(1, Ordering::Relaxed) << 16
}

// --- channels ---------------------------------------------------------

/// `senders` model threads send `per` values each through a channel
/// of capacity `cap`; the root receives them all, holding a sender of
/// its own. Every value must arrive once, unaltered, and each
/// sender's in the order it sent them.
fn deliver(cap: Capacity, senders: u64, per: u64) {
    let base = nonce();
    let (tx, rx) = channel::<u64>(cap);
    let threads: Vec<_> = (0..senders)
        .map(|s| {
            let tx = tx.clone();
            thread::spawn(move || {
                for i in 0..per {
                    block_on(tx.send(base | s << 8 | i)).expect("the receiver is alive");
                }
            })
        })
        .collect();
    let mut next = vec![0; senders as usize];
    for _ in 0..senders * per {
        let v = block_on(rx.recv()).expect("the root holds a sender");
        assert_eq!(v & !0xffff, base, "a value from another execution: {v:#x}");
        let (s, i) = ((v >> 8 & 0xff) as usize, v & 0xff);
        assert_eq!(i, next[s], "sender {s}'s values arrived out of order");
        next[s] += 1;
    }
    for t in threads {
        t.join();
    }
    drop(tx);
}

#[test]
fn mutex_core_delivers_in_order() {
    for cap in [Capacity::Bounded(4), Capacity::Unbounded] {
        verify(3, move || deliver(cap, 1, 2));
        verify(3, move || deliver(cap, 2, 1));
    }
    verify(3, || deliver(Capacity::Rendezvous, 1, 2));
}

#[test]
fn a_completed_send_is_seen_by_try_recv() {
    // Two senders `try_send` one value each. Once the second has
    // returned, its value is queued, so a `try_recv` must find a value
    // wherever the first sender is.
    verify(3, || {
        let base = nonce();
        let (tx, rx) = channel::<u64>(Capacity::Unbounded);
        let spawn = |i| {
            let tx = tx.clone();
            thread::spawn(move || tx.try_send(base | i).expect("the receiver is alive"))
        };
        let first = spawn(1);
        let second = spawn(2);
        second.join();
        let v = rx.try_recv().expect("a completed send is queued");
        assert_eq!(v & !0xffff, base, "a value from another execution: {v:#x}");
        first.join();
        drop(tx);
    });
}

#[test]
fn a_receiver_that_parks_at_once_is_woken() {
    // A receive registers its waker under the lock it found the queue
    // empty under, so no send lands between the two. The root parks on
    // its first `Pending`, with no re-poll to cover such a gap, and the
    // one send must wake it.
    for cap in [
        Capacity::Rendezvous,
        Capacity::Bounded(4),
        Capacity::Unbounded,
    ] {
        verify(3, move || {
            let base = nonce();
            let (tx, rx) = channel::<u64>(cap);
            let sender = {
                let tx = tx.clone();
                thread::spawn(move || block_on(tx.send(base | 1)).expect("the receiver is alive"))
            };
            assert_eq!(drive(rx.recv(), false), Ok(base | 1));
            sender.join();
            drop(tx);
        });
    }
}

#[test]
fn each_freed_slot_wakes_a_different_parked_sender() {
    // `Bounded(2)`, full, with two senders parking on it. Each sender
    // parks on its first `Pending`, so only a wake moves it. The root
    // frees both slots before it waits for either sender: the second
    // receive must wake the sender the first one did not.
    verify(2, || {
        let base = nonce();
        let (tx, rx) = channel::<u64>(Capacity::Bounded(2));
        for i in 0..2 {
            tx.try_send(base | i).expect("room for two");
        }
        let senders: Vec<_> = (2..4)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || {
                    drive(tx.send(base | i), false).expect("the receiver is alive")
                })
            })
            .collect();
        for i in 0..2 {
            assert_eq!(block_on(rx.recv()), Ok(base | i));
        }
        for s in senders {
            s.join();
        }
        let mut rest = [0; 2].map(|_| block_on(rx.recv()).expect("the root holds a sender"));
        rest.sort_unstable();
        assert_eq!(rest, [base | 2, base | 3]);
        drop(tx);
    });
}

#[test]
fn a_cancelled_sender_passes_its_wake_on() {
    // `Bounded(1)`, full. The root's own send A parks first, then B
    // parks. A receiver frees the slot, which wakes A; the root drops
    // A unpolled (a `choose!` arm that lost), and B must complete.
    verify(3, || {
        let base = nonce();
        let (tx, rx) = channel::<u64>(Capacity::Bounded(1));
        let rx = Arc::new(rx);
        tx.try_send(base).expect("room for one");
        let mut a = tx.send(base | 1);
        let waker = waker();
        assert!(Pin::new(&mut a)
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
        let b = {
            let tx = tx.clone();
            thread::spawn(move || block_on(tx.send(base | 2)).expect("the receiver is alive"))
        };
        let receiver = {
            let rx = rx.clone();
            thread::spawn(move || block_on(rx.recv()))
        };
        // The freed slot's wake goes to the first parked sender, A.
        thread::park();
        drop(a);
        b.join();
        assert_eq!(receiver.join(), Ok(base));
        assert_eq!(block_on(rx.recv()), Ok(base | 2));
        drop(tx);
    });
}

/// Receiver A parks, is woken by the one message, and is dropped
/// unpolled — a `choose!` arm that lost — while B is parked on the
/// same channel: the message must reach B, through the wake that
/// `Drop for RecvFut` re-issues.
fn cancelled_receiver(cap: Capacity) {
    let (tx, rx) = channel::<u64>(cap);
    // Shared rather than cloned: a clone's count update and drop are
    // scheduling points outside the hand-off under check.
    let rx = Arc::new(rx);
    // A is the root: registered before anyone can send.
    let mut a = rx.recv();
    let waker = waker();
    assert!(Pin::new(&mut a)
        .poll(&mut Context::from_waker(&waker))
        .is_pending());
    let b = {
        let rx = rx.clone();
        thread::spawn(move || block_on(rx.recv()))
    };
    let producer = {
        let tx = tx.clone();
        thread::spawn(move || tx.try_send(7).expect("room for one"))
    };
    // The message's wake goes to the first registered receiver, A.
    thread::park();
    drop(a);
    assert_eq!(b.join(), Ok(7));
    producer.join();
    drop(tx);
}

#[test]
fn cancelled_receiver_passes_its_wake_on() {
    for cap in [Capacity::Bounded(4), Capacity::Unbounded] {
        verify(3, move || cancelled_receiver(cap));
    }
}

// --- oneshot ----------------------------------------------------------

#[test]
fn oneshot_send_meets_a_parking_receiver() {
    verify(3, || {
        let (tx, rx) = oneshot::<u64>();
        let sender = thread::spawn(move || tx.send(7).expect("the receiver is alive"));
        assert_eq!(block_on(rx), Ok(7));
        sender.join();
    });
}

#[test]
fn oneshot_sender_drop_resolves_a_parking_receiver_closed() {
    verify(3, || {
        let (tx, rx) = oneshot::<u64>();
        let sender = thread::spawn(move || drop(tx));
        assert_eq!(block_on(rx), Err(RecvError::Closed));
        sender.join();
    });
}

#[test]
fn oneshot_receiver_drop_frees_the_value_exactly_once() {
    verify(3, || {
        let value = Arc::new(());
        let (tx, rx) = oneshot::<Arc<()>>();
        let sender = {
            let value = value.clone();
            thread::spawn(move || drop(tx.send(value)))
        };
        drop(rx);
        sender.join();
        assert_eq!(Arc::strong_count(&value), 1, "the value leaked");
    });
}

// --- reply batch ------------------------------------------------------

/// A server answers a client's two pipelined calls through one
/// `WakeBatch`, one `hold` per answer with a scheduling point between
/// them (where a real server awaits), and lets go of the batch by
/// `flush` or by dropping it. The client awaits both replies with one
/// waker, so while it waits the second answer's wake duplicates the
/// first.
fn reply_batch(flush: bool) {
    let (tx1, rx1) = oneshot::<u64>();
    let (tx2, rx2) = oneshot::<u64>();
    let server = thread::spawn(move || {
        let mut batch = WakeBatch::default();
        batch.hold(|| tx1.send(1)).expect("the client is alive");
        thread::yield_now();
        batch.hold(|| tx2.send(2)).expect("the client is alive");
        if flush {
            batch.flush();
        }
    });
    assert_eq!(block_on(join2(rx1, rx2)), (Ok(1), Ok(2)));
    server.join();
}

#[test]
fn reply_batch_wakes_its_client_on_flush_and_on_drop() {
    verify(3, || reply_batch(true));
    verify(3, || reply_batch(false));
}

// --- executor ---------------------------------------------------------
//
// The root builds a `Runtime` whose workers are model threads, drives
// it through the public API and shuts it down; `shutdown` joins every
// worker, so a worker that never leaves its park is a deadlock. The
// root is an off-pool thread: its spawns go through the injector, the
// high lane or a pinned queue, never a worker's own ring. The timer
// thread is `std`'s, not a model thread, so no check sleeps.
//
// The root shuts down a clone and keeps `rt` to the end: when the
// explorer tears an execution down mid-shutdown, the runtime then
// outlives the root's channel endpoints, as it does in every real
// run, so a wake from a dropped `Sender` goes to a run queue instead
// of dropping the task's future inside that channel's own lock.

/// Two off-pool spawns onto one worker: `notify_work`'s publish →
/// fence → `searching` / mask read against `worker_loop`'s search →
/// register → fence → `has_work` → park. A token from a claim that
/// raced the worker's self-rescue ends its next park, which must
/// withdraw the bit that park set.
fn off_pool_spawns() {
    let rt = Runtime::new(1);
    let a = rt.spawn(async { 1 });
    let b = rt.spawn(async { 2 });
    assert_eq!(a.join_blocking(), Ok(1));
    assert_eq!(b.join_blocking(), Ok(2));
    rt.clone().shutdown();
}

#[test]
fn off_pool_spawns_meet_a_parking_worker() {
    verify(2, off_pool_spawns);
}

/// One bound deeper: ~57 500 schedules and half a minute, so CI runs
/// it nightly, with `CHANOS_CHECK_BUDGET=200000` and `-- --ignored`.
#[test]
#[ignore = "half a minute; CI runs it nightly"]
fn off_pool_spawns_meet_a_parking_worker_at_bound_3() {
    verify(3, off_pool_spawns);
}

#[test]
fn a_pinned_task_reaches_its_parking_worker_past_a_searching_sibling() {
    // `notify_specific`: worker 0 alone may run the task, so its wake
    // is never elided for worker 1's search, and worker 0's re-check
    // reads its pinned queue. A spawn is scheduled as a wake is.
    verify(2, || {
        let rt = Runtime::new(2);
        let h = rt.spawn_pinned(0, async { current_worker() });
        assert_eq!(h.join_blocking(), Ok(Some(0)));
        rt.clone().shutdown();
    });
}

#[test]
fn a_high_task_reaches_a_parking_worker() {
    // The high lane's push is followed by `notify_work`, and the
    // pre-park re-check reads the lane.
    verify(3, || {
        let rt = Runtime::new(1);
        let h = rt.spawn_with_priority(Priority::High, async { 3 });
        assert_eq!(h.join_blocking(), Ok(3));
        rt.clone().shutdown();
    });
}

#[test]
fn a_task_woken_while_running_is_polled_again() {
    // The root's send may wake the task between its receive's park and
    // the end of its poll: `wake_by_ref` moves `RUNNING → NOTIFIED`,
    // `run_task`'s `RUNNING → IDLE` CAS fails on it, and the task is
    // scheduled again.
    verify(3, || {
        let base = nonce();
        let rt = Runtime::new(1);
        let (tx, rx) = channel::<u64>(Capacity::Bounded(4));
        let h = rt.spawn(async move { rx.recv().await });
        tx.try_send(base | 1).expect("room for one");
        assert_eq!(h.join_blocking(), Ok(Ok(base | 1)));
        rt.clone().shutdown();
        drop(tx);
    });
}

#[test]
fn shutdown_reaps_a_task_parked_on_a_channel() {
    // Shutdown at any point of the task's life — queued, running,
    // parked on a receive the root's sender never answers — ends every
    // worker and resolves the handle.
    verify(3, || {
        let rt = Runtime::new(1);
        let (tx, rx) = channel::<u64>(Capacity::Bounded(4));
        let h = rt.spawn(async move { rx.recv().await });
        rt.clone().shutdown();
        assert_eq!(
            h.join_blocking(),
            Err(Panicked("runtime shut down".to_string()))
        );
        drop(tx);
    });
}
