//! MPMC channels over real threads, with the same semantics as the
//! simulator channels: rendezvous / bounded / unbounded capacities,
//! cancel-safe futures (usable as `choose!` arms), close on either
//! side. [`Capacity`] and the error types are `chanos_select::vocab`'s
//! — the same types `chanos-csp` and `chanos-rt` export.
//!
//! # One core
//!
//! Every channel is one `Mutex<State>`: its queue, its parked
//! receivers and its parked senders under one lock. [`channel`] is the
//! only constructor, and the capacity it is given answers one
//! question, whether a send may enqueue now (`State::has_room`): an
//! `Unbounded` send always may, so it never waits and `try_send`
//! reports only `Closed`; a `Bounded(n)` send while fewer than `n` are
//! queued; a `Rendezvous` send only to a receiver already waiting. A
//! send that may not parks, and this is the only place a sender
//! parks.
//!
//! A freed slot wakes one space-waiter that no other freed slot has
//! woken yet; a woken sender that finds the slot taken re-arms, and one
//! dropped before it ran passes its wake on. A receiver dropped while
//! messages remain queued passes its wake on the same way.
//!
//! # Batched drains
//!
//! [`Receiver::recv_many`] / [`Receiver::try_recv_many`] move a burst
//! of messages into a caller buffer in one operation — one wakeup and
//! one dispatch for the whole batch instead of one per message. The
//! OS server loops (kernel tasks, vnode tasks, cache shards,
//! drivers) drain through these.
//!
//! # Batched replies
//!
//! The other direction is a [`WakeBatch`]: a server answers a drained
//! burst by publishing every reply at once while the batch holds the
//! receiver *wakes*, one per distinct waiting task, and delivers them
//! in one flush. The batch belongs to the server task, not to a
//! thread or a closure, so the server may wait between two answers.
//! [`Sender::try_send_many`] is the same thing for a submit burst.

use crate::sync::{Arc, AtomicU64, Mutex, Ordering};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::counters::{self, Counter};
use crate::executor::plock;

pub use chanos_select::vocab::{Capacity, RecvError, SendError, TryRecvError, TrySendError};

/// Counts one channel event on the calling thread's runtime.
#[inline]
fn bump(c: Counter) {
    counters::add(c, 1);
}

// ---------------------------------------------------------------------------
// Reply-wake coalescing.
// ---------------------------------------------------------------------------

thread_local! {
    /// While a [`WakeBatch::hold`] runs on this thread: the batch's
    /// buffer, where receiver wakes triggered by its sends are parked
    /// (deduplicated by task) instead of delivered. `None` otherwise.
    static WAKE_SCOPE: std::cell::RefCell<Option<Vec<Waker>>> =
        const { std::cell::RefCell::new(None) };

    /// The batch [`Sender::try_send_many`] holds its burst's wakes in;
    /// one per thread, so a warm submit allocates nothing
    /// (`tests/zero_alloc.rs` counts the reply slots and nothing else).
    static SEND_MANY_WAKES: std::cell::Cell<WakeBatch> =
        const { std::cell::Cell::new(WakeBatch { held: Vec::new() }) };
}

/// Delivers a receiver wake — a channel's, or a [`crate::oneshot`]
/// completion — honoring an active [`WakeBatch::hold`]: inside one,
/// wakes for the same task collapse into one (counted as
/// `chan.reply_wakes_coalesced`) and wait for the batch's flush.
pub(crate) fn deliver_recv_wake(w: Waker) {
    bump(Counter::RecvWakes);
    WAKE_SCOPE.with(|s| match &mut *s.borrow_mut() {
        Some(buf) => {
            if buf.iter().any(|q| q.will_wake(&w)) {
                bump(Counter::ReplyWakesCoalesced);
            } else {
                buf.push(w);
            }
        }
        None => w.wake(),
    });
}

/// Receiver wakes held back so that a burst of sends wakes each
/// waiting task **once**: the reply-batching primitive. A server that
/// drained a burst of requests publishes each answer inside
/// [`hold`](WakeBatch::hold) and calls [`flush`](WakeBatch::flush)
/// when the burst is answered, so a client with several outstanding
/// replies is woken once for all of them (it would otherwise wake,
/// find one reply, re-park, and repeat). Duplicate wakes avoided are
/// counted as `chan.reply_wakes_coalesced`.
///
/// The messages are published at once; only the wakes wait. The
/// batch is owned by the server task and may live across `.await`s
/// and worker threads — it is the thread's wake target only while a
/// `hold` runs. Dropping it fires what it still holds: a held wake
/// that is never fired strands a parked peer forever.
#[derive(Debug, Default)]
pub struct WakeBatch {
    held: Vec<Waker>,
}

impl WakeBatch {
    /// Runs `publish` — synchronous sends (`try_send`, a oneshot
    /// `send`) — with the receiver wakes it triggers held in this
    /// batch, one per distinct task.
    pub fn hold<R>(&mut self, publish: impl FnOnce() -> R) -> R {
        /// Takes the buffer back out of the thread's scope, also when
        /// `publish` panics.
        struct Installed<'a> {
            batch: &'a mut WakeBatch,
            outer: Option<Vec<Waker>>,
        }
        impl Drop for Installed<'_> {
            fn drop(&mut self) {
                let held = WAKE_SCOPE.with(|s| s.replace(self.outer.take()));
                self.batch.held = held.unwrap_or_default();
            }
        }
        let outer = WAKE_SCOPE.with(|s| s.replace(Some(std::mem::take(&mut self.held))));
        let _installed = Installed { batch: self, outer };
        publish()
    }

    /// Delivers the held wakes.
    pub fn flush(&mut self) {
        for w in self.held.drain(..) {
            w.wake();
        }
    }
}

impl Drop for WakeBatch {
    fn drop(&mut self) {
        self.flush();
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Endpoints.
// ---------------------------------------------------------------------------

/// Creates a channel of the given capacity.
pub fn channel<T: Send>(cap: Capacity) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Mutex::new(State {
        cap,
        queue: VecDeque::new(),
        recv_waiters: VecDeque::new(),
        send_waiters: VecDeque::new(),
        senders: 1,
        receivers: 1,
        closed: false,
    }));
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// Sending endpoint; clone freely across tasks and threads.
pub struct Sender<T> {
    shared: Arc<Mutex<State<T>>>,
}

/// Receiving endpoint; clone freely across tasks and threads.
pub struct Receiver<T> {
    shared: Arc<Mutex<State<T>>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        debug_endpoint("Sender", &self.shared, f)
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        debug_endpoint("Receiver", &self.shared, f)
    }
}

/// Debug must never contend (or self-deadlock) on the channel state:
/// tracing a channel from inside an operation that holds the lock is
/// legal. Uses `try_lock` with a `<locked>` fallback.
fn debug_endpoint<T>(
    name: &str,
    shared: &Mutex<State<T>>,
    f: &mut std::fmt::Formatter<'_>,
) -> std::fmt::Result {
    match shared.try_lock() {
        Ok(st) => f
            .debug_struct(name)
            .field("queued", &st.queue.len())
            .field("closed", &st.closed)
            .finish(),
        Err(_) => f.debug_struct(name).field("state", &"<locked>").finish(),
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        plock(&self.shared).senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        plock(&self.shared).receivers += 1;
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = plock(&self.shared);
        st.senders -= 1;
        if st.senders == 0 {
            st.wake_everyone();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = plock(&self.shared);
        st.receivers -= 1;
        if st.receivers == 0 {
            st.wake_everyone();
        }
    }
}

impl<T: Send> Sender<T> {
    /// Sends a value according to the channel discipline.
    pub fn send(&self, value: T) -> SendFut<'_, T> {
        SendFut {
            shared: &self.shared,
            value: Some(value),
            entry_id: None,
            parked: false,
        }
    }

    /// Attempts a non-waiting send. Only a rendezvous or bounded
    /// channel can report `Full`.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        {
            let mut st = plock(&self.shared);
            if st.send_shut() {
                return Err(TrySendError::Closed(value));
            }
            if !st.has_room() {
                return Err(TrySendError::Full(value));
            }
            st.queue.push_back(value);
            st.wake_one_recv();
        }
        bump(Counter::FastSends);
        Ok(())
    }

    /// Enqueues the items of `buf` in order, waking the receiving
    /// task **once for the whole burst** instead of once per item —
    /// the send-side analogue of [`Receiver::recv_many`], and the
    /// submission primitive behind pipelined request ports.
    ///
    /// Stops at the first item the channel cannot accept (a full or
    /// closed channel); unsent items remain at the front of `buf`.
    /// Returns how many items were enqueued.
    pub fn try_send_many(&self, buf: &mut VecDeque<T>) -> usize {
        let mut n = 0usize;
        // Borrowed for the burst; a panic drops it, which flushes it.
        let mut wakes = SEND_MANY_WAKES.take();
        wakes.hold(|| {
            while let Some(v) = buf.pop_front() {
                match self.try_send(v) {
                    Ok(()) => n += 1,
                    Err(TrySendError::Full(v)) | Err(TrySendError::Closed(v)) => {
                        buf.push_front(v);
                        break;
                    }
                }
            }
        });
        wakes.flush();
        SEND_MANY_WAKES.set(wakes);
        if n > 0 {
            bump(Counter::SendManyCalls);
            counters::add(Counter::SendManyMsgs, n as u64);
        }
        n
    }

    /// Closes the channel.
    pub fn close(&self) {
        plock(&self.shared).close();
    }

    /// Returns `true` if the channel can no longer deliver sends.
    pub fn is_closed(&self) -> bool {
        plock(&self.shared).send_shut()
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        plock(&self.shared).queue.len()
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Sender<T>) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

impl<T: Send> Receiver<T> {
    /// Receives the next value.
    pub fn recv(&self) -> RecvFut<'_, T> {
        RecvFut {
            shared: &self.shared,
            waiter_id: None,
            parked: false,
        }
    }

    /// Attempts a non-waiting receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = plock(&self.shared);
        if let Some(v) = st.take() {
            bump(Counter::FastRecvs);
            return Ok(v);
        }
        if st.drained_shut() {
            Err(TryRecvError::Closed)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Moves up to `max` ready messages into `buf` without waiting;
    /// returns how many were moved (0 when none are ready *or* the
    /// channel is closed — use [`Receiver::try_recv`] to
    /// distinguish).
    pub fn try_recv_many(&self, buf: &mut Vec<T>, max: usize) -> usize {
        let n = {
            let mut st = plock(&self.shared);
            let before = buf.len();
            while buf.len() - before < max {
                match st.take() {
                    Some(v) => buf.push(v),
                    None => break,
                }
            }
            buf.len() - before
        };
        if n > 0 {
            bump(Counter::RecvManyCalls);
            counters::add(Counter::RecvManyMsgs, n as u64);
        }
        n
    }

    /// Waits until at least one message is available, then moves up
    /// to `max` of them into `buf` in one drain; resolves to the
    /// number moved. Resolves to 0 when the channel is closed and
    /// drained — or immediately when `max == 0`, so callers that
    /// loop on `n == 0` must pass `max >= 1`. One wakeup and one
    /// dispatch amortize over the whole batch — the server-loop hot
    /// path.
    ///
    /// Cancel-safe: dropping the future mid-wait loses nothing;
    /// messages already drained are in `buf` (owned by the caller).
    pub async fn recv_many(&self, buf: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        // No await after the first message lands in `buf`.
        match self.recv().await {
            Ok(v) => {
                buf.push(v);
                1 + self.try_recv_many(buf, max - 1)
            }
            Err(RecvError::Closed) => 0,
        }
    }

    /// Closes the channel.
    pub fn close(&self) {
        plock(&self.shared).close();
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        plock(&self.shared).queue.len()
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Receiver<T>) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

// ---------------------------------------------------------------------------
// Channel state.
// ---------------------------------------------------------------------------

struct RecvWaiter {
    id: u64,
    waker: Waker,
}

struct SendEntry<T> {
    id: u64,
    waker: Waker,
    /// Rendezvous: the parked value. `None` for bounded space-waiters.
    value: Option<T>,
    /// Set when a receiver takes a rendezvous value.
    taken: bool,
    /// Bounded: a freed slot woke this space-waiter, and it has not
    /// yet polled to claim it.
    woken: bool,
}

struct State<T> {
    cap: Capacity,
    queue: VecDeque<T>,
    recv_waiters: VecDeque<RecvWaiter>,
    send_waiters: VecDeque<SendEntry<T>>,
    senders: usize,
    receivers: usize,
    closed: bool,
}

impl<T> State<T> {
    /// May a send enqueue now: always on an unbounded channel, below
    /// the bound on a bounded one, and on a rendezvous channel only to
    /// a receiver already waiting.
    fn has_room(&self) -> bool {
        match self.cap {
            Capacity::Unbounded => true,
            Capacity::Bounded(n) => self.queue.len() < n,
            Capacity::Rendezvous => !self.recv_waiters.is_empty(),
        }
    }

    /// The next message: queued, else a parked rendezvous sender's.
    /// Taking a queued one frees a slot.
    fn take(&mut self) -> Option<T> {
        if let Some(v) = self.queue.pop_front() {
            self.wake_one_send();
            return Some(v);
        }
        let e = self.send_waiters.iter_mut().find(|e| e.value.is_some())?;
        e.taken = true;
        e.waker.wake_by_ref();
        e.value.take()
    }

    fn wake_one_recv(&mut self) {
        if let Some(w) = self.recv_waiters.pop_front() {
            deliver_recv_wake(w.waker);
        }
    }

    /// A slot was freed: wakes one bounded space-waiter that no other
    /// freed slot has woken yet. (A rendezvous sender waits for a
    /// receiver, not for space; an unbounded one never waits.)
    fn wake_one_send(&mut self) {
        let Capacity::Bounded(_) = self.cap else {
            return;
        };
        if let Some(e) = self.send_waiters.iter_mut().find(|e| !e.woken) {
            e.woken = true;
            bump(Counter::SendWakes);
            e.waker.wake_by_ref();
        }
    }

    fn wake_everyone(&mut self) {
        for w in self.recv_waiters.drain(..) {
            w.waker.wake();
        }
        for e in self.send_waiters.iter() {
            e.waker.wake_by_ref();
        }
    }

    fn close(&mut self) {
        self.closed = true;
        self.wake_everyone();
    }

    fn drained_shut(&self) -> bool {
        (self.closed || self.senders == 0)
            && self.queue.is_empty()
            && self.send_waiters.iter().all(|e| e.value.is_none())
    }

    fn send_shut(&self) -> bool {
        self.closed || self.receivers == 0
    }

    fn deregister_recv(&mut self, waiter_id: &mut Option<u64>) {
        if let Some(id) = waiter_id.take() {
            self.recv_waiters.retain(|w| w.id != id);
        }
    }
}

// ---------------------------------------------------------------------------
// Send future.
// ---------------------------------------------------------------------------

/// Future returned by [`Sender::send`]; cancel-safe.
pub struct SendFut<'a, T> {
    shared: &'a Mutex<State<T>>,
    value: Option<T>,
    entry_id: Option<u64>,
    /// Ever took the slow path (for fast/slow accounting).
    parked: bool,
}

impl<T> Unpin for SendFut<'_, T> {}

impl<T: Send> Future for SendFut<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let fut = &mut *self;
        let mut st = plock(fut.shared);

        // Registered already?
        if let Some(id) = fut.entry_id {
            let Some(i) = st.send_waiters.iter().position(|e| e.id == id) else {
                // Entry vanished: only possible after rendezvous
                // take-and-remove... we never remove, so absent
                // means a racing cleanup; treat as closed.
                return Poll::Ready(Err(SendError::Closed(
                    fut.value.take().expect("value retained"),
                )));
            };
            if st.send_waiters[i].taken {
                st.send_waiters.remove(i);
                fut.entry_id = None;
                return send_done(true);
            }
            if st.send_shut() {
                let mut e = st.send_waiters.remove(i).expect("present");
                fut.entry_id = None;
                let v = e
                    .value
                    .take()
                    .or_else(|| fut.value.take())
                    .expect("waiting send holds its value");
                return Poll::Ready(Err(SendError::Closed(v)));
            }
            // Bounded space-waiter: retry the commit.
            if matches!(st.cap, Capacity::Bounded(_)) && st.has_room() {
                let v = fut.value.take().expect("bounded keeps value in future");
                st.queue.push_back(v);
                st.send_waiters.remove(i);
                fut.entry_id = None;
                st.wake_one_recv();
                return send_done(true);
            }
            // Keep waiting, with a fresh waker. If a freed slot woke
            // us, a send that did not wait took it: re-arm, so the
            // next freed slot wakes us again.
            let e = &mut st.send_waiters[i];
            e.waker = cx.waker().clone();
            e.woken = false;
            return Poll::Pending;
        }

        if st.send_shut() {
            return Poll::Ready(Err(SendError::Closed(
                fut.value.take().expect("unsent value present"),
            )));
        }
        if st.has_room() {
            // On a rendezvous channel this hands the value to a
            // waiting receiver through the queue; the woken receiver
            // takes it.
            st.queue
                .push_back(fut.value.take().expect("unsent value present"));
            st.wake_one_recv();
            return send_done(false);
        }
        // Park. A bounded space-waiter keeps its value; a rendezvous
        // sender leaves it in its entry for a receiver to take.
        let value = match st.cap {
            Capacity::Rendezvous => fut.value.take(),
            _ => None,
        };
        let id = fresh_id();
        st.send_waiters.push_back(SendEntry {
            id,
            waker: cx.waker().clone(),
            value,
            taken: false,
            woken: false,
        });
        fut.entry_id = Some(id);
        fut.parked = true;
        Poll::Pending
    }
}

fn send_done<T>(parked: bool) -> Poll<Result<(), SendError<T>>> {
    bump(if parked {
        Counter::SlowSends
    } else {
        Counter::FastSends
    });
    Poll::Ready(Ok(()))
}

impl<T> Drop for SendFut<'_, T> {
    fn drop(&mut self) {
        let Some(id) = self.entry_id else {
            return;
        };
        let mut st = plock(self.shared);
        if let Some(i) = st.send_waiters.iter().position(|e| e.id == id) {
            // Woken for a freed slot it will never fill (a `choose!`
            // arm that lost): the wake goes to the next space-waiter.
            if st.send_waiters.remove(i).is_some_and(|e| e.woken) {
                st.wake_one_send();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Receive future.
// ---------------------------------------------------------------------------

/// Future returned by [`Receiver::recv`]; cancel-safe.
pub struct RecvFut<'a, T> {
    shared: &'a Mutex<State<T>>,
    waiter_id: Option<u64>,
    parked: bool,
}

impl<T> Unpin for RecvFut<'_, T> {}

impl<T: Send> Future for RecvFut<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let fut = &mut *self;
        let mut st = plock(fut.shared);
        if let Some(v) = st.take() {
            st.deregister_recv(&mut fut.waiter_id);
            bump(if fut.parked {
                Counter::SlowRecvs
            } else {
                Counter::FastRecvs
            });
            return Poll::Ready(Ok(v));
        }
        if st.drained_shut() {
            st.deregister_recv(&mut fut.waiter_id);
            return Poll::Ready(Err(RecvError::Closed));
        }
        fut.parked = true;
        let registered = fut.waiter_id;
        match st
            .recv_waiters
            .iter_mut()
            .find(|w| Some(w.id) == registered)
        {
            Some(w) => w.waker = cx.waker().clone(),
            // First park, or we were popped by a wake that raced with
            // this poll finding nothing: (re-)register.
            None => {
                let id = fresh_id();
                st.recv_waiters.push_back(RecvWaiter {
                    id,
                    waker: cx.waker().clone(),
                });
                fut.waiter_id = Some(id);
            }
        }
        Poll::Pending
    }
}

impl<T> Drop for RecvFut<'_, T> {
    fn drop(&mut self) {
        let Some(id) = self.waiter_id.take() else {
            return;
        };
        let mut st = plock(self.shared);
        st.recv_waiters.retain(|w| w.id != id);
        // Pass the baton if work remains for other waiters.
        if !st.queue.is_empty() {
            st.wake_one_recv();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::task::Wake;

    /// Counts its drops.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per round, sends then receives the given numbers of values;
    /// then drops both endpoints and counts the drops.
    fn drops((tx, rx): (Sender<Counted>, Receiver<Counted>), rounds: &[(usize, usize)]) -> usize {
        let n = Arc::new(AtomicUsize::new(0));
        let mut taken = 0;
        for &(sent, recvd) in rounds {
            for _ in 0..sent {
                assert!(tx.try_send(Counted(n.clone())).is_ok());
            }
            for _ in 0..recvd {
                drop(rx.try_recv().expect("sent"));
            }
            taken += recvd;
        }
        assert_eq!(n.load(Ordering::Relaxed), taken);
        drop((tx, rx));
        n.load(Ordering::Relaxed)
    }

    #[test]
    fn a_dropped_channel_drops_every_undelivered_value_once() {
        // Bounded(8) full, and with its head partway round.
        assert_eq!(drops(channel(Capacity::Bounded(8)), &[(8, 0)]), 8);
        assert_eq!(drops(channel(Capacity::Bounded(8)), &[(8, 3)]), 8);
        // Unbounded, with its head partway round, and past a burst.
        assert_eq!(drops(channel(Capacity::Unbounded), &[(4, 3), (3, 0)]), 7);
        assert_eq!(drops(channel(Capacity::Unbounded), &[(10, 2)]), 10);
    }

    /// Counts how often it is woken.
    struct CountWakes(AtomicUsize);

    impl Wake for CountWakes {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Polls a send once with a counting waker.
    fn poll_send(fut: &mut SendFut<'_, u32>, wakes: &Arc<CountWakes>) -> bool {
        let waker = Waker::from(wakes.clone());
        Pin::new(fut)
            .poll(&mut Context::from_waker(&waker))
            .is_ready()
    }

    /// `Bounded(2)`, full, with senders A and B parked on it, in
    /// that order.
    fn two_parked(tx: &Sender<u32>) -> [(SendFut<'_, u32>, Arc<CountWakes>); 2] {
        tx.try_send(0).expect("room");
        tx.try_send(1).expect("room");
        [2, 3].map(|v| {
            let wakes = Arc::new(CountWakes(AtomicUsize::new(0)));
            let mut fut = tx.send(v);
            assert!(!poll_send(&mut fut, &wakes), "the channel is full");
            (fut, wakes)
        })
    }

    fn woken(wakes: &CountWakes) -> usize {
        wakes.0.load(Ordering::Relaxed)
    }

    #[test]
    fn each_freed_slot_wakes_one_parked_sender_once() {
        // Two receives before either woken sender runs: one wake each,
        // and both sends land.
        let (tx, rx) = channel::<u32>(Capacity::Bounded(2));
        let [(mut a, wa), (mut b, wb)] = two_parked(&tx);
        rx.try_recv().expect("full");
        rx.try_recv().expect("full");
        assert_eq!((woken(&wa), woken(&wb)), (1, 1), "wakes for A and B");
        assert!(poll_send(&mut a, &wa) && poll_send(&mut b, &wb));
        assert_eq!(rx.len(), 2);

        // One receive, and A is dropped before it runs (a `choose!`
        // arm that lost): its wake passes to B.
        let (tx, rx) = channel::<u32>(Capacity::Bounded(2));
        let [(a, wa), (mut b, wb)] = two_parked(&tx);
        rx.try_recv().expect("full");
        drop(a);
        assert_eq!((woken(&wa), woken(&wb)), (1, 1), "wakes for A and B");
        assert!(poll_send(&mut b, &wb));
        assert_eq!(rx.len(), 2);
    }
}
