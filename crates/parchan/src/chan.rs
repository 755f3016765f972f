//! MPMC channels over real threads, with the same semantics as the
//! simulator channels: rendezvous / bounded / unbounded capacities,
//! cancel-safe futures (usable as `choose!` arms), close on either
//! side. [`Capacity`] and the error types are `chanos_select::vocab`'s
//! — the same types `chanos-csp` and `chanos-rt` export.
//!
//! # One core
//!
//! Every channel is one `Mutex<State>`: its queue, its parked
//! receivers and its parked senders under one lock. `State` is
//! `chanos_select::state::State`, the bookkeeping the simulator's
//! channel keeps too, so both backends decide by one copy of the rules
//! when a send may enqueue (`State::has_room`: an `Unbounded` send
//! always may, so it never waits and `try_send` reports only `Closed`;
//! a `Bounded(n)` send while fewer than `n` are queued; a `Rendezvous`
//! send only to a receiver already waiting), which parked sender a
//! freed slot wakes, and whom closing or dropping an endpoint wakes. A
//! send that may not enqueue parks, and this is the only place a
//! sender parks.
//!
//! A freed slot wakes one space-waiter that no other freed slot has
//! woken yet; a woken sender that finds the slot taken re-arms, and one
//! dropped before it ran passes its wake on. What stays here is how a
//! wake is delivered: a message wakes the first parked receiver and
//! takes it off the list, a rendezvous value reaches a waiting
//! receiver through the queue, and a receiver dropped while messages
//! remain queued passes its wake on the same way.
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

use crate::sync::{Arc, Mutex};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::counters::{self, Counter};
use crate::executor::plock;
use chanos_select::state::{Repoll, Shut};

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

// ---------------------------------------------------------------------------
// Endpoints.
// ---------------------------------------------------------------------------

/// The channel's bookkeeping: messages carry no stamp, and a parked
/// receiver or sender leaves its waker.
type State<T> = chanos_select::state::State<T, (), Waker, Waker>;

/// Creates a channel of the given capacity.
pub fn channel<T: Send>(cap: Capacity) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Mutex::new(State::new(cap)));
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
            .field("queued", &st.len())
            .field("closed", &st.is_closed())
            .finish(),
        Err(_) => f.debug_struct(name).field("state", &"<locked>").finish(),
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        plock(&self.shared).add_sender();
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        plock(&self.shared).add_receiver();
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = plock(&self.shared);
        let shut = st.drop_sender();
        wake_shut(&mut st, shut);
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = plock(&self.shared);
        let shut = st.drop_receiver();
        wake_shut(&mut st, shut);
    }
}

impl<T: Send> Sender<T> {
    /// Sends a value according to the channel discipline.
    pub fn send(&self, value: T) -> SendFut<'_, T> {
        SendFut {
            shared: &self.shared,
            value: Some(value),
            entry_id: None,
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
            enqueue(&mut st, value);
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
        close(&self.shared);
    }

    /// Returns `true` if the channel can no longer deliver sends.
    pub fn is_closed(&self) -> bool {
        plock(&self.shared).send_shut()
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        plock(&self.shared).len()
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
        if let Some(v) = take(&mut st) {
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
                match take(&mut st) {
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
        close(&self.shared);
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        plock(&self.shared).len()
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
// Wakes.
// ---------------------------------------------------------------------------

fn close<T>(shared: &Mutex<State<T>>) {
    let mut st = plock(shared);
    let shut = st.close();
    wake_shut(&mut st, shut);
}

/// Wakes the waiters an endpoint change shut out. A woken receiver
/// leaves the list; it re-registers if it must wait again.
fn wake_shut<T>(st: &mut State<T>, shut: Shut) {
    if shut.receivers {
        for w in st.recv_waiters.drain(..) {
            w.token.wake();
        }
    }
    if shut.senders {
        for w in st.parked_senders() {
            w.wake_by_ref();
        }
    }
}

/// Enqueues a value and wakes one parked receiver.
fn enqueue<T>(st: &mut State<T>, value: T) {
    st.push(value, ());
    wake_one_recv(st);
}

/// Wakes the first parked receiver, taking it off the list.
fn wake_one_recv<T>(st: &mut State<T>) {
    if let Some(w) = st.recv_waiters.pop_front() {
        deliver_recv_wake(w.token);
    }
}

/// The next message: queued, else a parked rendezvous sender's.
fn take<T>(st: &mut State<T>) -> Option<T> {
    if let Some((v, (), space)) = st.pop() {
        if let Some(w) = space {
            bump(Counter::SendWakes);
            w.wake_by_ref();
        }
        return Some(v);
    }
    let (v, sender) = st.take_parked()?;
    sender.wake_by_ref();
    Some(v)
}

// ---------------------------------------------------------------------------
// Send future.
// ---------------------------------------------------------------------------

/// Future returned by [`Sender::send`]; cancel-safe.
pub struct SendFut<'a, T> {
    shared: &'a Mutex<State<T>>,
    value: Option<T>,
    entry_id: Option<u64>,
}

impl<T> Unpin for SendFut<'_, T> {}

impl<T: Send> Future for SendFut<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let fut = &mut *self;
        let mut st = plock(fut.shared);

        if let Some(id) = fut.entry_id.take() {
            return match st.repoll_sender(id, cx.waker(), &mut fut.value) {
                Repoll::Wait => {
                    fut.entry_id = Some(id);
                    Poll::Pending
                }
                Repoll::Taken(_) => send_done(true),
                Repoll::Shut => Poll::Ready(Err(SendError::Closed(
                    fut.value.take().expect("waiting send holds its value"),
                ))),
                Repoll::Room => {
                    let v = fut.value.take().expect("bounded keeps value in future");
                    enqueue(&mut st, v);
                    send_done(true)
                }
            };
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
            enqueue(&mut st, fut.value.take().expect("unsent value present"));
            return send_done(false);
        }
        fut.entry_id = Some(st.register_sender(cx.waker().clone(), &mut fut.value));
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
        if let (_, Some(w)) = st.cancel_send(id) {
            bump(Counter::SendWakes);
            w.wake_by_ref();
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
        if let Some(v) = take(&mut st) {
            st.deregister_receiver(&mut fut.waiter_id);
            bump(if fut.parked {
                Counter::SlowRecvs
            } else {
                Counter::FastRecvs
            });
            return Poll::Ready(Ok(v));
        }
        if st.drained_shut() {
            st.deregister_receiver(&mut fut.waiter_id);
            return Poll::Ready(Err(RecvError::Closed));
        }
        fut.parked = true;
        let registered = fut.waiter_id;
        match st
            .recv_waiters
            .iter_mut()
            .find(|w| Some(w.id) == registered)
        {
            Some(w) => w.token = cx.waker().clone(),
            // First park, or we were popped by a wake that raced with
            // this poll finding nothing: (re-)register.
            None => fut.waiter_id = Some(st.register_receiver(cx.waker().clone())),
        }
        Poll::Pending
    }
}

impl<T> Drop for RecvFut<'_, T> {
    fn drop(&mut self) {
        if self.waiter_id.is_none() {
            return;
        }
        let mut st = plock(self.shared);
        st.deregister_receiver(&mut self.waiter_id);
        // Pass the baton if work remains for other waiters.
        if !st.is_empty() {
            wake_one_recv(&mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
