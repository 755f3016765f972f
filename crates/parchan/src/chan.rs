//! MPMC channels over real threads, with the same semantics as the
//! simulator channels: rendezvous / bounded / unbounded capacities,
//! cancel-safe futures (usable as `choose!` arms), close on either
//! side. [`Capacity`] and the error types are `chanos_select::vocab`'s
//! — the same types `chanos-csp` and `chanos-rt` export.
//!
//! # Two cores, chosen by whether a sender may wait
//!
//! [`channel`] picks the implementation from the capacity it is
//! given; there is nothing else to set.
//!
//! The paper's bet is that messaging can be cheap enough to structure
//! an OS around. Serializing every channel operation on one
//! `Mutex<State>` makes a "send" mostly a lock handoff, so an
//! **`Unbounded`** channel, whose sender never waits, is a
//! **lock-free ring** that keeps the channel mutex off the common
//! path entirely:
//!
//! * The ring is a Vyukov-style slot ring: each slot carries a lap
//!   stamp, `head`/`tail` are claim tickets, and a send or receive is
//!   one CAS plus one store — no lock, no syscall.
//! * It is the head segment of the queue, with a mutex-guarded spill
//!   deque behind it. A send that finds the ring full spills instead
//!   of waiting. The lock is touched only while a burst exceeds the
//!   ring, and the `overflow_len` flag routes new sends behind the
//!   spilled ones, so per-producer FIFO is preserved.
//! * **Clone/drop/close/len** use atomic refcounts and flags.
//! * **Only a receiver parks**: a receive that finds the ring empty
//!   takes the small `slow` mutex, registers its waker, and *re-checks
//!   the ring* before returning `Pending` (SeqCst fences pair the
//!   producer's publish with the consumer's park, so a wake can never
//!   be lost).
//! * **Wakes are coalesced**: a sender only touches the waiter list
//!   when `recv_parked > 0`. In the steady state where receivers keep
//!   up (the empty→nonempty edge never fires because nobody parks),
//!   sends perform no wake work at all; `chan.wakes_elided` counts
//!   how often.
//!
//! **`Rendezvous`** and every **`Bounded(n)`** channel, where a sender
//! may wait, use the **mutex core**, one `Mutex<State>` per channel:
//! the one place a sender parks. A freed slot wakes one space-waiter
//! that no other freed slot has woken yet; a woken sender that finds
//! the slot taken re-arms, and one dropped before it ran passes its
//! wake on.
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

use crate::sync::{fence, Arc, AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering, ValueCell};
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
// Shared channel object: one of two implementations.
// ---------------------------------------------------------------------------

enum Imp<T> {
    /// Everything under one mutex: `Rendezvous` and `Bounded(n)`,
    /// where a sender may wait.
    Mutex(Mutex<State<T>>),
    /// Lock-free ring with a spill: `Unbounded`, where none does.
    Ring(Ring<T>),
}

struct Shared<T> {
    imp: Imp<T>,
}

/// Creates a channel of the given capacity. An unbounded channel
/// uses the lock-free ring; a rendezvous or bounded one, where a
/// sender may wait for a receiver or for space, the mutex core.
pub fn channel<T: Send>(cap: Capacity) -> (Sender<T>, Receiver<T>) {
    let mutex_core = |bound| {
        Imp::Mutex(Mutex::new(State {
            bound,
            queue: VecDeque::new(),
            recv_waiters: VecDeque::new(),
            send_waiters: VecDeque::new(),
            senders: 1,
            receivers: 1,
            closed: false,
        }))
    };
    endpoints(match cap {
        Capacity::Unbounded => Imp::Ring(Ring::new(UNBOUNDED_SEG)),
        Capacity::Rendezvous => mutex_core(None),
        Capacity::Bounded(n) => mutex_core(Some(n)),
    })
}

fn endpoints<T>(imp: Imp<T>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared { imp });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// Sending endpoint; clone freely across tasks and threads.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving endpoint; clone freely across tasks and threads.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
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
/// legal. Uses `try_lock` with a `<locked>` fallback on the mutex
/// implementation; the ring implementation is lock-free to begin
/// with.
fn debug_endpoint<T>(
    name: &str,
    shared: &Shared<T>,
    f: &mut std::fmt::Formatter<'_>,
) -> std::fmt::Result {
    match &shared.imp {
        Imp::Mutex(m) => match m.try_lock() {
            Ok(st) => f
                .debug_struct(name)
                .field("queued", &st.queue.len())
                .field("closed", &st.closed)
                .finish(),
            Err(_) => f.debug_struct(name).field("state", &"<locked>").finish(),
        },
        Imp::Ring(r) => f
            .debug_struct(name)
            .field("queued", &r.len())
            .field("closed", &r.closed.load(Ordering::Relaxed))
            .finish(),
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        match &self.shared.imp {
            Imp::Mutex(m) => plock(m).senders += 1,
            Imp::Ring(r) => {
                r.senders.fetch_add(1, Ordering::Relaxed);
            }
        }
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        match &self.shared.imp {
            Imp::Mutex(m) => plock(m).receivers += 1,
            Imp::Ring(r) => {
                r.receivers.fetch_add(1, Ordering::Relaxed);
            }
        }
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        match &self.shared.imp {
            Imp::Mutex(m) => {
                let mut st = plock(m);
                st.senders -= 1;
                if st.senders == 0 {
                    st.wake_everyone();
                }
            }
            Imp::Ring(r) => {
                // AcqRel, Arc-style: Release orders our last sends
                // before the count drop; Acquire on the final drop
                // orders every peer's sends before `wake_all`.
                // Parkers see senders == 0 through the slow-lock
                // handoff with `wake_all` (register and drain take
                // the same mutex).
                if r.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                    r.wake_all();
                }
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        match &self.shared.imp {
            Imp::Mutex(m) => {
                let mut st = plock(m);
                st.receivers -= 1;
                if st.receivers == 0 {
                    st.wake_everyone();
                }
            }
            Imp::Ring(r) => {
                // AcqRel: see Sender::drop.
                if r.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                    r.wake_all();
                }
            }
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
        match &self.shared.imp {
            Imp::Mutex(m) => {
                let mut st = plock(m);
                if st.send_shut() {
                    return Err(TrySendError::Closed(value));
                }
                // Bounded: room in the queue. Rendezvous: a receiver
                // already waiting to take the value.
                let accepts = match st.bound {
                    Some(n) => st.queue.len() < n,
                    None => !st.recv_waiters.is_empty(),
                };
                if !accepts {
                    return Err(TrySendError::Full(value));
                }
                st.queue.push_back(value);
                st.wake_one_recv();
            }
            Imp::Ring(r) => r.send(value).map_err(TrySendError::Closed)?,
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
        close_shared(&self.shared);
    }

    /// Returns `true` if the channel can no longer deliver sends.
    pub fn is_closed(&self) -> bool {
        match &self.shared.imp {
            Imp::Mutex(m) => plock(m).send_shut(),
            Imp::Ring(r) => r.send_shut(),
        }
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        shared_len(&self.shared)
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
        match &self.shared.imp {
            Imp::Mutex(m) => {
                let mut st = plock(m);
                if let Some(v) = st.queue.pop_front() {
                    st.wake_one_send();
                    bump(Counter::FastRecvs);
                    return Ok(v);
                }
                if let Some(v) = take_from_parked_sender(&mut st) {
                    bump(Counter::FastRecvs);
                    return Ok(v);
                }
                if st.drained_shut() {
                    Err(TryRecvError::Closed)
                } else {
                    Err(TryRecvError::Empty)
                }
            }
            Imp::Ring(r) => {
                match r.pop_any() {
                    Popped::Got(v) => {
                        bump(Counter::FastRecvs);
                        return Ok(v);
                    }
                    Popped::Busy => return Err(TryRecvError::Empty),
                    Popped::Empty => {}
                }
                if r.recv_shut_flags() {
                    // Flags seen *before* a pop attempt would race a
                    // final in-flight send; re-pop after the flags.
                    match r.pop_any() {
                        Popped::Got(v) => {
                            bump(Counter::FastRecvs);
                            Ok(v)
                        }
                        // A final send is still materializing.
                        Popped::Busy => Err(TryRecvError::Empty),
                        Popped::Empty => Err(TryRecvError::Closed),
                    }
                } else {
                    Err(TryRecvError::Empty)
                }
            }
        }
    }

    /// Moves up to `max` ready messages into `buf` without waiting;
    /// returns how many were moved (0 when none are ready *or* the
    /// channel is closed — use [`Receiver::try_recv`] to
    /// distinguish).
    pub fn try_recv_many(&self, buf: &mut Vec<T>, max: usize) -> usize {
        let n = match &self.shared.imp {
            Imp::Mutex(m) => {
                let mut st = plock(m);
                mutex_drain(&mut st, buf, max)
            }
            Imp::Ring(r) => r.drain_into(buf, max),
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
        close_shared(&self.shared);
    }

    /// Number of buffered messages.
    pub fn len(&self) -> usize {
        shared_len(&self.shared)
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

fn close_shared<T>(shared: &Shared<T>) {
    match &shared.imp {
        Imp::Mutex(m) => {
            let mut st = plock(m);
            st.closed = true;
            st.wake_everyone();
        }
        Imp::Ring(r) => {
            // Release suffices: a parker that misses this store in
            // its flag re-check registered before `wake_all` drained
            // the waiter list (both take the slow mutex), so the
            // drain wakes it; one that registers after the drain
            // locks the mutex after us and the lock handoff makes
            // the store visible.
            r.closed.store(true, Ordering::Release);
            r.wake_all();
        }
    }
}

fn shared_len<T>(shared: &Shared<T>) -> usize {
    match &shared.imp {
        Imp::Mutex(m) => plock(m).queue.len(),
        Imp::Ring(r) => r.len(),
    }
}

// ---------------------------------------------------------------------------
// Mutex implementation (Rendezvous + Bounded).
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
    /// `Some(n)` = `Bounded(n)`; `None` = `Rendezvous`. (Unbounded
    /// channels never use this core.)
    bound: Option<usize>,
    queue: VecDeque<T>,
    recv_waiters: VecDeque<RecvWaiter>,
    send_waiters: VecDeque<SendEntry<T>>,
    senders: usize,
    receivers: usize,
    closed: bool,
}

impl<T> State<T> {
    fn wake_one_recv(&mut self) {
        if let Some(w) = self.recv_waiters.pop_front() {
            deliver_recv_wake(w.waker);
        }
    }

    /// A slot was freed: wakes one bounded space-waiter that no other
    /// freed slot has woken yet. (A rendezvous sender waits for a
    /// receiver, not for space.)
    fn wake_one_send(&mut self) {
        if self.bound.is_none() {
            return;
        }
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

    fn drained_shut(&self) -> bool {
        (self.closed || self.senders == 0)
            && self.queue.is_empty()
            && self.send_waiters.iter().all(|e| e.value.is_none())
    }

    fn send_shut(&self) -> bool {
        self.closed || self.receivers == 0
    }
}

fn take_from_parked_sender<T>(st: &mut State<T>) -> Option<T> {
    for e in st.send_waiters.iter_mut() {
        if let Some(v) = e.value.take() {
            e.taken = true;
            e.waker.wake_by_ref();
            return Some(v);
        }
    }
    None
}

/// Drains up to `max` messages (queued, then parked rendezvous
/// senders) under the already-held lock, waking one space-waiter per
/// freed slot.
fn mutex_drain<T>(st: &mut State<T>, buf: &mut Vec<T>, max: usize) -> usize {
    let mut n = 0;
    while n < max {
        if let Some(v) = st.queue.pop_front() {
            st.wake_one_send();
            buf.push(v);
            n += 1;
            continue;
        }
        if let Some(v) = take_from_parked_sender(st) {
            buf.push(v);
            n += 1;
            continue;
        }
        break;
    }
    n
}

fn deregister_recv<T>(st: &mut State<T>, waiter_id: &mut Option<u64>) {
    if let Some(id) = waiter_id.take() {
        st.recv_waiters.retain(|w| w.id != id);
    }
}

// ---------------------------------------------------------------------------
// Lock-free ring implementation.
// ---------------------------------------------------------------------------

/// Physical ring size of the unbounded head segment; bursts deeper
/// than this spill into the mutex-guarded overflow deque.
const UNBOUNDED_SEG: usize = 256;

/// Fast-path retries before a receive takes the slow (parking) path.
const SPIN_TRIES: usize = 4;

// (A task-level yield-before-park variant — self-waking through the
// run queue a couple of times before registering — was measured
// slower across the whole matrix on the 1-CPU dev box: every park
// became three dispatches, multiplied by per-message ping-pong.
// Parking immediately after the inline spin wins there.)

/// Internal retries inside one ring op while a peer is mid-operation
/// (ticket claimed, slot not yet published) before giving up: a push
/// then spills, a pop reports `Busy`. Unbounded spinning here would
/// burn a whole scheduler quantum whenever the peer is preempted
/// between claim and publish.
const BUSY_RETRY: usize = 32;

/// Outcome of one ring/overflow pop attempt.
enum Popped<T> {
    /// Dequeued.
    Got(T),
    /// Nothing buffered.
    Empty,
    /// A push is mid-flight; a message is about to appear.
    Busy,
}

#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    /// Lap stamp: `ticket` = writable this lap, `ticket + 1` =
    /// readable, `ticket + one_lap` = writable next lap.
    stamp: AtomicUsize,
    value: ValueCell<T>,
}

/// The unbounded queue: a Vyukov-style slot ring as its head
/// segment, with `overflow` as the spill segment.
struct Ring<T> {
    /// Pop ticket (index | lap), on its own cache line.
    head: CachePadded<AtomicUsize>,
    /// Push ticket (index | lap), on its own cache line.
    tail: CachePadded<AtomicUsize>,
    buf: Box<[Slot<T>]>,
    /// Slots in the head segment.
    cap: usize,
    /// Power of two > cap: one full lap of tickets.
    one_lap: usize,
    overflow: Mutex<VecDeque<T>>,
    /// Messages currently in `overflow`. Nonzero routes *all* new
    /// sends into the overflow (behind the spilled ones), preserving
    /// per-producer FIFO across the spill.
    overflow_len: AtomicUsize,
    /// Parked receivers — the only state behind a lock on this path,
    /// touched exclusively when a receive must wait or be woken.
    slow: Mutex<VecDeque<RecvWaiter>>,
    recv_parked: AtomicUsize,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    closed: AtomicBool,
}

// SAFETY: the slot protocol hands each value from exactly one pusher
// to exactly one popper (the stamp CAS serializes ownership), so the
// ring is Sync iff T can move between threads.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// A queue whose head segment has `cap` slots.
    fn new(cap: usize) -> Ring<T> {
        assert!(cap > 0, "ring capacity must be positive");
        let one_lap = (cap + 1).next_power_of_two();
        let buf: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                stamp: AtomicUsize::new(i),
                value: ValueCell::new(),
            })
            .collect();
        Ring {
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
            buf,
            cap,
            one_lap,
            overflow: Mutex::new(VecDeque::new()),
            overflow_len: AtomicUsize::new(0),
            slow: Mutex::new(VecDeque::new()),
            recv_parked: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            closed: AtomicBool::new(false),
        }
    }

    /// One lock-free push attempt with a bounded internal retry.
    /// Hands the value back when the segment has no room now: it is
    /// full, or a pop is mid-flight.
    fn ring_push(&self, value: T) -> Result<(), T> {
        let mut spins = 0usize;
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        loop {
            let index = tail & (self.one_lap - 1);
            let lap = tail & !(self.one_lap - 1);
            let slot = &self.buf[index];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == tail {
                let new_tail = if index + 1 < self.cap {
                    tail + 1
                } else {
                    lap.wrapping_add(self.one_lap)
                };
                // ordering: the ticket CAS stays SeqCst so it is
                // globally ordered against the SeqCst fences in the
                // full/empty probes below and in `ring_pop` — a
                // probe's post-fence index read must not miss a
                // ticket already claimed, or the ring could be reported
                // full or empty while an older message is in flight.
                match self.tail.0.compare_exchange_weak(
                    tail,
                    new_tail,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the ticket CAS gives us exclusive
                        // write access to this slot for this lap, and
                        // last lap's pop emptied it.
                        unsafe { slot.value.put(value) };
                        slot.stamp.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if stamp.wrapping_add(self.one_lap) == tail.wrapping_add(1) {
                // The slot still holds last lap's value: maybe full.
                // ordering: SeqCst fence pairs with the head-side
                // ticket CAS — after it, a stale `head` read cannot
                // hide a pop that freed a slot before our stamp read.
                fence(Ordering::SeqCst);
                let head = self.head.0.load(Ordering::Relaxed);
                if head.wrapping_add(self.one_lap) == tail {
                    return Err(value);
                }
                // A pop is mid-flight; retry briefly, then spill
                // instead of burning the quantum the preempted peer
                // needs.
                spins += 1;
                if spins > BUSY_RETRY {
                    return Err(value);
                }
                std::hint::spin_loop();
                tail = self.tail.0.load(Ordering::Relaxed);
            } else {
                spins += 1;
                if spins > BUSY_RETRY {
                    return Err(value);
                }
                std::hint::spin_loop();
                tail = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// One lock-free pop attempt with a bounded internal retry.
    fn ring_pop(&self) -> Popped<T> {
        let mut spins = 0usize;
        let mut head = self.head.0.load(Ordering::Relaxed);
        loop {
            let index = head & (self.one_lap - 1);
            let lap = head & !(self.one_lap - 1);
            let slot = &self.buf[index];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == head.wrapping_add(1) {
                let new_head = if index + 1 < self.cap {
                    head + 1
                } else {
                    lap.wrapping_add(self.one_lap)
                };
                // ordering: SeqCst for the same reason as the tail
                // ticket CAS — the full/empty probe fences order
                // against it.
                match self.head.0.compare_exchange_weak(
                    head,
                    new_head,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the ticket CAS gives us exclusive
                        // read access; the stamp says it was written.
                        let value = unsafe { slot.value.take() };
                        slot.stamp
                            .store(head.wrapping_add(self.one_lap), Ordering::Release);
                        return Popped::Got(value);
                    }
                    Err(h) => head = h,
                }
            } else if stamp == head {
                // Slot not yet written this lap: empty, unless a push
                // claimed the ticket and is completing right now.
                // ordering: SeqCst fence pairs with the tail-side
                // ticket CAS — after it, a stale `tail` read cannot
                // hide a push already claimed before our stamp read.
                fence(Ordering::SeqCst);
                let tail = self.tail.0.load(Ordering::Relaxed);
                if tail == head {
                    return Popped::Empty;
                }
                spins += 1;
                if spins > BUSY_RETRY {
                    return Popped::Busy;
                }
                std::hint::spin_loop();
                head = self.head.0.load(Ordering::Relaxed);
            } else {
                spins += 1;
                if spins > BUSY_RETRY {
                    return Popped::Busy;
                }
                std::hint::spin_loop();
                head = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// A send never waits: unless the channel is shut, the value
    /// lands in the ring or in the spill.
    fn send(&self, value: T) -> Result<(), T> {
        if self.send_shut() {
            return Err(value);
        }
        self.push(value);
        self.after_push();
        Ok(())
    }

    /// Enqueues `value`: into the ring, or behind the spill.
    fn push(&self, value: T) {
        // Overflow nonempty ⇒ its messages predate anything we could
        // ring-push, so everyone queues behind them until they drain.
        // Acquire: our *own* prior spills are program-ordered, which
        // is all per-producer FIFO needs; cross-producer visibility
        // rides the parking-protocol fences.
        if self.overflow_len.load(Ordering::Acquire) > 0 {
            self.spill(value);
        } else if let Err(v) = self.ring_push(value) {
            self.spill(v);
        }
    }

    fn spill(&self, value: T) {
        bump(Counter::OverflowSpills);
        let mut ov = plock(&self.overflow);
        ov.push_back(value);
        // Release publishes the count after the deque push; readers
        // that act on it take the overflow mutex first. A parked
        // consumer's visibility comes from the SeqCst fence pair
        // (spill → `after_push` fence → parked scan vs. register →
        // fence → re-pop), not from this RMW's order.
        self.overflow_len.fetch_add(1, Ordering::Release);
    }

    /// Dequeues from the ring, then from the overflow spill. The
    /// overflow is consulted only on a *true* `Empty`. On `Busy` a
    /// push is still materializing, and values published behind it
    /// may be older than spilled ones *of the same producer*: a
    /// producer that ring-pushed behind the in-flight ticket spills
    /// its next value when it finds the ring busy. Taking from the
    /// spill then would break that producer's FIFO. (The in-flight
    /// push itself is never a spilled value's producer's: while a
    /// producer has a value in the spill, every later send of its
    /// goes there too.)
    fn pop_any(&self) -> Popped<T> {
        match self.ring_pop() {
            Popped::Got(v) => return Popped::Got(v),
            Popped::Busy => return Popped::Busy,
            Popped::Empty => {}
        }
        // Acquire routing check; when the Dekker fences say a parked
        // consumer must see a racing spill, they order this load too.
        if self.overflow_len.load(Ordering::Acquire) > 0 {
            let mut ov = plock(&self.overflow);
            // The ring drains first (its items are older); a racing
            // consumer may have emptied the overflow meanwhile.
            match self.ring_pop() {
                Popped::Got(v) => return Popped::Got(v),
                Popped::Busy => return Popped::Busy,
                Popped::Empty => {}
            }
            if let Some(v) = ov.pop_front() {
                // Release: count drops only after the pop, so a
                // sender reading 0 races no deque mutation (the
                // deque itself is mutex-protected).
                self.overflow_len.fetch_sub(1, Ordering::Release);
                return Popped::Got(v);
            }
        }
        Popped::Empty
    }

    /// Drains up to `max` messages into `buf`; returns the count. A
    /// push observed mid-flight (`Busy`) ends the drain early.
    fn drain_into(&self, buf: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        let mut busy = false;
        while n < max {
            match self.ring_pop() {
                Popped::Got(v) => {
                    buf.push(v);
                    n += 1;
                }
                Popped::Busy => {
                    busy = true;
                    break;
                }
                Popped::Empty => break,
            }
        }
        if n < max && !busy && self.overflow_len.load(Ordering::Acquire) > 0 {
            let mut ov = plock(&self.overflow);
            // Re-drain the ring *under the lock* (as `pop_any` does):
            // between our Empty observation and acquiring the lock,
            // another consumer may have emptied the overflow, letting
            // producers ring-push again — ring messages are older
            // than the spill and must come out first.
            loop {
                match self.ring_pop() {
                    Popped::Got(v) => {
                        buf.push(v);
                        n += 1;
                        if n == max {
                            return n;
                        }
                    }
                    Popped::Busy => return n,
                    Popped::Empty => break,
                }
            }
            while n < max {
                match ov.pop_front() {
                    Some(v) => {
                        self.overflow_len.fetch_sub(1, Ordering::Release);
                        buf.push(v);
                        n += 1;
                    }
                    None => break,
                }
            }
        }
        n
    }

    // Relaxed throughout: a torn-snapshot guard (the tail re-read)
    // plus coherence is all a count needs. The one caller that acts
    // on `len() > 0` for correctness — the cancelled-future Drop
    // re-issuing a consumed wake — already holds a happens-before
    // edge to the push via the slow-lock handoff that consumed its
    // waiter entry.
    fn len(&self) -> usize {
        let ring = loop {
            let tail = self.tail.0.load(Ordering::Relaxed);
            let head = self.head.0.load(Ordering::Relaxed);
            if self.tail.0.load(Ordering::Relaxed) == tail {
                let hix = head & (self.one_lap - 1);
                let tix = tail & (self.one_lap - 1);
                break if hix < tix {
                    tix - hix
                } else if hix > tix {
                    self.cap - hix + tix
                } else if tail == head {
                    0
                } else {
                    self.cap
                };
            }
        };
        ring + self.overflow_len.load(Ordering::Relaxed)
    }

    // Acquire on the shut flags (here and in `recv_shut_flags`):
    // pre-park reads are advisory, and the post-park re-check is
    // ordered against `close`/last-drop by the slow-lock handoff —
    // whichever of registration and waiter-drain came second saw the
    // other (see `close_shared`). Acquire additionally orders the
    // drained-queue reads that follow a `true` here.
    fn send_shut(&self) -> bool {
        self.closed.load(Ordering::Acquire) || self.receivers.load(Ordering::Acquire) == 0
    }

    /// Closed/disconnected flags only; the caller must re-attempt a
    /// pop *after* reading them to conclude "drained".
    fn recv_shut_flags(&self) -> bool {
        self.closed.load(Ordering::Acquire) || self.senders.load(Ordering::Acquire) == 0
    }

    /// Post-push wake protocol: touch the waiter lock only when a
    /// receiver is actually parked. The SeqCst fence pairs with the
    /// parking side's fence (park = register → fence → re-pop), so
    /// either we observe `recv_parked > 0` or the parker's re-pop
    /// observes our message.
    fn after_push(&self) {
        // ordering: SeqCst fence + SeqCst parked scan form one half
        // of the lost-wake Dekker; the parker's register → fence →
        // re-pop is the other. Model-checked on this code by
        // `tests/protocols.rs` (`unbounded_ring_delivers_in_order`
        // catches the scan moved before the publish).
        fence(Ordering::SeqCst);
        if self.recv_parked.load(Ordering::SeqCst) > 0 {
            self.wake_one_recv();
        } else {
            bump(Counter::WakesElided);
        }
    }

    fn wake_one_recv(&self) {
        let w = {
            let mut s = plock(&self.slow);
            let e = s.pop_front();
            if e.is_some() {
                // ordering: `recv_parked` is read by the lock-free
                // `after_push` scan; every mutation stays SeqCst so a
                // scan never reads a value that un-publishes a
                // registration it must see (stale-high is a spurious
                // lock, stale-low a lost wake).
                self.recv_parked.fetch_sub(1, Ordering::SeqCst);
            }
            e
        };
        if let Some(w) = w {
            deliver_recv_wake(w.waker);
        }
    }

    /// Wakes every parked receiver (close / last-endpoint-drop).
    fn wake_all(&self) {
        let recvs = {
            let mut s = plock(&self.slow);
            // ordering: see `wake_one_recv`.
            self.recv_parked.store(0, Ordering::SeqCst);
            std::mem::take(&mut *s)
        };
        for w in recvs {
            w.waker.wake();
        }
    }

    /// Registers (or refreshes) a parked receiver; returns `true` if
    /// a new entry was inserted.
    fn park_recv(&self, waiter_id: &mut Option<u64>, waker: &Waker) -> bool {
        let mut s = plock(&self.slow);
        if let Some(id) = *waiter_id {
            if let Some(e) = s.iter_mut().find(|w| w.id == id) {
                if !e.waker.will_wake(waker) {
                    e.waker = waker.clone();
                }
                return false;
            }
        }
        // First park, or our entry was consumed by a wake that raced
        // this poll: (re-)insert.
        let id = fresh_id();
        s.push_back(RecvWaiter {
            id,
            waker: waker.clone(),
        });
        *waiter_id = Some(id);
        // ordering: the registration write of the Dekker pair — the
        // caller's SeqCst fence and re-pop follow. See
        // `wake_one_recv` for why all parked-counter ops are SeqCst.
        self.recv_parked.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Removes a parked receiver entry; returns `true` if it was
    /// still present (i.e. no wake was consumed on our behalf).
    fn unpark_recv(&self, waiter_id: &mut Option<u64>) -> bool {
        let Some(id) = waiter_id.take() else {
            return true;
        };
        let mut s = plock(&self.slow);
        let before = s.len();
        s.retain(|w| w.id != id);
        if s.len() < before {
            // ordering: see `wake_one_recv`.
            self.recv_parked.fetch_sub(1, Ordering::SeqCst);
            true
        } else {
            false
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Release undelivered messages. (`Busy` is impossible here:
        // we have exclusive access, so no push is mid-flight.)
        while let Popped::Got(v) = self.ring_pop() {
            drop(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Send future.
// ---------------------------------------------------------------------------

/// Future returned by [`Sender::send`]; cancel-safe.
pub struct SendFut<'a, T> {
    shared: &'a Shared<T>,
    value: Option<T>,
    entry_id: Option<u64>,
    /// Ever took the slow path (for fast/slow accounting).
    parked: bool,
}

impl<T> Unpin for SendFut<'_, T> {}

impl<T: Send> Future for SendFut<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        match &this.shared.imp {
            Imp::Mutex(m) => poll_mutex_send(m, this, cx),
            Imp::Ring(r) => match r.send(this.value.take().expect("unsent value present")) {
                Ok(()) => send_done(false),
                Err(v) => Poll::Ready(Err(SendError::Closed(v))),
            },
        }
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

fn poll_mutex_send<T: Send>(
    m: &Mutex<State<T>>,
    fut: &mut SendFut<'_, T>,
    cx: &mut Context<'_>,
) -> Poll<Result<(), SendError<T>>> {
    let mut st = plock(m);

    // Registered already?
    if let Some(id) = fut.entry_id {
        let pos = st.send_waiters.iter().position(|e| e.id == id);
        match pos {
            None => {
                // Entry vanished: only possible after rendezvous
                // take-and-remove... we never remove, so absent
                // means a racing cleanup; treat as closed.
                return Poll::Ready(Err(SendError::Closed(
                    fut.value.take().expect("value retained"),
                )));
            }
            Some(i) => {
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
                if let Some(n) = st.bound {
                    if st.queue.len() < n {
                        let v = fut.value.take().expect("bounded keeps value in future");
                        st.queue.push_back(v);
                        st.send_waiters.remove(i);
                        fut.entry_id = None;
                        st.wake_one_recv();
                        return send_done(true);
                    }
                }
                // Keep waiting, with a fresh waker. If a freed slot
                // woke us, a send that did not wait took it: re-arm, so
                // the next freed slot wakes us again.
                let e = &mut st.send_waiters[i];
                e.waker = cx.waker().clone();
                e.woken = false;
                return Poll::Pending;
            }
        }
    }

    if st.send_shut() {
        return Poll::Ready(Err(SendError::Closed(
            fut.value.take().expect("unsent value present"),
        )));
    }
    match st.bound {
        Some(n) => {
            if st.queue.len() < n {
                st.queue
                    .push_back(fut.value.take().expect("unsent value present"));
                st.wake_one_recv();
                send_done(false)
            } else {
                let id = fresh_id();
                st.send_waiters.push_back(SendEntry {
                    id,
                    waker: cx.waker().clone(),
                    value: None,
                    taken: false,
                    woken: false,
                });
                fut.entry_id = Some(id);
                fut.parked = true;
                Poll::Pending
            }
        }
        None => {
            if !st.recv_waiters.is_empty() {
                // Hand off through the queue; the woken receiver
                // takes it.
                st.queue
                    .push_back(fut.value.take().expect("unsent value present"));
                st.wake_one_recv();
                return send_done(false);
            }
            let id = fresh_id();
            st.send_waiters.push_back(SendEntry {
                id,
                waker: cx.waker().clone(),
                value: Some(fut.value.take().expect("unsent value present")),
                taken: false,
                woken: false,
            });
            fut.entry_id = Some(id);
            fut.parked = true;
            Poll::Pending
        }
    }
}

impl<T> Drop for SendFut<'_, T> {
    fn drop(&mut self) {
        // Only the mutex core parks a sender.
        let (Some(id), Imp::Mutex(m)) = (self.entry_id, &self.shared.imp) else {
            return;
        };
        let mut st = plock(m);
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
// Receive futures.
// ---------------------------------------------------------------------------

/// Future returned by [`Receiver::recv`]; cancel-safe.
pub struct RecvFut<'a, T> {
    shared: &'a Shared<T>,
    waiter_id: Option<u64>,
    parked: bool,
}

impl<T> Unpin for RecvFut<'_, T> {}

impl<T: Send> Future for RecvFut<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        match &this.shared.imp {
            Imp::Mutex(m) => poll_mutex_recv(m, this, cx),
            Imp::Ring(r) => poll_ring_recv(r, this, cx),
        }
    }
}

fn recv_done<T>(v: T, parked: bool) -> Poll<Result<T, RecvError>> {
    bump(if parked {
        Counter::SlowRecvs
    } else {
        Counter::FastRecvs
    });
    Poll::Ready(Ok(v))
}

fn poll_ring_recv<T: Send>(
    ring: &Ring<T>,
    fut: &mut RecvFut<'_, T>,
    cx: &mut Context<'_>,
) -> Poll<Result<T, RecvError>> {
    // Fast path with a short spin (a mid-flight push publishes in a
    // handful of instructions).
    for _ in 0..SPIN_TRIES {
        if let Popped::Got(v) = ring.pop_any() {
            ring.unpark_recv(&mut fut.waiter_id);
            return recv_done(v, fut.parked);
        }
        std::hint::spin_loop();
    }
    if ring.recv_shut_flags() {
        // Shut flags read *before* this pop attempt: an `Empty`
        // result now really is drained. (`Busy` falls through to the
        // parking path: the in-flight message is about to land and
        // its sender's wake protocol covers us.)
        match ring.pop_any() {
            Popped::Got(v) => {
                ring.unpark_recv(&mut fut.waiter_id);
                return recv_done(v, fut.parked);
            }
            Popped::Empty => {
                ring.unpark_recv(&mut fut.waiter_id);
                return Poll::Ready(Err(RecvError::Closed));
            }
            Popped::Busy => {}
        }
    }
    // Park, then re-check (paired with `after_push`'s fence).
    fut.parked = true;
    ring.park_recv(&mut fut.waiter_id, cx.waker());
    // ordering: the parker's half of the `after_push` Dekker —
    // model-checked on this code by `tests/protocols.rs`
    // (`ring_keeps_two_senders_tickets_apart` catches the re-pop
    // below deleted).
    fence(Ordering::SeqCst);
    if let Popped::Got(v) = ring.pop_any() {
        ring.unpark_recv(&mut fut.waiter_id);
        return recv_done(v, fut.parked);
    }
    if ring.recv_shut_flags() {
        // `close` may have drained the waiter list before we
        // registered; never sleep through it.
        match ring.pop_any() {
            Popped::Got(v) => {
                ring.unpark_recv(&mut fut.waiter_id);
                return recv_done(v, fut.parked);
            }
            Popped::Empty => {
                ring.unpark_recv(&mut fut.waiter_id);
                return Poll::Ready(Err(RecvError::Closed));
            }
            // In-flight send: its `after_push` will wake us.
            Popped::Busy => {}
        }
    }
    Poll::Pending
}

fn poll_mutex_recv<T: Send>(
    m: &Mutex<State<T>>,
    fut: &mut RecvFut<'_, T>,
    cx: &mut Context<'_>,
) -> Poll<Result<T, RecvError>> {
    let mut st = plock(m);
    if let Some(v) = st.queue.pop_front() {
        deregister_recv(&mut st, &mut fut.waiter_id);
        st.wake_one_send();
        return recv_done(v, fut.parked);
    }
    if let Some(v) = take_from_parked_sender(&mut st) {
        deregister_recv(&mut st, &mut fut.waiter_id);
        return recv_done(v, fut.parked);
    }
    if st.drained_shut() {
        deregister_recv(&mut st, &mut fut.waiter_id);
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

impl<T> Drop for RecvFut<'_, T> {
    fn drop(&mut self) {
        if self.waiter_id.is_none() {
            return;
        }
        match &self.shared.imp {
            Imp::Mutex(m) => {
                let id = self.waiter_id.take().expect("checked");
                let mut st = plock(m);
                st.recv_waiters.retain(|w| w.id != id);
                // Pass the baton if work remains for other waiters.
                if !st.queue.is_empty() {
                    st.wake_one_recv();
                }
            }
            Imp::Ring(r) => {
                // A wake consumed on our behalf must be re-issued, or
                // its message could strand with every peer parked.
                // ordering: SeqCst scan, same rules as `after_push`'s.
                if !r.unpark_recv(&mut self.waiter_id)
                    && r.recv_parked.load(Ordering::SeqCst) > 0
                    && r.len() > 0
                {
                    r.wake_one_recv();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Wake;

    /// Counts its drops.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An unbounded channel whose ring segment has `seg` slots.
    fn unbounded_over<T: Send>(seg: usize) -> (Sender<T>, Receiver<T>) {
        endpoints(Imp::Ring(Ring::new(seg)))
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
    fn a_dropped_ring_drops_every_undelivered_value_once() {
        // The mutex core: Bounded(8) full, and with its head partway
        // round.
        assert_eq!(drops(channel(Capacity::Bounded(8)), &[(8, 0)]), 8);
        assert_eq!(drops(channel(Capacity::Bounded(8)), &[(8, 3)]), 8);
        // A 4-slot segment full, with its head at 3 and its tail
        // wrapped past the end.
        assert_eq!(drops(unbounded_over(4), &[(4, 3), (3, 0)]), 7);
        // The segment full and six values spilled past it.
        assert_eq!(drops(unbounded_over(4), &[(10, 2)]), 10);
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

    /// The spill path, model-checked on the shipping ring at two
    /// slots, where a spill is in reach.
    #[cfg(feature = "chanos_check")]
    mod spill {
        use super::*;
        use chanos_check::{thread, Config, Explorer};

        /// A waker that unparks the model thread it was made on.
        struct Unpark(thread::ThreadId);

        impl Wake for Unpark {
            fn wake(self: Arc<Self>) {
                thread::unpark(self.0);
            }
        }

        /// Receives on the calling model thread, parking while the
        /// receive is pending.
        fn recv_parking(rx: &Receiver<u64>) -> u64 {
            let waker = Waker::from(Arc::new(Unpark(thread::current())));
            let mut cx = Context::from_waker(&waker);
            let mut fut = rx.recv();
            loop {
                match Pin::new(&mut fut).poll(&mut cx) {
                    Poll::Ready(v) => return v.expect("the root holds a sender"),
                    Poll::Pending => thread::park(),
                }
            }
        }

        /// `senders[s]` model threads' worth of `try_send`s through an
        /// unbounded channel over a 2-slot segment, sender `s` sending
        /// `senders[s]` values, while the root receives them all. Each
        /// sender's values must come out in the order they went in.
        fn deliver(senders: &'static [u64]) {
            let (tx, rx) = unbounded_over::<u64>(2);
            let threads: Vec<_> = (0..senders.len() as u64)
                .map(|s| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..senders[s as usize] {
                            tx.try_send(s << 8 | i).expect("the receiver is alive");
                        }
                    })
                })
                .collect();
            let mut next = vec![0; senders.len()];
            for _ in 0..senders.iter().sum::<u64>() {
                let v = recv_parking(&rx);
                let (s, i) = ((v >> 8) as usize, v & 0xff);
                assert_eq!(i, next[s], "sender {s}'s values came out of order");
                next[s] += 1;
            }
            for t in threads {
                t.join();
            }
            drop(tx);
        }

        /// Explores `model` at bound 2; a counterexample is replayed
        /// twice before it is reported.
        fn verify(model: fn()) {
            let explorer = Explorer::new(Config {
                max_preemptions: 2,
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
                "verified at bound 2: {} schedules, {} pruned",
                report.schedules, report.pruned
            );
        }

        #[test]
        fn values_come_out_in_order_across_the_spill() {
            // The third value spills unless the root has made room.
            verify(|| deliver(&[4]));
        }

        #[test]
        fn two_senders_keep_their_order_across_the_spill() {
            // Sender 0's push in flight on the first ticket, sender 1's
            // first value published behind it and its second spilled:
            // a receive that finds the ring busy must not take from
            // the spill (`pop_any`).
            verify(|| deliver(&[1, 2]));
        }
    }
}
