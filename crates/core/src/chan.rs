//! Channels: the paper's communication and synchronization primitive.
//!
//! A channel is a first-class value identifying a communication
//! endpoint (§3). Channels here are MPMC: both [`Sender`] and
//! [`Receiver`] are cloneable handles, and either can be sent through
//! other channels — the property §3 uses to derive RPC (`c <- (a, b,
//! c1); r <- c1;`) and to "plumb a connection by passing around a
//! channel".
//!
//! Three capacities implement the §3 design space:
//!
//! * [`Capacity::Rendezvous`] — blocking send: the sender resumes only
//!   after a receiver has taken the message and an acknowledgment has
//!   traveled back ("easier to implement in a low-level environment
//!   (no buffering) and more powerful").
//! * [`Capacity::Bounded`] — a fixed-depth queue with backpressure.
//! * [`Capacity::Unbounded`] — non-blocking send ("easier to use and,
//!   being less synchronous, probably faster").
//!
//! [`Capacity`] and the error types are `chanos_select::vocab`'s — the
//! same types `chanos-parchan` and `chanos-rt` export, so a value
//! crosses the facade as itself.
//!
//! # Cancel-safety (the `choose!` contract)
//!
//! `recv()` commits (dequeues) only in the poll that returns `Ready`,
//! and deregisters on drop, so receive arms in a `choose!` never lose
//! messages. A *rendezvous send* arm, however, commits when it pairs
//! with a waiting receiver, one ack-flight before it completes; if the
//! enclosing `choose!` is won by another arm in that window the value
//! is still delivered — on shared-nothing hardware a message in flight
//! cannot be unsent. This mirrors the §5 observation that implementing
//! choice effectively is hard; the delivered-but-lost-race case is
//! counted in the `csp.send_arm_lost_races` statistic.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

use chanos_sim::{self as sim, Cycles, TaskId};

use crate::config::CspRuntime;

use chanos_sim::plock;

pub use chanos_select::vocab::{Capacity, RecvError, SendError, TryRecvError, TrySendError};

struct Msg<T> {
    value: T,
    from_core: usize,
    sent_at: Cycles,
}

/// A message delivered directly to one receiver by rendezvous pairing.
struct SlotMsg<T> {
    value: T,
    from_core: usize,
    /// When the value becomes available on the receiver's core.
    avail: Cycles,
}

struct RecvSlot<T> {
    value: Option<SlotMsg<T>>,
}

struct RecvWaiter<T> {
    task: TaskId,
    core: usize,
    slot: Arc<Mutex<RecvSlot<T>>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendPhase {
    /// Waiting for a peer (rendezvous) or for space (bounded).
    Waiting,
    /// Rendezvous paired; the ack arrives at the given time.
    AckAt(Cycles),
}

struct SendEntry<T> {
    task: TaskId,
    core: usize,
    /// Present while a rendezvous sender is parked; taken by the
    /// pairing receiver. Bounded senders keep the value in the future.
    value: Option<T>,
    phase: SendPhase,
}

struct ChanState<T> {
    cap: Capacity,
    queue: VecDeque<Msg<T>>,
    recv_waiters: VecDeque<RecvWaiter<T>>,
    send_waiters: VecDeque<Arc<Mutex<SendEntry<T>>>>,
    senders: usize,
    receivers: usize,
    closed: bool,
    bytes: usize,
}

type Chan<T> = Arc<Mutex<ChanState<T>>>;

impl<T> ChanState<T> {
    /// No more messages can ever arrive.
    fn drained_shut(&self) -> bool {
        (self.closed || self.senders == 0)
            && self.queue.is_empty()
            && self.send_waiters.iter().all(|e| plock(e).value.is_none())
    }

    /// Sends can never succeed.
    fn send_shut(&self) -> bool {
        self.closed || self.receivers == 0
    }

    fn wake_all_recv_waiters(&mut self) {
        for w in self.recv_waiters.iter() {
            sim::wake_now(w.task);
        }
    }

    fn wake_all_send_waiters(&mut self) {
        for e in self.send_waiters.iter() {
            sim::wake_now(plock(e).task);
        }
    }

    /// Lets the first parked receiver know the front queue message is
    /// (or will be) available.
    fn notify_front_recv_waiter(&mut self, rt: &CspRuntime) {
        if let (Some(front), Some(w)) = (self.queue.front(), self.recv_waiters.front()) {
            let avail = front.sent_at + rt.latency(front.from_core, w.core, self.bytes);
            sim::schedule_wake_at(w.task, avail);
        }
    }

    /// Space freed in a bounded channel: wake the first parked sender.
    fn notify_front_send_waiter(&mut self) {
        if matches!(self.cap, Capacity::Bounded(_)) {
            if let Some(e) = self.send_waiters.front() {
                sim::wake_now(plock(e).task);
            }
        }
    }
}

/// Creates a channel of the given capacity for values of type `T`.
///
/// The message size used by the cost model is `size_of::<T>()`; use
/// [`channel_with_bytes`] when the payload semantically owns more
/// (e.g. a `Vec<u8>` block).
///
/// Must be called from inside a simulated task.
pub fn channel<T>(cap: Capacity) -> (Sender<T>, Receiver<T>) {
    channel_with_bytes(cap, std::mem::size_of::<T>().max(1))
}

/// Creates a channel whose messages are modeled as `bytes` bytes on
/// the interconnect.
pub fn channel_with_bytes<T>(cap: Capacity, bytes: usize) -> (Sender<T>, Receiver<T>) {
    let state = Arc::new(Mutex::new(ChanState {
        cap,
        queue: VecDeque::new(),
        recv_waiters: VecDeque::new(),
        send_waiters: VecDeque::new(),
        senders: 1,
        receivers: 1,
        closed: false,
        bytes,
    }));
    let rt = CspRuntime::current();
    sim::stat_incr("csp.channels_created");
    (
        Sender {
            chan: state.clone(),
            rt: rt.clone(),
        },
        Receiver { chan: state, rt },
    )
}

/// The sending endpoint of a channel. Clone freely; send through other
/// channels.
pub struct Sender<T> {
    chan: Chan<T>,
    rt: Arc<CspRuntime>,
}

/// The receiving endpoint of a channel. Clone freely; send through
/// other channels.
pub struct Receiver<T> {
    chan: Chan<T>,
    rt: Arc<CspRuntime>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        debug_endpoint("Sender", &self.chan, f)
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        debug_endpoint("Receiver", &self.chan, f)
    }
}

/// Formats an endpoint without ever contending on the channel state:
/// tracing a channel from code that already holds its lock must not
/// deadlock, so this uses `try_lock` with a `<locked>` fallback.
fn debug_endpoint<T>(
    name: &str,
    chan: &Chan<T>,
    f: &mut std::fmt::Formatter<'_>,
) -> std::fmt::Result {
    match chan.try_lock() {
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
        plock(&self.chan).senders += 1;
        Sender {
            chan: self.chan.clone(),
            rt: self.rt.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        plock(&self.chan).receivers += 1;
        Receiver {
            chan: self.chan.clone(),
            rt: self.rt.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = plock(&self.chan);
        st.senders -= 1;
        if st.senders == 0 && sim::in_sim() {
            // Receivers blocked on a now-unreachable channel must
            // observe Closed once the queue drains.
            st.wake_all_recv_waiters();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = plock(&self.chan);
        st.receivers -= 1;
        if st.receivers == 0 && sim::in_sim() {
            st.wake_all_send_waiters();
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`; completes according to the channel capacity
    /// (immediately for unbounded, on space for bounded, on delivery
    /// acknowledgment for rendezvous).
    pub fn send(&self, value: T) -> SendFut<'_, T> {
        SendFut {
            sender: self,
            value: Some(value),
            entry: None,
        }
    }

    /// Attempts to send without waiting.
    ///
    /// For a rendezvous channel this succeeds only if a receiver is
    /// currently blocked waiting; the handoff then completes without
    /// waiting for the acknowledgment.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = plock(&self.chan);
        if st.send_shut() {
            return Err(TrySendError::Closed(value));
        }
        let my_core = sim::current_core().index();
        match st.cap {
            Capacity::Unbounded => {
                commit_enqueue(&mut st, &self.rt, my_core, value);
                Ok(())
            }
            Capacity::Bounded(n) => {
                if st.queue.len() < n {
                    commit_enqueue(&mut st, &self.rt, my_core, value);
                    Ok(())
                } else {
                    Err(TrySendError::Full(value))
                }
            }
            Capacity::Rendezvous => {
                if st.recv_waiters.is_empty() {
                    Err(TrySendError::Full(value))
                } else {
                    pair_with_receiver(&mut st, &self.rt, my_core, value);
                    Ok(())
                }
            }
        }
    }

    /// Closes the channel: subsequent sends fail; receivers drain the
    /// queue and then observe [`RecvError::Closed`].
    pub fn close(&self) {
        close_impl(&self.chan);
    }

    /// Returns `true` if the channel can no longer deliver sends.
    pub fn is_closed(&self) -> bool {
        plock(&self.chan).send_shut()
    }

    /// Number of buffered (including in-flight) messages.
    pub fn len(&self) -> usize {
        plock(&self.chan).queue.len()
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Sender<T>) -> bool {
        Arc::ptr_eq(&self.chan, &other.chan)
    }
}

impl<T> Receiver<T> {
    /// Receives the next message; waits for arrival (including
    /// modeled transit time).
    pub fn recv(&self) -> RecvFut<'_, T> {
        RecvFut {
            receiver: self,
            slot: None,
            registered: false,
        }
    }

    /// Attempts to receive without waiting.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = plock(&self.chan);
        let my_core = sim::current_core().index();
        let now = sim::now();
        if let Some(front) = st.queue.front() {
            let avail = front.sent_at + self.rt.latency(front.from_core, my_core, st.bytes);
            if now >= avail {
                let msg = st.queue.pop_front().expect("front exists");
                st.notify_front_send_waiter();
                st.notify_front_recv_waiter(&self.rt);
                record_delivery(&self.rt, msg.from_core, my_core, st.bytes);
                return Ok(msg.value);
            }
            return Err(TryRecvError::Empty);
        }
        if st.drained_shut() {
            Err(TryRecvError::Closed)
        } else {
            // Parked rendezvous senders have positive transit in this
            // model, so a no-wait receive cannot take their value.
            Err(TryRecvError::Empty)
        }
    }

    /// Closes the channel from the receiving side.
    pub fn close(&self) {
        close_impl(&self.chan);
    }

    /// Number of buffered (including in-flight) messages.
    pub fn len(&self) -> usize {
        plock(&self.chan).queue.len()
    }

    /// Returns `true` if no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `other` is an endpoint of the same channel.
    pub fn same_channel(&self, other: &Receiver<T>) -> bool {
        Arc::ptr_eq(&self.chan, &other.chan)
    }
}

fn close_impl<T>(chan: &Chan<T>) {
    let mut st = plock(chan);
    if !st.closed {
        st.closed = true;
        if sim::in_sim() {
            st.wake_all_recv_waiters();
            st.wake_all_send_waiters();
        }
    }
}

/// Enqueues a message (unbounded/bounded commit) and notifies the
/// first waiting receiver of its arrival time.
fn commit_enqueue<T>(st: &mut ChanState<T>, rt: &CspRuntime, from_core: usize, value: T) {
    let now = sim::now();
    st.queue.push_back(Msg {
        value,
        from_core,
        sent_at: now,
    });
    sim::stat_incr("csp.sends");
    if st.queue.len() == 1 {
        st.notify_front_recv_waiter(rt);
    }
}

/// Rendezvous: hand `value` directly to the first waiting receiver.
/// Returns the ack arrival time for the sender.
fn pair_with_receiver<T>(
    st: &mut ChanState<T>,
    rt: &CspRuntime,
    from_core: usize,
    value: T,
) -> Cycles {
    let now = sim::now();
    let w = st.recv_waiters.pop_front().expect("caller checked");
    let avail = now + rt.latency(from_core, w.core, st.bytes);
    plock(&w.slot).value = Some(SlotMsg {
        value,
        from_core,
        avail,
    });
    sim::schedule_wake_at(w.task, avail);
    sim::stat_incr("csp.sends");
    avail + rt.ack_latency(w.core, from_core)
}

fn record_delivery(rt: &CspRuntime, from: usize, to: usize, bytes: usize) {
    sim::stat_incr("csp.recvs");
    sim::stat_add("csp.bytes", bytes as u64);
    sim::stat_add("csp.hops", u64::from(rt.hops(from, to)));
    if from == to {
        sim::stat_incr("csp.sends_local");
    } else {
        sim::stat_incr("csp.sends_remote");
    }
}

/// Future returned by [`Sender::send`].
pub struct SendFut<'a, T> {
    sender: &'a Sender<T>,
    value: Option<T>,
    entry: Option<Arc<Mutex<SendEntry<T>>>>,
}

// The future stores `T` by ownership only (no self-references), so it
// is freely movable regardless of `T`.
impl<T> Unpin for SendFut<'_, T> {}

impl<T> Future for SendFut<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let rt = this.sender.rt.clone();
        let mut st = plock(&this.sender.chan);
        let now = sim::now();
        let my_core = sim::current_core().index();
        let me = sim::current_task();

        // Re-poll of a registered send.
        if let Some(entry) = this.entry.clone() {
            let phase = plock(&entry).phase;
            match phase {
                SendPhase::AckAt(t) => {
                    // Rendezvous delivered; completing on the ack.
                    if now >= t {
                        this.entry = None;
                        return Poll::Ready(Ok(()));
                    }
                    return Poll::Pending;
                }
                SendPhase::Waiting => {
                    if st.send_shut() {
                        let v = plock(&entry)
                            .value
                            .take()
                            .or_else(|| this.value.take())
                            .expect("a waiting send holds its value");
                        deregister_sender(&mut st, &entry);
                        this.entry = None;
                        return Poll::Ready(Err(SendError::Closed(v)));
                    }
                    match st.cap {
                        Capacity::Bounded(n) => {
                            // Space may have freed; retry the commit.
                            if st.queue.len() < n {
                                let v = this.value.take().expect("bounded keeps value here");
                                commit_enqueue(&mut st, &rt, my_core, v);
                                deregister_sender(&mut st, &entry);
                                this.entry = None;
                                return Poll::Ready(Ok(()));
                            }
                            return Poll::Pending;
                        }
                        _ => {
                            // Parked rendezvous sender: a receiver
                            // pairs by flipping our phase; nothing to
                            // do until then.
                            return Poll::Pending;
                        }
                    }
                }
            }
        }

        // First poll: the value is still ours.
        if st.send_shut() {
            return Poll::Ready(Err(SendError::Closed(
                this.value.take().expect("unsent value present"),
            )));
        }
        match st.cap {
            Capacity::Unbounded => {
                let v = this.value.take().expect("unsent value present");
                commit_enqueue(&mut st, &rt, my_core, v);
                Poll::Ready(Ok(()))
            }
            Capacity::Bounded(n) => {
                if st.queue.len() < n {
                    let v = this.value.take().expect("unsent value present");
                    commit_enqueue(&mut st, &rt, my_core, v);
                    Poll::Ready(Ok(()))
                } else {
                    let entry = Arc::new(Mutex::new(SendEntry {
                        task: me,
                        core: my_core,
                        value: None,
                        phase: SendPhase::Waiting,
                    }));
                    st.send_waiters.push_back(entry.clone());
                    this.entry = Some(entry);
                    Poll::Pending
                }
            }
            Capacity::Rendezvous => {
                if st.recv_waiters.is_empty() {
                    // Park with the value so an arriving receiver can
                    // pair with us.
                    let v = this.value.take().expect("unsent value present");
                    let entry = Arc::new(Mutex::new(SendEntry {
                        task: me,
                        core: my_core,
                        value: Some(v),
                        phase: SendPhase::Waiting,
                    }));
                    st.send_waiters.push_back(entry.clone());
                    this.entry = Some(entry);
                    Poll::Pending
                } else {
                    let v = this.value.take().expect("unsent value present");
                    let ack_at = pair_with_receiver(&mut st, &rt, my_core, v);
                    let entry = Arc::new(Mutex::new(SendEntry {
                        task: me,
                        core: my_core,
                        value: None,
                        phase: SendPhase::AckAt(ack_at),
                    }));
                    this.entry = Some(entry);
                    sim::schedule_wake_at(me, ack_at);
                    Poll::Pending
                }
            }
        }
    }
}

fn deregister_sender<T>(st: &mut ChanState<T>, entry: &Arc<Mutex<SendEntry<T>>>) {
    st.send_waiters.retain(|e| !Arc::ptr_eq(e, entry));
}

impl<T> Drop for SendFut<'_, T> {
    fn drop(&mut self) {
        let Some(entry) = self.entry.take() else {
            return;
        };
        let mut st = plock(&self.sender.chan);
        let phase = plock(&entry).phase;
        match phase {
            SendPhase::Waiting => {
                // Not yet paired/committed: retract cleanly.
                deregister_sender(&mut st, &entry);
                if sim::in_sim() {
                    // If we were a bounded waiter and space exists,
                    // pass the wake to the next waiter.
                    if let Capacity::Bounded(n) = st.cap {
                        if st.queue.len() < n {
                            st.notify_front_send_waiter();
                        }
                    }
                }
            }
            SendPhase::AckAt(_) => {
                // Paired: the message is in flight and will be
                // delivered even though this arm lost its race.
                if sim::in_sim() {
                    sim::stat_incr("csp.send_arm_lost_races");
                }
            }
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFut<'a, T> {
    receiver: &'a Receiver<T>,
    slot: Option<Arc<Mutex<RecvSlot<T>>>>,
    /// Whether `slot` is registered in the channel's waiter list (a
    /// receiver that paired with a parked sender holds an
    /// *unregistered* slot).
    registered: bool,
}

// No self-references; movable regardless of `T`.
impl<T> Unpin for RecvFut<'_, T> {}

impl<T> Future for RecvFut<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let rt = this.receiver.rt.clone();
        let mut st = plock(&this.receiver.chan);
        let now = sim::now();
        let my_core = sim::current_core().index();
        let me = sim::current_task();

        // A rendezvous sender may have delivered into our slot.
        if let Some(slot) = this.slot.clone() {
            let has = plock(&slot).value.is_some();
            if has {
                let avail = plock(&slot).value.as_ref().expect("checked").avail;
                if now >= avail {
                    let msg = plock(&slot).value.take().expect("checked");
                    self_deregister(&mut st, &slot, this.registered);
                    this.slot = None;
                    record_delivery(&rt, msg.from_core, my_core, st.bytes);
                    return Poll::Ready(Ok(msg.value));
                }
                sim::schedule_wake_at(me, avail);
                return Poll::Pending;
            }
        }

        // Queued message (bounded/unbounded)?
        if let Some(front) = st.queue.front() {
            let avail = front.sent_at + rt.latency(front.from_core, my_core, st.bytes);
            if now >= avail {
                let msg = st.queue.pop_front().expect("front exists");
                st.notify_front_send_waiter();
                st.notify_front_recv_waiter(&rt);
                if let Some(slot) = this.slot.take() {
                    self_deregister(&mut st, &slot, this.registered);
                }
                record_delivery(&rt, msg.from_core, my_core, st.bytes);
                return Poll::Ready(Ok(msg.value));
            }
            sim::schedule_wake_at(me, avail);
            return Poll::Pending;
        }

        // Parked rendezvous sender? Pair with it: the value travels to
        // us now, becoming available one transit later.
        if st.cap == Capacity::Rendezvous {
            if let Some((msg, sender_task, ack_at)) =
                pair_from_recv_side(&mut st, &rt, my_core, now)
            {
                sim::schedule_wake_at(sender_task, ack_at);
                let avail = msg.avail;
                let slot = this
                    .slot
                    .get_or_insert_with(|| Arc::new(Mutex::new(RecvSlot { value: None })))
                    .clone();
                plock(&slot).value = Some(msg);
                sim::schedule_wake_at(me, avail);
                return Poll::Pending;
            }
        }

        if st.drained_shut() {
            if let Some(slot) = this.slot.take() {
                self_deregister(&mut st, &slot, this.registered);
            }
            return Poll::Ready(Err(RecvError::Closed));
        }

        // Register (once) and wait.
        if this.slot.is_none() || !this.registered {
            let slot = this
                .slot
                .get_or_insert_with(|| Arc::new(Mutex::new(RecvSlot { value: None })))
                .clone();
            if !this.registered {
                st.recv_waiters.push_back(RecvWaiter {
                    task: me,
                    core: my_core,
                    slot,
                });
                this.registered = true;
            }
        }
        Poll::Pending
    }
}

/// Takes the first parked rendezvous sender's value for a receiver on
/// `my_core`. Returns the slot message, the sender task to ack, and
/// the ack arrival time.
fn pair_from_recv_side<T>(
    st: &mut ChanState<T>,
    rt: &CspRuntime,
    my_core: usize,
    now: Cycles,
) -> Option<(SlotMsg<T>, TaskId, Cycles)> {
    loop {
        let entry = st.send_waiters.front()?.clone();
        let mut e = plock(&entry);
        if e.phase != SendPhase::Waiting || e.value.is_none() {
            drop(e);
            st.send_waiters.pop_front();
            continue;
        }
        let value = e.value.take().expect("checked");
        let avail = now + rt.latency(e.core, my_core, st.bytes);
        let ack_at = avail + rt.ack_latency(my_core, e.core);
        e.phase = SendPhase::AckAt(ack_at);
        let sender_task = e.task;
        let from_core = e.core;
        drop(e);
        st.send_waiters.pop_front();
        sim::stat_incr("csp.sends");
        return Some((
            SlotMsg {
                value,
                from_core,
                avail,
            },
            sender_task,
            ack_at,
        ));
    }
}

fn self_deregister<T>(st: &mut ChanState<T>, slot: &Arc<Mutex<RecvSlot<T>>>, registered: bool) {
    if registered {
        st.recv_waiters.retain(|w| !Arc::ptr_eq(&w.slot, slot));
    }
}

impl<T> Drop for RecvFut<'_, T> {
    fn drop(&mut self) {
        let Some(slot) = self.slot.take() else {
            return;
        };
        let mut st = plock(&self.receiver.chan);
        if self.registered {
            st.recv_waiters.retain(|w| !Arc::ptr_eq(&w.slot, &slot));
        }
        if sim::in_sim() {
            // A rendezvous value delivered into our slot but never
            // taken dies with us (the receiver went away mid-flight).
            if plock(&slot).value.is_some() {
                sim::stat_incr("csp.msgs_dropped");
            }
            // If messages remain queued and other receivers wait, pass
            // the baton so the front message is not stranded.
            let rt = self.receiver.rt.clone();
            st.notify_front_recv_waiter(&rt);
        }
    }
}
