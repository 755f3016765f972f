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
//! # One bookkeeping
//!
//! The queue, the parked waiters and the endpoint counts are
//! `chanos_select::state::State`, the same state `chanos-parchan`'s
//! channel keeps, so both backends decide by one copy of the rules
//! when a send may enqueue, which parked sender a freed slot wakes, and
//! whom closing or dropping an endpoint wakes. This file keeps what
//! only the model has: a message's stamp (its source core and send
//! time) and the arrival times the cost model derives from it, the
//! front parked receiver scheduled for the front message's arrival,
//! a rendezvous value delivered into a waiting receiver's slot with
//! its acknowledgment flight, and the `csp.*` statistics.
//!
//! # The receiver-wake invariant
//!
//! A parked receiver is dispatched once per message, when the message
//! lands. While the queue is non-empty, the front parked receiver has
//! an arrival wake scheduled for the front message
//! (`notify_front_recv_waiter`: on the push that fills an empty queue,
//! on each pop, and when a registered receiver drops). Two rules keep
//! it:
//!
//! * a receiver that takes a message leaves the list before the next
//!   message's arrival is announced, so that wake reaches the next
//!   receiver and not the one already leaving with a message;
//! * the last sender's drop or a close (`wake_shut`) skips the front
//!   receiver while a message is queued, because its wake is already
//!   set; a reply's caller is therefore charged like every other
//!   receiver, one dispatch after the reply arrives.
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

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

use chanos_select::state::{Repoll, Shut};
use chanos_sim::{self as sim, plock, Cycles, TaskId};

use crate::config::CspRuntime;

pub use chanos_select::vocab::{Capacity, RecvError, SendError, TryRecvError, TrySendError};

/// A message delivered directly to one receiver by rendezvous pairing.
struct SlotMsg<T> {
    value: T,
    from_core: usize,
    /// When the value becomes available on the receiver's core.
    avail: Cycles,
}

type RecvSlot<T> = Arc<Mutex<Option<SlotMsg<T>>>>;

/// A parked receiver: its task, its core, and the slot a rendezvous
/// sender pairing with it delivers into.
struct RecvToken<T> {
    task: TaskId,
    core: usize,
    slot: RecvSlot<T>,
}

/// A parked sender. `ack_at` is set when a receiver takes its
/// rendezvous value: the acknowledgment's arrival.
#[derive(Clone, Copy)]
struct SendToken {
    task: TaskId,
    core: usize,
    ack_at: Option<Cycles>,
}

/// A message's stamp: the core it was sent from and when.
type Stamp = (usize, Cycles);

type State<T> = chanos_select::state::State<T, Stamp, RecvToken<T>, SendToken>;

struct Chan<T> {
    state: Mutex<State<T>>,
    /// A message's modeled size on the interconnect.
    bytes: usize,
}

impl<T> Chan<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        plock(&self.state)
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
    let chan = Arc::new(Chan {
        state: Mutex::new(State::new(cap)),
        bytes,
    });
    let rt = CspRuntime::current();
    sim::stat_incr("csp.channels_created");
    (
        Sender {
            chan: chan.clone(),
            rt: rt.clone(),
        },
        Receiver { chan, rt },
    )
}

/// The sending endpoint of a channel. Clone freely; send through other
/// channels.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
    rt: Arc<CspRuntime>,
}

/// The receiving endpoint of a channel. Clone freely; send through
/// other channels.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
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
    match chan.state.try_lock() {
        Ok(st) => f
            .debug_struct(name)
            .field("queued", &st.len())
            .field("closed", &st.is_closed())
            .finish(),
        Err(_) => f.debug_struct(name).field("state", &"<locked>").finish(),
    }
}

/// Wakes the waiters an endpoint change shut out. While a message is
/// queued the front parked receiver already has its arrival wake (the
/// receiver-wake invariant, module doc); woken now, it would only find
/// the message in flight and park again.
fn wake_shut<T>(st: &State<T>, shut: Shut) {
    if !sim::in_sim() {
        return;
    }
    if shut.receivers {
        let scheduled = usize::from(!st.is_empty());
        for w in st.recv_waiters.iter().skip(scheduled) {
            sim::wake_now(w.token.task);
        }
    }
    if shut.senders {
        for w in st.parked_senders() {
            sim::wake_now(w.task);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.lock().add_sender();
        Sender {
            chan: self.chan.clone(),
            rt: self.rt.clone(),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.lock().add_receiver();
        Receiver {
            chan: self.chan.clone(),
            rt: self.rt.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.chan.lock();
        let shut = st.drop_sender();
        wake_shut(&st, shut);
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.chan.lock();
        let shut = st.drop_receiver();
        wake_shut(&st, shut);
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
            parked: None,
            ack_at: None,
        }
    }

    /// Attempts to send without waiting.
    ///
    /// For a rendezvous channel this succeeds only if a receiver is
    /// currently blocked waiting; the handoff then completes without
    /// waiting for the acknowledgment.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.chan.lock();
        if st.send_shut() {
            return Err(TrySendError::Closed(value));
        }
        if !st.has_room() {
            return Err(TrySendError::Full(value));
        }
        let my_core = sim::current_core().index();
        commit(&mut st, &self.chan, &self.rt, my_core, value);
        Ok(())
    }

    /// Closes the channel: subsequent sends fail; receivers drain the
    /// queue and then observe [`RecvError::Closed`].
    pub fn close(&self) {
        close_impl(&self.chan);
    }

    /// Returns `true` if the channel can no longer deliver sends.
    pub fn is_closed(&self) -> bool {
        self.chan.lock().send_shut()
    }

    /// Number of buffered (including in-flight) messages.
    pub fn len(&self) -> usize {
        self.chan.lock().len()
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
            waiter: None,
        }
    }

    /// Attempts to receive without waiting.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.chan.lock();
        let my_core = sim::current_core().index();
        if let Some(avail) = front_arrival(&st, &self.chan, &self.rt, my_core) {
            if sim::now() >= avail {
                return Ok(pop_front(&mut st, &self.chan, &self.rt, my_core));
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
        self.chan.lock().len()
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
    let mut st = chan.lock();
    let shut = st.close();
    wake_shut(&st, shut);
}

/// When the front queued message arrives on `my_core`.
fn front_arrival<T>(
    st: &State<T>,
    chan: &Chan<T>,
    rt: &CspRuntime,
    my_core: usize,
) -> Option<Cycles> {
    let &(from_core, sent_at) = st.front()?;
    Some(sent_at + rt.latency(from_core, my_core, chan.bytes))
}

/// Takes the front queued message, which has arrived: wakes the parked
/// sender its slot frees, schedules the next message's receiver, and
/// counts the delivery.
fn pop_front<T>(st: &mut State<T>, chan: &Chan<T>, rt: &CspRuntime, my_core: usize) -> T {
    let (value, (from_core, _), space) = st.pop().expect("front exists");
    if let Some(w) = space {
        sim::wake_now(w.task);
    }
    notify_front_recv_waiter(st, chan, rt);
    record_delivery(rt, from_core, my_core, chan.bytes);
    value
}

/// Lets the first parked receiver know the front queue message is
/// (or will be) available.
fn notify_front_recv_waiter<T>(st: &State<T>, chan: &Chan<T>, rt: &CspRuntime) {
    if let (Some(&(from_core, sent_at)), Some(w)) = (st.front(), st.recv_waiters.front()) {
        let avail = sent_at + rt.latency(from_core, w.token.core, chan.bytes);
        sim::schedule_wake_at(w.token.task, avail);
    }
}

/// Sends `value` now; the caller checked `has_room`. A rendezvous send
/// pairs with the first waiting receiver and returns the time its ack
/// arrives; any other enqueues and notifies the first waiting receiver
/// of the arrival time.
fn commit<T>(
    st: &mut State<T>,
    chan: &Chan<T>,
    rt: &CspRuntime,
    from_core: usize,
    value: T,
) -> Option<Cycles> {
    let now = sim::now();
    if st.capacity() == Capacity::Rendezvous {
        let w = st.recv_waiters.pop_front().expect("a receiver waits").token;
        let avail = now + rt.latency(from_core, w.core, chan.bytes);
        *plock(&w.slot) = Some(SlotMsg {
            value,
            from_core,
            avail,
        });
        sim::schedule_wake_at(w.task, avail);
        sim::stat_incr("csp.sends");
        return Some(avail + rt.ack_latency(w.core, from_core));
    }
    st.push(value, (from_core, now));
    sim::stat_incr("csp.sends");
    if st.len() == 1 {
        notify_front_recv_waiter(st, chan, rt);
    }
    None
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
    /// The unsent value; a parked rendezvous send leaves it in its
    /// entry for a receiver to take.
    value: Option<T>,
    /// The id of this send's entry among the parked senders.
    parked: Option<u64>,
    /// Rendezvous delivered; completing on the ack, which arrives then.
    ack_at: Option<Cycles>,
}

// The future stores `T` by ownership only (no self-references), so it
// is freely movable regardless of `T`.
impl<T> Unpin for SendFut<'_, T> {}

impl<T> Future for SendFut<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let chan = &this.sender.chan;
        let rt = &this.sender.rt;
        let mut st = chan.lock();
        let me = SendToken {
            task: sim::current_task(),
            core: sim::current_core().index(),
            ack_at: None,
        };

        if let Some(id) = this.parked.take() {
            match st.repoll_sender(id, &me, &mut this.value) {
                Repoll::Wait => {
                    this.parked = Some(id);
                    return Poll::Pending;
                }
                Repoll::Taken(token) => this.ack_at = token.ack_at,
                Repoll::Shut => {
                    let v = this.value.take().expect("a waiting send holds its value");
                    return Poll::Ready(Err(SendError::Closed(v)));
                }
                Repoll::Room => {
                    let v = this.value.take().expect("bounded keeps value here");
                    commit(&mut st, chan, rt, me.core, v);
                    return Poll::Ready(Ok(()));
                }
            }
        }
        if let Some(t) = this.ack_at {
            if sim::now() >= t {
                this.ack_at = None;
                return Poll::Ready(Ok(()));
            }
            return Poll::Pending;
        }

        // First poll: the value is still ours.
        if st.send_shut() {
            let v = this.value.take().expect("unsent value present");
            return Poll::Ready(Err(SendError::Closed(v)));
        }
        if !st.has_room() {
            this.parked = Some(st.register_sender(me, &mut this.value));
            return Poll::Pending;
        }
        let value = this.value.take().expect("unsent value present");
        match commit(&mut st, chan, rt, me.core, value) {
            None => Poll::Ready(Ok(())),
            Some(ack_at) => {
                this.ack_at = Some(ack_at);
                sim::schedule_wake_at(me.task, ack_at);
                Poll::Pending
            }
        }
    }
}

impl<T> Drop for SendFut<'_, T> {
    fn drop(&mut self) {
        // Paired: the message is in flight and will be delivered even
        // though this arm lost its race.
        let lost_race = match self.parked.take() {
            Some(id) => {
                let mut st = self.sender.chan.lock();
                let (taken, pass_on) = st.cancel_send(id);
                if let (Some(w), true) = (pass_on, sim::in_sim()) {
                    sim::wake_now(w.task);
                }
                taken
            }
            None => self.ack_at.is_some(),
        };
        if lost_race && sim::in_sim() {
            sim::stat_incr("csp.send_arm_lost_races");
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFut<'a, T> {
    receiver: &'a Receiver<T>,
    slot: Option<RecvSlot<T>>,
    /// The id `slot` is registered under among the parked receivers (a
    /// receiver that paired with a parked sender holds an unregistered
    /// slot).
    waiter: Option<u64>,
}

// No self-references; movable regardless of `T`.
impl<T> Unpin for RecvFut<'_, T> {}

impl<T> RecvFut<'_, T> {
    /// Done: leaves the receiver list.
    fn finish(&mut self, st: &mut State<T>) {
        self.slot = None;
        st.deregister_receiver(&mut self.waiter);
    }
}

impl<T> Future for RecvFut<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let chan = &this.receiver.chan;
        let rt = &this.receiver.rt;
        let mut st = chan.lock();
        let now = sim::now();
        let my_core = sim::current_core().index();
        let me = sim::current_task();

        // A rendezvous sender may have delivered into our slot.
        if let Some(slot) = this.slot.clone() {
            let mut delivered = plock(&slot);
            if let Some(avail) = delivered.as_ref().map(|m| m.avail) {
                if now >= avail {
                    let msg = delivered.take().expect("checked");
                    drop(delivered);
                    this.finish(&mut st);
                    record_delivery(rt, msg.from_core, my_core, chan.bytes);
                    return Poll::Ready(Ok(msg.value));
                }
                sim::schedule_wake_at(me, avail);
                return Poll::Pending;
            }
        }

        // Queued message (bounded/unbounded)?
        if let Some(avail) = front_arrival(&st, chan, rt, my_core) {
            if now >= avail {
                // Off the list first, so the next message's arrival
                // is announced to the next receiver, not to us.
                this.finish(&mut st);
                let value = pop_front(&mut st, chan, rt, my_core);
                return Poll::Ready(Ok(value));
            }
            sim::schedule_wake_at(me, avail);
            return Poll::Pending;
        }

        // Parked rendezvous sender? Pair with it: the value travels to
        // us now, becoming available one transit later.
        if let Some((value, sender)) = st.take_parked() {
            let from_core = sender.core;
            let avail = now + rt.latency(from_core, my_core, chan.bytes);
            let ack_at = avail + rt.ack_latency(my_core, from_core);
            sender.ack_at = Some(ack_at);
            let sender_task = sender.task;
            sim::stat_incr("csp.sends");
            sim::schedule_wake_at(sender_task, ack_at);
            let slot = this.slot.get_or_insert_with(RecvSlot::default);
            *plock(slot) = Some(SlotMsg {
                value,
                from_core,
                avail,
            });
            sim::schedule_wake_at(me, avail);
            return Poll::Pending;
        }

        if st.drained_shut() {
            this.finish(&mut st);
            return Poll::Ready(Err(RecvError::Closed));
        }

        // Register (once) and wait.
        if this.waiter.is_none() {
            let slot = this.slot.get_or_insert_with(RecvSlot::default).clone();
            this.waiter = Some(st.register_receiver(RecvToken {
                task: me,
                core: my_core,
                slot,
            }));
        }
        Poll::Pending
    }
}

impl<T> Drop for RecvFut<'_, T> {
    fn drop(&mut self) {
        let Some(slot) = self.slot.take() else {
            return;
        };
        let chan = &self.receiver.chan;
        let mut st = chan.lock();
        st.deregister_receiver(&mut self.waiter);
        if sim::in_sim() {
            // A rendezvous value delivered into our slot but never
            // taken dies with us (the receiver went away mid-flight).
            if plock(&slot).is_some() {
                sim::stat_incr("csp.msgs_dropped");
            }
            // If messages remain queued and other receivers wait, pass
            // the baton so the front message is not stranded.
            notify_front_recv_waiter(&st, chan, &self.receiver.rt);
        }
    }
}
