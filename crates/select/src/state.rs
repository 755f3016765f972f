//! A channel's bookkeeping: its queue, its parked waiters and its
//! endpoint counts, and every rule over them that does not depend on
//! how a task is woken.
//!
//! Both channel implementations keep one [`State`] under their channel
//! lock and decide through it when a send may enqueue, when a channel
//! is shut for either side, which parked sender a freed slot wakes,
//! and which waiters an endpoint change leaves nothing to wait for.
//! The state never wakes anyone itself: a method that must wake a
//! waiter hands back that waiter's token, and the caller delivers the
//! wake its own way. What differs between the implementations stays
//! with them: the order parked receivers are woken in (the list is
//! [`State::recv_waiters`]), how a rendezvous value travels to a
//! receiver that was already waiting, and what a message's stamp
//! records.
//!
//! A parked sender is one entry in the list, found by the id
//! [`State::register_sender`] gave it. Each freed slot wakes one parked
//! sender that no freed slot has woken yet; a woken sender that polls
//! again without room re-arms, so the next freed slot wakes it again;
//! and one dropped before it polls passes its wake on to the next.

use std::collections::VecDeque;

use crate::vocab::Capacity;

/// A parked waiter's token, and the id its future finds it by.
#[derive(Debug)]
pub struct Waiter<W> {
    /// Unique among the channel's waiters.
    pub id: u64,
    /// What the owner needs to wake this waiter.
    pub token: W,
}

#[derive(Debug)]
struct SendWaiter<T, W> {
    id: u64,
    token: W,
    /// Rendezvous: the parked value, until a receiver takes it. A
    /// bounded space-waiter keeps its value in its future.
    value: Option<T>,
    /// A receiver took the parked value.
    taken: bool,
    /// A freed slot woke this space-waiter, and it has not polled
    /// since.
    woken: bool,
}

/// What a parked send finds when its future polls again.
#[derive(Debug, PartialEq, Eq)]
pub enum Repoll<W> {
    /// No room and no taker yet: re-armed for the next freed slot.
    Wait,
    /// A receiver took the parked value; the entry is gone and its
    /// token comes back.
    Taken(W),
    /// A bounded send found room: its value may enqueue now.
    Room,
    /// The channel shut; the value is back in the future's hands.
    Shut,
}

/// The parked waiters an endpoint change leaves with nothing to wait
/// for; the caller wakes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct Shut {
    /// Wake every parked receiver.
    pub receivers: bool,
    /// Wake every parked sender ([`State::parked_senders`]).
    pub senders: bool,
}

/// One channel's bookkeeping, generic over each message's stamp `S`
/// and the tokens a parked receiver (`R`) and sender (`W`) leave.
#[derive(Debug)]
pub struct State<T, S, R, W> {
    cap: Capacity,
    queue: VecDeque<(T, S)>,
    /// Parked receivers, in the order they parked. Which of them a
    /// message wakes, and whether the wake takes it off the list, is
    /// the owner's rule.
    pub recv_waiters: VecDeque<Waiter<R>>,
    send_waiters: VecDeque<SendWaiter<T, W>>,
    senders: usize,
    receivers: usize,
    closed: bool,
    next_id: u64,
}

impl<T, S, R, W> State<T, S, R, W> {
    /// A channel with one sender and one receiver.
    pub fn new(cap: Capacity) -> Self {
        State {
            cap,
            queue: VecDeque::new(),
            recv_waiters: VecDeque::new(),
            send_waiters: VecDeque::new(),
            senders: 1,
            receivers: 1,
            closed: false,
            next_id: 0,
        }
    }

    /// The channel's buffering discipline.
    pub fn capacity(&self) -> Capacity {
        self.cap
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if no message is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether either side closed the channel.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// May a send enqueue now: always on an unbounded channel, below
    /// the bound on a bounded one, and on a rendezvous channel only to
    /// a receiver already waiting.
    pub fn has_room(&self) -> bool {
        match self.cap {
            Capacity::Unbounded => true,
            Capacity::Bounded(n) => self.queue.len() < n,
            Capacity::Rendezvous => !self.recv_waiters.is_empty(),
        }
    }

    /// No more messages can ever arrive.
    pub fn drained_shut(&self) -> bool {
        (self.closed || self.senders == 0)
            && self.queue.is_empty()
            && self.send_waiters.iter().all(|e| e.value.is_none())
    }

    /// Sends can never succeed.
    pub fn send_shut(&self) -> bool {
        self.closed || self.receivers == 0
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    // --- the queue ------------------------------------------------------

    /// Enqueues a message; the caller checked [`State::has_room`].
    pub fn push(&mut self, value: T, stamp: S) {
        self.queue.push_back((value, stamp));
    }

    /// The front message's stamp.
    pub fn front(&self) -> Option<&S> {
        self.queue.front().map(|(_, s)| s)
    }

    /// Takes the front message. The slot it frees wakes one parked
    /// sender: the one handed back.
    pub fn pop(&mut self) -> Option<(T, S, Option<&W>)> {
        let (value, stamp) = self.queue.pop_front()?;
        Some((value, stamp, self.wake_one_send()))
    }

    /// A slot was freed: the bounded space-waiter that no other freed
    /// slot has woken yet, marked woken. (A rendezvous sender waits
    /// for a receiver, not for space; an unbounded one never waits.)
    fn wake_one_send(&mut self) -> Option<&W> {
        let Capacity::Bounded(_) = self.cap else {
            return None;
        };
        let e = self.send_waiters.iter_mut().find(|e| !e.woken)?;
        e.woken = true;
        Some(&e.token)
    }

    // --- parked senders -------------------------------------------------

    /// Parks a send that may not enqueue now. On a rendezvous channel
    /// the value moves into the entry, for a receiver to take; a
    /// bounded space-waiter keeps it. Returns the entry's id.
    pub fn register_sender(&mut self, token: W, value: &mut Option<T>) -> u64 {
        let id = self.fresh_id();
        let value = match self.cap {
            Capacity::Rendezvous => value.take(),
            _ => None,
        };
        self.send_waiters.push_back(SendWaiter {
            id,
            token,
            value,
            taken: false,
            woken: false,
        });
        id
    }

    /// The first parked rendezvous value, marked taken. Its sender's
    /// entry stays until that sender polls; the token handed back is
    /// the sender to wake.
    pub fn take_parked(&mut self) -> Option<(T, &mut W)> {
        let e = self.send_waiters.iter_mut().find(|e| e.value.is_some())?;
        e.taken = true;
        let value = e.value.take().expect("found by its value");
        Some((value, &mut e.token))
    }

    fn sender_at(&self, id: u64) -> usize {
        self.send_waiters
            .iter()
            .position(|e| e.id == id)
            .expect("a parked send's entry stays until its future takes it out")
    }

    /// Polls a parked send again, with the token it would park under
    /// now. On [`Repoll::Shut`] a rendezvous value parked in the entry
    /// is back in `value`.
    pub fn repoll_sender(&mut self, id: u64, token: &W, value: &mut Option<T>) -> Repoll<W>
    where
        W: Clone,
    {
        let i = self.sender_at(id);
        if self.send_waiters[i].taken {
            let e = self.send_waiters.remove(i).expect("present");
            return Repoll::Taken(e.token);
        }
        if self.send_shut() {
            let e = self.send_waiters.remove(i).expect("present");
            if e.value.is_some() {
                *value = e.value;
            }
            return Repoll::Shut;
        }
        if matches!(self.cap, Capacity::Bounded(_)) && self.has_room() {
            self.send_waiters.remove(i);
            return Repoll::Room;
        }
        // If a freed slot woke it, a send that did not wait took that
        // slot: re-arm, so the next freed slot wakes it again.
        let e = &mut self.send_waiters[i];
        e.token = token.clone();
        e.woken = false;
        Repoll::Wait
    }

    /// Takes a parked send out when its future is dropped. Returns
    /// whether a receiver had taken its value, and the sender a freed
    /// slot's wake passes on to: one woken for a slot it will now
    /// never fill (a `choose!` arm that lost) hands the wake to the
    /// next.
    pub fn cancel_send(&mut self, id: u64) -> (bool, Option<&W>) {
        let i = self.sender_at(id);
        let e = self.send_waiters.remove(i).expect("present");
        let pass_on = if e.woken { self.wake_one_send() } else { None };
        (e.taken, pass_on)
    }

    /// The parked senders still waiting: every entry whose value no
    /// receiver took (that sender was woken when it was taken).
    pub fn parked_senders(&self) -> impl Iterator<Item = &W> {
        self.send_waiters
            .iter()
            .filter(|e| !e.taken)
            .map(|e| &e.token)
    }

    // --- parked receivers -----------------------------------------------

    /// Parks a receiver at the back of [`State::recv_waiters`];
    /// returns its id.
    pub fn register_receiver(&mut self, token: R) -> u64 {
        let id = self.fresh_id();
        self.recv_waiters.push_back(Waiter { id, token });
        id
    }

    /// Takes the receiver `id` names off the list, if it is still
    /// there, and clears `id`.
    pub fn deregister_receiver(&mut self, id: &mut Option<u64>) {
        if let Some(id) = id.take() {
            self.recv_waiters.retain(|w| w.id != id);
        }
    }

    // --- endpoints ------------------------------------------------------

    /// A sender was cloned.
    pub fn add_sender(&mut self) {
        self.senders += 1;
    }

    /// A receiver was cloned.
    pub fn add_receiver(&mut self) {
        self.receivers += 1;
    }

    /// A sender was dropped. The last one leaves parked receivers
    /// waiting for nothing once the queue drains.
    pub fn drop_sender(&mut self) -> Shut {
        self.senders -= 1;
        Shut {
            receivers: self.senders == 0,
            senders: false,
        }
    }

    /// A receiver was dropped. The last one fails every parked send.
    pub fn drop_receiver(&mut self) -> Shut {
        self.receivers -= 1;
        Shut {
            receivers: false,
            senders: self.receivers == 0,
        }
    }

    /// Closes the channel; the first close wakes both sides.
    pub fn close(&mut self) -> Shut {
        let first = !self.closed;
        self.closed = true;
        Shut {
            receivers: first,
            senders: first,
        }
    }
}
