//! Poll-based oneshot completion slots: the reply path under
//! `chanos-rt`'s typed ports.
//!
//! A reply is not a channel. It carries exactly one value, exactly
//! once, between exactly two parties — so the general MPMC machinery
//! (a lock, a queue, waiter lists) is pure overhead. A [`oneshot`]
//! is a single `Arc`'d slot driven by an atomic state machine:
//!
//! ```text
//!   EMPTY ──recv polls──▶ WAITING ──send──▶ SENT ──recv──▶ TAKEN
//!     │                      │
//!     └──────send───────────▶┴──▶ SENT (waker fired)
//!   either side dropping unfinished moves to TX_DROPPED / RX_DROPPED
//! ```
//!
//! The receiver exposes **owned polling** ([`OneReceiver::poll_recv`])
//! so a caller can embed completion state inline in its own future —
//! no boxed resolver, no borrowed `RecvFut`. A slot serves one
//! completion: it is allocated by [`oneshot`] and freed when both
//! halves are gone (§3's "fresh channel used to send the return value
//! back").
//!
//! Completion wakes route through the same delivery as channel
//! receiver wakes, so a [`crate::WakeBatch`] holds oneshot
//! completions per peer exactly like channel replies.

use crate::sync::{Arc, AtomicU8, Ordering, ValueCell};
use std::cell::UnsafeCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::chan::{deliver_recv_wake, RecvError};

/// Nothing has happened; the waker cell belongs to the receiver.
const EMPTY: u8 = 0;
/// The receiver parked a waker in the waker cell.
const WAITING: u8 = 1;
/// The sender published a value in the value cell.
const SENT: u8 = 2;
/// The sender dropped without sending.
const TX_DROPPED: u8 = 3;
/// The receiver dropped before taking a value.
const RX_DROPPED: u8 = 4;
/// The receiver took the value; the slot is spent.
const TAKEN: u8 = 5;

/// The shared slot. Cell ownership is decided by `state` alone:
///
/// * `value` is filled by the sender *before* its swap to `SENT`,
///   and emptied by the receiver only *after* observing `SENT` (or by
///   the sender again, if its swap finds the receiver gone).
/// * `waker` is written by the receiver only while the state is
///   `EMPTY` (it claims a parked waker back via a `WAITING → EMPTY`
///   CAS before replacing it), and read by the sender only when its
///   swap observes `WAITING` — at which point the receiver can no
///   longer touch the cell, because the state is already `SENT`.
struct Slot<T> {
    state: AtomicU8,
    value: ValueCell<T>,
    waker: UnsafeCell<Option<Waker>>,
}

// SAFETY: the two cells are the only non-`Sync` fields, and `state`
// gives each exactly one owner at a time (the table above): a cell is
// touched only by the side the last state transition handed it to, and
// `T: Send` lets the value cross with it.
unsafe impl<T: Send> Send for Slot<T> {}
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    fn new() -> Slot<T> {
        Slot {
            state: AtomicU8::new(EMPTY),
            value: ValueCell::new(),
            waker: UnsafeCell::new(None),
        }
    }
}

/// Creates a connected oneshot pair on a fresh slot.
pub fn oneshot<T: Send>() -> (OneSender<T>, OneReceiver<T>) {
    let slot = Arc::new(Slot::new());
    (
        OneSender {
            slot: Some(slot.clone()),
        },
        OneReceiver { slot },
    )
}

/// The completing half: consumed by [`OneSender::send`]; dropping it
/// unsent resolves the receiver with [`RecvError::Closed`].
pub struct OneSender<T: Send> {
    slot: Option<Arc<Slot<T>>>,
}

impl<T: Send> OneSender<T> {
    /// Publishes the value and wakes the receiver if it is parked.
    /// Returns the value if the receiver has gone away.
    pub fn send(mut self, v: T) -> Result<(), T> {
        let slot = self.slot.take().expect("send consumes the sender");
        // SAFETY: the sender owns the value cell until the state says
        // SENT, and `send` consumed the only sender: the receiver reads
        // the cell only after it observes the swap below.
        unsafe { slot.value.put(v) };
        match slot.state.swap(SENT, Ordering::AcqRel) {
            EMPTY => Ok(()),
            WAITING => {
                // SAFETY: WAITING arm — the swap transferred the waker
                // cell to us: the receiver writes it only while EMPTY,
                // and the state is SENT now.
                if let Some(w) = unsafe { (*slot.waker.get()).take() } {
                    deliver_recv_wake(w);
                }
                Ok(())
            }
            RX_DROPPED => {
                // No receiver: reclaim the value; nobody else can
                // race us here, so a plain store restores the state.
                // SAFETY: RX_DROPPED arm — the receiver is gone and never
                // saw SENT, so the value cell filled above is still ours.
                let v = unsafe { slot.value.take() };
                slot.state.store(RX_DROPPED, Ordering::Release);
                Err(v)
            }
            s => unreachable!("oneshot send from state {s}"),
        }
    }
}

impl<T: Send> Drop for OneSender<T> {
    fn drop(&mut self) {
        let Some(slot) = self.slot.take() else { return };
        match slot.state.swap(TX_DROPPED, Ordering::AcqRel) {
            WAITING => {
                // SAFETY: WAITING arm — as in `send`: the swap moved the
                // state off EMPTY/WAITING for good, so the receiver no
                // longer writes the waker cell and we own it.
                if let Some(w) = unsafe { (*slot.waker.get()).take() } {
                    deliver_recv_wake(w);
                }
            }
            RX_DROPPED => slot.state.store(RX_DROPPED, Ordering::Release),
            _ => {}
        }
    }
}

/// The completion half: poll it in place ([`OneReceiver::poll_recv`])
/// or await it (`impl Future`).
pub struct OneReceiver<T: Send> {
    slot: Arc<Slot<T>>,
}

impl<T: Send> OneReceiver<T> {
    /// Owned poll for the completion: `Ready(Ok)` once the sender
    /// published, `Ready(Err(Closed))` if it dropped unsent.
    ///
    /// # Panics
    ///
    /// Polling again after `Ready` is a caller bug.
    pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Result<T, RecvError>> {
        let slot = &self.slot;
        loop {
            match slot.state.load(Ordering::Acquire) {
                SENT => {
                    // SAFETY: SENT arm — the Acquire load saw the
                    // sender's swap, which came after it filled the
                    // value cell; the sender is consumed, so the cell
                    // is the receiver's (`&mut self`: this call).
                    let v = unsafe { slot.value.take() };
                    slot.state.store(TAKEN, Ordering::Release);
                    return Poll::Ready(Ok(v));
                }
                TX_DROPPED => return Poll::Ready(Err(RecvError::Closed)),
                EMPTY => {
                    // SAFETY: EMPTY arm — we own the waker cell while
                    // EMPTY (the sender only touches it after its swap
                    // observes WAITING, which only the CAS below sets).
                    unsafe { *slot.waker.get() = Some(cx.waker().clone()) };
                    match slot.state.compare_exchange(
                        EMPTY,
                        WAITING,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return Poll::Pending,
                        // Sender raced us to SENT/TX_DROPPED; the
                        // stale waker in the cell is ours to keep.
                        Err(_) => continue,
                    }
                }
                WAITING => {
                    // Re-poll: claim the cell back to refresh the
                    // waker; on failure the sender just resolved us.
                    match slot.state.compare_exchange(
                        WAITING,
                        EMPTY,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) | Err(_) => continue,
                    }
                }
                s => panic!("oneshot polled after completion (state {s})"),
            }
        }
    }

    /// Awaits the completion, consuming the receiver.
    pub async fn recv(self) -> Result<T, RecvError> {
        self.await
    }
}

impl<T: Send> Drop for OneReceiver<T> {
    fn drop(&mut self) {
        match self.slot.state.swap(RX_DROPPED, Ordering::AcqRel) {
            // SAFETY: SENT arm — an undelivered value: the sender filled
            // the cell before its swap and is consumed; the cell is ours.
            SENT => drop(unsafe { self.slot.value.take() }),
            // SAFETY: WAITING arm — our own parked waker: our swap took
            // the state off WAITING before any sender swap saw it, so
            // no sender will read the cell.
            WAITING => unsafe { *self.slot.waker.get() = None },
            _ => {}
        }
    }
}

impl<T: Send> Future for OneReceiver<T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut().poll_recv(cx)
    }
}

impl<T: Send> Unpin for OneReceiver<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn count_waker(hits: Arc<AtomicUsize>) -> Waker {
        use std::task::{RawWaker, RawWakerVTable};
        // SAFETY: in all five blocks `p` is the `Arc::into_raw` pointer
        // made at the bottom, and every `RawWaker` built on it owns one
        // strong count — `clone` adds one, `wake` and `drop_fn` give
        // theirs back, `wake_by_ref` borrows a live one.
        fn clone(p: *const ()) -> RawWaker {
            unsafe { Arc::increment_strong_count(p as *const AtomicUsize) };
            RawWaker::new(p, &VTABLE)
        }
        fn wake(p: *const ()) {
            unsafe {
                let a = Arc::from_raw(p as *const AtomicUsize);
                a.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn wake_by_ref(p: *const ()) {
            unsafe { (*(p as *const AtomicUsize)).fetch_add(1, Ordering::Relaxed) };
        }
        fn drop_fn(p: *const ()) {
            unsafe { drop(Arc::from_raw(p as *const AtomicUsize)) };
        }
        static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake_by_ref, drop_fn);
        unsafe { Waker::from_raw(RawWaker::new(Arc::into_raw(hits) as *const (), &VTABLE)) }
    }

    #[test]
    fn send_before_poll_resolves_immediately() {
        let (tx, mut rx) = oneshot::<u32>();
        tx.send(7).unwrap();
        let hits = Arc::new(AtomicUsize::new(0));
        let w = count_waker(hits.clone());
        let mut cx = Context::from_waker(&w);
        assert_eq!(rx.poll_recv(&mut cx), Poll::Ready(Ok(7)));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn send_after_park_wakes() {
        let (tx, mut rx) = oneshot::<u32>();
        let hits = Arc::new(AtomicUsize::new(0));
        let w = count_waker(hits.clone());
        let mut cx = Context::from_waker(&w);
        assert!(rx.poll_recv(&mut cx).is_pending());
        tx.send(9).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(rx.poll_recv(&mut cx), Poll::Ready(Ok(9)));
    }

    #[test]
    fn sender_drop_resolves_closed_and_wakes() {
        let (tx, mut rx) = oneshot::<u32>();
        let hits = Arc::new(AtomicUsize::new(0));
        let w = count_waker(hits.clone());
        let mut cx = Context::from_waker(&w);
        assert!(rx.poll_recv(&mut cx).is_pending());
        drop(tx);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(rx.poll_recv(&mut cx), Poll::Ready(Err(RecvError::Closed)));
    }

    #[test]
    fn a_receiver_dropped_after_the_send_frees_the_value() {
        let value = Arc::new(());
        let (tx, rx) = oneshot::<Arc<()>>();
        tx.send(value.clone()).unwrap();
        drop(rx);
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn receiver_drop_returns_value_to_sender() {
        let (tx, rx) = oneshot::<String>();
        drop(rx);
        assert_eq!(tx.send("lost".into()), Err("lost".into()));
    }
}
