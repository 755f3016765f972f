//! Model of the oneshot slot's CAS waker claim / resolve / drop
//! protocol.
//!
//! mirrors: `parchan/src/oneshot.rs` — `OneSender::send`,
//! `OneSender::drop`, `OneReceiver::poll_recv`, `OneReceiver::drop`.
//!
//! The real slot keeps `value` and `waker` in `UnsafeCell`s whose
//! ownership is decided by the `state` atomic alone; the model keeps
//! both as atomics with `0` as the "empty cell" sentinel, so an
//! ownership violation (reading a cell the state machine says is not
//! ours) surfaces as a sentinel assertion instead of UB. The waker
//! cell holds the receiver's model-thread id + 1; "waking" is
//! `thread::unpark` on it.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sync::{AtomicU8, AtomicUsize};
use crate::thread;

const EMPTY: u8 = 0;
const WAITING: u8 = 1;
const SENT: u8 = 2;
const TX_DROPPED: u8 = 3;
const RX_DROPPED: u8 = 4;
const TAKEN: u8 = 5;

/// Seeded bugs for the oneshot models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The shipping protocol.
    None,
    /// The receiver's re-poll reclaims the waker cell with a plain
    /// store instead of the `WAITING → EMPTY` CAS: it can clobber a
    /// concurrent sender's `SENT` and sleep through its own value.
    RepollStoreNotCas,
    /// The sender swaps to `SENT` *before* writing the value cell:
    /// the receiver can observe `SENT` and take an empty cell.
    PublishAfterSwap,
}

/// The model slot (see module docs for the cell encoding).
pub struct MSlot {
    state: AtomicU8,
    value: AtomicUsize,
    waker: AtomicUsize,
}

impl Default for MSlot {
    fn default() -> Self {
        Self::new()
    }
}

impl MSlot {
    pub fn new() -> MSlot {
        MSlot {
            state: AtomicU8::new(EMPTY),
            value: AtomicUsize::new(0),
            waker: AtomicUsize::new(0),
        }
    }

    /// `OneSender::send`. Returns `Err(v)` if the receiver was gone.
    pub fn send(&self, v: usize, mutant: Mutant) -> Result<(), usize> {
        assert_ne!(v, 0, "0 is the model's empty-cell sentinel");
        if mutant == Mutant::PublishAfterSwap {
            // BUG (seeded): state says SENT while the cell is empty.
            match self.state.swap(SENT, Ordering::AcqRel) {
                s @ (EMPTY | WAITING) => {
                    self.value.store(v, Ordering::Relaxed);
                    if s == WAITING {
                        self.fire_waker();
                    }
                    Ok(())
                }
                RX_DROPPED => {
                    self.state.store(RX_DROPPED, Ordering::Release);
                    Err(v)
                }
                s => unreachable!("send from state {s}"),
            }
        } else {
            self.value.store(v, Ordering::Relaxed);
            match self.state.swap(SENT, Ordering::AcqRel) {
                EMPTY => Ok(()),
                WAITING => {
                    // The swap transferred waker-cell ownership.
                    self.fire_waker();
                    Ok(())
                }
                RX_DROPPED => {
                    let taken = self.value.swap(0, Ordering::Relaxed);
                    assert_eq!(taken, v, "reclaimed someone else's value");
                    self.state.store(RX_DROPPED, Ordering::Release);
                    Err(v)
                }
                s => unreachable!("send from state {s}"),
            }
        }
    }

    /// `OneSender::drop` without a send.
    pub fn drop_sender(&self) {
        match self.state.swap(TX_DROPPED, Ordering::AcqRel) {
            WAITING => self.fire_waker(),
            RX_DROPPED => self.state.store(RX_DROPPED, Ordering::Release),
            _ => {}
        }
    }

    fn fire_waker(&self) {
        let w = self.waker.swap(0, Ordering::Relaxed);
        assert_ne!(w, 0, "WAITING with an empty waker cell");
        thread::unpark(w - 1);
    }

    /// One `poll_recv` by model thread `me`: `Some(Ok(v))` resolved,
    /// `Some(Err(()))` closed, `None` pending (waker parked).
    pub fn poll(&self, me: thread::ThreadId, mutant: Mutant) -> Option<Result<usize, ()>> {
        loop {
            match self.state.load(Ordering::Acquire) {
                SENT => {
                    let v = self.value.swap(0, Ordering::Relaxed);
                    assert_ne!(v, 0, "SENT with an empty value cell");
                    self.state.store(TAKEN, Ordering::Release);
                    return Some(Ok(v));
                }
                TX_DROPPED => return Some(Err(())),
                EMPTY => {
                    // We own the waker cell while EMPTY.
                    self.waker.store(me + 1, Ordering::Relaxed);
                    match self.state.compare_exchange(
                        EMPTY,
                        WAITING,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return None,
                        // Sender raced us to a terminal state; the
                        // stale waker in the cell stays ours, exactly
                        // as in `poll_recv`.
                        Err(_) => continue,
                    }
                }
                WAITING => {
                    // Re-poll: claim the cell back to refresh the
                    // waker; on CAS failure the sender just resolved
                    // us and the next loop iteration sees how.
                    if mutant == Mutant::RepollStoreNotCas {
                        // BUG (seeded): can overwrite a concurrent
                        // sender's SENT.
                        self.state.store(EMPTY, Ordering::Release);
                    } else {
                        let _ = self.state.compare_exchange(
                            WAITING,
                            EMPTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                    }
                    continue;
                }
                s => panic!("polled after completion (state {s})"),
            }
        }
    }

    /// Blocking receive built from `poll` + park, the way the
    /// executor drives the future: poll, park while pending, re-poll
    /// on wake. One *spurious* re-poll is issued before the first
    /// park — executors are allowed to re-poll any time, and it is
    /// exactly this legal re-poll that exercises the `WAITING →
    /// EMPTY` waker-reclaim CAS against a concurrent resolve.
    // The unit error mirrors the real receiver API's closed-channel
    // shape; the model must match it, not improve on it.
    #[allow(clippy::result_unit_err)]
    pub fn recv_blocking(&self, me: thread::ThreadId, mutant: Mutant) -> Result<usize, ()> {
        let mut spurious = true;
        loop {
            if let Some(r) = self.poll(me, mutant) {
                return r;
            }
            if spurious {
                spurious = false;
                continue;
            }
            thread::park();
        }
    }

    /// `OneReceiver::drop`.
    pub fn drop_receiver(&self) {
        match self.state.swap(RX_DROPPED, Ordering::AcqRel) {
            SENT => {
                let v = self.value.swap(0, Ordering::Relaxed);
                assert_ne!(v, 0, "SENT with an empty value cell");
            }
            WAITING => {
                let w = self.waker.swap(0, Ordering::Relaxed);
                assert_ne!(w, 0, "WAITING with an empty waker cell");
            }
            _ => {}
        }
    }
}

/// Send vs. receive race: the value is delivered exactly once, in
/// every interleaving.
pub fn oneshot_send_recv_model(mutant: Mutant) {
    let slot = Arc::new(MSlot::new());
    let s2 = slot.clone();
    let sender = thread::spawn(move || {
        s2.send(7, mutant).expect("receiver is live");
    });
    // The model root is the receiver.
    let got = slot.recv_blocking(0, mutant);
    assert_eq!(got, Ok(7), "the receiver lost its value");
    sender.join();
}

/// Sender-drop vs. receive race: every schedule resolves the receiver
/// with Closed, never a hang.
pub fn oneshot_tx_drop_model(mutant: Mutant) {
    let slot = Arc::new(MSlot::new());
    let s2 = slot.clone();
    let sender = thread::spawn(move || {
        s2.drop_sender();
    });
    let got = slot.recv_blocking(0, mutant);
    assert_eq!(got, Err(()), "dropped sender must resolve Closed");
    sender.join();
}

/// Receiver-drop vs. send race: the send either lands in a slot the
/// receiver abandoned (value reclaimed by `OneReceiver::drop`) or
/// comes back as `Err`; the cells end up empty either way.
pub fn oneshot_rx_drop_model(mutant: Mutant) {
    let slot = Arc::new(MSlot::new());
    let s2 = slot.clone();
    let sender = thread::spawn(move || s2.send(7, mutant));
    slot.drop_receiver();
    let _ = sender.join();
    assert_eq!(
        slot.value.load(Ordering::SeqCst),
        0,
        "a dropped receiver leaked the value"
    );
}
