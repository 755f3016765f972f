//! Randomized cross-thread stress for the intrusive oneshot slot
//! behind `rt::Call`.
//!
//! Invariants checked on every run:
//!
//! * **No lost wakes** — a parked receiver is always woken by the
//!   completing (or aborting) sender; a lost wake hangs the test.
//! * **Exactly-once resolution** — every payload is dropped exactly
//!   once, whether it was received, discarded by a receiver-side
//!   drop, or bounced back to the sender.
//!
//! The interleavings are PCG-driven so failures are reproducible from
//! the seed baked into each test.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};

use chanos_parchan::oneshot::oneshot;

/// Minimal PCG-32 (no external deps; parchan is dependency-free).
#[derive(Clone)]
struct Pcg {
    state: u64,
    inc: u64,
}

impl Pcg {
    fn new(seed: u64, stream: u64) -> Pcg {
        let mut p = Pcg {
            state: 0,
            inc: (stream << 1) | 1,
        };
        p.next();
        p.state = p.state.wrapping_add(seed);
        p.next();
        p
    }

    fn next(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(6364136223846793005).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n.max(1)
    }
}

/// Parks the calling thread until the future resolves: the plainest
/// possible executor, so a lost wake is a hang, not a spin.
fn block_on<F: Future>(mut fut: F) -> F::Output {
    struct ThreadWaker(Thread);
    impl Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(ThreadWaker(thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = unsafe { Pin::new_unchecked(&mut fut) };
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => thread::park(),
        }
    }
}

/// A payload whose drop is counted: exactly-once resolution means the
/// counter ends at 1 no matter which side won the race.
struct Tracked {
    id: u32,
    drops: Arc<AtomicUsize>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn spin(n: u32) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

#[test]
fn parked_receiver_always_woken() {
    let mut rng = Pcg::new(0xD06F00D, 1);
    for i in 0..2_000u32 {
        let (tx, rx) = oneshot::<u32>();
        let delay = rng.below(200);
        thread::scope(|s| {
            s.spawn(move || {
                spin(delay);
                tx.send(i).expect("receiver is waiting");
            });
            assert_eq!(block_on(rx), Ok(i));
        });
    }
}

#[test]
fn sender_drop_wakes_parked_receiver() {
    let mut rng = Pcg::new(0xBADCAB1E, 2);
    for _ in 0..2_000u32 {
        let (tx, rx) = oneshot::<u32>();
        let delay = rng.below(200);
        thread::scope(|s| {
            s.spawn(move || {
                spin(delay);
                drop(tx);
            });
            assert!(block_on(rx).is_err(), "dropped sender must error the recv");
        });
    }
}

#[test]
fn racing_completion_and_drops_resolve_exactly_once() {
    let mut rng = Pcg::new(0x5EED, 3);
    for i in 0..4_000u32 {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, mut rx) = oneshot::<Tracked>();
        let payload = Tracked {
            id: i,
            drops: drops.clone(),
        };
        let (tx_spin, rx_spin) = (rng.below(150), rng.below(150));
        let sender_sends = rng.below(4) != 0;
        let receiver_mode = rng.below(3); // 0: await, 1: poll once then drop, 2: drop.
        let received = thread::scope(|s| {
            s.spawn(move || {
                spin(tx_spin);
                if sender_sends {
                    // Err just means the receiver side quit first; the
                    // bounced payload drops here, still exactly once.
                    let _ = tx.send(payload);
                } else {
                    drop(tx);
                    drop(payload);
                }
            });
            spin(rx_spin);
            match receiver_mode {
                0 => match block_on(&mut rx) {
                    Ok(v) => Some(v.id),
                    Err(_) => None,
                },
                1 => {
                    let waker = Waker::noop();
                    let polled = rx.poll_recv(&mut Context::from_waker(waker));
                    drop(rx);
                    match polled {
                        Poll::Ready(Ok(v)) => Some(v.id),
                        _ => None,
                    }
                }
                _ => {
                    drop(rx);
                    None
                }
            }
        });
        if let Some(id) = received {
            assert_eq!(id, i, "wrong payload crossed the slot");
            assert!(sender_sends, "received a value nobody sent");
        }
        if receiver_mode == 0 && sender_sends {
            assert_eq!(received, Some(i), "an awaited send must be received");
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "payload {i} dropped {} times (mode {receiver_mode}, sent {sender_sends})",
            drops.load(Ordering::SeqCst),
        );
    }
}
