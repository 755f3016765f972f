//! # chanos-select — the `choose` control structure
//!
//! Implements §3 of Holland & Seltzer (HotOS XIII 2011): *"The model
//! also adds a new control structure, choice … executes exactly one of
//! the option lines, choosing to receive from whichever channel
//! becomes ready first."*
//!
//! The [`choose!`] macro is runtime-agnostic: arms are plain futures.
//! It works over simulator channels (`chanos-csp`), real-thread
//! channels (`chanos-parchan`), timers, and join handles alike,
//! because those futures obey the **cancel-safety contract**:
//!
//! 1. a pending arm registers itself and *commits* (consumes a
//!    message, a permit, a timer) only in the poll that returns
//!    `Ready`;
//! 2. dropping a pending arm deregisters it without consuming
//!    anything.
//!
//! Exactly one arm's body runs. Losing arms are dropped *before* the
//! winning body executes, so the body can freely operate on the same
//! channels the losers were watching.
//!
//! Fairness: polling order rotates per invocation (a deterministic
//! thread-local counter), so no arm starves when several are
//! perpetually ready. Experiment E6 measures the resulting fairness.
//!
//! ```ignore
//! choose! {
//!     req = requests.recv() => handle(req),
//!     _irq = irq.recv() => service_interrupt(),
//! }
//! ```
//!
//! Two modules serve both channel implementations, the simulator's
//! (`chanos-csp`) and the real-thread one (`chanos-parchan`), because
//! this is the one crate both depend on: [`vocab`] holds the
//! capacities and error types they export, and [`state`] holds one
//! channel's bookkeeping — its queue, parked waiters and endpoint
//! counts, with every rule the two decide the same way — so a rule is
//! written, and model-checked, once.

pub mod state;
pub mod vocab;

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::Poll;

thread_local! {
    static ROTATION: Cell<usize> = const { Cell::new(0) };
}

/// Returns a per-thread rotating counter used by [`choose!`] to vary
/// arm polling order. Deterministic within a single-threaded
/// simulation run.
#[doc(hidden)]
pub fn next_rotation() -> usize {
    ROTATION.with(|r| {
        let v = r.get();
        r.set(v.wrapping_add(1));
        v
    })
}

/// Output of [`race`]: which of the two futures finished first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future won.
    Left(A),
    /// The second future won.
    Right(B),
}

/// Races two futures; the loser is dropped.
///
/// Polling order rotates between invocations for fairness.
pub async fn race<A: Future, B: Future>(a: A, b: B) -> Either<A::Output, B::Output> {
    let start = next_rotation();
    let mut a = std::pin::pin!(a);
    let mut b = std::pin::pin!(b);
    std::future::poll_fn(move |cx| {
        for k in 0..2 {
            match (start + k) % 2 {
                0 => {
                    if let Poll::Ready(v) = a.as_mut().poll(cx) {
                        return Poll::Ready(Either::Left(v));
                    }
                }
                _ => {
                    if let Poll::Ready(v) = b.as_mut().poll(cx) {
                        return Poll::Ready(Either::Right(v));
                    }
                }
            }
        }
        Poll::Pending
    })
    .await
}

/// Waits for the first of `futs` to complete; returns its index and
/// output. Remaining futures are dropped when the call returns.
///
/// This is `choose` over a homogeneous, dynamically-sized arm set —
/// what a supervisor uses to watch N children, or a server to watch N
/// client channels.
///
/// # Panics
///
/// Panics if `futs` is empty.
pub async fn select_all<F: Future>(futs: Vec<F>) -> (usize, F::Output) {
    assert!(
        !futs.is_empty(),
        "select_all over no futures would block forever"
    );
    let start = next_rotation();
    let mut futs: Vec<Pin<Box<F>>> = futs.into_iter().map(Box::pin).collect();
    std::future::poll_fn(move |cx| {
        let n = futs.len();
        for k in 0..n {
            let i = (start + k) % n;
            if let Poll::Ready(v) = futs[i].as_mut().poll(cx) {
                return Poll::Ready((i, v));
            }
        }
        Poll::Pending
    })
    .await
}

/// Runs all futures to completion and collects their outputs in order.
pub async fn join_all<F: Future>(futs: Vec<F>) -> Vec<F::Output> {
    let mut futs: Vec<Pin<Box<F>>> = futs.into_iter().map(Box::pin).collect();
    let mut outs: Vec<Option<F::Output>> = (0..futs.len()).map(|_| None).collect();
    std::future::poll_fn(move |cx| {
        let mut pending = false;
        for (i, f) in futs.iter_mut().enumerate() {
            if outs[i].is_none() {
                match f.as_mut().poll(cx) {
                    Poll::Ready(v) => outs[i] = Some(v),
                    Poll::Pending => pending = true,
                }
            }
        }
        if pending {
            Poll::Pending
        } else {
            Poll::Ready(outs.iter_mut().map(|o| o.take().expect("filled")).collect())
        }
    })
    .await
}

/// Joins two heterogeneous futures.
pub async fn join2<A: Future, B: Future>(a: A, b: B) -> (A::Output, B::Output) {
    let mut a = std::pin::pin!(a);
    let mut b = std::pin::pin!(b);
    let mut ra = None;
    let mut rb = None;
    std::future::poll_fn(move |cx| {
        if ra.is_none() {
            if let Poll::Ready(v) = a.as_mut().poll(cx) {
                ra = Some(v);
            }
        }
        if rb.is_none() {
            if let Poll::Ready(v) = b.as_mut().poll(cx) {
                rb = Some(v);
            }
        }
        if ra.is_some() && rb.is_some() {
            Poll::Ready((ra.take().expect("set"), rb.take().expect("set")))
        } else {
            Poll::Pending
        }
    })
    .await
}

// The `choose!` expansion needs these paths.
#[doc(hidden)]
pub mod __private {
    pub use std::future::{poll_fn, Future};
    pub use std::pin::pin;
    pub use std::task::Poll;
}

/// The paper's `choose` statement over 1–6 heterogeneous arms.
///
/// ```ignore
/// choose! {
///     v = rx.recv() => println!("got {v:?}"),
///     _ = timer.recv() => println!("timeout"),
/// }
/// ```
///
/// Exactly one body runs; losing arms are dropped (deregistering
/// themselves) before the body executes. The whole expression
/// evaluates to the chosen body's value, so every body must have the
/// same type.
#[macro_export]
macro_rules! choose {
    // 1 arm.
    ($p1:pat = $f1:expr => $b1:expr $(,)?) => {{
        let __v = { $f1.await };
        let $p1 = __v;
        $b1
    }};
    // 2 arms.
    ($p1:pat = $f1:expr => $b1:expr,
     $p2:pat = $f2:expr => $b2:expr $(,)?) => {{
        enum __Choose<A, B> {
            A(A),
            B(B),
        }
        let __out = {
            let __start = $crate::next_rotation();
            let mut __f1 = $crate::__private::pin!($f1);
            let mut __f2 = $crate::__private::pin!($f2);
            $crate::__private::poll_fn(move |cx| {
                for __k in 0..2usize {
                    match (__start + __k) % 2 {
                        0 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f1.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::A(v));
                            }
                        }
                        _ => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f2.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::B(v));
                            }
                        }
                    }
                }
                $crate::__private::Poll::Pending
            })
            .await
        };
        match __out {
            __Choose::A($p1) => $b1,
            __Choose::B($p2) => $b2,
        }
    }};
    // 3 arms.
    ($p1:pat = $f1:expr => $b1:expr,
     $p2:pat = $f2:expr => $b2:expr,
     $p3:pat = $f3:expr => $b3:expr $(,)?) => {{
        enum __Choose<A, B, C> {
            A(A),
            B(B),
            C(C),
        }
        let __out = {
            let __start = $crate::next_rotation();
            let mut __f1 = $crate::__private::pin!($f1);
            let mut __f2 = $crate::__private::pin!($f2);
            let mut __f3 = $crate::__private::pin!($f3);
            $crate::__private::poll_fn(move |cx| {
                for __k in 0..3usize {
                    match (__start + __k) % 3 {
                        0 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f1.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::A(v));
                            }
                        }
                        1 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f2.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::B(v));
                            }
                        }
                        _ => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f3.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::C(v));
                            }
                        }
                    }
                }
                $crate::__private::Poll::Pending
            })
            .await
        };
        match __out {
            __Choose::A($p1) => $b1,
            __Choose::B($p2) => $b2,
            __Choose::C($p3) => $b3,
        }
    }};
    // 4 arms.
    ($p1:pat = $f1:expr => $b1:expr,
     $p2:pat = $f2:expr => $b2:expr,
     $p3:pat = $f3:expr => $b3:expr,
     $p4:pat = $f4:expr => $b4:expr $(,)?) => {{
        enum __Choose<A, B, C, D> {
            A(A),
            B(B),
            C(C),
            D(D),
        }
        let __out = {
            let __start = $crate::next_rotation();
            let mut __f1 = $crate::__private::pin!($f1);
            let mut __f2 = $crate::__private::pin!($f2);
            let mut __f3 = $crate::__private::pin!($f3);
            let mut __f4 = $crate::__private::pin!($f4);
            $crate::__private::poll_fn(move |cx| {
                for __k in 0..4usize {
                    match (__start + __k) % 4 {
                        0 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f1.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::A(v));
                            }
                        }
                        1 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f2.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::B(v));
                            }
                        }
                        2 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f3.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::C(v));
                            }
                        }
                        _ => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f4.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::D(v));
                            }
                        }
                    }
                }
                $crate::__private::Poll::Pending
            })
            .await
        };
        match __out {
            __Choose::A($p1) => $b1,
            __Choose::B($p2) => $b2,
            __Choose::C($p3) => $b3,
            __Choose::D($p4) => $b4,
        }
    }};
    // 5 arms.
    ($p1:pat = $f1:expr => $b1:expr,
     $p2:pat = $f2:expr => $b2:expr,
     $p3:pat = $f3:expr => $b3:expr,
     $p4:pat = $f4:expr => $b4:expr,
     $p5:pat = $f5:expr => $b5:expr $(,)?) => {{
        enum __Choose<A, B, C, D, E> {
            A(A),
            B(B),
            C(C),
            D(D),
            E(E),
        }
        let __out = {
            let __start = $crate::next_rotation();
            let mut __f1 = $crate::__private::pin!($f1);
            let mut __f2 = $crate::__private::pin!($f2);
            let mut __f3 = $crate::__private::pin!($f3);
            let mut __f4 = $crate::__private::pin!($f4);
            let mut __f5 = $crate::__private::pin!($f5);
            $crate::__private::poll_fn(move |cx| {
                for __k in 0..5usize {
                    match (__start + __k) % 5 {
                        0 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f1.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::A(v));
                            }
                        }
                        1 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f2.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::B(v));
                            }
                        }
                        2 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f3.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::C(v));
                            }
                        }
                        3 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f4.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::D(v));
                            }
                        }
                        _ => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f5.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::E(v));
                            }
                        }
                    }
                }
                $crate::__private::Poll::Pending
            })
            .await
        };
        match __out {
            __Choose::A($p1) => $b1,
            __Choose::B($p2) => $b2,
            __Choose::C($p3) => $b3,
            __Choose::D($p4) => $b4,
            __Choose::E($p5) => $b5,
        }
    }};
    // 6 arms.
    ($p1:pat = $f1:expr => $b1:expr,
     $p2:pat = $f2:expr => $b2:expr,
     $p3:pat = $f3:expr => $b3:expr,
     $p4:pat = $f4:expr => $b4:expr,
     $p5:pat = $f5:expr => $b5:expr,
     $p6:pat = $f6:expr => $b6:expr $(,)?) => {{
        enum __Choose<A, B, C, D, E, F> {
            A(A),
            B(B),
            C(C),
            D(D),
            E(E),
            F(F),
        }
        let __out = {
            let __start = $crate::next_rotation();
            let mut __f1 = $crate::__private::pin!($f1);
            let mut __f2 = $crate::__private::pin!($f2);
            let mut __f3 = $crate::__private::pin!($f3);
            let mut __f4 = $crate::__private::pin!($f4);
            let mut __f5 = $crate::__private::pin!($f5);
            let mut __f6 = $crate::__private::pin!($f6);
            $crate::__private::poll_fn(move |cx| {
                for __k in 0..6usize {
                    match (__start + __k) % 6 {
                        0 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f1.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::A(v));
                            }
                        }
                        1 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f2.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::B(v));
                            }
                        }
                        2 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f3.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::C(v));
                            }
                        }
                        3 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f4.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::D(v));
                            }
                        }
                        4 => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f5.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::E(v));
                            }
                        }
                        _ => {
                            if let $crate::__private::Poll::Ready(v) =
                                $crate::__private::Future::poll(__f6.as_mut(), cx)
                            {
                                return $crate::__private::Poll::Ready(__Choose::F(v));
                            }
                        }
                    }
                }
                $crate::__private::Poll::Pending
            })
            .await
        };
        match __out {
            __Choose::A($p1) => $b1,
            __Choose::B($p2) => $b2,
            __Choose::C($p3) => $b3,
            __Choose::D($p4) => $b4,
            __Choose::E($p5) => $b5,
            __Choose::F($p6) => $b6,
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::future::{pending, ready};
    use std::task::Context;

    fn block_on<F: Future>(mut fut: F) -> F::Output {
        // A trivial single-future executor for combinator tests: these
        // futures never actually park (they are ready or poll-driven).
        let waker = std::task::Waker::noop();
        let mut cx = Context::from_waker(waker);
        // SAFETY: `fut` is a local that is never moved after this pin.
        let mut fut = unsafe { Pin::new_unchecked(&mut fut) };
        loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    // Combinator tests only use immediately-ready or
                    // count-down futures; spin is fine.
                }
            }
        }
    }

    /// A future that is ready after `n` polls.
    struct ReadyAfter {
        n: u32,
        val: u32,
    }

    impl Future for ReadyAfter {
        type Output = u32;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
            if self.n == 0 {
                Poll::Ready(self.val)
            } else {
                self.n -= 1;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn race_picks_ready_side() {
        let out = block_on(race(ready(1), pending::<i32>()));
        assert_eq!(out, Either::Left(1));
        let out = block_on(race(pending::<i32>(), ready(2)));
        assert_eq!(out, Either::Right(2));
    }

    #[test]
    fn select_all_returns_first_ready_index() {
        let futs = vec![
            ReadyAfter { n: 5, val: 10 },
            ReadyAfter { n: 0, val: 20 },
            ReadyAfter { n: 5, val: 30 },
        ];
        let (i, v) = block_on(select_all(futs));
        assert_eq!((i, v), (1, 20));
    }

    #[test]
    #[should_panic(expected = "select_all over no futures")]
    fn select_all_empty_panics() {
        let _ = block_on(select_all(Vec::<std::future::Ready<()>>::new()));
    }

    #[test]
    fn join_all_preserves_order() {
        let futs = vec![
            ReadyAfter { n: 3, val: 1 },
            ReadyAfter { n: 0, val: 2 },
            ReadyAfter { n: 7, val: 3 },
        ];
        let outs = block_on(join_all(futs));
        assert_eq!(outs, vec![1, 2, 3]);
    }

    #[test]
    fn join2_waits_for_both() {
        let (a, b) = block_on(join2(ReadyAfter { n: 4, val: 7 }, ready("x")));
        assert_eq!(a, 7);
        assert_eq!(b, "x");
    }

    #[test]
    fn choose_two_arms_picks_ready() {
        let out: u32 = block_on(async {
            choose! {
                v = ready(5) => v + 1,
                _ = pending::<()>() => unreachable!(),
            }
        });
        assert_eq!(out, 6);
    }

    #[test]
    fn choose_rotation_is_fair_over_invocations() {
        // Both arms always ready: over many invocations each side
        // should win roughly half the time thanks to rotation.
        let mut wins = [0u32; 2];
        for _ in 0..100 {
            let w = block_on(async {
                choose! {
                    _ = ready(()) => 0usize,
                    _ = ready(()) => 1usize,
                }
            });
            wins[w] += 1;
        }
        assert_eq!(wins[0] + wins[1], 100);
        assert!(wins[0] >= 40 && wins[1] >= 40, "unfair: {wins:?}");
    }

    #[test]
    fn choose_six_arms_compiles_and_picks() {
        let out = block_on(async {
            choose! {
                _ = pending::<()>() => 0,
                _ = pending::<()>() => 1,
                v = ready(42) => v,
                _ = pending::<()>() => 3,
                _ = pending::<()>() => 4,
                _ = pending::<()>() => 5,
            }
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn choose_one_arm_is_plain_await() {
        let out = block_on(async {
            choose! {
                v = ready(9) => v * 2,
            }
        });
        assert_eq!(out, 18);
    }
}
