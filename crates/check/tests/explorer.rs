//! Direct unit tests for the explorer itself: exact schedule counts
//! against hand-enumerated interleavings, preemption-bound ladder,
//! sleep-set pruning, deadlock (lost-wake) detection, schedule
//! replay, and the value cell's checks.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use chanos_check::sync::{AtomicUsize, Condvar, Mutex, ValueCell};
use chanos_check::thread;
use chanos_check::{Config, Explorer, FailureKind};

fn cfg(preemptions: usize, sleep_sets: bool) -> Config {
    Config {
        max_preemptions: preemptions,
        max_schedules: 100_000,
        max_steps: 10_000,
        sleep_sets,
    }
}

/// Two threads, two dependent stores each (same atomic): the root
/// does `store;store;join`, the spawned thread `start;store;store`.
/// Interleavings of 2 vs 3 program-ordered ops = C(5,2) = 10, and the
/// per-interleaving preemption costs enumerate by hand to the ladder
/// asserted in `preemption_bound_ladder` below. All ops touch one
/// location, so every op is dependent and sleep sets can never prune:
/// the counts are exact.
fn two_thread_two_op_model() {
    let x = Arc::new(AtomicUsize::new(0));
    let x2 = x.clone();
    let t = thread::spawn(move || {
        x2.store(1, Ordering::SeqCst);
        x2.store(2, Ordering::SeqCst);
    });
    x.store(3, Ordering::SeqCst);
    x.store(4, Ordering::SeqCst);
    t.join();
}

#[test]
fn full_enumeration_matches_hand_count() {
    // Bound 4 admits every interleaving (max hand-computed cost is 4).
    let report = Explorer::new(cfg(4, true)).check(two_thread_two_op_model);
    report.assert_ok();
    assert_eq!(report.schedules, 10, "expected all C(5,2) interleavings");
    assert_eq!(report.pruned, 0, "all ops dependent: nothing to prune");
    // Every atomic op in the model declares SeqCst; the report
    // tallies them (10 schedules x 4 stores, plus replayed prefixes).
    assert!(report.ordering_counts[4] > 0);
    assert_eq!(report.ordering_counts[0], 0);
}

#[test]
fn preemption_bound_ladder() {
    // Hand-enumerated: of the 10 interleavings, 1 costs 0 preemptions,
    // 2 more cost 1, 4 more cost 2, 2 more cost 3, and 1 costs 4.
    for (bound, want) in [(0, 1), (1, 3), (2, 7), (3, 9), (4, 10), (5, 10)] {
        let report = Explorer::new(cfg(bound, true)).check(two_thread_two_op_model);
        report.assert_ok();
        assert_eq!(
            report.schedules, want,
            "preemption bound {bound}: wrong schedule count"
        );
    }
}

#[test]
fn sleep_sets_neutral_when_all_ops_dependent() {
    let with = Explorer::new(cfg(4, true)).check(two_thread_two_op_model);
    let without = Explorer::new(cfg(4, false)).check(two_thread_two_op_model);
    assert_eq!(with.schedules, without.schedules);
    assert_eq!(with.pruned, 0);
}

/// Two threads writing *different* atomics: the two orders of the
/// independent stores are equivalent, so sleep sets must prune one of
/// the three interleavings (the hand-traced run is `x-first`,
/// `start-first then y-first`, and the third — `start, x, y` — prunes
/// when the sleeping y-writer is never woken by the independent x
/// store).
#[test]
fn sleep_sets_prune_independent_stores() {
    fn model() {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let y2 = y.clone();
        let t = thread::spawn(move || {
            y2.store(1, Ordering::SeqCst);
        });
        x.store(1, Ordering::SeqCst);
        t.join();
    }
    let with = Explorer::new(cfg(3, true)).check(model);
    with.assert_ok();
    assert_eq!(
        with.schedules, 2,
        "one of the three interleavings is redundant"
    );
    assert_eq!(with.pruned, 1);
    let without = Explorer::new(cfg(3, false)).check(model);
    without.assert_ok();
    assert_eq!(without.schedules, 3);
    assert_eq!(without.pruned, 0);
}

#[test]
fn lost_wake_is_reported_as_deadlock() {
    // A thread parks and nobody ever unparks it: the built-in
    // lost-wake invariant fires as a Deadlock counterexample.
    let report = Explorer::new(cfg(3, true)).check(|| {
        let t = thread::spawn(|| {
            thread::park();
        });
        t.join();
    });
    let failure = report.failure.expect("must detect the lost wake");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.detail.contains("Park"),
        "detail: {}",
        failure.detail
    );
}

#[test]
fn park_with_token_present_proceeds() {
    // std::thread::park token semantics: an unpark before the park
    // leaves a token, so the park returns immediately in every
    // schedule.
    let report = Explorer::new(cfg(3, true)).check(|| {
        let t = thread::spawn(|| {
            thread::park();
        });
        let tid = t.id();
        thread::unpark(tid);
        t.join();
    });
    report.assert_ok();
}

/// A flag set under a mutex and announced by `notify_one`; the root
/// waits for it with or without re-reading the flag first.
fn condvar_handoff(check_flag: bool) {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let t = {
        let pair = pair.clone();
        thread::spawn(move || {
            *pair.0.lock().unwrap() = true;
            pair.1.notify_one();
        })
    };
    let mut ready = pair.0.lock().unwrap();
    if check_flag {
        while !*ready {
            ready = pair.1.wait(ready).unwrap();
        }
    } else {
        ready = pair.1.wait(ready).unwrap();
    }
    drop(ready);
    t.join();
}

#[test]
fn condvar_wait_blocks_until_notified() {
    // The flag loop covers a notify that lands before the wait.
    Explorer::new(cfg(3, true))
        .check(|| condvar_handoff(true))
        .assert_ok();
    // Without it that notify is lost, as in `std`, and the waiter is
    // blocked for good: a deadlock, not a spurious wake.
    let failure = Explorer::new(cfg(3, true))
        .check(|| condvar_handoff(false))
        .failure
        .expect("a notify before the wait is lost");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(failure.detail.contains("CondWait"), "{}", failure.detail);
}

#[test]
fn racy_increment_found_and_replayable() {
    // The classic torn read-modify-write: both threads load then
    // store x+1. Some interleaving loses an increment; the model
    // asserts it does not, so the explorer must find a Panic — and
    // replaying the printed schedule must reproduce it exactly.
    fn model() {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = x.clone();
        let t = thread::spawn(move || {
            let v = x2.load(Ordering::SeqCst);
            x2.store(v + 1, Ordering::SeqCst);
        });
        let v = x.load(Ordering::SeqCst);
        x.store(v + 1, Ordering::SeqCst);
        t.join();
        assert_eq!(x.load(Ordering::SeqCst), 2, "lost increment");
    }
    let explorer = Explorer::new(cfg(3, true));
    let report = explorer.check(model);
    let failure = report.failure.expect("must find the lost increment");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.detail.contains("lost increment"));

    let replayed = explorer
        .replay(&failure.schedule, model)
        .expect("replay must reproduce the failure");
    assert_eq!(replayed.kind, FailureKind::Panic);
    assert!(replayed.detail.contains("lost increment"));
}

#[test]
fn replay_of_fixed_model_reports_clean() {
    // A schedule recorded against a buggy model, replayed against the
    // fixed model (atomic RMW instead of load+store), completes
    // cleanly or diverges — either way there is no Panic.
    fn buggy() {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = x.clone();
        let t = thread::spawn(move || {
            let v = x2.load(Ordering::SeqCst);
            x2.store(v + 1, Ordering::SeqCst);
        });
        let v = x.load(Ordering::SeqCst);
        x.store(v + 1, Ordering::SeqCst);
        t.join();
        assert_eq!(x.load(Ordering::SeqCst), 2, "lost increment");
    }
    fn fixed() {
        let x = Arc::new(AtomicUsize::new(0));
        let x2 = x.clone();
        let t = thread::spawn(move || {
            x2.fetch_add(1, Ordering::SeqCst);
        });
        x.fetch_add(1, Ordering::SeqCst);
        t.join();
        assert_eq!(x.load(Ordering::SeqCst), 2, "lost increment");
    }
    let explorer = Explorer::new(cfg(3, true));
    let failure = explorer.check(buggy).failure.expect("buggy model fails");
    if let Some(f) = explorer.replay(&failure.schedule, fixed) {
        assert_eq!(
            f.kind,
            FailureKind::ReplayDivergence,
            "fixed model must not reproduce the panic: {f}"
        );
    }
}

#[test]
fn step_limit_catches_runaway_models() {
    let report = Explorer::new(Config {
        max_preemptions: 1,
        max_schedules: 10,
        max_steps: 64,
        sleep_sets: true,
    })
    .check(|| {
        let x = Arc::new(AtomicUsize::new(0));
        loop {
            // No exit: every schedule runs into the step bound.
            if x.load(Ordering::SeqCst) == usize::MAX {
                break;
            }
        }
    });
    let failure = report.failure.expect("runaway model must be stopped");
    assert_eq!(failure.kind, FailureKind::StepLimit);
}

#[test]
fn budget_truncation_is_reported() {
    let report = Explorer::new(Config {
        max_preemptions: 4,
        max_schedules: 3, // far fewer than the 10 real schedules
        max_steps: 10_000,
        sleep_sets: true,
    })
    .check(two_thread_two_op_model);
    assert!(report.truncated);
    assert!(report.failure.is_none());
}

#[test]
fn mutex_serializes_and_join_returns_value() {
    use chanos_check::sync::Mutex;
    let report = Explorer::new(cfg(2, true)).check(|| {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let t = thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            *g += 1;
            7u32
        });
        {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
        let got = t.join();
        assert_eq!(got, 7);
        assert_eq!(*m.lock().unwrap(), 2, "mutex lost an increment");
    });
    report.assert_ok();
    assert!(report.schedules >= 2, "lock order must branch");
}

/// A value cell two model threads share. The model asserts nothing
/// about who may touch it, so the cell's own checks are the oracle.
struct Shared(ValueCell<u32>);

// SAFETY: the explorer runs one model thread at a time, so accesses
// from two threads never overlap; a wrong order is the cell's panic.
unsafe impl Sync for Shared {}

#[test]
fn a_take_racing_a_put_on_one_cell_panics_and_replays() {
    fn model() {
        let cell = Arc::new(Shared(ValueCell::new()));
        let t = {
            let cell = cell.clone();
            // SAFETY: see `Shared`.
            thread::spawn(move || unsafe { cell.0.put(7) })
        };
        // SAFETY: see `Shared`.
        assert_eq!(unsafe { cell.0.take() }, 7);
        t.join();
    }
    let explorer = Explorer::new(cfg(3, true));
    let report = explorer.check(model);
    let failure = report.failure.expect("the take may run first");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.detail.contains("empty cell"), "{}", failure.detail);
    let replayed = explorer
        .replay(&failure.schedule, model)
        .expect("replay must reproduce the failure");
    assert_eq!(replayed.kind, FailureKind::Panic);
    // A cell access declares no ordering.
    assert_eq!(report.ordering_counts, [0; 5]);
}

#[test]
fn accesses_to_two_cells_commute() {
    // `sleep_sets_prune_independent_stores` with cells for atomics.
    fn model() {
        let (x, y) = (ValueCell::new(), Arc::new(Shared(ValueCell::new())));
        let t = {
            let y = y.clone();
            // SAFETY: only this thread touches `y` until the join.
            thread::spawn(move || unsafe { y.0.put(1) })
        };
        // SAFETY: `x` is this thread's alone; `y` is taken after the
        // join, and both cells are empty when dropped.
        unsafe {
            x.put(2);
            assert_eq!(x.take(), 2);
            t.join();
            assert_eq!(y.0.take(), 1);
        }
    }
    let report = Explorer::new(cfg(3, true)).check(model);
    report.assert_ok();
    assert!(report.pruned > 0, "{} schedules", report.schedules);
}

#[test]
fn a_cell_dropped_full_panics() {
    let report = Explorer::new(cfg(3, true)).check(|| {
        let cell = ValueCell::new();
        // SAFETY: the cell is this thread's alone.
        unsafe { cell.put(1u32) };
        drop(cell);
    });
    let failure = report.failure.expect("the normal build leaks the value");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.detail.contains("dropped"), "{}", failure.detail);
}

#[test]
fn an_empty_take_met_while_unwinding_is_reported_not_an_abort() {
    /// Takes from the cell again as the first take's panic unwinds.
    struct TakeOnDrop<'a>(&'a ValueCell<u32>);
    impl Drop for TakeOnDrop<'_> {
        fn drop(&mut self) {
            // SAFETY: the cell is this thread's alone.
            unsafe { self.0.take() };
        }
    }
    let report = Explorer::new(cfg(3, true)).check(|| {
        let cell = ValueCell::new();
        let _again = TakeOnDrop(&cell);
        // SAFETY: the cell is this thread's alone.
        unsafe { cell.take() };
    });
    let failure = report.failure.expect("the cell was never filled");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.detail.contains("empty cell"), "{}", failure.detail);
}

#[test]
fn outside_an_execution_a_cell_is_a_passthrough() {
    // No controller: no scheduling point, just the move in and out.
    let cell = ValueCell::new();
    // SAFETY: the cell is this thread's alone.
    unsafe {
        cell.put(String::from("a"));
        assert_eq!(cell.take(), "a");
        cell.put(String::from("b"));
        assert_eq!(cell.take(), "b");
    }
}
