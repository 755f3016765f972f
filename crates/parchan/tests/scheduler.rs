//! Scheduler regression and stress tests: work stealing, pinning,
//! shutdown reaping, timer-heap boundedness, watch-waiter pruning, and
//! the three dispatch fairness rules (no queue starves another).

use std::collections::HashSet;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Wake, Waker};
use std::time::Duration;

use chanos_parchan::{
    after, channel, current_worker, stat_add, yield_now, Capacity, Priority, Runtime,
};

/// A waker that does nothing (for polling futures by hand).
struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

fn noop_waker() -> Waker {
    Waker::from(Arc::new(NoopWake))
}

// ---------------------------------------------------------------------------
// Shutdown must complete abandoned tasks, not strand their joiners.
// ---------------------------------------------------------------------------

#[test]
fn shutdown_completes_blocked_tasks_joiners() {
    let rt = Runtime::new(2);
    let (tx, rx) = channel::<u32>(Capacity::Unbounded);
    // Parked forever on a channel that never delivers.
    let h = rt.spawn(async move { rx.recv().await.ok().unwrap_or(0) });
    std::thread::sleep(Duration::from_millis(30));
    rt.shutdown();
    let err = h.join_blocking().unwrap_err();
    assert!(
        err.0.contains("shut down"),
        "expected shutdown panic, got: {}",
        err.0
    );
    drop(tx);
}

#[test]
fn shutdown_wakes_already_blocked_joiner_thread() {
    // The joiner blocks in join_blocking() *before* shutdown: the
    // reap must wake the condvar it sleeps on.
    let rt = Runtime::new(1);
    let (tx, rx) = channel::<u32>(Capacity::Unbounded);
    let h = rt.spawn(async move {
        rx.recv().await.ok();
    });
    let joiner = std::thread::spawn(move || h.join_blocking());
    std::thread::sleep(Duration::from_millis(30));
    rt.shutdown();
    let res = joiner.join().expect("joiner thread must return");
    assert!(res.is_err(), "abandoned task must not report success");
    drop(tx);
}

#[test]
fn shutdown_completes_never_polled_tasks() {
    // One worker, wedged in a blocking sleep: tasks spawned behind it
    // are still queued when shutdown lands, and must complete their
    // join state anyway.
    let rt = Runtime::new(1);
    let wedge = rt.spawn(async {
        std::thread::sleep(Duration::from_millis(80));
    });
    let queued: Vec<_> = (0..8).map(|i| rt.spawn(async move { i })).collect();
    std::thread::sleep(Duration::from_millis(10));
    rt.shutdown();
    wedge.join_blocking().unwrap();
    for h in queued {
        let err = h.join_blocking().unwrap_err();
        assert!(err.0.contains("shut down"));
    }
}

#[test]
fn shutdown_wakes_async_watchers_in_other_runtime() {
    // A Watch on runtime A's task, awaited from runtime B, must
    // resolve when A shuts down.
    let a = Runtime::new(1);
    let b = Runtime::new(1);
    let (tx, rx) = channel::<u32>(Capacity::Unbounded);
    let h = a.spawn(async move {
        rx.recv().await.ok();
    });
    let watch = h.watch();
    let observer = b.spawn(async move { watch.await.is_err() });
    std::thread::sleep(Duration::from_millis(30));
    a.shutdown();
    assert!(observer.join_blocking().unwrap());
    b.shutdown();
    drop((tx, h));
}

// ---------------------------------------------------------------------------
// Timer: one heap entry per Sleep; drop releases the waker.
// ---------------------------------------------------------------------------

/// The timer heap is process-global; these tests assert on its
/// length, so they must not interleave with each other (the harness
/// runs tests in parallel threads). No other test here uses timers.
static TIMER_TESTS: Mutex<()> = Mutex::new(());

fn timer_lock() -> std::sync::MutexGuard<'static, ()> {
    TIMER_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn timer_heap_is_bounded_under_repolling() {
    let _serial = timer_lock();
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    let mut s = after(Duration::from_secs(3600));
    let base = chanos_parchan::timer_heap_len();
    for _ in 0..200 {
        assert!(Pin::new(&mut s).poll(&mut cx).is_pending());
    }
    let grown = chanos_parchan::timer_heap_len().saturating_sub(base);
    assert!(grown <= 1, "re-polls must not duplicate entries: +{grown}");
}

#[test]
fn dropped_sleep_releases_its_waker() {
    let _serial = timer_lock();
    struct CountWake;
    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {}
    }
    let arc = Arc::new(CountWake);
    let waker = Waker::from(arc.clone());
    let mut cx = Context::from_waker(&waker);
    let mut s = after(Duration::from_secs(3600));
    assert!(Pin::new(&mut s).poll(&mut cx).is_pending());
    assert!(Arc::strong_count(&arc) > 2, "waker registered in heap");
    drop(s);
    drop(waker);
    // The heap entry may linger (lazy deletion) but the waker — and
    // through it the task — must be freed immediately.
    assert_eq!(Arc::strong_count(&arc), 1);
}

#[test]
fn many_dropped_sleeps_get_pruned() {
    let _serial = timer_lock();
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    let base = chanos_parchan::timer_heap_len();
    for _ in 0..500 {
        let mut s = after(Duration::from_secs(3600));
        let _ = Pin::new(&mut s).poll(&mut cx);
        // Dropped here: far-deadline garbage the pruner must bound.
    }
    let left = chanos_parchan::timer_heap_len().saturating_sub(base);
    assert!(left < 500, "cancelled entries must be swept, {left} left");
}

// ---------------------------------------------------------------------------
// Watch waiters: re-polls replace, drops prune, completion clears.
// ---------------------------------------------------------------------------

#[test]
fn watch_drop_prunes_waiters() {
    let rt = Runtime::new(1);
    let (tx, rx) = channel::<u32>(Capacity::Unbounded);
    let h = rt.spawn(async move { rx.recv().await.unwrap_or(0) });
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    for _ in 0..16 {
        let mut w = h.watch();
        for _ in 0..4 {
            // Re-polls of one Watch must keep a single entry.
            assert!(Pin::new(&mut w).poll(&mut cx).is_pending());
        }
        assert_eq!(h.waiter_count(), 1);
        // Dropping the Watch must remove it.
    }
    assert_eq!(h.waiter_count(), 0, "dropped watches left stale wakers");
    rt.block_on(async {
        tx.send(7).await.unwrap();
    });
    assert_eq!(h.join_blocking().unwrap(), 7);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Stealing and pinning.
// ---------------------------------------------------------------------------

/// Spins for roughly `d` of wall-clock (simulated per-task work; a
/// plain sleep would release the OS thread and defeat the point).
fn spin_for(d: Duration) {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < d {
        std::hint::black_box(0u64);
    }
}

#[test]
fn steal_spreads_locally_spawned_work() {
    let rt = Runtime::new(4);
    // The seeder spawns all children from one worker, so they land on
    // that worker's local queue; idle siblings must steal them. Each
    // child carries real work: the backlog must outlive worker wake
    // latency (on a single-CPU host, an OS preemption) by a wide
    // margin, or the seeding worker drains everything first.
    let h = rt.spawn(async {
        let hd = chanos_parchan::current().expect("on runtime");
        let children: Vec<_> = (0..128)
            .map(|_| {
                hd.spawn(async {
                    for _ in 0..10 {
                        spin_for(Duration::from_micros(100));
                        yield_now().await;
                    }
                    current_worker().expect("on a worker")
                })
            })
            .collect();
        let mut ran_on = HashSet::new();
        for c in children {
            ran_on.insert(c.join().await.expect("child ok"));
        }
        ran_on
    });
    let ran_on = h.join_blocking().unwrap();
    assert!(
        ran_on.len() >= 2,
        "work never left the seeding worker: {ran_on:?}"
    );
    assert!(
        rt.handle().stat_get("sched.steal_batches") > 0,
        "no steals recorded"
    );
    rt.shutdown();
}

#[test]
fn pinned_tasks_poll_only_on_their_worker() {
    let rt = Runtime::new(4);
    // Flood the pool with unpinned churn so stealing is rampant...
    let churn: Vec<_> = (0..64)
        .map(|_| {
            rt.spawn(async {
                for _ in 0..50 {
                    yield_now().await;
                }
            })
        })
        .collect();
    // ...while pinned tasks must never migrate.
    let pinned: Vec<_> = (0..4)
        .map(|w| {
            rt.spawn_pinned(w, async move {
                let mut seen = Vec::new();
                for _ in 0..50 {
                    seen.push(current_worker());
                    yield_now().await;
                }
                seen
            })
        })
        .collect();
    for (w, h) in pinned.into_iter().enumerate() {
        for got in h.join_blocking().unwrap() {
            assert_eq!(got, Some(w), "pinned task polled off its worker");
        }
    }
    for c in churn {
        c.join_blocking().unwrap();
    }
    rt.shutdown();
}

#[test]
fn pinned_backlog_runs_in_arrival_order() {
    // Worker 0 is held busy while a backlog is pinned to it from off
    // the pool; once released it must run the backlog as it arrived
    // (the queue is a stack its owner takes whole and reverses).
    const N: usize = 256;
    let rt = Runtime::new(2);
    let started = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));
    let (s, g) = (started.clone(), gate.clone());
    let hostage = rt.spawn_pinned(0, async move {
        s.store(true, Ordering::Release);
        while !g.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let order = Arc::new(Mutex::new(Vec::with_capacity(N)));
    let backlog: Vec<_> = (0..N)
        .map(|i| {
            let o = order.clone();
            rt.spawn_pinned(0, async move { o.lock().unwrap().push(i) })
        })
        .collect();
    gate.store(true, Ordering::Release);
    hostage.join_blocking().unwrap();
    for h in backlog {
        h.join_blocking().unwrap();
    }
    assert_eq!(*order.lock().unwrap(), (0..N).collect::<Vec<_>>());
    rt.shutdown();
}

#[test]
fn steal_stress_mpmc_with_pins() {
    // Producers pinned across workers, consumers unpinned, heavy
    // yield churn: exercises local queues, pinned queues, the
    // injector, and the steal path together under release or debug.
    let rt = Runtime::new(4);
    let (tx, rx) = channel::<u64>(Capacity::Bounded(32));
    let total = Arc::new(AtomicU64::new(0));
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let rx = rx.clone();
            let total = total.clone();
            rt.spawn(async move {
                while let Ok(v) = rx.recv().await {
                    total.fetch_add(v, Ordering::Relaxed);
                    yield_now().await;
                }
            })
        })
        .collect();
    drop(rx);
    let producers: Vec<_> = (0..4u64)
        .map(|p| {
            let tx = tx.clone();
            rt.spawn_pinned(p as usize, async move {
                for i in 0..500u64 {
                    tx.send(i).await.unwrap();
                    if i % 7 == 0 {
                        yield_now().await;
                    }
                }
            })
        })
        .collect();
    drop(tx);
    for p in producers {
        p.join_blocking().unwrap();
    }
    for c in consumers {
        c.join_blocking().unwrap();
    }
    let expect = 4 * (0..500u64).sum::<u64>();
    assert_eq!(total.load(Ordering::Relaxed), expect);
    assert_no_backstop_rescue(&rt);
    rt.shutdown();
}

/// No worker found a task only after its park backstop ran out: every
/// wake queued reached a worker as a notification.
fn assert_no_backstop_rescue(rt: &Runtime) {
    assert_eq!(
        rt.handle().stat_get("sched.backstop_rescues"),
        0,
        "a worker found queued work only on its park backstop: a lost notification"
    );
}

#[test]
fn a_spawn_onto_a_parked_pool_is_notified_not_rescued() {
    // Every worker has parked by the time of the spawn; 75 ms lands
    // between two 50 ms backstop ticks, so only the spawn's own
    // notification can start the task at once. A lost notification
    // shows as a backstop rescue (and a join about 25 ms late).
    let rt = Runtime::new(2);
    std::thread::sleep(std::time::Duration::from_millis(75));
    assert_eq!(rt.spawn(async { 7u32 }).join_blocking().unwrap(), 7);
    assert_no_backstop_rescue(&rt);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// Randomized steal storms (deterministic PCG — seeds in the test).
// ---------------------------------------------------------------------------

/// Minimal PCG32 so the storm shape is deterministic per seed without
/// pulling the simulator crate into parchan's dev-deps.
struct Pcg(u64);

impl Pcg {
    fn next(&mut self) -> u32 {
        let old = self.0;
        self.0 = old
            .wrapping_mul(6364136223846793005)
            .wrapping_add(0xda3e39cb94b95bdb | 1);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n
    }
}

#[test]
fn pcg_steal_storm_runs_every_task_exactly_once() {
    // A seeded mix of remote spawns (injector), nested spawns (local
    // ring + LIFO slot), pinned spawns, and random yield churn, at 4
    // workers. Every task must run exactly once: a double
    // poll-to-completion trips the fetch_or, a lost task trips the
    // final count (or hangs the join).
    let rt = Runtime::new(4);
    let mut rng = Pcg(0x57EA_1057_0123);
    const N: usize = 96; // seeders
    const FAN: usize = 4; // children per seeder
    let ran: Arc<Vec<AtomicU64>> =
        Arc::new((0..N * (FAN + 1)).map(|_| AtomicU64::new(0)).collect());
    let mut seeders = Vec::new();
    for s in 0..N {
        let ran = ran.clone();
        let kind = rng.below(4);
        let pin = rng.below(4) as usize;
        let yields = rng.below(3);
        let body = async move {
            // Children spawned from inside a worker land on its
            // local ring/LIFO slot and must be stolen or drained.
            let hd = chanos_parchan::current().expect("on runtime");
            let children: Vec<_> = (0..FAN)
                .map(|c| {
                    let ran = ran.clone();
                    hd.spawn(async move {
                        for _ in 0..(c % 3) {
                            yield_now().await;
                        }
                        ran[N + s * FAN + c].fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            for _ in 0..yields {
                yield_now().await;
            }
            for c in children {
                c.join().await.expect("child ok");
            }
            ran[s].fetch_add(1, Ordering::Relaxed);
        };
        seeders.push(if kind == 0 {
            rt.spawn_pinned(pin, body)
        } else {
            rt.spawn(body)
        });
    }
    for h in seeders {
        h.join_blocking().expect("seeder ok");
    }
    for (i, flag) in ran.iter().enumerate() {
        assert_eq!(
            flag.load(Ordering::Relaxed),
            1,
            "task {i} ran {} times",
            flag.load(Ordering::Relaxed)
        );
    }
    assert_no_backstop_rescue(&rt);
    rt.shutdown();
}

#[test]
fn shutdown_while_stealing_reaps_every_handle() {
    // Shutdown lands mid-storm: workers are popping, stealing, and
    // spawning when the flag flips. Every top-level handle must still
    // resolve — finished tasks with their value, abandoned ones with
    // the shutdown error — and nothing may hang or leak.
    let mut rng = Pcg(0xDEAD_5C3D);
    let rt = Runtime::new(4);
    let mut handles = Vec::new();
    for s in 0..64u64 {
        let yields = rng.below(4);
        let pin = rng.below(4) as usize;
        let body = async move {
            let hd = chanos_parchan::current().expect("on runtime");
            let child = hd.spawn(async move {
                for _ in 0..yields {
                    yield_now().await;
                }
                s
            });
            spin_for(Duration::from_micros(200));
            child.join().await.map(|v| v + 1).unwrap_or(u64::MAX)
        };
        handles.push(if rng.below(3) == 0 {
            rt.spawn_pinned(pin, body)
        } else {
            rt.spawn(body)
        });
    }
    // Let the storm get airborne, then pull the plug.
    std::thread::sleep(Duration::from_millis(2));
    rt.shutdown();
    let (mut ok, mut reaped) = (0, 0);
    for h in handles {
        match h.join_blocking() {
            Ok(v) => {
                assert!(v >= 1, "finished task returned a torn value");
                ok += 1;
            }
            Err(e) => {
                assert!(e.0.contains("shut down"), "unexpected error: {}", e.0);
                reaped += 1;
            }
        }
    }
    assert_eq!(ok + reaped, 64, "a handle was lost");
}

#[test]
fn spawn_after_shutdown_does_not_hang() {
    let rt = Runtime::new(1);
    let rt2 = rt.clone();
    rt.shutdown();
    let h = rt2.spawn(async { 1u32 });
    assert!(
        h.join_blocking().is_err(),
        "post-shutdown spawn must fail fast"
    );
}

#[test]
fn high_priority_task_jumps_queued_backlog() {
    // One worker, held hostage while a backlog queues up: the high
    // task must be the first thing dispatched after the hostage,
    // ahead of every earlier-spawned normal task.
    let rt = Runtime::new(1);
    let order: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(AtomicU64::new(0));
    let (s, g) = (started.clone(), gate.clone());
    let hostage = rt.spawn(async move {
        s.store(1, Ordering::Release);
        while g.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
    });
    while started.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
    let mut handles = Vec::new();
    for i in 0..32i64 {
        let o = order.clone();
        handles.push(rt.spawn(async move { o.lock().unwrap().push(i) }));
    }
    let o = order.clone();
    handles.push(rt.spawn_with_priority(Priority::High, async move { o.lock().unwrap().push(-1) }));
    gate.store(1, Ordering::Release);
    hostage.join_blocking().unwrap();
    for h in handles {
        h.join_blocking().unwrap();
    }
    let order = order.lock().unwrap();
    assert_eq!(order.len(), 33);
    assert_eq!(
        order[0],
        -1,
        "high task ran at position {} instead of first",
        order.iter().position(|&v| v == -1).unwrap()
    );
    rt.shutdown();
}

#[test]
fn high_priority_wake_routing_and_counters() {
    let rt = Runtime::new(2);
    let h = rt.handle();
    // Every yield self-wakes during the poll, so the re-schedule
    // takes the from_wake path — each one must route through the
    // high lane, not the waking worker's LIFO slot.
    let hp = rt.spawn_with_priority(Priority::High, async move {
        for _ in 0..8 {
            yield_now().await;
        }
        42u32
    });
    assert_eq!(hp.join_blocking().unwrap(), 42);
    assert_eq!(h.stat_get("sched.priority_spawns"), 1);
    assert!(
        h.stat_get("sched.priority_wakes") >= 8,
        "high-priority wakes bypassed the high lane"
    );
    assert!(
        h.stat_get("sched.priority_bursts") >= 1,
        "no dispatch ever claimed the high lane"
    );
    rt.shutdown();
}

#[test]
fn a_named_counter_sums_every_worker_and_the_block_on_thread() {
    const N: usize = 4;
    const K: u64 = 1_000;
    let rt = Runtime::new(N);
    let tasks: Vec<_> = (0..N)
        .map(|w| {
            rt.spawn_pinned(w, async move {
                for _ in 0..K {
                    assert_eq!(current_worker(), Some(w));
                    stat_add("test.bumps", 1);
                    yield_now().await;
                }
            })
        })
        .collect();
    rt.block_on(async { stat_add("test.bumps", 7) });
    for t in tasks {
        t.join_blocking().unwrap();
    }
    // A thread in no runtime counts into nothing.
    stat_add("test.bumps", 1);
    let h = rt.handle();
    rt.shutdown();
    let want = N as u64 * K + 7;
    assert_eq!(h.stat_get("test.bumps"), want);
    let all = h.counters();
    assert!(all.contains(&("test.bumps".to_string(), want)), "{all:?}");
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "not name-sorted");
    // A built-in counted from several threads is summed the same way:
    // every yield above was a wake of a pinned task.
    assert_eq!(h.stat_get("sched.wakes_pinned"), N as u64 * K);
    assert_eq!(h.wake_counts().2, N as u64 * K);
}

#[test]
fn a_thread_counts_into_the_innermost_runtime_it_entered() {
    let (outer, inner) = (Runtime::new(1), Runtime::new(1));
    outer.block_on(async {
        stat_add("test.nested", 1);
        inner.block_on(async { stat_add("test.nested", 10) });
        stat_add("test.nested", 100);
    });
    assert_eq!(outer.handle().stat_get("test.nested"), 101);
    assert_eq!(inner.handle().stat_get("test.nested"), 10);
    outer.shutdown();
    inner.shutdown();
}

// ---------------------------------------------------------------------------
// Dispatch fairness: each test runs on one worker, so the starved task
// has nobody else to run it, and fails with its rule taken out of
// `find_task`.
// ---------------------------------------------------------------------------

#[test]
fn lifo_ping_pong_does_not_starve_the_ring() {
    // `LIFO_CAP`. Two tasks rally: each send wakes the peer into the
    // LIFO slot, so the slot is occupied at every dispatch. A third
    // task sits in the ring behind them; only the cap on consecutive
    // LIFO polls gives it a turn before the rally is over.
    const ROUNDS: u64 = 10_000;
    let rt = Runtime::new(1);
    let ping = rt.spawn(async {
        let hd = chanos_parchan::current().expect("on runtime");
        let (to_pong, from_ping) = channel::<()>(Capacity::Unbounded);
        let (to_ping, from_pong) = channel::<()>(Capacity::Unbounded);
        let pong = hd.spawn(async move {
            while from_ping.recv().await.is_ok() {
                to_ping.send(()).await.expect("ping outlives the rally");
            }
        });
        let rounds = Arc::new(AtomicU64::new(0));
        let mut bystander = None;
        for round in 0..ROUNDS {
            rounds.store(round, Ordering::Relaxed);
            if round == 3 {
                // Spawned from the worker: into the LIFO slot, from
                // which the send below displaces it into the ring.
                let r = rounds.clone();
                bystander = Some(hd.spawn(async move { r.load(Ordering::Relaxed) }));
            }
            to_pong.send(()).await.expect("pong is serving");
            from_pong.recv().await.expect("pong answers");
        }
        drop(to_pong);
        pong.join().await.expect("pong ok");
        bystander
            .expect("spawned")
            .join()
            .await
            .expect("bystander ok")
    });
    let ran_at = ping.join_blocking().unwrap();
    assert!(
        ran_at < ROUNDS - 1,
        "the ring task ran only once the LIFO rally was over"
    );
    rt.shutdown();
}

#[test]
fn injected_task_runs_while_local_tasks_keep_yielding() {
    // `INJECTOR_INTERVAL`. Two tasks re-queue themselves with
    // `yield_now` for ever, so the worker's own queues never drain and
    // it never goes searching. A task pushed to the injector from
    // off-pool is reached only by the every-Nth-dispatch check. The
    // yielders count dispatches from the push on, so the bound does
    // not depend on how fast this thread gets to push.
    const LIMIT: u64 = 100_000;
    let rt = Runtime::new(1);
    let pushed = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let (p, d, s) = (pushed.clone(), done.clone(), started.clone());
    let locals = rt.spawn(async move {
        let hd = chanos_parchan::current().expect("on runtime");
        let yielders: Vec<_> = (0..2)
            .map(|_| {
                let (p, d) = (p.clone(), d.clone());
                hd.spawn(async move {
                    let mut after_push = 0u64;
                    while !d.load(Ordering::Acquire) && after_push < LIMIT {
                        if p.load(Ordering::Acquire) {
                            after_push += 1;
                        }
                        yield_now().await;
                    }
                    after_push
                })
            })
            .collect();
        s.store(true, Ordering::Release);
        let mut worst = 0;
        for y in yielders {
            worst = worst.max(y.join().await.expect("yielder ok"));
        }
        worst
    });
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let injected = rt.spawn(async move { done.store(true, Ordering::Release) });
    pushed.store(true, Ordering::Release);
    injected.join_blocking().unwrap();
    let worst = locals.join_blocking().unwrap();
    assert!(
        worst < LIMIT,
        "the injected task ran only once the local tasks gave up"
    );
    rt.shutdown();
}

#[test]
fn pinned_and_local_yielders_both_make_progress() {
    // Pinned/local alternation. A pinned task and a local one each
    // re-queue themselves for ever; with either queue always polled
    // first the other never runs. Each stops once both have made
    // `GOAL` polls, or gives up at `LIMIT`.
    const GOAL: u64 = 100;
    const LIMIT: u64 = 100_000;
    async fn yielder(mine: Arc<AtomicU64>, other: Arc<AtomicU64>) -> u64 {
        let mut polls = 0;
        while polls < LIMIT && (polls < GOAL || other.load(Ordering::Relaxed) < GOAL) {
            polls += 1;
            mine.store(polls, Ordering::Relaxed);
            yield_now().await;
        }
        polls
    }
    let rt = Runtime::new(1);
    let both = rt.spawn(async {
        let hd = chanos_parchan::current().expect("on runtime");
        let pinned_polls = Arc::new(AtomicU64::new(0));
        let local_polls = Arc::new(AtomicU64::new(0));
        // Both are queued before either runs: this task holds the
        // only worker until it awaits.
        let pinned = hd.spawn_pinned(0, yielder(pinned_polls.clone(), local_polls.clone()));
        let local = hd.spawn(yielder(local_polls, pinned_polls));
        (
            pinned.join().await.expect("pinned ok"),
            local.join().await.expect("local ok"),
        )
    });
    let (pinned, local) = both.join_blocking().unwrap();
    assert!(
        pinned < LIMIT && local < LIMIT,
        "one queue starved the other: pinned {pinned} polls, local {local}"
    );
    rt.shutdown();
}
