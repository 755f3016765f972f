//! Integration tests for the simulator executor: time accounting,
//! scheduling, joins, kills, placement, and determinism.

use std::cell::RefCell;
use std::rc::Rc;

use chanos_sim::{
    current_task_is_high, delay, migrate, now, sleep, spawn, spawn_named, spawn_named_high,
    yield_now, Config, CoreId, JoinError, RunEnd, Simulation,
};

#[test]
fn empty_simulation_completes_at_time_zero() {
    let mut sim = Simulation::new(2);
    let out = sim.run_until_idle();
    assert_eq!(out.end, RunEnd::Completed);
    assert_eq!(out.now, 0);
}

#[test]
fn delay_advances_virtual_time_and_occupies_core() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 0,
        ..Config::default()
    });
    let h = sim.spawn(async {
        delay(500).await;
        now()
    });
    sim.run_until_idle();
    assert_eq!(h.try_take().unwrap().unwrap(), 500);
}

#[test]
fn ctx_switch_cost_is_charged_at_dispatch() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 25,
        ..Config::default()
    });
    let h = sim.spawn(async { now() });
    sim.run_until_idle();
    assert_eq!(h.try_take().unwrap().unwrap(), 25);
}

#[test]
fn two_tasks_one_core_serialize() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 0,
        ..Config::default()
    });
    let a = sim.spawn_on(CoreId(0), async {
        delay(100).await;
        now()
    });
    let b = sim.spawn_on(CoreId(0), async {
        delay(100).await;
        now()
    });
    sim.run_until_idle();
    let ta = a.try_take().unwrap().unwrap();
    let tb = b.try_take().unwrap().unwrap();
    // The second task cannot start its delay until the first finishes.
    assert_eq!(ta, 100);
    assert_eq!(tb, 200);
}

#[test]
fn two_tasks_two_cores_run_in_parallel() {
    let mut sim = Simulation::with_config(Config {
        cores: 2,
        ctx_switch: 0,
        ..Config::default()
    });
    let a = sim.spawn_on(CoreId(0), async {
        delay(100).await;
        now()
    });
    let b = sim.spawn_on(CoreId(1), async {
        delay(100).await;
        now()
    });
    let out = sim.run_until_idle();
    assert_eq!(a.try_take().unwrap().unwrap(), 100);
    assert_eq!(b.try_take().unwrap().unwrap(), 100);
    assert_eq!(out.now, 100);
}

#[test]
fn sleep_releases_the_core() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 0,
        ..Config::default()
    });
    // Sleeper parks; worker should get the core immediately.
    let sleeper = sim.spawn_on(CoreId(0), async {
        sleep(1000).await;
        now()
    });
    let worker = sim.spawn_on(CoreId(0), async {
        delay(100).await;
        now()
    });
    sim.run_until_idle();
    assert_eq!(worker.try_take().unwrap().unwrap(), 100);
    assert_eq!(sleeper.try_take().unwrap().unwrap(), 1000);
}

#[test]
fn join_returns_value() {
    let mut sim = Simulation::new(2);
    let got = sim
        .block_on(async {
            let h = spawn(async {
                delay(10).await;
                42
            });
            h.join().await.unwrap()
        })
        .unwrap();
    assert_eq!(got, 42);
}

#[test]
fn join_observes_panic_as_error() {
    let mut sim = Simulation::new(1);
    let got: Result<(), JoinError> = sim
        .block_on(async {
            let h = spawn(async {
                panic!("boom");
            });
            h.join().await
        })
        .unwrap();
    match got {
        Err(JoinError::Panicked(msg)) => assert!(msg.contains("boom")),
        other => panic!("expected panic error, got {other:?}"),
    }
}

#[test]
fn panicking_task_does_not_poison_simulation() {
    let mut sim = Simulation::new(1);
    let bad = sim.spawn(async {
        panic!("expected failure");
    });
    let good = sim.spawn(async {
        delay(10).await;
        7
    });
    let out = sim.run_until_idle();
    assert_eq!(out.end, RunEnd::Completed);
    assert!(matches!(
        bad.try_take().unwrap(),
        Err(JoinError::Panicked(_))
    ));
    assert_eq!(good.try_take().unwrap().unwrap(), 7);
}

#[test]
fn kill_from_outside_cancels_task() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 0,
        ..Config::default()
    });
    let h = sim.spawn(async {
        sleep(1_000_000).await;
    });
    // Run a little so the task parks in its sleep.
    sim.run_for(10);
    assert!(sim.kill(h.id()));
    assert!(matches!(h.try_take(), Some(Err(JoinError::Killed))));
    let out = sim.run_until_idle();
    assert_eq!(out.end, RunEnd::Completed);
}

#[test]
fn abort_from_inside_simulation() {
    let mut sim = Simulation::new(2);
    let outcome = sim
        .block_on(async {
            let victim = spawn_named("victim", async {
                sleep(1_000_000).await;
                "never"
            });
            // Let the victim start and park.
            sleep(100).await;
            assert!(victim.abort());
            victim.join().await
        })
        .unwrap();
    assert_eq!(outcome, Err(JoinError::Killed));
}

#[test]
fn yield_now_round_robins_same_core() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 0,
        ..Config::default()
    });
    let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let o1 = order.clone();
    let o2 = order.clone();
    sim.spawn_on(CoreId(0), async move {
        for _ in 0..3 {
            o1.borrow_mut().push('a');
            yield_now().await;
        }
    });
    sim.spawn_on(CoreId(0), async move {
        for _ in 0..3 {
            o2.borrow_mut().push('b');
            yield_now().await;
        }
    });
    sim.run_until_idle();
    let seq: String = order.borrow().iter().collect();
    assert_eq!(seq, "ababab");
}

#[test]
fn migrate_moves_task_to_target_core() {
    let mut sim = Simulation::with_config(Config {
        cores: 4,
        ctx_switch: 0,
        ..Config::default()
    });
    let h = sim.spawn_on(CoreId(0), async {
        let before = chanos_sim::current_core();
        migrate(CoreId(3)).await;
        let after = chanos_sim::current_core();
        (before, after)
    });
    sim.run_until_idle();
    let (before, after) = h.try_take().unwrap().unwrap();
    assert_eq!(before, CoreId(0));
    assert_eq!(after, CoreId(3));
}

#[test]
fn deadlock_is_reported_with_task_names() {
    let mut sim = Simulation::new(1);
    sim.spawn_named("stuck-forever", async {
        // Await a join that can never complete: a task blocked on
        // itself via an external never-woken sleep... simplest:
        // sleep far beyond, then park on a channel-less pending.
        std::future::pending::<()>().await;
    });
    let out = sim.run_until_idle();
    match out.end {
        RunEnd::Deadlock(tasks) => {
            assert!(tasks.iter().any(|t| t.contains("stuck-forever")));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn daemons_do_not_deadlock_the_run() {
    let mut sim = Simulation::new(1);
    sim.spawn_daemon_on("server", CoreId(0), async {
        std::future::pending::<()>().await;
    });
    let h = sim.spawn(async {
        delay(10).await;
        1
    });
    let out = sim.run_until_idle();
    assert_eq!(out.end, RunEnd::Completed);
    assert_eq!(h.try_take().unwrap().unwrap(), 1);
}

#[test]
fn run_for_respects_time_limit() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 0,
        ..Config::default()
    });
    let h = sim.spawn(async {
        delay(10_000).await;
        1
    });
    let out = sim.run_for(100);
    assert_eq!(out.end, RunEnd::TimeLimit);
    assert_eq!(out.now, 100);
    assert!(!h.is_finished());
    let out = sim.run_until_idle();
    assert_eq!(out.end, RunEnd::Completed);
    assert_eq!(h.try_take().unwrap().unwrap(), 1);
}

#[test]
fn nested_spawn_inherits_core_by_default() {
    let mut sim = Simulation::new(4);
    let h = sim.spawn_on(CoreId(2), async {
        let child = spawn(async { chanos_sim::current_core() });
        child.join().await.unwrap()
    });
    sim.run_until_idle();
    assert_eq!(h.try_take().unwrap().unwrap(), CoreId(2));
}

/// Appends `what` and the class the task reads for itself.
fn note(log: &Rc<RefCell<Vec<String>>>, what: &str) {
    let class = if current_task_is_high() {
        "high"
    } else {
        "normal"
    };
    log.borrow_mut().push(format!("{what} {class}"));
}

#[test]
fn a_core_dispatches_high_tasks_first_and_each_class_in_order() {
    // One core: the spawner holds it until it awaits, so every child
    // is queued by the time the core frees.
    let mut sim = Simulation::new(1);
    let log = sim
        .block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..3 {
                let l = log.clone();
                handles.push(spawn(async move { note(&l, &format!("n{i}")) }));
            }
            let l = log.clone();
            handles.push(spawn_named_high("h1", async move {
                note(&l, "h1");
                yield_now().await;
                note(&l, "h1 again");
            }));
            let l = log.clone();
            handles.push(spawn_named_high("h2", async move {
                note(&l, "h2");
                sleep(1).await;
                note(&l, "h2 woken");
            }));
            for h in handles {
                h.join().await.unwrap();
            }
            let log = log.borrow().clone();
            log
        })
        .unwrap();
    // The high tasks spawned behind the normal backlog run first, in
    // spawn order; the yielded one goes back ahead of the backlog, and
    // so does the sleeper, woken while h1 is dispatched again.
    assert_eq!(
        log,
        [
            "h1 high",
            "h2 high",
            "h1 again high",
            "h2 woken high",
            "n0 normal",
            "n1 normal",
            "n2 normal"
        ]
    );
}

#[test]
fn placer_controls_default_placement() {
    let mut sim = Simulation::new(8);
    sim.set_placer(Box::new(|_info, _rng, _cores| CoreId(5)));
    let h = sim.spawn(async { chanos_sim::current_core() });
    sim.run_until_idle();
    assert_eq!(h.try_take().unwrap().unwrap(), CoreId(5));
}

#[test]
fn same_seed_same_trace_hash() {
    let run = |seed: u64| {
        let mut sim = Simulation::with_config(Config {
            cores: 4,
            seed,
            ..Config::default()
        });
        for i in 0..20 {
            sim.spawn(async move {
                for _ in 0..5 {
                    let jitter = chanos_sim::with_rng(|r| r.range(1, 50));
                    delay(10 + i + jitter).await;
                    yield_now().await;
                    sleep(7).await;
                }
            });
        }
        sim.run_until_idle();
        sim.trace_hash()
    };
    assert_eq!(run(1), run(1));
    assert_eq!(run(2), run(2));
    assert_ne!(run(1), run(2), "different seeds should change the trace");
}

#[test]
fn utilization_reflects_busy_cores() {
    let mut sim = Simulation::with_config(Config {
        cores: 2,
        ctx_switch: 0,
        ..Config::default()
    });
    sim.spawn_on(CoreId(0), async {
        delay(1000).await;
    });
    sim.spawn_on(CoreId(1), async {
        sleep(1000).await;
    });
    sim.run_until_idle();
    let util = sim.core_utilization();
    assert!(util[0] > 0.95, "core 0 was computing: {util:?}");
    assert!(util[1] < 0.05, "core 1 was sleeping: {util:?}");
}

/// A task's busy time is every span from its dispatch to the release
/// of its core: its context switches and its `delay`s, not its sleeps.
/// Spans are summed by task name, for exited tasks and live ones.
#[test]
fn busy_cycles_are_attributed_to_the_task_that_held_the_core() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 25,
        ..Config::default()
    });
    sim.spawn_named("a", async {
        delay(100).await;
        sleep(1000).await; // Releases the core to `b`.
        delay(50).await;
    });
    sim.spawn_named("b", async {
        delay(200).await;
    });
    sim.spawn_daemon_on("idle", CoreId(0), async {
        sleep(1_000_000).await;
    });
    sim.run_until_idle();
    let busy = sim.busy_by_task();
    // `idle` is dispatched to start its sleep and again to end it.
    let expected = [
        ("a", 25 + 100 + 25 + 50),
        ("b", 25 + 200),
        ("idle", 25 + 25),
    ];
    let expected: Vec<(String, u64)> = expected.map(|(n, c)| (n.to_string(), c)).into();
    assert_eq!(busy.into_iter().collect::<Vec<_>>(), expected);
}

#[test]
fn device_core_runs_without_ctx_switch() {
    let mut sim = Simulation::with_config(Config {
        cores: 1,
        ctx_switch: 1000,
        ..Config::default()
    });
    let dev = sim.add_device_core();
    let h = sim.spawn_on(dev, async { now() });
    sim.run_until_idle();
    assert_eq!(h.try_take().unwrap().unwrap(), 0);
}

#[test]
fn stats_count_spawned_tasks() {
    let mut sim = Simulation::new(2);
    for _ in 0..5 {
        sim.spawn(async {});
    }
    sim.run_until_idle();
    assert_eq!(sim.stats().counter("sim.tasks_spawned"), 5);
    assert_eq!(sim.stats().counter("sim.tasks_finished"), 5);
}

#[test]
fn many_tasks_many_cores_complete() {
    let mut sim = Simulation::with_config(Config {
        cores: 64,
        ctx_switch: 10,
        ..Config::default()
    });
    let handles: Vec<_> = (0..1000)
        .map(|i| {
            sim.spawn_on(CoreId(i % 64), async move {
                delay(u64::from(i % 17) + 1).await;
                i
            })
        })
        .collect();
    let out = sim.run_until_idle();
    assert_eq!(out.end, RunEnd::Completed);
    let sum: u32 = handles
        .into_iter()
        .map(|h| h.try_take().unwrap().unwrap())
        .sum();
    assert_eq!(sum, (0..1000).sum::<u32>());
}

#[test]
fn spawn_on_unknown_core_panics() {
    let sim = Simulation::new(1);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.spawn_on(CoreId(9), async {});
    }));
    assert!(r.is_err());
}
