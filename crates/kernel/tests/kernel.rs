//! End-to-end kernel tests: boot, system calls over both
//! architectures, supervision, and event delivery.

use chanos_kernel::{
    boot, run_channel_model, run_signal_model, BootCfg, ChildSpec, EventExpCfg, FsKind, KError,
    KernelKind, Restart, Strategy, Supervisor, SupervisorExit,
};
use std::sync::atomic::Ordering;

use chanos_sim::{Config, CoreId, Simulation};

fn sim(cores: usize) -> Simulation {
    Simulation::with_config(Config {
        cores,
        ctx_switch: 10,
        ..Config::default()
    })
}

fn kernel_cores(n: usize) -> Vec<CoreId> {
    (0..n as u32).map(CoreId).collect()
}

#[test]
fn boot_and_hello_world_on_every_configuration() {
    for kernel in [KernelKind::Message, KernelKind::Trap] {
        for fs in [FsKind::Message, FsKind::BigLock, FsKind::Sharded] {
            let mut s = sim(6);
            let got = s
                .block_on(async move {
                    let os = boot(BootCfg::new(kernel, fs, kernel_cores(2))).await;
                    let (_pid, h) = os.procs.spawn_process(CoreId(4), |env| async move {
                        let fd = env.create("/greeting").await.unwrap();
                        env.write(fd, b"hello from userspace").await.unwrap();
                        env.close(fd).await.unwrap();
                        let fd = env.open("/greeting").await.unwrap();
                        let data = env.read(fd, 64).await.unwrap();
                        env.close(fd).await.unwrap();
                        data
                    });
                    h.join().await.unwrap()
                })
                .unwrap();
            assert_eq!(got, b"hello from userspace", "kernel={kernel:?} fs={fs:?}");
        }
    }
}

#[test]
fn read_advances_offset_like_unix() {
    let mut s = sim(6);
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(2),
        ))
        .await;
        let (_pid, h) = os.procs.spawn_process(CoreId(4), |env| async move {
            let fd = env.create("/seq").await.unwrap();
            env.write(fd, b"abcdefgh").await.unwrap();
            env.close(fd).await.unwrap();
            let fd = env.open("/seq").await.unwrap();
            let a = env.read(fd, 3).await.unwrap();
            let b = env.read(fd, 3).await.unwrap();
            let c = env.read(fd, 10).await.unwrap();
            (a, b, c)
        });
        let (a, b, c) = h.join().await.unwrap();
        assert_eq!(a, b"abc");
        assert_eq!(b, b"def");
        assert_eq!(c, b"gh");
    })
    .unwrap();
}

#[test]
fn bad_fd_is_reported() {
    let mut s = sim(6);
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::BigLock,
            kernel_cores(2),
        ))
        .await;
        let (_pid, h) = os.procs.spawn_process(CoreId(4), |env| async move {
            env.read(chanos_kernel::Fd(99), 10).await
        });
        assert_eq!(h.join().await.unwrap(), Err(KError::BadFd));
    })
    .unwrap();
}

#[test]
fn processes_have_isolated_fd_tables() {
    let mut s = sim(6);
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(2),
        ))
        .await;
        // Process A opens a file; process B must not see A's fd.
        let (_p1, h1) = os.procs.spawn_process(CoreId(4), |env| async move {
            let fd = env.create("/a-file").await.unwrap();
            env.write(fd, b"A data").await.unwrap();
            fd
        });
        let fd_of_a = h1.join().await.unwrap();
        let (_p2, h2) =
            os.procs.spawn_process(
                CoreId(5),
                move |env| async move { env.read(fd_of_a, 10).await },
            );
        assert_eq!(h2.join().await.unwrap(), Err(KError::BadFd));
    })
    .unwrap();
}

#[test]
fn many_processes_hammer_the_kernel_concurrently() {
    let mut s = sim(10);
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(4),
        ))
        .await;
        let mut handles = Vec::new();
        for p in 0..12u32 {
            let core = CoreId(4 + (p % 6));
            let (_pid, h) = os.procs.spawn_process(core, move |env| async move {
                let path = format!("/p{p}");
                let fd = env.create(&path).await.unwrap();
                let data = vec![p as u8; 2000];
                env.write(fd, &data).await.unwrap();
                env.close(fd).await.unwrap();
                let fd = env.open(&path).await.unwrap();
                let back = env.read(fd, 2000).await.unwrap();
                assert_eq!(back, data);
                env.getpid().await
            });
            handles.push(h);
        }
        let mut pids: Vec<u32> = Vec::new();
        for h in handles {
            pids.push(h.join().await.unwrap().0);
        }
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), 12, "pids must be unique");
    })
    .unwrap();
}

#[test]
fn supervisor_restarts_crashing_child() {
    let mut s = sim(2);
    let (exit, runs) = s
        .block_on(async {
            let runs = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
            let r2 = runs.clone();
            let sup = Supervisor::new(Strategy::OneForOne)
                .intensity(10, 1_000_000)
                .child(ChildSpec::new(Restart::Transient, move || {
                    let r = r2.clone();
                    chanos_rt::spawn_named("flaky", async move {
                        let n = r.fetch_add(1, Ordering::Relaxed);
                        chanos_sim::delay(100).await;
                        if n < 3 {
                            panic!("crash #{n}");
                        }
                    })
                }));
            let exit = sup.run().await;
            (exit, runs.load(Ordering::Relaxed))
        })
        .unwrap();
    assert_eq!(exit, SupervisorExit::AllChildrenDone);
    assert_eq!(runs, 4, "three crashes then one clean run");
    assert_eq!(s.stats().counter("supervisor.restarts"), 3);
}

#[test]
fn supervisor_gives_up_after_intensity_limit() {
    let mut s = sim(2);
    let exit = s
        .block_on(async {
            let sup = Supervisor::new(Strategy::OneForOne)
                .intensity(3, 1_000_000)
                .child(ChildSpec::new(Restart::Permanent, || {
                    chanos_rt::spawn_named("hopeless", async {
                        chanos_sim::delay(10).await;
                        panic!("always");
                    })
                }));
            sup.run().await
        })
        .unwrap();
    assert_eq!(exit, SupervisorExit::TooManyRestarts);
}

#[test]
fn one_for_all_restarts_siblings() {
    let mut s = sim(2);
    let (a_runs, b_runs) = s
        .block_on(async {
            let a = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
            let b = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
            let (a2, b2) = (a.clone(), b.clone());
            let sup = Supervisor::new(Strategy::OneForAll)
                .intensity(10, 10_000_000)
                .child(ChildSpec::new(Restart::Transient, move || {
                    let a = a2.clone();
                    chanos_rt::spawn_named("stable", async move {
                        a.fetch_add(1, Ordering::Relaxed);
                        chanos_sim::sleep(100_000).await;
                    })
                }))
                .child(ChildSpec::new(Restart::Transient, move || {
                    let b = b2.clone();
                    chanos_rt::spawn_named("crasher", async move {
                        let n = b.fetch_add(1, Ordering::Relaxed);
                        chanos_sim::delay(500).await;
                        if n == 0 {
                            panic!("first run dies");
                        }
                    })
                }));
            let _ = sup.run().await;
            (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed))
        })
        .unwrap();
    assert_eq!(b_runs, 2, "crasher restarted once");
    assert_eq!(a_runs, 2, "one-for-all restarted the stable sibling too");
}

#[test]
fn temporary_children_are_never_restarted() {
    let mut s = sim(2);
    let runs = s
        .block_on(async {
            let runs = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
            let r2 = runs.clone();
            let sup = Supervisor::new(Strategy::OneForOne).child(ChildSpec::new(
                Restart::Temporary,
                move || {
                    let r = r2.clone();
                    chanos_rt::spawn_named("once", async move {
                        r.fetch_add(1, Ordering::Relaxed);
                        panic!("dies");
                    })
                },
            ));
            let exit = sup.run().await;
            assert_eq!(exit, SupervisorExit::AllChildrenDone);
            runs.load(Ordering::Relaxed)
        })
        .unwrap();
    assert_eq!(runs, 1);
}

#[test]
fn nested_supervision_tree_contains_failure() {
    let mut s = sim(2);
    let exit = s
        .block_on(async {
            // Inner supervisor with a flaky child; outer supervises
            // the inner as a single child.
            let inner_factory = || {
                chanos_rt::spawn_named("inner-sup", async {
                    let count = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
                    let sup = Supervisor::new(Strategy::OneForOne)
                        .intensity(5, 10_000_000)
                        .child(ChildSpec::new(Restart::Transient, move || {
                            let c = count.clone();
                            chanos_rt::spawn_named("worker", async move {
                                let n = c.fetch_add(1, Ordering::Relaxed);
                                chanos_sim::delay(50).await;
                                if n < 2 {
                                    panic!("flaky");
                                }
                            })
                        }));
                    let _ = sup.run().await;
                })
            };
            Supervisor::new(Strategy::OneForOne)
                .child(ChildSpec::new(Restart::Transient, inner_factory))
                .run()
                .await
        })
        .unwrap();
    assert_eq!(exit, SupervisorExit::AllChildrenDone);
}

#[test]
fn channel_events_waste_nothing_signals_waste_plenty() {
    let cfg = EventExpCfg::default();
    let mut s1 = sim(3);
    let c1 = cfg.clone();
    let signal = s1
        .block_on(async move { run_signal_model(&c1).await })
        .unwrap();
    let mut s2 = sim(3);
    let c2 = cfg.clone();
    let channel = s2
        .block_on(async move { run_channel_model(&c2).await })
        .unwrap();

    assert_eq!(
        channel.wasted_kernel_cycles, 0,
        "channels never discard work"
    );
    assert!(
        signal.wasted_kernel_cycles > 0,
        "signals must abandon in-flight kernel work"
    );
    assert!(signal.restarts > 0);
    assert_eq!(channel.restarts, 0);
    assert!(
        signal.total_time > channel.total_time,
        "redo makes the signal model slower: {} vs {}",
        signal.total_time,
        channel.total_time
    );
}

#[test]
fn compat_copy_runs_unchanged_code() {
    let mut s = sim(6);
    let copied = s
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                kernel_cores(2),
            ))
            .await;
            let (_pid, h) = os.procs.spawn_process(CoreId(4), |env| async move {
                // Seed a source file.
                let fd = env.create("/src").await.unwrap();
                let data = vec![0x5Au8; 10_000];
                env.write(fd, &data).await.unwrap();
                env.close(fd).await.unwrap();
                // Legacy-style copy.
                let n = chanos_kernel::compat_copy(&env, "/src", "/dst", 4096)
                    .await
                    .unwrap();
                // Verify.
                let fd = env.open("/dst").await.unwrap();
                let back = env.read(fd, 10_000).await.unwrap();
                assert_eq!(back, data);
                n
            });
            h.join().await.unwrap()
        })
        .unwrap();
    assert_eq!(copied, 10_000);
}

#[test]
fn trap_kernel_charges_mode_switches() {
    // Null syscall cost: trap must exceed message on the same machine
    // when kernel work is trivial (mode switch + pollution dominate).
    let cost = |kind: KernelKind| {
        let mut s = sim(6);
        s.block_on(async move {
            let os = boot(BootCfg::new(kind, FsKind::BigLock, kernel_cores(2))).await;
            let (_pid, h) = os.procs.spawn_process(CoreId(4), |env| async move {
                let t0 = chanos_sim::now();
                for _ in 0..100 {
                    env.getpid().await;
                }
                chanos_sim::now() - t0
            });
            h.join().await.unwrap()
        })
        .unwrap()
    };
    let trap = cost(KernelKind::Trap);
    let msg = cost(KernelKind::Message);
    // Default costs: trap pays 2*700 mode switch + 900 pollution per
    // call; the message path pays two channel flights.
    assert!(
        trap > msg,
        "null syscall: trap ({trap}) should cost more than message ({msg})"
    );
}

#[test]
fn supervisor_restarts_crashing_child_on_real_threads() {
    // The same OneForOne supervision code, on the parchan backend:
    // child panics are surfaced through join handles, so
    // restart-on-failure works on real hardware too.
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    let rt = chanos_parchan::Runtime::new(2);
    let (exit, runs) = rt.block_on(async {
        let runs = Arc::new(AtomicU32::new(0));
        let r2 = runs.clone();
        let sup = Supervisor::new(Strategy::OneForOne)
            .intensity(10, u64::MAX)
            .child(ChildSpec::new(Restart::Transient, move || {
                let r = r2.clone();
                chanos_rt::spawn_named("flaky", async move {
                    let n = r.fetch_add(1, Ordering::Relaxed);
                    chanos_rt::delay(100).await;
                    if n < 3 {
                        panic!("crash #{n}");
                    }
                })
            }));
        let exit = sup.run().await;
        (exit, runs.load(Ordering::Relaxed))
    });
    rt.shutdown();
    assert_eq!(exit, SupervisorExit::AllChildrenDone);
    assert_eq!(runs, 4, "three crashes then one clean run");
}

#[test]
fn kill_based_strategies_refuse_the_threads_backend() {
    // OneForAll must kill live siblings, which cooperative thread
    // tasks cannot do; the supervisor fails loudly instead of
    // silently duplicating children.
    let rt = chanos_parchan::Runtime::new(2);
    let outcome = rt.block_on(async {
        let sup = Supervisor::new(Strategy::OneForAll)
            .child(ChildSpec::new(Restart::Temporary, || {
                chanos_rt::spawn_named("child", async {})
            }));
        chanos_rt::spawn(async move { sup.run().await })
            .join()
            .await
    });
    rt.shutdown();
    match outcome {
        Err(chanos_rt::JoinError::Panicked(msg)) => {
            assert!(msg.contains("simulator backend"), "unexpected panic: {msg}")
        }
        other => panic!("expected a loud refusal, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Typed-port error taxonomy and the pipelined batch surface.
// ---------------------------------------------------------------------------

/// `Env::batch()` pipelines syscalls through the message kernel: one
/// submission burst, out-of-order completion, same observable results
/// as the serial calls.
#[test]
fn env_batch_pipelines_syscalls_through_the_message_kernel() {
    let mut s = sim(4);
    let out = s
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                kernel_cores(2),
            ))
            .await;
            let env = os.procs.env();
            env.mkdir("/b").await.unwrap();
            let fd = env.create("/b/f").await.unwrap();
            env.write(fd, b"pipelined!").await.unwrap();
            env.close(fd).await.unwrap();
            let fd = env.open("/b/f").await.unwrap();

            let mut b = env.batch();
            let pid = b.getpid();
            let first = b.read(fd, 4);
            let rest = b.read(fd, 16);
            let end = b.read(fd, 16);
            assert_eq!(b.pending(), 4);
            b.submit().await;
            assert_eq!(b.pending(), 0);
            // Complete out of submission order; per-client FIFO still
            // means the reads advanced the offset in order.
            let end = end.await.unwrap().unwrap();
            let rest = rest.await.unwrap().unwrap();
            let first = first.await.unwrap().unwrap();
            let pid = pid.await.unwrap();
            (pid, first, rest, end)
        })
        .unwrap();
    assert_eq!(out.0 .0, 1);
    assert_eq!(out.1, b"pipe".to_vec());
    assert_eq!(out.2, b"lined!".to_vec());
    assert_eq!(out.3, Vec::<u8>::new());
}

/// The same batch surface works on the trap kernel (degenerating to
/// run-on-await, since a trap architecture has no submission queue).
#[test]
fn env_batch_works_on_the_trap_kernel() {
    let mut s = sim(4);
    let (pid, data) = s
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Trap,
                FsKind::BigLock,
                kernel_cores(1),
            ))
            .await;
            let env = os.procs.env();
            let fd = env.create("/t").await.unwrap();
            env.write(fd, b"trap").await.unwrap();
            env.close(fd).await.unwrap();
            let fd = env.open("/t").await.unwrap();
            let mut b = env.batch();
            let pid = b.getpid();
            let read = b.read(fd, 8);
            b.submit().await;
            (pid.await.unwrap(), read.await.unwrap().unwrap())
        })
        .unwrap();
    assert_eq!(pid.0, 1);
    assert_eq!(data, b"trap".to_vec());
}

/// The ladder's machine: 16 cores, the default mesh and cost tables,
/// kernel cores 0–3 — where `kernel.close_cycles` reads 300.
fn ladder_sim() -> Simulation {
    Simulation::with_config(Config {
        cores: 16,
        ..Config::default()
    })
}

/// Live kernel tasks: attached processes whose task has not exited.
fn live_proc_tasks() -> u64 {
    chanos_rt::stat_get("kernel.proc_tasks_spawned")
        - chanos_rt::stat_get("kernel.proc_tasks_exited")
}

/// A process's `create` in flight in the file system must not delay
/// another process's `close`: neither goes through a kernel task, and a
/// call that waits costs nobody else anything (§4). The `create` is
/// slow for real: it goes under a directory whose group has not read its
/// data bitmap since a flood of writes pushed that block out of the
/// cache, so the directory's vnode waits for the disk while the root,
/// which the other process's `open` passes, serves on. A `close` runs in
/// the process and pays only its validation there; while the kernel task
/// held the fd table, it was a round trip to that task, 565 cycles.
/// (While the kernel task relayed every path call, a `create` in a warm
/// directory was slow enough, and both processes hashed to one kernel
/// core; once the process sent it to the root's vnode itself, it
/// completed before the other process's `close`.)
#[test]
fn a_slow_syscall_does_not_block_another_process() {
    const UNLOADED_CLOSE: u64 = 300; // The ladder's `kernel.close_cycles`.
    const BLOCK: usize = 4096;
    let mut s = ladder_sim();
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(4),
        ))
        .await;
        os.vfs.create("/f").await.unwrap();
        os.vfs.mkdir("/cold").await.unwrap();
        // Half as many blocks again as the cache's 512, in the root's
        // group.
        for flood in ["/flood1", "/flood2"] {
            let flood = os.vfs.create(flood).await.unwrap();
            os.vfs.write(flood, 0, &vec![1; 384 * BLOCK]).await.unwrap();
        }
        let (a, b) = (os.procs.env(), os.procs.env());

        let slow = chanos_rt::spawn_on(CoreId(8), async move {
            let t = chanos_rt::now();
            a.create("/cold/slow").await.unwrap();
            (chanos_rt::now(), chanos_rt::now() - t)
        });
        let (unloaded, loaded, closed_at) = chanos_rt::spawn_on(CoreId(4), async move {
            // B's open races A's create for the root directory and
            // may wait; the close that follows must not.
            let fd = b.open("/f").await.unwrap();
            let t = chanos_rt::now();
            b.close(fd).await.unwrap();
            let closed_at = chanos_rt::now();
            chanos_rt::sleep(100_000).await; // A is long done.
            let fd = b.open("/f").await.unwrap();
            let t_unloaded = chanos_rt::now();
            b.close(fd).await.unwrap();
            (chanos_rt::now() - t_unloaded, closed_at - t, closed_at)
        })
        .join()
        .await
        .unwrap();
        let (created_at, create) = slow.join().await.unwrap();

        assert!(
            create > 10_000,
            "{create} cycles: the create did not wait for the disk"
        );
        assert!(
            unloaded < 565,
            "{unloaded} cycles: a close is a kernel round trip again"
        );
        assert_eq!(unloaded, UNLOADED_CLOSE, "unloaded close");
        assert!(
            closed_at < created_at,
            "the close must complete while the create is still in flight \
             (closed at {closed_at}, created at {created_at})"
        );
        assert!(
            loaded <= 2 * UNLOADED_CLOSE,
            "close took {loaded} cycles beside another process's create"
        );
    })
    .unwrap();
}

/// Pipelining is latency overlap, and on the modeled machine it is
/// exact: a submitted batch of 32 `getpid`s costs the ladder's
/// `kernel.getpid_batch32_cycles_per_call` (308.375) per call where a
/// serial call costs `kernel.getpid_cycles` (568).
#[test]
fn a_submitted_batch_of_getpids_overlaps_the_round_trips() {
    const SERIAL_GETPID: u64 = 568;
    const BATCH32: u64 = 9_868; // 32 x 308.375.
    let mut s = ladder_sim();
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(4),
        ))
        .await;
        // Like the ladder: an application core calling a process
        // whose kernel task lives on core 0.
        let env = loop {
            let env = os.procs.env();
            if env.pid.0 % 4 == 0 {
                break env;
            }
        };
        let (serial, batch) = chanos_rt::spawn_on(CoreId(4), async move {
            let (mut serial, mut batch) = (0, 0);
            for _ in 0..2 {
                let t = chanos_rt::now();
                env.getpid().await;
                serial = chanos_rt::now() - t;
            }
            for _ in 0..2 {
                let t = chanos_rt::now();
                let mut b = env.batch();
                let calls: Vec<_> = (0..32).map(|_| b.getpid()).collect();
                b.submit().await;
                for c in calls {
                    c.await.unwrap();
                }
                batch = chanos_rt::now() - t;
            }
            (serial, batch)
        })
        .join()
        .await
        .unwrap();
        assert_eq!(serial, SERIAL_GETPID, "unloaded serial getpid");
        assert_eq!(batch, BATCH32, "submitted batch of 32 getpids");
        assert!(batch < 32 * SERIAL_GETPID);
    })
    .unwrap();
}

/// One process's calls are served in program order: a batch of
/// `read, read, close, read` on one fd answers data, data, ok, BadFd.
/// Only the kernel task's calls reach its drain: the two `getpid`s, not
/// the calls on the descriptor, which the process makes itself.
#[test]
fn env_batch_is_served_in_program_order() {
    let mut s = sim(4);
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(2),
        ))
        .await;
        let env = os.procs.env();
        let fd = env.create("/o").await.unwrap();
        env.write(fd, b"abcdef").await.unwrap();
        env.close(fd).await.unwrap();
        let fd = env.open("/o").await.unwrap();

        let counters = || {
            (
                chanos_rt::stat_get("kernel.syscall_batched"),
                chanos_rt::stat_get("kernel.syscall_drains"),
            )
        };
        let (batched, drains) = counters();
        let mut b = env.batch();
        let pid = b.getpid();
        let first = b.read(fd, 3);
        let second = b.read(fd, 3);
        let close = b.close(fd);
        let after = b.read(fd, 3);
        let pid_again = b.getpid();
        b.submit().await;
        assert_eq!(after.await.unwrap(), Err(KError::BadFd));
        assert_eq!(close.await.unwrap(), Ok(()));
        assert_eq!(second.await.unwrap().unwrap(), b"def");
        assert_eq!(first.await.unwrap().unwrap(), b"abc");
        assert_eq!(
            (pid.await.unwrap(), pid_again.await.unwrap()),
            (env.pid, env.pid)
        );
        // The kernel task's burst was drained in fewer wakes than it
        // has calls.
        let (batched, drains) = (counters().0 - batched, counters().1 - drains);
        assert_eq!(batched, 2);
        assert_eq!(drains, 1, "{drains} drains for 2 calls");
    })
    .unwrap();
}

/// Clones of an `Env` are one process: one kernel task, one fd table,
/// both gone when the last clone is.
#[test]
fn env_clones_share_one_kernel_task_and_fd_table() {
    let mut s = sim(4);
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(2),
        ))
        .await;
        let baseline = live_proc_tasks();
        let env = os.procs.env();
        let twin = env.clone();
        assert_eq!(live_proc_tasks(), baseline + 1);

        let fd = env.create("/shared").await.unwrap();
        env.write(fd, b"one table").await.unwrap();
        env.close(fd).await.unwrap();
        let fd = env.open("/shared").await.unwrap();
        assert_eq!(twin.read(fd, 3).await.unwrap(), b"one");
        assert_eq!(env.read(fd, 16).await.unwrap(), b" table");

        drop(env);
        assert_eq!(twin.close(fd).await, Ok(()));
        chanos_rt::sleep(10_000).await;
        assert_eq!(live_proc_tasks(), baseline + 1, "the twin keeps the task");
        drop(twin);
        chanos_rt::sleep(10_000).await;
        assert_eq!(live_proc_tasks(), baseline);
    })
    .unwrap();
}

/// The kernel keeps nothing of a process that has exited: 1 000 short
/// processes, one of which leaves a descriptor open, and the number of
/// live kernel tasks is back where it started.
#[test]
fn kernel_state_of_exited_processes_is_reclaimed() {
    let mut s = sim(8);
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(2),
        ))
        .await;
        os.vfs.create("/f").await.unwrap();
        let baseline = live_proc_tasks();
        for wave in 0..100u32 {
            let handles: Vec<_> = (0..10u32)
                .map(|p| {
                    let leak = wave == 50 && p == 5;
                    let core = CoreId(2 + p % 6);
                    os.procs
                        .spawn_process(core, move |env| async move {
                            let fd = env.open("/f").await.unwrap();
                            if !leak {
                                env.close(fd).await.unwrap();
                            }
                        })
                        .1
                })
                .collect();
            assert!(live_proc_tasks() > baseline);
            for h in handles {
                h.join().await.unwrap();
            }
        }
        chanos_rt::sleep(10_000).await;
        assert_eq!(chanos_rt::stat_get("kernel.processes_spawned"), 1000);
        assert_eq!(live_proc_tasks(), baseline);
    })
    .unwrap();
}

/// The one copy a read makes is the process's. A cached 4 KiB read
/// through the message kernel costs the reading task `copy_cost(4096)`
/// more, on its own core, than a read at the end of the file that
/// fetches nothing; the cache shard that answered it is busy only for
/// the dispatch that woke it, with no copy in it.
#[test]
fn a_cached_read_is_copied_once_by_the_process_that_takes_it() {
    const BLOCK: usize = 4096;
    let mut s = ladder_sim();
    let (env, fd) = s
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                kernel_cores(4),
            ))
            .await;
            let ino = os.vfs.create("/f").await.unwrap();
            os.vfs.write(ino, 0, &[7; BLOCK]).await.unwrap();
            let env = os.procs.env();
            let warm = env.open("/f").await.unwrap();
            env.read(warm, BLOCK).await.unwrap();
            let fd = env.open("/f").await.unwrap();
            (env, fd)
        })
        .unwrap();
    // Busy cycles by role over one `read`: the calling task (every
    // `block_on` task is named "task"), the process's kernel task and
    // the cache shards.
    let mut read = |len_expected: usize| {
        let before = s.busy_by_task();
        let env = env.clone();
        let got = s
            .block_on(async move { env.read(fd, BLOCK).await.unwrap() })
            .unwrap();
        assert_eq!(got.len(), len_expected);
        let after = s.busy_by_task();
        let delta = |role: &str| -> u64 {
            let of = |m: &std::collections::BTreeMap<String, u64>| -> u64 {
                m.iter()
                    .filter(|(name, _)| name.starts_with(role))
                    .map(|(_, busy)| busy)
                    .sum()
            };
            of(&after) - of(&before)
        };
        (delta("task"), delta("kproc"), delta("cache-shard"))
    };
    let (app, kproc, shards) = read(BLOCK);
    let (app_eof, kproc_eof, shards_eof) = read(0);
    assert_eq!(
        app - app_eof,
        chanos_vfs::copy_cost(BLOCK),
        "the process copies"
    );
    assert_eq!(kproc, kproc_eof, "the kernel task moves no bytes");
    assert_eq!(shards_eof, 0, "a read past the end asks no shard");
    assert_eq!(
        shards,
        Config::default().ctx_switch,
        "one dispatch, no copy"
    );
}

/// Busy cycles of the tasks whose names start with `role`.
fn busy_of(s: &Simulation, role: &str) -> u64 {
    let busy = s.busy_by_task();
    let of_role = busy.iter().filter(|(name, _)| name.starts_with(role));
    of_role.map(|(_, busy)| busy).sum()
}

/// Busy cycles of every task that is not the caller (`app`) or the
/// simulation's root task (`task`): the kernel cores'.
fn kernel_busy(s: &Simulation) -> u64 {
    let all: u64 = s.busy_by_task().values().sum();
    all - busy_of(s, "app") - busy_of(s, "task")
}

/// A process's path call costs its kernel task nothing: the process
/// sends it to the root directory's vnode, each directory on the way
/// hands it on, and the vnode that serves it, or refuses it where the
/// walk stops, validates it. So on the ladder's machine a process's
/// `open` costs the kernel cores exactly [`chanos_vfs::VALIDATE_CYCLES`]
/// more than the kernel's own, unvalidated, `open` of the same path: a
/// walk served at `/` or at `/d`, one refused at `/d` (`NotFound`), and
/// `open("/")`, which the root answers for itself. The process sends one
/// message whatever the path's depth, so `/d/f` costs it what `/f` does.
/// (While the kernel task relayed every path call, an `open` cost it
/// 350 cycles whatever
/// the path's depth: its `syscall_cpu` and the dispatch that took the
/// call. While it walked the path itself, a round trip per component,
/// `/d/f` cost it a call and a dispatch more; while it awaited the
/// answer to install the descriptor, an open cost it 400.)
#[test]
fn a_path_call_is_validated_once_by_the_vnode_that_answers_it() {
    let mut s = ladder_sim();
    let (vfs, env) = s
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                kernel_cores(4),
            ))
            .await;
            os.vfs.mkdir("/d").await.unwrap();
            os.vfs.create("/d/f").await.unwrap();
            os.vfs.create("/f").await.unwrap();
            let env = os.procs.env();
            // Every vnode on the way is running.
            for path in ["/f", "/d/f"] {
                let fd = env.open(path).await.unwrap();
                env.close(fd).await.unwrap();
            }
            (os.vfs, env)
        })
        .unwrap();
    // The busy cycles of the caller, of the process's kernel task and of
    // the kernel cores over one `open` of `path` from an application
    // core: the process's if `by_process`, else the kernel's own.
    let mut open = |path: &'static str, by_process: bool| {
        let busy = |s: &Simulation| (busy_of(s, "app"), busy_of(s, "kproc"), kernel_busy(s));
        let before = busy(&s);
        let (env, vfs) = (env.clone(), vfs.clone());
        s.block_on(async move {
            let app = chanos_rt::spawn_named_on("app", CoreId(8), async move {
                // Served or refused: only the cycles count here.
                match by_process {
                    true => drop(env.open(path).await),
                    false => drop(vfs.open(path).await),
                }
            });
            app.join().await.unwrap()
        })
        .unwrap();
        let after = busy(&s);
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    };
    // The pid table's replicas are still busy from boot in the first
    // run after it.
    open("/f", true);
    let (shallow, deep) = (open("/f", true).0, open("/d/f", true).0);
    assert_eq!(deep, shallow, "the process walks a path itself again");
    for path in ["/f", "/d/f", "/d/nope/f", "/"] {
        let (_, kproc, by_process) = open(path, true);
        let (_, _, by_kernel) = open(path, false);
        assert_eq!(kproc, 0, "{path}: the kernel task relays a path call again");
        assert_eq!(
            by_process,
            by_kernel + chanos_vfs::VALIDATE_CYCLES,
            "{path}: a process's path call is validated once, where it is answered"
        );
    }
}

/// A descriptor keeps the file it was opened on, on every kernel and
/// engine. Open `/old`, unlink it, create and write `/new` — which
/// takes `/old`'s inode number — and the old descriptor's `fstat` and
/// `read` answer `Gone`. On MsgFs the descriptor holds the vnode port
/// its directory answered the open with, and that vnode went with
/// `/old`; on a lock engine it holds the number's generation, which the
/// unlink bumped. (While a descriptor held a bare inode number, both
/// answered with `/new`'s stat and bytes: the message kernel's until
/// its descriptors held a `File`, the trap kernel's until its did too.)
async fn a_stale_fd_script(
    kernel: KernelKind,
    fs: FsKind,
) -> (bool, Result<u64, KError>, Result<Vec<u8>, KError>) {
    let os = boot(BootCfg::new(kernel, fs, kernel_cores(2))).await;
    let env = os.procs.env();
    let fd = env.create("/old").await.unwrap();
    env.write(fd, b"old bytes").await.unwrap();
    let old = os.vfs.lookup("/old").await.unwrap();
    env.unlink("/old").await.unwrap();
    let new = env.create("/new").await.unwrap();
    env.write(new, b"NEW SECRET").await.unwrap();
    let reused = os.vfs.lookup("/new").await.unwrap() == old;
    let stat = env.fstat(fd).await.map(|st| st.size);
    (reused, stat, env.read(fd, 64).await)
}

#[test]
fn a_descriptor_keeps_its_file_after_the_inode_number_is_reused() {
    let gone = KError::Fs(chanos_vfs::FsError::Gone);
    let want = (Err(gone.clone()), Err(gone));
    for kernel in [KernelKind::Message, KernelKind::Trap] {
        for fs in [FsKind::Message, FsKind::BigLock, FsKind::Sharded] {
            let mut s = sim(4);
            let (reused, stat, read) = s.block_on(a_stale_fd_script(kernel, fs)).unwrap();
            assert!(
                reused,
                "{kernel:?} + {fs:?}: the new file takes the old one's inode number"
            );
            assert_eq!((stat, read), want, "{kernel:?} + {fs:?} on the simulator");
        }
    }
    // The lock engines' and the trap kernel's locks are the simulator's;
    // the message kernel over MsgFs runs on both.
    let rt = chanos_parchan::Runtime::new(2);
    let (reused, stat, read) = rt.block_on(a_stale_fd_script(KernelKind::Message, FsKind::Message));
    rt.shutdown();
    assert!(reused, "the new file takes the old one's inode number");
    assert_eq!((stat, read), want, "threads");
}

/// A read or a write racing the reap of its file is answered: with the
/// bytes, or with `Fs(Gone)` — by the vnode, which refuses what it
/// finds queued when it reaps, or by the kernel task, whose hand-off
/// finds the vnode gone. Never `Cancelled` (the process's reply dropped
/// unanswered, as it was while a reaping vnode dropped its queue), and
/// never a hang.
#[test]
fn a_read_or_write_racing_its_files_reap_is_answered() {
    let (mut served, mut gone) = (0, 0);
    // How long after the read and the write the unlink starts, in
    // cycles (negative: before them).
    for delay in (-1_500i64..=1_500).step_by(25) {
        let mut s = sim(6);
        let (read, wrote) = s
            .block_on(async move {
                let os = boot(BootCfg::new(
                    KernelKind::Message,
                    FsKind::Message,
                    kernel_cores(2),
                ))
                .await;
                let ino = os.vfs.create("/f").await.unwrap();
                os.vfs.write(ino, 0, &[7; 4096]).await.unwrap();
                let (user, remover) = (os.procs.env(), os.procs.env());
                let fd = user.open("/f").await.unwrap();
                let unlink = chanos_rt::spawn_on(CoreId(3), async move {
                    chanos_rt::sleep(delay.max(0) as u64).await;
                    remover.unlink("/f").await.unwrap();
                });
                let io = chanos_rt::spawn_on(CoreId(4), async move {
                    chanos_rt::sleep((-delay).max(0) as u64).await;
                    let mut b = user.batch();
                    let (read, wrote) = (b.read(fd, 4096), b.write(fd, b"late"));
                    b.submit().await;
                    // A dropped reply is a transport error here.
                    let read = read.await.unwrap_or_else(|e| Err(e.into()));
                    (read, wrote.await.unwrap_or_else(|e| Err(e.into())))
                });
                unlink.join().await.unwrap();
                io.join().await.unwrap()
            })
            .unwrap_or_else(|e| panic!("delay {delay}: a call was never answered: {e}"));
        for (what, out) in [("read", read.map(|b| b.len())), ("write", wrote)] {
            match out {
                Ok(_) => served += 1,
                Err(KError::Fs(chanos_vfs::FsError::Gone)) => gone += 1,
                other => panic!("delay {delay}: the {what} answered {other:?}"),
            }
        }
    }
    assert!(served > 0 && gone > 0, "{served} served, {gone} gone");
}

/// The process keeps its offsets, and they move as the kernel moved
/// them: a short read leaves the offset at the end of the file, so a
/// write queued behind it in the same batch — sent before the read's
/// answer is in — lands there, on every kernel and file system. A read
/// that got all it asked for leaves it after the bytes.
#[test]
fn a_write_behind_a_short_read_in_one_batch_lands_at_the_end() {
    for (kernel, fs) in [
        (KernelKind::Message, FsKind::Message),
        (KernelKind::Message, FsKind::BigLock),
        (KernelKind::Trap, FsKind::BigLock),
    ] {
        let mut s = sim(6);
        let (got, whole, after) = s
            .block_on(async move {
                let os = boot(BootCfg::new(kernel, fs, kernel_cores(2))).await;
                let env = os.procs.env();
                let fd = env.create("/o").await.unwrap();
                env.write(fd, b"abcdef").await.unwrap();
                env.close(fd).await.unwrap();
                let fd = env.open("/o").await.unwrap();
                let mut b = env.batch();
                let full = b.read(fd, 2);
                let short = b.read(fd, 10);
                let wrote = b.write(fd, b"XY");
                b.submit().await;
                // In program order: the trap kernel runs a batch's
                // calls as they are awaited.
                let got = (full.await.unwrap().unwrap(), short.await.unwrap().unwrap());
                let wrote = wrote.await.unwrap().unwrap();
                env.write(fd, b"Z").await.unwrap();
                // Once every answer is in, the offset is exact again:
                // bytes another process appends are read from there.
                let other = os.procs.env();
                let theirs = other.open("/o").await.unwrap();
                other.read(theirs, 64).await.unwrap();
                other.write(theirs, b"0123").await.unwrap();
                let appended = env.read(fd, 10).await.unwrap();
                let fd = env.open("/o").await.unwrap();
                let whole = env.read(fd, 64).await.unwrap();
                assert_eq!(wrote, 2);
                (got, whole, appended)
            })
            .unwrap();
        let label = format!("{kernel:?} + {fs:?}");
        assert_eq!(got, (b"ab".to_vec(), b"cdef".to_vec()), "{label}");
        assert_eq!(whole, b"abcdefXYZ0123", "{label}");
        assert_eq!(after, b"0123", "{label}");
    }

    // A write behind a read that got all it asked for.
    let mut s = sim(6);
    let whole = s
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                kernel_cores(2),
            ))
            .await;
            let env = os.procs.env();
            let fd = env.create("/p").await.unwrap();
            env.write(fd, b"abcdef").await.unwrap();
            let fd = env.open("/p").await.unwrap();
            let twin = env.clone();
            let mut b = twin.batch();
            let read = b.read(fd, 2);
            let wrote = b.write(fd, b"XY");
            b.submit().await;
            // Answers taken out of order settle in the order sent.
            assert_eq!(wrote.await.unwrap(), Ok(2));
            assert_eq!(read.await.unwrap().unwrap(), b"ab");
            // The clone moved the offset for both.
            assert_eq!(env.read(fd, 64).await.unwrap(), b"ef");
            let fd = env.open("/p").await.unwrap();
            env.read(fd, 64).await.unwrap()
        })
        .unwrap();
    assert_eq!(whole, b"abXYef");
}

/// A warm one-block `read`, and the ladder's `create`, `write`, `close`,
/// `unlink` round with its one-block `write` into the fresh file, from
/// an application core whose kernel task is on core 0, pinned in cycles
/// on the ladder's machine. The read is one trip: the process sends it
/// to the file's vnode, which validates it and hands it to the block's
/// cache shard, and the shard answers the process. The write's answer
/// comes from the vnode, whose port the `create` answered with; the
/// close runs in the process, and the `create` and the `unlink` go from
/// the process to the root's vnode, which validates them where it serves
/// them. (While the kernel task relayed every path call, the round cost
/// 5 170. While it relayed every call on a descriptor and installed the
/// descriptors, they cost 1 420, 2 043 and 5 689; while it awaited the
/// file system, the vnode gathered a one-block read itself and the first
/// write started the file's vnode, 1 668, 2 419 and 5 934. While the new
/// vnode loaded its record from its group and each registry write
/// carried a task number and was answered with a port or a flag, the
/// round cost 5 767. While the `create` waited for the new vnode's
/// registry `Insert` and the reap for its `Retire` before freeing the
/// number, it cost 4 878.)
#[test]
fn a_read_and_a_write_cost_exact_cycles_on_the_ladder_machine() {
    const BLOCK: usize = 4096;
    let mut s = ladder_sim();
    let (read, write, round) = s
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                kernel_cores(4),
            ))
            .await;
            let ino = os.vfs.create("/f").await.unwrap();
            os.vfs.write(ino, 0, &[7; BLOCK]).await.unwrap();
            let env = loop {
                let env = os.procs.env();
                if env.pid.0 % 4 == 0 {
                    break env;
                }
            };
            chanos_rt::spawn_on(CoreId(4), async move {
                let (mut read, mut write, mut round) = (0, 0, 0);
                for _ in 0..2 {
                    let fd = env.open("/f").await.unwrap();
                    let t = chanos_rt::now();
                    env.read(fd, BLOCK).await.unwrap();
                    read = chanos_rt::now() - t;
                    env.close(fd).await.unwrap();
                    // The ladder's create, write, close, unlink.
                    let t0 = chanos_rt::now();
                    let fd = env.create("/w").await.unwrap();
                    let t = chanos_rt::now();
                    env.write(fd, &[9; BLOCK]).await.unwrap();
                    write = chanos_rt::now() - t;
                    env.close(fd).await.unwrap();
                    env.unlink("/w").await.unwrap();
                    round = chanos_rt::now() - t0;
                }
                (read, write, round)
            })
            .join()
            .await
            .unwrap()
        })
        .unwrap();
    assert!(
        read < 1_420,
        "{read} cycles: a read goes through the kernel task again"
    );
    assert_eq!(read, 1_264, "warm one-block read");
    assert!(
        write < 2_043,
        "{write} cycles: a write goes through the kernel task again"
    );
    assert_eq!(write, 1_887, "one-block write into a fresh file");
    assert!(
        round < 5_170,
        "{round} cycles: the kernel task relays the path calls, the file calls or installs the descriptor again"
    );
    assert!(
        round < 4_878,
        "{round} cycles: a create or a reap waits for a registry write again"
    );
    assert_eq!(round, 4_147, "create, write, close, unlink");
}

/// A process's call on an open file pays its validation where it is
/// served, and that charge is the kernel's per-call cost: one number.
#[test]
fn a_file_calls_validation_is_the_kernels_per_call_cost() {
    assert_eq!(
        chanos_vfs::VALIDATE_CYCLES,
        chanos_kernel::KernelCosts::default().syscall_cpu
    );
}

/// An open file is the process's: on the ladder's machine a `read`, a
/// `write`, an `fstat` and a `close` leave its kernel task idle. The
/// file's vnode pays the validation of the three calls it takes, and
/// the process pays the close's.
#[test]
fn calls_on_an_open_file_keep_the_kernel_task_idle() {
    const BLOCK: usize = 4096;
    let mut s = ladder_sim();
    let (env, fd) = s
        .block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                kernel_cores(4),
            ))
            .await;
            let ino = os.vfs.create("/f").await.unwrap();
            os.vfs.write(ino, 0, &[7; BLOCK]).await.unwrap();
            let env = os.procs.env();
            let fd = env.open("/f").await.unwrap();
            (env, fd)
        })
        .unwrap();
    let busy = busy_of;
    let (kproc, vnodes, app) = (busy(&s, "kproc"), busy(&s, "vnode"), busy(&s, "task"));
    s.block_on(async move {
        assert_eq!(env.read(fd, BLOCK).await.unwrap().len(), BLOCK);
        assert_eq!(env.write(fd, b"tail").await, Ok(4));
        assert_eq!(env.fstat(fd).await.unwrap().size, BLOCK as u64 + 4);
        assert_eq!(env.close(fd).await, Ok(()));
        assert_eq!(env.read(fd, 1).await, Err(KError::BadFd));
    })
    .unwrap();
    assert_eq!(
        busy(&s, "kproc") - kproc,
        0,
        "the kernel task's busy cycles"
    );
    assert!(busy(&s, "vnode") - vnodes >= 3 * chanos_vfs::VALIDATE_CYCLES);
    assert!(busy(&s, "task") - app >= chanos_vfs::VALIDATE_CYCLES);
}

/// `read, read, close, read` on one descriptor.
async fn read_read_close_read(batched: bool) -> Vec<Result<Vec<u8>, KError>> {
    let os = boot(BootCfg::new(
        KernelKind::Message,
        FsKind::Message,
        kernel_cores(2),
    ))
    .await;
    let env = os.procs.env();
    let fd = env.create("/o").await.unwrap();
    env.write(fd, b"abcdef").await.unwrap();
    env.close(fd).await.unwrap();
    let fd = env.open("/o").await.unwrap();
    if !batched {
        return vec![
            env.read(fd, 3).await,
            env.read(fd, 3).await,
            env.close(fd).await.map(|()| Vec::new()),
            env.read(fd, 3).await,
        ];
    }
    let mut b = env.batch();
    let (first, second, close, after) = (b.read(fd, 3), b.read(fd, 3), b.close(fd), b.read(fd, 3));
    b.submit().await;
    // Taken last to first: each was made at the submit, in order.
    let after = after.await.unwrap();
    let close = close.await.unwrap().map(|()| Vec::new());
    let second = second.await.unwrap();
    vec![first.await.unwrap(), second, close, after]
}

/// The process's fd table answers in program order, as the kernel
/// task's did: `read, read, close, read` answers data, data, ok,
/// `BadFd`, as serial calls and in one batch, on both backends.
#[test]
fn read_read_close_read_answers_in_program_order_on_both_backends() {
    let want = vec![
        Ok(b"abc".to_vec()),
        Ok(b"def".to_vec()),
        Ok(Vec::new()),
        Err(KError::BadFd),
    ];
    for batched in [false, true] {
        let mut s = sim(4);
        let got = s.block_on(read_read_close_read(batched)).unwrap();
        assert_eq!(got, want, "simulator, batched {batched}");
        let rt = chanos_parchan::Runtime::new(2);
        let got = rt.block_on(read_read_close_read(batched));
        rt.shutdown();
        assert_eq!(got, want, "threads, batched {batched}");
    }
}

/// A batch's `open`s are numbered in the order they were queued, not
/// the order they are answered in — the deep path's answer comes last —
/// and a call queued on a descriptor whose `open` fails answers
/// `BadFd`, even when it is awaited before that open (the batch's
/// submit installed the open's answer and refused the call).
#[test]
fn a_batched_open_numbers_its_descriptor_when_sent() {
    let mut s = sim(6);
    s.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            kernel_cores(2),
        ))
        .await;
        os.vfs.mkdir("/a").await.unwrap();
        os.vfs.mkdir("/a/b").await.unwrap();
        let deep = os.vfs.create("/a/b/deep").await.unwrap();
        os.vfs.write(deep, 0, b"deep").await.unwrap();
        let top = os.vfs.create("/top").await.unwrap();
        os.vfs.write(top, 0, b"top").await.unwrap();
        let env = os.procs.env();
        let first = env.open("/top").await.unwrap();
        let fd = |n: u32| chanos_kernel::Fd(first.0 + n);

        let mut b = env.batch();
        let deep = b.open("/a/b/deep");
        let top = b.open("/top");
        let missing = b.open("/missing");
        let read_missing = b.read(fd(3), 4);
        let close_missing = b.close(fd(3));
        let read_top = b.read(fd(2), 8);
        b.submit().await;
        assert_eq!(read_missing.await.unwrap(), Err(KError::BadFd));
        assert_eq!(close_missing.await.unwrap(), Err(KError::BadFd));
        assert_eq!(read_top.await.unwrap(), Ok(b"top".to_vec()));
        assert_eq!(top.await.unwrap(), Ok(fd(2)));
        assert_eq!(deep.await.unwrap(), Ok(fd(1)));
        let not_found = KError::Fs(chanos_vfs::FsError::NotFound);
        assert_eq!(missing.await.unwrap(), Err(not_found));
        assert_eq!(env.read(fd(1), 8).await, Ok(b"deep".to_vec()));
        assert_eq!(env.read(fd(3), 8).await, Err(KError::BadFd));
        assert_eq!(
            env.open("/top").await,
            Ok(fd(4)),
            "numbers are never reused"
        );
    })
    .unwrap();
}

/// A call queued in a batch that is dropped unsubmitted, its own
/// future dropped unawaited too, then a read of the whole file on the
/// same descriptor.
async fn a_dropped_batchs_unsent_call_then_a_read(write: bool) -> Vec<u8> {
    let os = boot(BootCfg::new(
        KernelKind::Message,
        FsKind::Message,
        kernel_cores(2),
    ))
    .await;
    let env = os.procs.env();
    let fd = env.create("/o").await.unwrap();
    env.write(fd, b"abcdef").await.unwrap();
    env.close(fd).await.unwrap();
    let fd = env.open("/o").await.unwrap();
    let mut b = env.batch();
    if write {
        let unsent = b.write(fd, b"XY");
        drop(b);
        drop(unsent);
    } else {
        let unsent = b.read(fd, 2);
        drop(b);
        drop(unsent);
    }
    env.read(fd, 6).await.unwrap()
}

/// A call a dropped batch never made gives back the offset it took, so
/// the calls after it start where it would have: a dropped `read` of 2
/// and a dropped `write` of 2 leave the offset at 0, and the next read
/// gets the whole file, on both backends. (Before, the dropped call's
/// offset stayed taken, and the read got `cdef`.)
#[test]
fn a_dropped_batchs_unsent_call_gives_back_its_offset_on_both_backends() {
    for write in [false, true] {
        let mut s = sim(4);
        let got = s
            .block_on(a_dropped_batchs_unsent_call_then_a_read(write))
            .unwrap();
        assert_eq!(got, b"abcdef", "simulator, write {write}");
        let rt = chanos_parchan::Runtime::new(2);
        let got = rt.block_on(a_dropped_batchs_unsent_call_then_a_read(write));
        rt.shutdown();
        assert_eq!(got, b"abcdef", "threads, write {write}");
    }
}

/// A descriptor held across its file's unlink answers `Fs(Gone)`: the
/// vnode went with the file, and a call sent to it is refused, by the
/// vnode or where it was sent. Never a hang, on either backend.
async fn an_unlinked_files_descriptor() -> Vec<Result<u64, KError>> {
    let os = boot(BootCfg::new(
        KernelKind::Message,
        FsKind::Message,
        kernel_cores(2),
    ))
    .await;
    let (env, remover) = (os.procs.env(), os.procs.env());
    let fd = env.create("/gone").await.unwrap();
    env.write(fd, b"bytes").await.unwrap();
    remover.unlink("/gone").await.unwrap();
    vec![
        env.read(fd, 8).await.map(|data| data.len() as u64),
        env.write(fd, b"more").await.map(|n| n as u64),
        env.fstat(fd).await.map(|st| st.size),
        env.close(fd).await.map(|()| 0),
    ]
}

#[test]
fn a_descriptor_held_across_its_files_unlink_answers_gone_on_both_backends() {
    let gone = Err(KError::Fs(chanos_vfs::FsError::Gone));
    let want = vec![gone.clone(), gone.clone(), gone, Ok(0)];
    let mut s = sim(4);
    assert_eq!(s.block_on(an_unlinked_files_descriptor()).unwrap(), want);
    let rt = chanos_parchan::Runtime::new(2);
    let got = rt.block_on(an_unlinked_files_descriptor());
    rt.shutdown();
    assert_eq!(got, want, "threads");
}

#[cfg(target_pointer_width = "64")]
#[test]
fn syscall_message_layout_is_pinned() {
    // The simulator charges a message `size_of::<T>()` bytes: a failure
    // here means every modeled number is about to move.
    // (`PidWrite` is the op of the pid table's NR write request.)
    assert_eq!(std::mem::size_of::<chanos_kernel::Syscall>(), 56);
    assert_eq!(std::mem::size_of::<chanos_kernel::pids::PidWrite>(), 40);
}
