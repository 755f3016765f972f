//! Real-hardware companions to the simulated experiments, on the
//! `chanos-parchan` work-stealing thread pool via the `chanos-rt`
//! facade:
//!
//! * **E1** — is a send "comparable in scope to a procedure call"?
//! * **E3** — message-kernel syscalls (GetPid null call, Create/
//!   Write/Read/Close through MsgFs) measured on OS threads.
//! * **E4** — FS engine scaling: concurrent writers through the
//!   vnode-per-thread file system on real cores.
//! * **E9** — placement policy on real cores: pipeline stages pinned
//!   per policy via `spawn_named_on` (honored as unstealable worker
//!   pins since the work-stealing scheduler landed).
//! * **E8** — VM service granularity on real tasks: the same fault
//!   storm as the simulated E8, but every space/region/page server is
//!   a real task on the work-stealing scheduler.
//! * **E14** — one OS vs a box of VM partitions, on threads: remote
//!   shards cross the full `chanos-net` middleweight stack.
//! * **sched** — spawn/steal microbench: a yield-heavy workload
//!   through the per-worker run queues, counting steals.
//!
//! E4 runs against the **file-backed block device** (the threads
//! backend's `DiskHw` store): the `disk.*` counters printed after it
//! are real `pread`/`pwrite` operations, not model events.
//!
//! The paper's claims get measured on silicon, not just in the model.

use chanos_bench::harness::{bench, default_budget, header};
use chanos_parchan::{channel, yield_now, Capacity, Runtime};

#[inline(never)]
fn callee(x: u64) -> u64 {
    std::hint::black_box(x.wrapping_mul(2654435761).rotate_left(13))
}

fn bench_e1_msg_vs_call() {
    let budget = default_budget();
    header("E1 on real threads: send vs procedure call");
    let mut acc = 0u64;
    bench("procedure_call", budget, || {
        acc = callee(std::hint::black_box(acc));
        acc
    });

    let rt = Runtime::new(2);
    // Echo server task.
    let (req_tx, req_rx) = channel::<(u64, chanos_parchan::Sender<u64>)>(Capacity::Unbounded);
    let _server = rt.spawn(async move {
        while let Ok((x, reply)) = req_rx.recv().await {
            let _ = reply.send(callee(x)).await;
        }
    });
    bench("channel_rpc_round_trip", budget, || {
        let (rtx, rrx) = channel::<u64>(Capacity::Bounded(1));
        rt.block_on(async {
            req_tx.send((7, rtx)).await.unwrap();
            rrx.recv().await.unwrap()
        })
    });
    drop(req_tx);
    let (tx, rx) = channel::<u64>(Capacity::Unbounded);
    bench("unbounded_send_then_recv_same_task", budget, || {
        rt.block_on(async {
            tx.send(1).await.unwrap();
            rx.recv().await.unwrap()
        })
    });
    bench("spawn_join_lightweight_thread", budget, || {
        let h = rt.spawn(async { 1u64 });
        rt.block_on(h.join()).unwrap()
    });
    rt.shutdown();
}

fn bench_e3_syscalls_real_hw() {
    use chanos_kernel::{boot, BootCfg, FsKind, KernelKind};
    use chanos_rt::CoreId;

    let budget = default_budget();
    header("E3 on real threads: message-kernel syscalls");
    let rt = Runtime::new(4);
    // `env()` starts the process's kernel task, so it needs the
    // runtime: make it inside `block_on`, with the boot.
    let (os, env) = rt.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            (0..2).map(CoreId).collect(),
        ))
        .await;
        let env = os.procs.env();
        (os, env)
    });
    {
        let (rt, env) = (rt.clone(), env.clone());
        bench("getpid_null_syscall", budget, move || {
            rt.block_on(env.getpid())
        });
    }
    {
        // Pipelined null syscalls: the server drains the burst and
        // publishes all replies under one coalesced wake per peer
        // (`chan.reply_wakes_coalesced` counts the elided ones).
        let env = env.clone();
        let rt2 = rt.clone();
        let before = chanos_parchan::chan_counter("chan.reply_wakes_coalesced");
        bench("getpid_pipelined_x8", budget, move || {
            let env = env.clone();
            rt2.block_on(async move {
                let futs: Vec<_> = (0..8).map(|_| env.getpid()).collect();
                chanos_rt::join_all(futs).await.len()
            })
        });
        println!(
            "  (chan.reply_wakes_coalesced +{})",
            chanos_parchan::chan_counter("chan.reply_wakes_coalesced") - before
        );
    }
    {
        let rt = rt.clone();
        // A second process, so a kernel task of its own.
        let env = rt.block_on(async {
            let env = os.procs.env();
            env.mkdir("/bench").await.unwrap();
            env
        });
        let mut n = 0u64;
        bench("create_write_read_close", budget, move || {
            n += 1;
            let path = format!("/bench/f{n}");
            let env = env.clone();
            rt.block_on(async move {
                let fd = env.create(&path).await.unwrap();
                env.write(fd, b"hello real hardware").await.unwrap();
                env.close(fd).await.unwrap();
                let fd = env.open(&path).await.unwrap();
                let data = env.read(fd, 64).await.unwrap();
                env.close(fd).await.unwrap();
                data.len()
            })
        });
    }
    rt.shutdown();
}

/// The worker counts every scaling sweep runs at: 1, 2, 4, and the
/// host's core count, deduplicated (on a 4-core host the last two
/// coincide; on a 1-core host the set is {1, 2, 4} and the rows
/// document timesharing, not scaling).
fn worker_sweep() -> Vec<usize> {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut set = vec![1usize, 2, 4, host_cores];
    set.sort_unstable();
    set.dedup();
    set
}

/// Everything `record_syscall_json` needs from the two scheduler
/// benches, so the JSON can be written once after both have run.
struct SyscallSweep {
    /// `(op, depth, ns_per_call)` at the default 4 workers.
    rows: Vec<(&'static str, usize, f64)>,
    /// `(workers, serial_ns, depth32_ns)` for pipelined getpid.
    scaling: Vec<(usize, f64, f64)>,
}

struct StealRow {
    workers: usize,
    yields_per_sec: f64,
    steals: u64,
}

/// Times `rounds` of `depth` in-flight calls of `op` through one
/// booted kernel; returns ns/call.
fn measure_pipelined(
    rt: &Runtime,
    env: &chanos_kernel::Env,
    fd: chanos_kernel::Fd,
    op: &'static str,
    depth: usize,
    budget: std::time::Duration,
) -> f64 {
    use std::time::Instant;
    let env = env.clone();
    // The whole timed loop runs inside ONE block_on, so the
    // cross-thread block_on handoff is paid once per depth, not once
    // per round — otherwise deeper batches would amortize harness
    // overhead and inflate the speedup.
    let (rounds, elapsed) = rt.block_on(async move {
        let mut b = env.batch();
        let mut rounds = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < budget {
            match op {
                "getpid" => {
                    let calls: Vec<_> = (0..depth).map(|_| b.getpid()).collect();
                    b.submit().await;
                    chanos_rt::join_all(calls).await;
                }
                _ => {
                    let calls: Vec<_> = (0..depth).map(|_| b.read(fd, 16)).collect();
                    b.submit().await;
                    chanos_rt::join_all(calls).await;
                }
            }
            rounds += 1;
        }
        (rounds, t0.elapsed())
    });
    elapsed.as_nanos() as f64 / (rounds * depth as u64) as f64
}

/// Pipelined-syscall depth sweep through the booted message kernel:
/// `depth` in-flight calls per round via `Env::batch()` (one message
/// burst in, out-of-order completion), vs depth 1 = the classic
/// serial round trip — then the headline depth re-measured at every
/// worker count in [`worker_sweep`]. Feeds `BENCH_syscall.json` — the
/// perf trajectory for the typed-port API (FlexSC-style batching).
fn bench_syscall_depth_sweep() -> SyscallSweep {
    use chanos_kernel::{boot, BootCfg, FsKind, KernelKind};
    use chanos_rt::CoreId;

    let budget = default_budget();
    let depths = [1usize, 2, 8, 32];

    println!("\n## Pipelined syscall depth sweep (message kernel on threads, Env::batch)\n");
    println!("| op | depth | ns/call | calls/sec | speedup vs serial |");
    println!("|---|---|---|---|---|");

    let rt = Runtime::new(4);
    let (os, env) = rt.block_on(async {
        let os = boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            (0..2).map(CoreId).collect(),
        ))
        .await;
        let env = os.procs.env();
        (os, env)
    });
    // A zero-length file: every pipelined read is an identical full
    // trip through syscall server -> vnode -> reply.
    let fd = rt.block_on(async {
        env.mkdir("/sweep").await.unwrap();
        env.create("/sweep/empty").await.unwrap()
    });

    // (op, depth, ns_per_call)
    let mut rows: Vec<(&'static str, usize, f64)> = Vec::new();
    for op in ["getpid", "read"] {
        let mut serial_ns = 0.0f64;
        for &depth in &depths {
            let ns_per_call = measure_pipelined(&rt, &env, fd, op, depth, budget);
            if depth == 1 {
                serial_ns = ns_per_call;
            }
            println!(
                "| {op} | {depth} | {ns_per_call:.0} | {:.0} | {:.2}x |",
                1e9 / ns_per_call,
                serial_ns / ns_per_call,
            );
            rows.push((op, depth, ns_per_call));
        }
    }
    drop(os);
    rt.shutdown();

    // Worker-count scaling: the headline pipelined getpid (depth 32)
    // re-measured with the pool at each sweep size, fresh kernel per
    // count. This is the per-core-count perf trajectory row.
    println!("\n## Depth-32 getpid by worker count\n");
    println!("| workers | serial ns/call | depth-32 ns/call | speedup |");
    println!("|---|---|---|---|");
    let mut scaling: Vec<(usize, f64, f64)> = Vec::new();
    for &w in &worker_sweep() {
        let rt = Runtime::new(w);
        let (os, env) = rt.block_on(async {
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                (0..2).map(CoreId).collect(),
            ))
            .await;
            let env = os.procs.env();
            (os, env)
        });
        let fd = rt.block_on(async {
            env.mkdir("/sweepw").await.unwrap();
            env.create("/sweepw/empty").await.unwrap()
        });
        let serial = measure_pipelined(&rt, &env, fd, "getpid", 1, budget);
        let deep = measure_pipelined(&rt, &env, fd, "getpid", 32, budget);
        println!("| {w} | {serial:.0} | {deep:.0} | {:.2}x |", serial / deep);
        scaling.push((w, serial, deep));
        drop(os);
        rt.shutdown();
    }
    SyscallSweep { rows, scaling }
}

/// Writes `BENCH_syscall.json` (hand-rolled JSON; no serde in this
/// build) from the depth sweep and the spawn/steal microbench. Flat keys
/// (`speedup_getpid_x8_vs_serial`, `steals_ws4`) stay one-per-line so
/// CI can awk them without a JSON parser.
fn record_syscall_json(sweep: &SyscallSweep, steal: &[StealRow]) {
    let quick = default_budget() < std::time::Duration::from_millis(100);
    let rows = &sweep.rows;
    let speedup = |op: &str, d: usize| {
        let serial = rows.iter().find(|r| r.0 == op && r.1 == 1).map(|r| r.2);
        let deep = rows.iter().find(|r| r.0 == op && r.1 == d).map(|r| r.2);
        match (serial, deep) {
            (Some(s), Some(p)) => s / p,
            _ => 0.0,
        }
    };
    // The machine the numbers came from: without the host core count
    // a recorded speedup is uninterpretable (a 3x pipelining win on 2
    // cores and on 64 cores are different results).
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let steals_ws4 = steal
        .iter()
        .find(|r| r.workers == 4)
        .map_or(0, |r| r.steals);
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!(
        "  \"bench\": \"syscall_depth_sweep\",\n  \"quick\": {quick},\n  \"workers\": 4,\n  \"kernel_cores\": 2,\n"
    ));
    j.push_str(&format!(
        "  \"host_cores\": {host_cores},\n  \"backend\": \"threads\",\n"
    ));
    j.push_str(&format!(
        "  \"speedup_getpid_x8_vs_serial\": {:.3},\n  \"speedup_read_x8_vs_serial\": {:.3},\n",
        speedup("getpid", 8),
        speedup("read", 8),
    ));
    j.push_str(&format!("  \"steals_ws4\": {steals_ws4},\n"));
    j.push_str("  \"rows\": [\n");
    for (i, (op, depth, ns)) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"op\": \"{op}\", \"depth\": {depth}, \"ns_per_call\": {ns:.1}, \
             \"calls_per_sec\": {:.1}}}{}\n",
            1e9 / ns,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n  \"scaling\": [\n");
    for (i, (w, serial, deep)) in sweep.scaling.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"workers\": {w}, \"op\": \"getpid\", \"serial_ns_per_call\": {serial:.1}, \
             \"depth32_ns_per_call\": {deep:.1}, \"speedup\": {:.3}}}{}\n",
            serial / deep,
            if i + 1 < sweep.scaling.len() { "," } else { "" },
        ));
    }
    j.push_str("  ],\n  \"spawn_steal\": [\n");
    for (i, r) in steal.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"workers\": {}, \"yields_per_sec\": {:.1}, \"steals\": {}}}{}\n",
            r.workers,
            r.yields_per_sec,
            r.steals,
            if i + 1 < steal.len() { "," } else { "" },
        ));
    }
    j.push_str("  ]\n}\n");
    chanos_bench::harness::write_bench_json("CHANOS_SYSCALL_OUT", "BENCH_syscall.json", &j);
}

/// One measured point of the node-replication read sweep: a
/// read-heavy storm against one service at one worker count.
struct NrRow {
    service: &'static str,
    workers: usize,
    mops: f64,
}

/// Replica-path counters captured from a short pid read storm,
/// proving the fast path actually ran (CI gates on `nr_local_reads`).
struct NrCounters {
    local_reads: u64,
    log_appends: u64,
}

/// The node-replicated pid table: `w` pinned workers hammer
/// `PidTable::alive` for the budget; every query is a local-replica
/// map probe.
fn bench_nr_pid_reads() -> Vec<NrRow> {
    use chanos_kernel::{Pid, PidTable};
    use chanos_rt::CoreId;

    let budget = default_budget();
    let live_pids = 64u32;
    let mut rows = Vec::new();
    for &w in &worker_sweep() {
        let rt = Runtime::new(w);
        let (ops, dt) = rt.block_on(async {
            let cores: Vec<CoreId> = (0..w as u32).map(CoreId).collect();
            let pids = PidTable::spawn(&cores);
            for p in 1..=live_pids {
                pids.register(Pid(p), "nrbench", CoreId((p - 1) % w as u32))
                    .await;
            }
            let t0 = std::time::Instant::now();
            let hs: Vec<_> = (0..w)
                .map(|i| {
                    let pids = pids.clone();
                    chanos_rt::spawn_on(CoreId(i as u32), async move {
                        let mut n = 0u64;
                        let mut p = i as u32;
                        while t0.elapsed() < budget {
                            // 32 queries per clock read; alternating
                            // hit/miss keeps the map probe honest.
                            for _ in 0..32 {
                                p = p.wrapping_add(1);
                                let q = Pid(1 + p % (live_pids * 2));
                                std::hint::black_box(pids.alive(q).await);
                                n += 1;
                            }
                        }
                        n
                    })
                })
                .collect();
            let mut ops = 0u64;
            for h in hs {
                ops += h.join().await.expect("nr pid reader");
            }
            (ops, t0.elapsed())
        });
        rt.shutdown();
        rows.push(NrRow {
            service: "pid",
            workers: w,
            mops: ops as f64 / dt.as_secs_f64() / 1e6,
        });
    }
    rows
}

/// The same through the full kernel: `w` pinned workers stat hot
/// inodes through MsgFs, so every op crosses the vnode registry (a
/// local-replica read) before the vnode call proper.
fn bench_nr_vnmgr_lookups() -> Vec<NrRow> {
    use chanos_kernel::{boot, BootCfg, FsKind, KernelKind};
    use chanos_rt::CoreId;

    let budget = default_budget();
    let files = 32usize;
    let mut rows = Vec::new();
    for &w in &worker_sweep() {
        let rt = Runtime::new(w);
        let os = rt.block_on(boot(BootCfg::new(
            KernelKind::Message,
            FsKind::Message,
            (0..2).map(CoreId).collect(),
        )));
        let inos: Vec<u64> = rt.block_on(async {
            os.vfs.mkdir("/nrb").await.unwrap();
            let mut inos = Vec::with_capacity(files);
            for i in 0..files {
                inos.push(os.vfs.create(&format!("/nrb/f{i}")).await.unwrap());
            }
            inos
        });
        let (ops, dt) = rt.block_on(async {
            let t0 = std::time::Instant::now();
            let hs: Vec<_> = (0..w)
                .map(|i| {
                    let vfs = os.vfs.clone();
                    let inos = inos.clone();
                    chanos_rt::spawn_on(CoreId(i as u32), async move {
                        let mut n = 0u64;
                        let mut k = i;
                        while t0.elapsed() < budget {
                            for _ in 0..16 {
                                k = k.wrapping_add(1);
                                let ino = inos[k % inos.len()];
                                std::hint::black_box(vfs.stat(ino).await.unwrap());
                                n += 1;
                            }
                        }
                        n
                    })
                })
                .collect();
            let mut ops = 0u64;
            for h in hs {
                ops += h.join().await.expect("nr vn reader");
            }
            (ops, t0.elapsed())
        });
        drop(os);
        rt.shutdown();
        rows.push(NrRow {
            service: "vnmgr",
            workers: w,
            mops: ops as f64 / dt.as_secs_f64() / 1e6,
        });
    }
    rows
}

/// The node-replication perf trajectory: pid-table and vnode-registry
/// read storms at every sweep size. Also reruns a short pid storm on
/// a fresh runtime to capture its `nr.*` counters (per-runtime stats;
/// the sweep runtimes are gone by the time JSON is written).
fn bench_nr_read_scaling() -> (Vec<NrRow>, NrCounters) {
    use chanos_kernel::{Pid, PidTable};
    use chanos_rt::CoreId;

    header("NR: node-replicated reads (pid table, vnode registry)");
    let mut rows = bench_nr_pid_reads();
    rows.extend(bench_nr_vnmgr_lookups());

    println!("| service | workers | Mops/sec |");
    println!("|---|---|---|");
    for r in &rows {
        println!("| {} | {} | {:.3} |", r.service, r.workers, r.mops);
    }

    // Counter capture: a short read storm whose runtime is still
    // alive when we read its stats.
    let rt = Runtime::new(2);
    rt.block_on(async {
        let cores: Vec<CoreId> = (0..2).map(CoreId).collect();
        let pids = PidTable::spawn(&cores);
        pids.register(Pid(1), "nrcount", CoreId(0)).await;
        for _ in 0..1000u32 {
            std::hint::black_box(pids.alive(Pid(1)).await);
        }
    });
    let h = rt.handle();
    let counters = NrCounters {
        local_reads: h.stat_get("nr.local_reads"),
        log_appends: h.stat_get("nr.log_appends"),
    };
    println!("\n  nr.local_reads (counter run): {}", counters.local_reads);
    println!("  nr.log_appends (counter run): {}", counters.log_appends);
    rt.shutdown();
    (rows, counters)
}

/// Writes `BENCH_nr.json` (same hand-rolled flat-key format as
/// `BENCH_syscall.json`): one row per (service, workers) point plus
/// the 4-worker headline rates and the fast-path counters CI gates on.
fn record_nr_json(rows: &[NrRow], counters: &NrCounters) {
    let quick = default_budget() < std::time::Duration::from_millis(100);
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let point = |service: &str, w: usize| {
        rows.iter()
            .find(|r| r.service == service && r.workers == w)
            .map_or(0.0, |r| r.mops)
    };
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!(
        "  \"bench\": \"nr_read_scaling\",\n  \"quick\": {quick},\n  \"host_cores\": {host_cores},\n  \"backend\": \"threads\",\n"
    ));
    j.push_str(&format!(
        "  \"nr_pid_read_mops_w4\": {:.4},\n  \"nr_vn_lookup_mops_w4\": {:.4},\n",
        point("pid", 4),
        point("vnmgr", 4),
    ));
    j.push_str(&format!(
        "  \"nr_local_reads\": {},\n  \"nr_log_appends\": {},\n",
        counters.local_reads, counters.log_appends,
    ));
    j.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"service\": \"{}\", \"workers\": {}, \"mops_per_sec\": {:.4}}}{}\n",
            r.service,
            r.workers,
            r.mops,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    j.push_str("  ]\n}\n");
    chanos_bench::harness::write_bench_json("CHANOS_NR_OUT", "BENCH_nr.json", &j);
}

fn bench_e4_fs_scaling_real_hw() {
    use chanos_kernel::{boot, BootCfg, FsKind, KernelKind};
    use chanos_rt::CoreId;

    println!("\n## E4 on real threads: MsgFs concurrent writers\n");
    println!("| writers | total ops | ops/sec |");
    println!("|---|---|---|");
    for writers in [1usize, 2, 4] {
        let rt = Runtime::new(4);
        let os = rt.block_on(async {
            boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                (0..2).map(CoreId).collect(),
            ))
            .await
        });
        let ops_per_writer = 50u64;
        rt.block_on(async {
            os.vfs.mkdir("/w").await.unwrap();
        });
        let t0 = std::time::Instant::now();
        rt.block_on(async {
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let (_pid, h) =
                        os.procs
                            .spawn_process(CoreId(w as u32), move |env| async move {
                                for i in 0..ops_per_writer {
                                    let path = format!("/w/p{w}_{i}");
                                    let fd = env.create(&path).await.unwrap();
                                    env.write(fd, &[w as u8; 256]).await.unwrap();
                                    env.close(fd).await.unwrap();
                                }
                            });
                    h
                })
                .collect();
            for h in handles {
                h.join().await.unwrap();
            }
        });
        let dt = t0.elapsed();
        let total = ops_per_writer * writers as u64;
        let h = rt.handle();
        println!(
            "| {writers} | {total} | {:.0} |",
            total as f64 / dt.as_secs_f64()
        );
        if writers == 4 {
            // Real-device proof: these are pread/pwrite calls on the
            // sparse image, charged only by actual disk commands.
            println!("\n  disk.* counters (4-writer run, file-backed device):");
            for name in [
                "disk.reads",
                "disk.writes",
                "disk.file_reads",
                "disk.file_writes",
                "disk.file_bytes_read",
                "disk.file_bytes_written",
                "disk.io_errors",
            ] {
                println!("  | {name} | {} |", h.stat_get(name));
            }
        }
        rt.shutdown();
    }
}

fn bench_e8_vm_granularity_threads() {
    use chanos_rt as rt;
    use chanos_vm::{Granularity, LibOsSpace, VmCfg, VmService, PAGE_SIZE};

    let quick = default_budget() < std::time::Duration::from_millis(100);
    let faulters = 4usize;
    let pages: u64 = if quick { 32 } else { 200 };
    let workers = 4usize;

    println!("\n## E8 on real threads: VM fault storm by service granularity ({faulters} faulters x {pages} pages, {workers} workers)\n");
    println!("| design | faults/sec | service tasks | page tasks |");
    println!("|---|---|---|---|");
    for g in [
        Granularity::Centralized,
        Granularity::PerSpace,
        Granularity::PerRegion,
        Granularity::PerPage,
    ] {
        let rtm = Runtime::new(workers);
        let t0 = std::time::Instant::now();
        rtm.block_on(async {
            let vm = VmService::start(VmCfg {
                granularity: g,
                fault_work: 300,
                frames: faulters as u64 * pages + 64,
                service_cores: (0..2).map(rt::CoreId).collect(),
                thread_spawn_cost: 800,
            });
            let space = vm.create_space(1);
            space
                .map_region(0, faulters as u64 * pages * PAGE_SIZE)
                .await
                .unwrap();
            let hs: Vec<_> = (0..faulters)
                .map(|f| {
                    let space = space.clone();
                    rt::spawn(async move {
                        let base = f as u64 * pages;
                        for p in 0..pages {
                            space.touch((base + p) * PAGE_SIZE).await.unwrap();
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join().await.unwrap();
            }
        });
        let dt = t0.elapsed();
        let h = rtm.handle();
        println!(
            "| {} | {:.0} | {} | {} |",
            g.name(),
            (faulters as u64 * pages) as f64 / dt.as_secs_f64(),
            h.stat_get("vm.service_threads"),
            h.stat_get("vm.page_threads"),
        );
        rtm.shutdown();
    }
    // The aggressive design: no service at all.
    let rtm = Runtime::new(workers);
    let t0 = std::time::Instant::now();
    rtm.block_on(async {
        let frames = chanos_vm::FrameAlloc::spawn(faulters as u64 * pages + 64, rt::CoreId(0));
        let hs: Vec<_> = (0..faulters)
            .map(|_| {
                let frames = frames.clone();
                rt::spawn(async move {
                    let mut space = LibOsSpace::new(frames, 300);
                    space.map_region(0, pages * PAGE_SIZE);
                    for p in 0..pages {
                        space.touch(p * PAGE_SIZE).await.unwrap();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().await.unwrap();
        }
    });
    let dt = t0.elapsed();
    println!(
        "| libOS (aggressive) | {:.0} | 0 | 0 |",
        (faulters as u64 * pages) as f64 / dt.as_secs_f64()
    );
    rtm.shutdown();
}

fn bench_e14_vm_cluster_threads() {
    use chanos_net::{
        connect, listen, Cluster, ClusterParams, LinkParams, NodeId, RdtParams, RpcClient,
        SerdeCost,
    };
    use chanos_rt as rt;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let quick = default_budget() < std::time::Duration::from_millis(100);
    const SHARDS: u32 = 16;
    let ops_per_worker: u64 = if quick { 10 } else { 40 };
    let client_tasks = 8u32;

    struct ShardReq {
        key: u32,
        reply: rt::ReplyTo<u64>,
    }

    println!("\n## E14 on real threads: one OS vs VM partitions ({SHARDS} shards, {client_tasks} workers x {ops_per_worker} ops)\n");
    println!("| partitions | ops/sec | remote fraction | net frames |");
    println!("|---|---|---|---|");
    for partitions in [1u32, 2, 4] {
        let rtm = Runtime::new(4);
        let t0 = std::time::Instant::now();
        let (ops, remote_total, frames) = rtm.block_on(async {
            let cluster = (partitions > 1).then(|| {
                Cluster::new(ClusterParams {
                    nodes: partitions,
                    link: LinkParams::default(),
                })
            });
            // Shard service tasks, partitioned by shard id.
            let mut shard_maps: Vec<Arc<BTreeMap<u32, rt::Port<ShardReq>>>> = Vec::new();
            for p in 0..partitions {
                let mut map = BTreeMap::new();
                for shard in (0..SHARDS).filter(|s| s % partitions == p) {
                    let (tx, rx) = rt::port_channel::<ShardReq>(rt::Capacity::Unbounded);
                    rt::spawn_daemon(&format!("shard-{shard}"), async move {
                        let mut hits = 0u64;
                        while let Ok(req) = rx.recv().await {
                            hits += 1;
                            let _ = req.reply.send(u64::from(req.key) + hits).await;
                        }
                    });
                    map.insert(shard, tx);
                }
                shard_maps.push(Arc::new(map));
            }
            // RPC servers for cross-partition traffic.
            if let Some(cl) = &cluster {
                for p in 0..partitions {
                    let listener = listen(&cl.iface(NodeId(p)), 80, RdtParams::default()).unwrap();
                    let shards = Arc::clone(&shard_maps[p as usize]);
                    rt::spawn_daemon(&format!("vm{p}-rpc-server"), async move {
                        while let Ok(conn) = listener.accept().await {
                            let shards = Arc::clone(&shards);
                            rt::spawn_daemon("vm-rpc-conn", async move {
                                chanos_net::serve(conn, SerdeCost::default(), move |key: u32| {
                                    let shards = Arc::clone(&shards);
                                    async move {
                                        let tx = shards.get(&key).expect("shard owned here");
                                        tx.call(|reply| ShardReq { key, reply }).await.unwrap_or(0)
                                    }
                                })
                                .await;
                            });
                        }
                    });
                }
            }
            // One RPC client per ordered partition pair.
            let mut clients: Vec<BTreeMap<u32, RpcClient<u32, u64>>> = Vec::new();
            for p in 0..partitions {
                let mut m = BTreeMap::new();
                if let Some(cl) = &cluster {
                    for q in 0..partitions {
                        if q == p {
                            continue;
                        }
                        let conn =
                            connect(&cl.iface(NodeId(p)), NodeId(q), 80, RdtParams::default())
                                .await
                                .expect("virtual network connect");
                        m.insert(q, RpcClient::new(conn, SerdeCost::default()));
                    }
                }
                clients.push(m);
            }
            let mut joins = Vec::new();
            for w in 0..client_tasks {
                let p = w % partitions;
                let shards = Arc::clone(&shard_maps[p as usize]);
                let remote = clients[p as usize].clone();
                joins.push(rt::spawn(async move {
                    let mut remote_ops = 0u64;
                    for i in 0..ops_per_worker {
                        let key = ((u64::from(w) * 31 + i * 7) % u64::from(SHARDS)) as u32;
                        let owner = key % partitions;
                        if owner == p {
                            let tx = shards.get(&key).expect("local shard");
                            tx.call(|reply| ShardReq { key, reply }).await.unwrap();
                        } else {
                            remote_ops += 1;
                            remote[&owner].call(&key).await.expect("remote shard call");
                        }
                    }
                    remote_ops
                }));
            }
            let mut remote_total = 0u64;
            for j in joins {
                remote_total += j.join().await.unwrap();
            }
            (
                u64::from(client_tasks) * ops_per_worker,
                remote_total,
                rt::stat_get("net.frames_sent"),
            )
        });
        let dt = t0.elapsed();
        println!(
            "| {partitions} | {:.0} | {:.2} | {frames} |",
            ops as f64 / dt.as_secs_f64(),
            remote_total as f64 / ops as f64,
        );
        rtm.shutdown();
    }
}

fn bench_e9_placement_real_hw() {
    use chanos_kernel::{Policy, ThreadPlacer};
    use chanos_rt as rt;

    // Scale with the harness budget so the CI smoke stays fast.
    let quick = default_budget() < std::time::Duration::from_millis(100);
    let msgs: u64 = if quick { 50 } else { 300 };
    let pipelines = 8usize;
    const STAGES: usize = 4;
    let workers = 4usize;

    println!("\n## E9 on real threads: placement policy ({pipelines} pipelines x {STAGES} stages, {workers} workers)\n");
    println!("| policy | msgs/sec |");
    println!("|---|---|");
    for policy in [
        Policy::Random,
        Policy::RoundRobin,
        Policy::Inherit,
        Policy::Partitioned { kernel_cores: 1 },
    ] {
        let rtm = Runtime::new(workers);
        let mut placer = ThreadPlacer::new(policy, workers);
        let t0 = std::time::Instant::now();
        rtm.block_on(async {
            let mut joins = Vec::new();
            for p in 0..pipelines {
                let src_core = placer.place(&format!("pipe{p}-src"), None);
                let (first_tx, mut prev_rx) = rt::channel::<u64>(rt::Capacity::Bounded(8));
                for st in 0..STAGES {
                    let core = placer.place(&format!("pipe{p}-stage{st}"), Some(src_core));
                    let (ntx, nrx) = rt::channel::<u64>(rt::Capacity::Bounded(8));
                    let in_rx = prev_rx;
                    prev_rx = nrx;
                    rt::spawn_named_on(&format!("pipe{p}-stage{st}"), core, async move {
                        while let Ok(v) = in_rx.recv().await {
                            if ntx.send(v).await.is_err() {
                                break;
                            }
                        }
                    });
                }
                let sink_core = placer.place(&format!("pipe{p}-sink"), Some(src_core));
                let sink = rt::spawn_named_on(&format!("pipe{p}-sink"), sink_core, async move {
                    for _ in 0..msgs {
                        if prev_rx.recv().await.is_err() {
                            break;
                        }
                    }
                });
                let src = rt::spawn_named_on(&format!("pipe{p}-src"), src_core, async move {
                    for i in 0..msgs {
                        if first_tx.send(i).await.is_err() {
                            break;
                        }
                    }
                });
                joins.push((src, sink));
            }
            for (src, sink) in joins {
                let _ = src.join().await;
                let _ = sink.join().await;
            }
        });
        let dt = t0.elapsed();
        let total = pipelines as u64 * msgs * (STAGES as u64 + 1);
        println!(
            "| {} | {:.0} |",
            policy.name(),
            total as f64 / dt.as_secs_f64()
        );
        rtm.shutdown();
    }
}

fn bench_spawn_steal_microbench() -> Vec<StealRow> {
    let quick = default_budget() < std::time::Duration::from_millis(100);
    let yields: u64 = if quick { 200 } else { 2_000 };

    println!("\n## Scheduler microbench: per-worker queues + stealing\n");
    println!("| workers | yields/sec | steals |");
    println!("|---|---|---|");
    let mut out = Vec::new();
    for workers in worker_sweep() {
        let rt = Runtime::new(workers);
        let tasks = 64u64 * workers as u64;
        let t0 = std::time::Instant::now();
        // Seed from one worker (local-queue path), then churn:
        // every yield is one trip through the dispatch path.
        let seeder = rt.spawn(async move {
            let hd = chanos_parchan::current().expect("on runtime");
            let children: Vec<_> = (0..tasks)
                .map(|_| {
                    hd.spawn(async move {
                        for _ in 0..yields {
                            yield_now().await;
                        }
                    })
                })
                .collect();
            for c in children {
                let _ = c.join().await;
            }
        });
        seeder.join_blocking().expect("seeder");
        let dt = t0.elapsed();
        let total = tasks * yields;
        // Tasks actually migrated, not batches: the CI gate (the
        // scheduler must steal at 4 workers) wants evidence of
        // cross-worker traffic, however it batches.
        let steals = rt.handle().stat_get("sched.steals");
        println!(
            "| {workers} | {:.0} | {steals} |",
            total as f64 / dt.as_secs_f64(),
        );
        out.push(StealRow {
            workers,
            yields_per_sec: total as f64 / dt.as_secs_f64(),
            steals,
        });
        rt.shutdown();
    }
    out
}

/// Channel + scheduler path counters accumulated over the whole
/// bench run: how often the fast paths actually ran.
fn print_counter_summary() {
    println!("\n## Channel/scheduler path counters (whole run)\n");
    println!("| counter | value |");
    println!("|---|---|");
    for (name, v) in chanos_parchan::chan_counters() {
        println!("| {name} | {v} |");
    }
    // Scheduler wake routing for one fresh runtime exercised by a
    // short ping-pong (per-runtime counters; the per-bench runtimes
    // are gone by now).
    let rt = Runtime::new(2);
    let (tx, rx) = channel::<u64>(Capacity::Bounded(8));
    let pong = rt.spawn(async move { while rx.recv().await.is_ok() {} });
    rt.block_on(async {
        for i in 0..1000u64 {
            tx.send(i).await.unwrap();
        }
    });
    drop(tx);
    pong.join_blocking().unwrap();
    let h = rt.handle();
    let (local, injector, pinned) = h.wake_counts();
    println!("| sched.wakes_local (steal-free) | {local} |");
    println!("| sched.wakes_injector | {injector} |");
    println!("| sched.wakes_pinned | {pinned} |");
    println!("| sched.steals | {} |", h.steal_count());
    rt.shutdown();
}

fn main() {
    bench_e1_msg_vs_call();
    bench_e3_syscalls_real_hw();
    let sweep = bench_syscall_depth_sweep();
    bench_e4_fs_scaling_real_hw();
    bench_e8_vm_granularity_threads();
    bench_e9_placement_real_hw();
    bench_e14_vm_cluster_threads();
    let steal = bench_spawn_steal_microbench();
    record_syscall_json(&sweep, &steal);
    let (nr_rows, nr_counters) = bench_nr_read_scaling();
    record_nr_json(&nr_rows, &nr_counters);
    print_counter_summary();
}
