//! Cross-backend equivalence: the same scripted syscall workload,
//! run through the message kernel on the deterministic simulator and
//! on the real-threads backend, must produce identical observable
//! results.
//!
//! This is the contract the `chanos-rt` facade exists to uphold: the
//! OS stack's *behaviour* is backend-independent; only its timing
//! differs.

use chanos::kernel::{boot, BootCfg, FsKind, KError, KernelKind};
use chanos::parchan::Runtime;
use chanos::rt::CoreId;
use chanos::sim::{Config, Simulation};

/// One observable step of the scripted workload.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Obs {
    Created(String, bool),
    Wrote(String, Result<usize, KError>),
    Read(String, Result<Vec<u8>, KError>),
    Closed(String, bool),
    BadFd(Result<Vec<u8>, KError>),
    Listing(Vec<String>),
    Pid(u32),
}

/// Runs a scripted open/create/write/read/close workload across
/// several pids against a booted OS; returns everything observable.
async fn scripted_workload(os: &chanos::kernel::Os) -> Vec<Obs> {
    let mut log = Vec::new();
    os.vfs.mkdir("/eq").await.expect("mkdir");
    // Three "processes", each with its own fd table, interleaved.
    let envs: Vec<_> = (0..3).map(|_| os.procs.env()).collect();
    for (i, env) in envs.iter().enumerate() {
        let path = format!("/eq/file{i}");
        let fd = env.create(&path).await;
        log.push(Obs::Created(path.clone(), fd.is_ok()));
        let fd = fd.expect("create");
        let payload = vec![i as u8 + 1; 1000 + i * 500];
        log.push(Obs::Wrote(path.clone(), env.write(fd, &payload).await));
        // Offset semantics: read from a second fd starts at zero.
        let fd2 = env.open(&path).await.expect("open");
        log.push(Obs::Read(path.clone(), env.read(fd2, 400).await));
        log.push(Obs::Read(path.clone(), env.read(fd2, 4000).await));
        log.push(Obs::Closed(path.clone(), env.close(fd2).await.is_ok()));
        log.push(Obs::Closed(path.clone(), env.close(fd).await.is_ok()));
        // Fd tables are per process: env 0's fds mean nothing to 1.
        if i > 0 {
            log.push(Obs::BadFd(envs[0].read(fd, 8).await));
        }
        log.push(Obs::Pid(env.pid.0));
    }
    // Cross-process visibility through the shared FS.
    let reader = os.procs.env();
    for i in 0..3 {
        let path = format!("/eq/file{i}");
        let fd = reader.open(&path).await.expect("open");
        let data = reader.read(fd, 100_000).await;
        log.push(Obs::Read(path, data));
        reader.close(fd).await.expect("close");
    }
    // Unlink one file; listing reflects it on both backends.
    reader.unlink("/eq/file1").await.expect("unlink");
    let mut names = reader.readdir("/eq").await.expect("readdir");
    names.sort();
    log.push(Obs::Listing(names));
    log
}

fn cfg() -> BootCfg {
    BootCfg::new(
        KernelKind::Message,
        FsKind::Message,
        (0..2).map(CoreId).collect(),
    )
}

fn run_on_sim() -> Vec<Obs> {
    let mut s = Simulation::with_config(Config {
        cores: 6,
        ..Config::default()
    });
    s.block_on(async {
        let os = boot(cfg()).await;
        scripted_workload(&os).await
    })
    .unwrap()
}

fn run_on_threads() -> Vec<Obs> {
    let rt = Runtime::new(3);
    let out = rt.block_on(async {
        let os = boot(cfg()).await;
        scripted_workload(&os).await
    });
    rt.shutdown();
    out
}

#[test]
fn same_workload_same_results_on_both_backends() {
    let sim_log = run_on_sim();
    let thread_log = run_on_threads();
    assert_eq!(sim_log.len(), thread_log.len(), "observation counts differ");
    for (i, (a, b)) in sim_log.iter().zip(&thread_log).enumerate() {
        assert_eq!(a, b, "observation {i} differs between backends");
    }
}

#[test]
fn threads_backend_is_self_consistent_across_runs() {
    // The thread pool's scheduling is nondeterministic, but the
    // workload's observable results must not be.
    let a = run_on_threads();
    let b = run_on_threads();
    assert_eq!(a, b);
}

#[test]
fn spawn_on_is_honored_on_both_backends() {
    // The placement contract: a task spawned on core `c` observes
    // `current_core() == c` at every poll — simulated core on the
    // simulator, pinned (unstealable) worker on real threads.
    async fn observed() -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for c in 0..3u32 {
            let h = chanos::rt::spawn_on(CoreId(c), async move {
                let mut cores = vec![chanos::rt::current_core()];
                // Across suspension points, not just the first poll.
                for _ in 0..4 {
                    chanos::rt::sleep(10_000).await;
                    cores.push(chanos::rt::current_core());
                }
                cores
            });
            for got in h.join().await.expect("pinned task ok") {
                out.push((c, got.0));
            }
        }
        out
    }
    let mut s = Simulation::with_config(Config {
        cores: 4,
        ..Config::default()
    });
    for (want, got) in s.block_on(observed()).unwrap() {
        assert_eq!(want, got, "sim backend broke the pin");
    }
    let rt = Runtime::new(4);
    for (want, got) in rt.block_on(observed()) {
        assert_eq!(want, got, "threads backend broke the pin");
    }
    rt.shutdown();
}

#[test]
fn recv_many_equivalent_on_both_backends() {
    // The batching contract is backend-independent: the same
    // produced sequence, drained with recv_many, yields the same
    // total content in the same order, batches never exceed `max`,
    // and 0 means closed-and-drained on both backends.
    async fn drain_with_batches() -> (Vec<u32>, usize) {
        let (tx, rx) = chanos::rt::channel::<u32>(chanos::rt::Capacity::Unbounded);
        let producer = chanos::rt::spawn(async move {
            for i in 0..500u32 {
                tx.send(i).await.unwrap();
            }
        });
        let mut got = Vec::new();
        let mut buf = Vec::new();
        let mut batches = 0usize;
        loop {
            let n = rx.recv_many(&mut buf, 32).await;
            if n == 0 {
                break;
            }
            assert!(n <= 32, "batch exceeded max");
            assert_eq!(buf.len(), n, "recv_many count mismatch");
            got.append(&mut buf);
            batches += 1;
        }
        // After close-and-drain every subsequent call is 0.
        assert_eq!(rx.recv_many(&mut buf, 8).await, 0);
        producer.join().await.unwrap();
        (got, batches)
    }

    let mut s = Simulation::with_config(Config {
        cores: 2,
        ..Config::default()
    });
    let (sim_got, sim_batches) = s.block_on(drain_with_batches()).unwrap();
    assert_eq!(sim_got, (0..500).collect::<Vec<_>>());
    assert!(sim_batches >= 500 / 32, "batches cover the stream");

    let rt = Runtime::new(2);
    let (thr_got, _thr_batches) = rt.block_on(drain_with_batches());
    rt.shutdown();
    assert_eq!(
        sim_got, thr_got,
        "recv_many content/order differs between backends"
    );
}

#[test]
fn try_recv_many_respects_max_and_order_on_both_backends() {
    async fn check() -> Vec<u32> {
        let (tx, rx) = chanos::rt::channel::<u32>(chanos::rt::Capacity::Bounded(16));
        for i in 0..10u32 {
            tx.try_send(i).unwrap();
        }
        // Let modeled transit elapse on the simulator (no-op delay on
        // threads beyond a yield).
        chanos::rt::sleep(1_000_000).await;
        let mut buf = Vec::new();
        assert_eq!(rx.try_recv_many(&mut buf, 4), 4);
        assert_eq!(rx.try_recv_many(&mut buf, 100), 6);
        assert_eq!(rx.try_recv_many(&mut buf, 4), 0);
        buf
    }
    let mut s = Simulation::with_config(Config {
        cores: 2,
        ..Config::default()
    });
    let sim_buf = s.block_on(check()).unwrap();
    let rt = Runtime::new(2);
    let thr_buf = rt.block_on(check());
    rt.shutdown();
    assert_eq!(sim_buf, (0..10).collect::<Vec<_>>());
    assert_eq!(sim_buf, thr_buf);
}

#[test]
fn two_parked_receivers_each_get_one_of_two_messages_on_both_backends() {
    // Two receivers park on an empty channel and two messages follow,
    // the sender held open: each receiver gets one. On the simulator
    // the receiver taking the first message must not be the one the
    // second message's arrival is announced to.
    async fn check() -> Vec<u32> {
        let (tx, rx) = chanos::rt::channel::<u32>(chanos::rt::Capacity::Unbounded);
        let a = {
            let rx = rx.clone();
            chanos::rt::spawn(async move { rx.recv().await.unwrap() })
        };
        let b = chanos::rt::spawn(async move { rx.recv().await.unwrap() });
        chanos::rt::sleep(1_000).await;
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let mut got = vec![a.join().await.unwrap(), b.join().await.unwrap()];
        drop(tx);
        got.sort_unstable();
        got
    }
    let mut s = Simulation::with_config(Config {
        cores: 2,
        ..Config::default()
    });
    let sim_got = s.block_on(check()).unwrap();
    let rt = Runtime::new(2);
    let thr_got = rt.block_on(check());
    rt.shutdown();
    assert_eq!(sim_got, [1, 2]);
    assert_eq!(sim_got, thr_got);
}

#[test]
fn sim_trace_is_deterministic_for_the_kernel_workload() {
    // The facade refactor must not perturb simulator determinism:
    // identical seeds give identical traces through the whole OS.
    let hash = |seed: u64| {
        let mut s = Simulation::with_config(Config {
            cores: 6,
            seed,
            ..Config::default()
        });
        s.block_on(async {
            let os = boot(cfg()).await;
            scripted_workload(&os).await
        })
        .unwrap();
        s.trace_hash()
    };
    // (Same seed, same trace. The workload never consults the RNG,
    // so different seeds coincide too — only repeatability matters.)
    assert_eq!(hash(7), hash(7));
}

// ---------------------------------------------------------------------------
// Net: the cluster substrate must behave identically on both backends.
// ---------------------------------------------------------------------------

/// Transport tuning for equivalence tests: on threads the RTO is
/// wall-clock, and a loaded CI box can stall a task past several
/// default RTOs — be patient so the retry budget never aborts a
/// healthy connection. (Cycles read as virtual time on the simulator,
/// where a perfect link never times out anyway.)
fn eq_rdt_params() -> chanos::net::RdtParams {
    chanos::net::RdtParams {
        rto: 20_000_000, // 20 ms wall / 20 Mcycle virtual.
        max_retries: 50,
        syn_retries: 20,
        ..chanos::net::RdtParams::default()
    }
}

/// Echo workload over a perfect link: returns every observable step.
async fn net_echo_script() -> Vec<Obs> {
    use chanos::net::{connect, listen, Cluster, ClusterParams, NodeId};
    let cl = Cluster::new(ClusterParams::default());
    let listener = listen(&cl.iface(NodeId(1)), 80, eq_rdt_params()).unwrap();
    chanos::rt::spawn_daemon("eq-echo-server", async move {
        while let Ok(conn) = listener.accept().await {
            chanos::rt::spawn_daemon("eq-echo-conn", async move {
                while let Ok(msg) = conn.recv().await {
                    if conn.send(msg).await.is_err() {
                        break;
                    }
                }
                conn.finish();
            });
        }
    });
    let conn = connect(&cl.iface(NodeId(0)), NodeId(1), 80, eq_rdt_params())
        .await
        .expect("connect");
    let mut log = Vec::new();
    // Mix of sizes, including one segmented across ~5 MTU-sized frames.
    for msg in [b"ping".to_vec(), vec![], vec![7u8; 5000], vec![9u8; 64]] {
        conn.send(msg.clone()).await.unwrap();
        log.push(Obs::Read("echo".into(), Ok(conn.recv().await.unwrap())));
    }
    conn.finish();
    log.push(Obs::Closed("conn".into(), conn.recv().await.is_err()));
    log
}

#[test]
fn net_rdt_delivery_equivalent_on_both_backends() {
    let mut s = Simulation::with_config(Config {
        cores: 4,
        ..Config::default()
    });
    let sim_log = s.block_on(net_echo_script()).unwrap();
    let rt = Runtime::new(3);
    let thr_log = rt.block_on(net_echo_script());
    rt.shutdown();
    assert_eq!(sim_log, thr_log, "rdt delivery differs between backends");
}

/// A tiny KV service over correlation-id RPC; returns every response.
async fn net_rpc_script() -> Vec<Option<u64>> {
    use chanos::net::{connect, listen, Cluster, ClusterParams, NodeId, RpcClient, SerdeCost};
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};
    let cl = Cluster::new(ClusterParams::default());
    let listener = listen(&cl.iface(NodeId(1)), 80, eq_rdt_params()).unwrap();
    chanos::rt::spawn_daemon("eq-kv-server", async move {
        let conn = listener.accept().await.unwrap();
        let store = Arc::new(Mutex::new(BTreeMap::<String, u64>::new()));
        chanos::net::serve(
            conn,
            SerdeCost::default(),
            move |(key, val): (String, u64)| {
                let store = Arc::clone(&store);
                async move {
                    let mut st = chanos::rt::plock(&store);
                    if val == 0 {
                        st.get(&key).copied()
                    } else {
                        st.insert(key, val)
                    }
                }
            },
        )
        .await;
    });
    let conn = connect(&cl.iface(NodeId(0)), NodeId(1), 80, eq_rdt_params())
        .await
        .expect("connect");
    let client: RpcClient<(String, u64), Option<u64>> = RpcClient::new(conn, SerdeCost::default());
    let mut out = Vec::new();
    out.push(client.call(&("a".into(), 0)).await.unwrap());
    out.push(client.call(&("a".into(), 5)).await.unwrap());
    out.push(client.call(&("a".into(), 0)).await.unwrap());
    out.push(client.call(&("b".into(), 9)).await.unwrap());
    out.push(client.call(&("a".into(), 7)).await.unwrap());
    out.push(client.call(&("b".into(), 0)).await.unwrap());
    client.finish();
    out
}

#[test]
fn net_rpc_round_trip_equivalent_on_both_backends() {
    let mut s = Simulation::with_config(Config {
        cores: 4,
        ..Config::default()
    });
    let sim_out = s.block_on(net_rpc_script()).unwrap();
    assert_eq!(
        sim_out,
        vec![None, None, Some(5), None, Some(5), Some(9)],
        "rpc semantics wrong on sim"
    );
    let rt = Runtime::new(3);
    let thr_out = rt.block_on(net_rpc_script());
    rt.shutdown();
    assert_eq!(sim_out, thr_out, "rpc responses differ between backends");
}

// ---------------------------------------------------------------------------
// VM: map / fault / unmap across every granularity.
// ---------------------------------------------------------------------------

/// Scripted single-client VM life cycle; every observable formatted.
/// (Single client => frame allocation order is deterministic, so pfn
/// values compare equal across backends; post-unmap recycling order
/// is not scripted, so only counts and presence are observed there.)
async fn vm_script(g: chanos::vm::Granularity) -> Vec<String> {
    use chanos::rt::CoreId;
    use chanos::vm::{VmCfg, VmService, PAGE_SIZE};
    let vm = VmService::start(VmCfg {
        granularity: g,
        fault_work: 100,
        frames: 64,
        service_cores: vec![CoreId(0), CoreId(1)],
        thread_spawn_cost: 100,
    });
    let space = vm.create_space(1);
    let mut log = Vec::new();
    log.push(format!(
        "map0:{:?}",
        space.map_region(0, 8 * PAGE_SIZE).await
    ));
    log.push(format!(
        "map1:{:?}",
        space.map_region(0x10_0000, 4 * PAGE_SIZE).await
    ));
    for p in 0..8 {
        log.push(format!("touch0.{p}:{:?}", space.touch(p * PAGE_SIZE).await));
    }
    for p in 0..4 {
        log.push(format!(
            "touch1.{p}:{:?}",
            space.touch(0x10_0000 + p * PAGE_SIZE).await
        ));
    }
    log.push(format!("resolve:{:?}", space.resolve(2 * PAGE_SIZE).await));
    log.push(format!("bad:{:?}", space.touch(0x90_0000).await));
    // Partial overlap: the 8-page region is not fully inside a 4-page
    // range, so nothing is torn down — identical at every
    // granularity (the unit of unmap is the mapped region).
    log.push(format!(
        "unmap-partial:{:?}",
        space.unmap(0, 4 * PAGE_SIZE).await
    ));
    log.push(format!(
        "resolve-partial-some:{}",
        matches!(space.resolve(PAGE_SIZE).await, Ok(Some(_)))
    ));
    log.push(format!("unmap:{:?}", space.unmap(0, 8 * PAGE_SIZE).await));
    log.push(format!(
        "resolve-after:{:?}",
        space.resolve(2 * PAGE_SIZE).await
    ));
    log.push(format!(
        "touch-after-err:{}",
        space.touch(2 * PAGE_SIZE).await.is_err()
    ));
    log.push(format!(
        "resolve1-some:{}",
        matches!(space.resolve(0x10_0000).await, Ok(Some(_)))
    ));
    log.push(format!("frames:{:?}", vm.frames().stats().await));
    log
}

#[test]
fn vm_map_fault_unmap_equivalent_across_granularities() {
    use chanos::vm::Granularity;
    for g in [
        Granularity::Centralized,
        Granularity::PerSpace,
        Granularity::PerRegion,
        Granularity::PerPage,
    ] {
        let mut s = Simulation::with_config(Config {
            cores: 4,
            ..Config::default()
        });
        let sim_log = s.block_on(vm_script(g)).unwrap();
        // Spot-check absolute semantics once per granularity.
        assert!(
            sim_log.contains(&"unmap-partial:Ok(0)".to_string())
                && sim_log.contains(&"resolve-partial-some:true".to_string())
                && sim_log.contains(&"unmap:Ok(8)".to_string()),
            "{g:?}: {sim_log:?}"
        );
        assert!(sim_log.contains(&"resolve-after:Ok(None)".to_string()));
        assert!(sim_log.contains(&"touch-after-err:true".to_string()));
        assert!(
            sim_log.contains(&"frames:(4, 64)".to_string()),
            "8 of 12 frames must return to the allocator: {sim_log:?}"
        );
        let rt = Runtime::new(3);
        let thr_log = rt.block_on(vm_script(g));
        rt.shutdown();
        assert_eq!(
            sim_log, thr_log,
            "VM observables differ between backends at {g:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Proto: monitored sessions must flag the same violations everywhere.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum PReq {
    Read(u64),
    Write(u64),
    Close,
}
impl chanos::proto::Tagged for PReq {
    fn tag(&self) -> &'static str {
        match self {
            PReq::Read(_) => "Read",
            PReq::Write(_) => "Write",
            PReq::Close => "Close",
        }
    }
}
#[derive(Debug, PartialEq)]
enum PResp {
    Data(u64),
}
impl chanos::proto::Tagged for PResp {
    fn tag(&self) -> &'static str {
        "Data"
    }
}

/// Drives a monitored session through one of each violation class and
/// a conforming conversation; logs everything observable except the
/// session id (ids are allocation-order-dependent on threads).
async fn proto_script() -> Vec<String> {
    use chanos::proto::{rpc_loop, session, MonRecvError, MonSendError};
    use chanos::rt::Capacity;
    let proto = rpc_loop("disk", "Read", "Data", Some("Close"));
    let (client, server) = session::<PReq, PResp>(&proto, Capacity::Bounded(4));
    chanos::rt::spawn_daemon("eq-proto-server", async move {
        loop {
            match server.recv().await {
                Ok(PReq::Read(b)) => {
                    if server.send(PResp::Data(b + 1)).await.is_err() {
                        break;
                    }
                }
                Ok(PReq::Close) | Err(MonRecvError::Closed) => break,
                Ok(other) => panic!("unexpected {other:?}"),
                Err(e) => panic!("server violation: {e:?}"),
            }
        }
    });
    let mut log = Vec::new();
    // 1. Wrong message: rejected before the wire.
    match client.send(PReq::Write(3)).await {
        Err(MonSendError::Violation { value, info }) => log.push(format!(
            "wrong-msg: value={value:?} tag={} dir={:?} state={}",
            info.tag, info.dir, info.state_name
        )),
        other => log.push(format!("wrong-msg: UNEXPECTED {other:?}")),
    }
    // 2. A legal round trip still works on the same session.
    client.send(PReq::Read(10)).await.unwrap();
    log.push(format!("reply: {:?}", client.recv().await.unwrap()));
    // 3. Out of order: a second Read while awaiting Data.
    client.send(PReq::Read(1)).await.unwrap();
    match client.send(PReq::Read(2)).await {
        Err(MonSendError::Violation { info, .. }) => {
            log.push(format!("ooo: state={}", info.state_name))
        }
        other => log.push(format!("ooo: UNEXPECTED {other:?}")),
    }
    log.push(format!("reply2: {:?}", client.recv().await.unwrap()));
    // 4. Premature close rejected; Close-then-close accepted.
    client.send(PReq::Read(5)).await.unwrap();
    let _ = client.recv().await.unwrap();
    client.send(PReq::Close).await.unwrap();
    log.push(format!("close-ok: {}", client.close().is_ok()));
    log
}

#[test]
fn proto_monitor_violations_identical_on_both_backends() {
    let mut s = Simulation::with_config(Config {
        cores: 4,
        ..Config::default()
    });
    let sim_log = s.block_on(proto_script()).unwrap();
    assert!(
        sim_log[0].contains("tag=Write") && sim_log[0].contains("dir=Send"),
        "{sim_log:?}"
    );
    let rt = Runtime::new(3);
    let thr_log = rt.block_on(proto_script());
    rt.shutdown();
    assert_eq!(sim_log, thr_log, "monitor verdicts differ between backends");
}

/// A read is a snapshot. The blocks a read is answered with are shared
/// with the cache and never changed — a write installs new ones — so a
/// write to the same block after the answer reaches neither the bytes
/// a process has copied out nor the ones a holder of the answer has yet
/// to copy.
async fn snapshot_script() -> Vec<Vec<u8>> {
    let os = boot(cfg()).await;
    let ino = os.vfs.create("/snap").await.expect("create");
    os.vfs.write(ino, 0, &[1; 4096]).await.expect("write");
    let env = os.procs.env();
    let fd = env.open("/snap").await.expect("open");
    let copied = env.read(fd, 4096).await.expect("read");
    let held = os.vfs.read_shared(ino, 0, 4096).await.expect("read");
    os.vfs.write(ino, 0, &[2; 4096]).await.expect("whole block");
    os.vfs
        .write(ino, 100, &[3; 8])
        .await
        .expect("part of a block");
    let now = os.vfs.read(ino, 0, 4096).await.expect("read");
    vec![copied, held.copy_out().await, now]
}

#[test]
fn a_read_keeps_its_bytes_through_a_later_write_on_both_backends() {
    let mut now = vec![2; 4096];
    now[100..108].fill(3);
    let expected = vec![vec![1; 4096], vec![1; 4096], now];
    let mut s = Simulation::with_config(Config {
        cores: 6,
        ..Config::default()
    });
    assert_eq!(s.block_on(snapshot_script()).unwrap(), expected, "sim");
    let rt = Runtime::new(3);
    let threads = rt.block_on(snapshot_script());
    rt.shutdown();
    assert_eq!(threads, expected, "threads");
}

// ---------------------------------------------------------------------------
// Disk: the threads backend must do real file I/O.
// ---------------------------------------------------------------------------

#[test]
fn threads_kernel_hits_the_file_backed_disk() {
    let rt = Runtime::new(3);
    let (file_writes, io_errors, data) = rt.block_on(async {
        let os = boot(cfg()).await;
        os.vfs.mkdir("/disk").await.unwrap();
        let env = os.procs.env();
        let fd = env.create("/disk/real").await.unwrap();
        env.write(fd, &[0xAB; 8192]).await.unwrap();
        env.close(fd).await.unwrap();
        let fd = env.open("/disk/real").await.unwrap();
        let data = env.read(fd, 8192).await.unwrap();
        env.close(fd).await.unwrap();
        (
            chanos::rt::stat_get("disk.file_writes"),
            chanos::rt::stat_get("disk.io_errors"),
            data,
        )
    });
    rt.shutdown();
    assert_eq!(data, vec![0xAB; 8192]);
    assert!(
        file_writes > 0,
        "the threads kernel must write through the real file-backed device"
    );
    assert_eq!(io_errors, 0, "no real-I/O errors expected");
}

// ---------------------------------------------------------------------------
// Typed IPC ports: pipelined call semantics identical on both backends.
// ---------------------------------------------------------------------------

mod port_equiv {
    use super::*;
    use chanos::rt::{self as rt, port_channel, CallError, Capacity, ReplyTo};

    enum EchoReq {
        Double(u64, ReplyTo<u64>),
        DropReply(ReplyTo<u64>),
    }

    /// Issues two pipelined calls; the server holds the first reply
    /// back until both requests have arrived and answers them in
    /// *reverse* order — completions decouple from submissions.
    async fn pipelined_script() -> Vec<u64> {
        let (port, rx) = port_channel::<EchoReq>(Capacity::Unbounded);
        rt::spawn(async move {
            let mut held = Vec::new();
            while held.len() < 2 {
                match rx.recv().await {
                    Ok(m) => held.push(m),
                    Err(_) => return,
                }
            }
            for m in held.into_iter().rev() {
                if let EchoReq::Double(x, reply) = m {
                    let _ = reply.send(x * 2).await;
                }
            }
        });
        let first = port.call(|r| EchoReq::Double(3, r));
        let second = port.call(|r| EchoReq::Double(10, r));
        // Await in issue order even though replies arrive reversed.
        vec![first.await.unwrap(), second.await.unwrap()]
    }

    #[test]
    fn pipelined_calls_complete_out_of_order_on_both_backends() {
        let mut s = Simulation::new(4);
        let sim_out = s.block_on(pipelined_script()).unwrap();
        let rt = Runtime::new(2);
        let thr_out = rt.block_on(pipelined_script());
        rt.shutdown();
        assert_eq!(sim_out, vec![6, 20]);
        assert_eq!(sim_out, thr_out);
    }

    /// A `call_batch` burst on an unbounded port reaches the server
    /// in submission order (per-client FIFO).
    async fn batch_fifo_script() -> Vec<u64> {
        let (port, rx) = port_channel::<EchoReq>(Capacity::Unbounded);
        rt::spawn(async move {
            let mut arrival = 0u64;
            while let Ok(EchoReq::Double(x, reply)) = rx.recv().await {
                arrival += 1;
                let _ = reply.send(x * 1000 + arrival).await;
            }
        });
        let calls = port.call_batch((0..8u64).map(|i| move |r| EchoReq::Double(i, r)));
        let mut out = Vec::new();
        for c in calls {
            out.push(c.await.unwrap());
        }
        out
    }

    #[test]
    fn call_batch_is_fifo_per_client_on_both_backends() {
        let expect: Vec<u64> = (0..8).map(|i| i * 1000 + i + 1).collect();
        let mut s = Simulation::new(4);
        assert_eq!(s.block_on(batch_fifo_script()).unwrap(), expect);
        let rt = Runtime::new(2);
        assert_eq!(rt.block_on(batch_fifo_script()), expect);
        rt.shutdown();
    }

    /// The error taxonomy: a dead server is `ServerGone`; a live
    /// server dropping one reply is `Cancelled`.
    async fn taxonomy_script() -> (Result<u64, CallError>, Result<u64, CallError>) {
        let (gone, rx) = port_channel::<EchoReq>(Capacity::Unbounded);
        drop(rx);
        let gone_out = gone.call(|r| EchoReq::Double(1, r)).await;
        let (port, rx) = port_channel::<EchoReq>(Capacity::Unbounded);
        rt::spawn(async move {
            while let Ok(m) = rx.recv().await {
                match m {
                    EchoReq::DropReply(reply) => drop(reply),
                    EchoReq::Double(x, reply) => {
                        let _ = reply.send(x).await;
                    }
                }
            }
        });
        let cancelled_out = port.call(EchoReq::DropReply).await;
        // The server is still alive and serving after the drop.
        assert_eq!(port.call(|r| EchoReq::Double(7, r)).await, Ok(7));
        (gone_out, cancelled_out)
    }

    #[test]
    fn server_drop_reports_server_gone_not_cancelled_on_both_backends() {
        let expect = (Err(CallError::ServerGone), Err(CallError::Cancelled));
        let mut s = Simulation::new(4);
        assert_eq!(s.block_on(taxonomy_script()).unwrap(), expect);
        let rt = Runtime::new(2);
        assert_eq!(rt.block_on(taxonomy_script()), expect);
        rt.shutdown();
    }

    /// Dropping a held `Call` is a counted cancellation, and the
    /// server keeps running (its reply just fails cleanly).
    async fn cancel_count_script() -> (u64, u64) {
        let before = rt::stat_get("port.calls_cancelled");
        let (port, rx) = port_channel::<EchoReq>(Capacity::Unbounded);
        rt::spawn(async move {
            while let Ok(EchoReq::Double(x, reply)) = rx.recv().await {
                let _ = reply.send(x).await;
            }
        });
        let dropped = port.call(|r| EchoReq::Double(1, r));
        drop(dropped);
        let kept = port.call(|r| EchoReq::Double(2, r)).await.unwrap();
        (rt::stat_get("port.calls_cancelled") - before, kept)
    }

    #[test]
    fn dropped_call_is_counted_as_cancellation_on_both_backends() {
        let mut s = Simulation::new(4);
        assert_eq!(s.block_on(cancel_count_script()).unwrap(), (1, 2));
        let rt = Runtime::new(2);
        assert_eq!(rt.block_on(cancel_count_script()), (1, 2));
        rt.shutdown();
    }

    /// The server dying mid-burst must not silently clear a buffered
    /// submit: every unsent request is counted, and every call in the
    /// burst deterministically resolves `ServerGone`.
    async fn submit_to_dead_server_script() -> (Vec<Result<u64, CallError>>, u64) {
        let before = rt::stat_get("port.calls_dropped_at_submit");
        let (port, rx) = port_channel::<EchoReq>(Capacity::Unbounded);
        drop(rx);
        let mut buf = std::collections::VecDeque::new();
        let calls: Vec<_> = (0..3u64)
            .map(|i| port.call_deferred(&mut buf, move |r| EchoReq::Double(i, r)))
            .collect();
        port.submit(&mut buf);
        let mut out = Vec::new();
        for c in calls {
            out.push(c.await);
        }
        (out, rt::stat_get("port.calls_dropped_at_submit") - before)
    }

    #[test]
    fn submit_counts_requests_dropped_at_a_dead_server_on_both_backends() {
        let expect = (vec![Err(CallError::ServerGone); 3], 3);
        let mut s = Simulation::new(4);
        assert_eq!(s.block_on(submit_to_dead_server_script()).unwrap(), expect);
        let rt = Runtime::new(2);
        assert_eq!(rt.block_on(submit_to_dead_server_script()), expect);
        rt.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Port deadlines: the timeout resolves inside the call's own poll, with
// the same taxonomy on both backends.
// ---------------------------------------------------------------------------

mod deadline_equiv {
    use super::*;
    use chanos::rt::{self as rt, port_channel, CallError, Capacity, ReplyTo};

    enum SlowReq {
        Echo(u64, ReplyTo<u64>),
        /// Accepted by the server but never answered (the reply
        /// endpoint is parked, not dropped).
        Stall(ReplyTo<u64>),
    }

    /// One answered call under a generous deadline, then two stalled
    /// calls under a tight one, the second through a clone of the port.
    async fn deadline_script() -> Vec<Result<u64, CallError>> {
        let before = rt::stat_get("port.calls_timed_out");
        let (port, rx) = port_channel::<SlowReq>(Capacity::Unbounded);
        rt::spawn_daemon("deadline-server", async move {
            let mut parked = Vec::new();
            while let Ok(m) = rx.recv().await {
                match m {
                    SlowReq::Echo(x, reply) => {
                        let _ = reply.send(x + 1).await;
                    }
                    SlowReq::Stall(reply) => parked.push(reply),
                }
            }
        });
        let mut out = Vec::new();
        // An answer that beats the deadline is an ordinary Ok.
        out.push(port.call_timeout(50_000_000, |r| SlowReq::Echo(5, r)).await);
        // A never-answered call resolves TimedOut from its own poll.
        out.push(port.call_timeout(10_000, SlowReq::Stall).await);
        // A clone times out the same way, and both are counted.
        out.push(port.clone().call_timeout(10_000, SlowReq::Stall).await);
        assert_eq!(rt::stat_get("port.calls_timed_out") - before, 2);
        out
    }

    #[test]
    fn call_deadlines_equivalent_on_both_backends() {
        let expect = vec![Ok(6), Err(CallError::TimedOut), Err(CallError::TimedOut)];
        let mut s = Simulation::new(4);
        assert_eq!(s.block_on(deadline_script()).unwrap(), expect);
        assert_eq!(s.stats().counter("port.calls_timed_out"), 2);
        let rt = Runtime::new(2);
        assert_eq!(rt.block_on(deadline_script()), expect);
        rt.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Batch-aware servers: the disk driver elevator-sorts drained bursts
// and the message-passing cache groups lookups per shard — observable
// through the same counters on both backends.
// ---------------------------------------------------------------------------

mod batch_aware_equiv {
    use super::*;
    use chanos::drivers::{install_disk, spawn_disk_driver, DiskParams, BLOCK_SIZE};
    use chanos::vfs::CacheClient;

    /// Issues one 8-deep burst of reads in seek-hostile (alternating
    /// low/high LBA) order; returns the counters the sort must move.
    async fn elevator_script(dev: CoreId) -> (u64, u64) {
        let sorted0 = chanos::rt::stat_get("disk.bursts_sorted");
        let saved0 = chanos::rt::stat_get("disk.seek_distance_saved");
        let (hw, irq) = install_disk(128, DiskParams::default(), dev);
        let disk = spawn_disk_driver(hw, irq, CoreId(1));
        let lbas = [0u64, 100, 10, 90, 20, 80, 30, 70];
        for r in disk.read_batch(&lbas).await {
            r.expect("read ok");
        }
        (
            chanos::rt::stat_get("disk.bursts_sorted") - sorted0,
            chanos::rt::stat_get("disk.seek_distance_saved") - saved0,
        )
    }

    #[test]
    fn burst_is_elevator_sorted_on_both_backends() {
        let mut s = Simulation::new(4);
        let dev = s.add_device_core();
        let (sim_sorted, sim_saved) = s.block_on(elevator_script(dev)).unwrap();
        assert!(sim_sorted >= 1, "sim: no burst was sorted");
        assert!(sim_saved > 0, "sim: sort saved no head travel");
        let rt = Runtime::new(2);
        let (thr_sorted, thr_saved) = rt.block_on(elevator_script(CoreId(0)));
        rt.shutdown();
        assert!(thr_sorted >= 1, "threads: no burst was sorted");
        assert!(thr_saved > 0, "threads: sort saved no head travel");
    }

    /// Writes eight patterned blocks, then reads them back as one
    /// shuffled burst; returns the blocks in request order and the
    /// `disk.reads` / `disk.file_reads` the burst cost. The burst is
    /// submitted from a task pinned to the driver's core, so on either
    /// backend the driver cannot look at its queue before all eight
    /// are in it. The store is the backend's own: memory on the
    /// simulator, the image file on threads.
    async fn merged_burst_script(dev: CoreId) -> (Vec<Vec<u8>>, u64, u64) {
        let (hw, irq) = install_disk(128, DiskParams::default(), dev);
        let disk = spawn_disk_driver(hw, irq, CoreId(1));
        let image: Vec<u8> = (0..8u8).flat_map(|i| vec![i + 1; BLOCK_SIZE]).collect();
        disk.write(0, image).await.expect("write ok");
        let reads0 = chanos::rt::stat_get("disk.reads");
        let preads0 = chanos::rt::stat_get("disk.file_reads");
        let burst = chanos::rt::spawn_on(CoreId(1), async move {
            disk.read_batch(&[5, 2, 7, 0, 3, 6, 1, 4]).await
        });
        let blocks = burst.join().await.expect("burst task");
        (
            blocks.into_iter().map(|b| b.expect("read ok")).collect(),
            chanos::rt::stat_get("disk.reads") - reads0,
            chanos::rt::stat_get("disk.file_reads") - preads0,
        )
    }

    #[test]
    fn adjacent_burst_is_one_command_on_both_backends() {
        let mut s = Simulation::new(4);
        let dev = s.add_device_core();
        let (sim_blocks, sim_reads, sim_preads) = s.block_on(merged_burst_script(dev)).unwrap();
        for (lba, block) in [5u8, 2, 7, 0, 3, 6, 1, 4].iter().zip(&sim_blocks) {
            assert!(block.iter().all(|&b| b == lba + 1), "sim: block {lba}");
        }
        assert_eq!(sim_reads, 1, "sim: eight adjacent reads, one command");
        assert_eq!(sim_preads, 0, "sim: the store is memory");
        let rt = Runtime::new(2);
        let (thr_blocks, thr_reads, thr_preads) = rt.block_on(merged_burst_script(CoreId(0)));
        rt.shutdown();
        assert_eq!(thr_blocks, sim_blocks, "the backends read different bytes");
        assert_eq!(thr_reads, sim_reads, "threads: not the same commands");
        assert_eq!(thr_preads, 1, "threads: one pread for the whole run");
    }

    /// Writes distinct patterns to 8 blocks over 4 shards, then fetches
    /// them with one `read_many`.
    async fn read_many_script(dev: CoreId) -> Vec<chanos::vfs::Block> {
        let (hw, irq) = install_disk(128, DiskParams::default(), dev);
        let disk = spawn_disk_driver(hw, irq, CoreId(1));
        let cache = CacheClient::spawn(disk, 4, 64, &[CoreId(0), CoreId(1)]);
        let lbas: Vec<u64> = (0..8u64).collect();
        for &lba in &lbas {
            chanos::vfs::BlockStore::write_block(&cache, lba, vec![lba as u8 + 1; BLOCK_SIZE])
                .await
                .expect("write ok");
        }
        cache.read_many(&lbas).await.expect("read_many ok")
    }

    #[test]
    fn read_many_answers_every_block_in_request_order_on_both_backends() {
        let check = |blocks: Vec<chanos::vfs::Block>, tag: &str| {
            assert_eq!(blocks.len(), 8, "{tag}: wrong block count");
            for (i, b) in blocks.iter().enumerate() {
                assert!(
                    b.iter().all(|&x| x == i as u8 + 1),
                    "{tag}: block {i} answered in the wrong slot"
                );
            }
        };
        let mut s = Simulation::new(4);
        let dev = s.add_device_core();
        check(s.block_on(read_many_script(dev)).unwrap(), "sim");
        let rt = Runtime::new(2);
        check(rt.block_on(read_many_script(CoreId(0))), "threads");
        rt.shutdown();
    }

    /// Four tasks, each reading and writing sixteen blocks of its own
    /// through one cache of four shards with eight blocks each, so
    /// that fills, evictions and write-backs of different tasks
    /// overlap on every shard while each task's answers depend on its
    /// own writes alone. Returns what each task read and the volume
    /// after a `sync`.
    async fn small_cache_storm_script(dev: CoreId) -> (Vec<Vec<String>>, Vec<Vec<u8>>) {
        use chanos::vfs::BlockStore;
        const TASKS: u64 = 4;
        const OWN: u64 = 16;
        let (hw, irq) = install_disk(128, DiskParams::default(), dev);
        let disk = spawn_disk_driver(hw.clone(), irq, CoreId(1));
        let cache = CacheClient::spawn(disk, 4, 8, &[CoreId(0), CoreId(1)]);
        let storm = |t: u64| {
            let cache = cache.clone();
            chanos::rt::spawn(async move {
                let mut g = chanos::rt::Pcg32::new(0xCAC4E + t);
                let mut model = vec![0u8; OWN as usize];
                let mut log = Vec::new();
                for _ in 0..150 {
                    let i = g.index(OWN as usize);
                    let lba = t * OWN + i as u64;
                    match g.index(4) {
                        0 | 1 => {
                            model[i] = g.next_u64() as u8;
                            let block = vec![model[i]; BLOCK_SIZE];
                            cache.write_block(lba, block).await.expect("write ok");
                        }
                        2 => {
                            let block = cache.read_block(lba).await.expect("read ok");
                            assert!(block.iter().all(|&b| b == model[i]), "block {lba}");
                            log.push(format!("{lba}={}", block[0]));
                        }
                        _ => {
                            let lbas = [lba, t * OWN, t * OWN + (i as u64 + 5) % OWN];
                            let blocks = cache.read_many(&lbas).await.expect("read_many ok");
                            let firsts: Vec<u8> = blocks.iter().map(|b| b[0]).collect();
                            log.push(format!("{lbas:?}={firsts:?}"));
                        }
                    }
                }
                log
            })
        };
        let tasks: Vec<_> = (0..TASKS).map(storm).collect();
        let mut logs = Vec::new();
        for task in tasks {
            logs.push(task.join().await.expect("storm task"));
        }
        cache.sync().await.expect("sync ok");
        let volume = (0..TASKS * OWN).map(|lba| hw.peek_block(lba)).collect();
        (logs, volume)
    }

    #[test]
    fn small_cache_storm_identical_on_both_backends() {
        let mut s = Simulation::new(4);
        let dev = s.add_device_core();
        let on_sim = s.block_on(small_cache_storm_script(dev)).unwrap();
        let rt = Runtime::new(2);
        let (on_threads, file_writes) = rt.block_on(async {
            let out = small_cache_storm_script(CoreId(0)).await;
            (out, chanos::rt::stat_get("disk.file_writes"))
        });
        rt.shutdown();
        assert_eq!(on_sim.0, on_threads.0, "a task read something else");
        assert!(on_sim.1 == on_threads.1, "the volumes differ");
        assert!(s.stats().counter("cache.writebacks") > 64, "few evictions");
        assert!(
            file_writes > 0,
            "threads: write-backs missed the image file"
        );
    }
}

// ---------------------------------------------------------------------------
// ReplyBatch: a burst is answered by the same server code on both
// backends — sent where produced on the simulator, one wake per peer
// per flush on threads — whatever the server does between two answers.
// ---------------------------------------------------------------------------

mod reply_batch_equiv {
    use super::*;
    use chanos::kernel::{Fd, Pid};
    use chanos::rt::{
        self as rt, join2, join_all, port_channel, race, CallError, Capacity, Either, Receiver,
        ReplyBatch, ReplyTo,
    };

    const BURST: u64 = 8;

    /// Two response types in one burst.
    enum MixedReq {
        Double(u64, ReplyTo<u64>),
        Name(u64, ReplyTo<String>),
    }

    /// Collects a whole burst of [`BURST`] calls, then answers it in
    /// arrival order, waiting between every two answers. `batched`
    /// answers through a [`ReplyBatch`]; the other spelling is the
    /// reference, `reply.send(v).await`.
    async fn mixed_server(rx: Receiver<MixedReq>, batched: bool) {
        let mut burst = Vec::new();
        let mut replies = ReplyBatch::default();
        loop {
            while burst.len() < BURST as usize {
                if rx.recv_many(&mut burst, BURST as usize).await == 0 {
                    return;
                }
            }
            for req in burst.drain(..) {
                match (req, batched) {
                    (MixedReq::Double(x, reply), true) => replies.send(reply, 2 * x),
                    (MixedReq::Name(x, reply), true) => replies.send(reply, format!("n{x}")),
                    (MixedReq::Double(x, reply), false) => {
                        let _ = reply.send(2 * x).await;
                    }
                    (MixedReq::Name(x, reply), false) => {
                        let _ = reply.send(format!("n{x}")).await;
                    }
                }
                rt::delay(40).await;
            }
            replies.flush();
        }
    }

    /// One client, `rounds` bursts of 8 outstanding calls, alternating
    /// the two response types; parked on all 8 while they are answered.
    async fn mixed_script(batched: bool, rounds: usize) -> Vec<(Vec<u64>, Vec<String>)> {
        let (port, rx) = port_channel::<MixedReq>(Capacity::Unbounded);
        rt::spawn(mixed_server(rx, batched));
        let mut out = Vec::new();
        for _ in 0..rounds {
            let (mut doubles, mut names) = (Vec::new(), Vec::new());
            for i in 0..BURST {
                if i % 2 == 0 {
                    doubles.push(port.call(move |r| MixedReq::Double(i, r)));
                } else {
                    names.push(port.call(move |r| MixedReq::Name(i, r)));
                }
            }
            let (d, n) = join2(join_all(doubles), join_all(names)).await;
            out.push((
                d.into_iter().map(|r| r.expect("double")).collect(),
                n.into_iter().map(|r| r.expect("name")).collect(),
            ));
        }
        out
    }

    #[test]
    fn mixed_burst_with_awaits_between_answers_resolves_on_both_backends() {
        let expect = (
            vec![0, 4, 8, 12],
            ["n1", "n3", "n5", "n7"].map(String::from).to_vec(),
        );
        let on_sim = |batched: bool| {
            let mut s = Simulation::new(4);
            let out = s.block_on(mixed_script(batched, 3)).unwrap();
            (out, s.trace_hash())
        };
        let (sim_out, batched_trace) = on_sim(true);
        assert_eq!(sim_out, vec![expect.clone(); 3]);
        // Sent where produced: event for event the server written
        // with `reply.send(v).await`.
        let (reference_out, reference_trace) = on_sim(false);
        assert_eq!(sim_out, reference_out);
        assert_eq!(batched_trace, reference_trace);

        let rt = Runtime::new(2);
        let thr_out = rt.block_on(mixed_script(true, 100));
        let coalesced = rt.handle().stat_get("chan.reply_wakes_coalesced");
        rt.shutdown();
        assert_eq!(thr_out, vec![expect; 100]);
        assert!(
            coalesced > 0,
            "a client parked on 8 answers must be woken fewer than 8 times (got {coalesced})"
        );
    }

    /// Each round's server answers the `Double`s of a burst through a
    /// batch and returns without flushing it, dropping the `Name`s
    /// unanswered — a vnode reaped mid-burst. The `Double`s' caller is
    /// a task of its own, so nothing but the batch's `Drop` can wake
    /// it; the `Name`s' caller must see the server gone.
    async fn dropped_batch_script(rounds: usize) -> Vec<(Vec<u64>, Vec<CallError>)> {
        let mut out = Vec::new();
        for _ in 0..rounds {
            let (port, rx) = port_channel::<MixedReq>(Capacity::Unbounded);
            rt::spawn(async move {
                let mut burst = Vec::new();
                while burst.len() < BURST as usize {
                    if rx.recv_many(&mut burst, BURST as usize).await == 0 {
                        return;
                    }
                }
                rx.close();
                let mut replies = ReplyBatch::default();
                for req in burst.drain(..) {
                    if let MixedReq::Double(x, reply) = req {
                        replies.send(reply, 2 * x);
                        rt::delay(40).await;
                    }
                }
            });
            let names = port.clone();
            let refused = rt::spawn(async move {
                let calls = (0..BURST / 2).map(|i| names.call(move |r| MixedReq::Name(i, r)));
                join_all(calls.collect()).await
            });
            let calls = (0..BURST / 2).map(|i| port.call(move |r| MixedReq::Double(i, r)));
            let doubled = match race(join_all(calls.collect()), rt::sleep(20_000_000_000)).await {
                Either::Left(results) => results,
                Either::Right(()) => panic!("callers answered through a dropped batch never woke"),
            };
            let refused = refused.join().await.expect("names task");
            out.push((
                doubled.into_iter().map(|r| r.expect("double")).collect(),
                refused
                    .into_iter()
                    .map(|r| r.expect_err("name was answered"))
                    .collect(),
            ));
        }
        out
    }

    #[test]
    fn batch_dropped_unflushed_still_wakes_its_callers_on_both_backends() {
        let expect = (vec![0, 2, 4, 6], vec![CallError::ServerGone; 4]);
        let mut s = Simulation::new(4);
        assert_eq!(
            s.block_on(dropped_batch_script(3)).unwrap(),
            vec![expect.clone(); 3]
        );
        let rt = Runtime::new(2);
        let thr_out = rt.block_on(dropped_batch_script(100));
        rt.shutdown();
        assert_eq!(thr_out, vec![expect; 100]);
    }

    /// One submitted batch `[open, getpid, read, getpid, close]`: the
    /// kernel task answers it in order, so the read finds the fd the
    /// open installed, on both backends.
    async fn mixed_syscall_batch_script() -> (Vec<String>, u64) {
        let os = boot(cfg()).await;
        let env = os.procs.env();
        let fd = env.create("/mixed").await.expect("create");
        env.write(fd, b"in arrival order").await.expect("write");
        env.close(fd).await.expect("close");
        // Fd numbers are per process and never reused.
        let next = Fd(fd.0 + 1);
        let before = rt::stat_get("kernel.syscalls");
        let mut b = env.batch();
        let opened = b.open("/mixed");
        let pid1 = b.getpid();
        let data = b.read(next, 5);
        let pid2 = b.getpid();
        let closed = b.close(next);
        b.submit().await;
        let results = vec![
            format!("{:?}", opened.await),
            format!("{:?}", pid1.await),
            format!("{:?}", data.await),
            format!("{:?}", pid2.await),
            format!("{:?}", closed.await),
        ];
        assert_eq!(
            results[0],
            format!("{:?}", Ok::<_, CallError>(Ok::<_, KError>(next)))
        );
        assert_eq!(results[1], format!("{:?}", Ok::<Pid, CallError>(env.pid)));
        (results, rt::stat_get("kernel.syscalls") - before)
    }

    #[test]
    fn mixed_syscall_batch_is_answered_in_order_on_both_backends() {
        let mut s = Simulation::with_config(Config {
            cores: 6,
            ..Config::default()
        });
        let (sim_out, sim_syscalls) = s.block_on(mixed_syscall_batch_script()).unwrap();
        let rt = Runtime::new(3);
        let (thr_out, thr_syscalls) = rt.block_on(mixed_syscall_batch_script());
        rt.shutdown();
        assert_eq!(
            sim_out[2],
            format!(
                "{:?}",
                Ok::<_, CallError>(Ok::<_, KError>(b"in ar".to_vec()))
            )
        );
        assert_eq!(sim_out, thr_out);
        assert_eq!((sim_syscalls, thr_syscalls), (5, 5));
    }
}

// ---------------------------------------------------------------------------
// MsgFs reply-wake coalescing: a pipelined vnode burst on the threads
// backend wakes the waiting client once per batch, not once per reply.
// ---------------------------------------------------------------------------

#[test]
fn vnode_stat_burst_coalesces_reply_wakes_on_threads() {
    let rt = Runtime::new(2);
    rt.block_on(async {
        let os = boot(cfg()).await;
        os.vfs.mkdir("/burst").await.unwrap();
        let env = os.procs.env();
        let fd = env.create("/burst/f").await.unwrap();
        env.write(fd, b"coalesce me").await.unwrap();
        env.close(fd).await.unwrap();
        let chanos::vfs::Vfs::Msg(fs) = &os.vfs else {
            panic!("message FS expected");
        };
        let ino = fs.lookup("/burst/f").await.unwrap();
        // Many pipelined bursts: each submits 8 Stat calls as one
        // message burst against the same vnode; the vnode drains them
        // with recv_many and answers them through one ReplyBatch.
        for _ in 0..200 {
            let stats = fs.stat_burst(ino, 8).await.unwrap();
            assert_eq!(stats.len(), 8);
            assert!(stats.iter().all(|s| s.size == 11));
        }
    });
    let coalesced = rt.handle().stat_get("chan.reply_wakes_coalesced");
    let submitted = rt.handle().stat_get("chan.send_many_msgs");
    rt.shutdown();
    assert!(
        coalesced > 0,
        "vnode reply bursts must coalesce same-client wakes (got {coalesced})"
    );
    assert!(
        submitted >= 8,
        "stat bursts must go through the batched submit path (got {submitted})"
    );
}

// ---------------------------------------------------------------------------
// Node replication: concurrent pid storms and vnmgr open/retire storms
// must give the answers a sequential run gives, on both backends, and
// replicated reads must take zero port round-trips on the fast path.
// ---------------------------------------------------------------------------

mod nr_equiv {
    use super::*;
    use std::sync::Arc;

    use chanos::kernel::{Os, Pid, PidTable};

    const W: usize = 3;
    const K: usize = 6;

    /// Concurrent pid register/lookup/free storm. Pid *values* depend
    /// on allocation interleaving, so the observables are per-worker
    /// answer sequences plus interleaving-independent aggregates (the
    /// final pid multiset, the final live count).
    async fn pid_storm(os: Arc<Os>) -> Vec<String> {
        let mut handles = Vec::new();
        for w in 0..W {
            let os = os.clone();
            handles.push(chanos::rt::spawn_on(CoreId(w as u32 % 2), async move {
                let mut obs = Vec::new();
                let mut pids = Vec::new();
                for k in 0..K {
                    let env = os
                        .procs
                        .alloc(&format!("w{w}k{k}"), CoreId(w as u32 % 2))
                        .await;
                    let alive = os.procs.alive(env.pid).await;
                    let named = os.procs.info(env.pid).await.map(|i| i.name);
                    let freed = os.procs.free(env.pid).await;
                    let dead = !os.procs.alive(env.pid).await;
                    obs.push(format!(
                        "w{w}k{k}: alive={alive} name={named:?} freed={freed} dead={dead}"
                    ));
                    pids.push(env.pid.0);
                }
                (obs, pids)
            }));
        }
        let mut log = Vec::new();
        let mut all_pids = Vec::new();
        for h in handles {
            let (obs, pids) = h.join().await.expect("pid storm worker");
            log.extend(obs);
            all_pids.extend(pids);
        }
        all_pids.sort_unstable();
        let expect: Vec<u32> = (1..=(W * K) as u32).collect();
        log.push(format!("pids contiguous: {}", all_pids == expect));
        log.push(format!("final live count: {}", os.procs.count().await));
        log
    }

    /// Concurrent vnmgr open/retire storm: each worker churns its own
    /// disjoint paths under a shared parent, so every per-step result
    /// is deterministic while the registry itself is hammered from
    /// all cores at once.
    async fn vnmgr_storm(os: Arc<Os>) -> Vec<String> {
        os.vfs.mkdir("/nr").await.expect("mkdir /nr");
        let mut handles = Vec::new();
        for w in 0..W {
            let os = os.clone();
            handles.push(chanos::rt::spawn_on(CoreId(w as u32 % 2), async move {
                let mut obs = Vec::new();
                for k in 0..K {
                    let path = format!("/nr/w{w}_{k}");
                    let ino = os.vfs.create(&path).await.expect("create");
                    let data = vec![w as u8 + 1; 64 + k];
                    let wrote = os.vfs.write(ino, 0, &data).await.is_ok();
                    let size = os.vfs.stat(ino).await.map(|s| s.size);
                    let relooked = os.vfs.lookup(&path).await == Ok(ino);
                    let gone = os.vfs.unlink(&path).await.is_ok();
                    obs.push(format!(
                        "w{w}k{k}: wrote={wrote} size={size:?} relooked={relooked} gone={gone}"
                    ));
                }
                obs
            }));
        }
        let mut log = Vec::new();
        for h in handles {
            log.extend(h.join().await.expect("vnmgr storm worker"));
        }
        let listing = os.vfs.readdir("/nr").await.expect("readdir");
        log.push(format!("final listing: {listing:?}"));
        log
    }

    fn storms_on_sim() -> Vec<String> {
        let mut s = Simulation::with_config(Config {
            cores: 6,
            ..Config::default()
        });
        s.block_on(async move {
            let os = Arc::new(boot(cfg()).await);
            let mut log = pid_storm(os.clone()).await;
            log.extend(vnmgr_storm(os).await);
            log
        })
        .unwrap()
    }

    fn storms_on_threads() -> Vec<String> {
        let rt = Runtime::new(3);
        let out = rt.block_on(async move {
            let os = Arc::new(boot(cfg()).await);
            let mut log = pid_storm(os.clone()).await;
            log.extend(vnmgr_storm(os).await);
            log
        });
        rt.shutdown();
        out
    }

    /// What the storms log when nothing interleaves: every worker
    /// sees its own process alive, named, freed and then dead, and its
    /// own file written, sized, found and then gone.
    fn sequential_answers() -> Vec<String> {
        let steps = || (0..W).flat_map(|w| (0..K).map(move |k| (w, k)));
        let mut log = Vec::new();
        for (w, k) in steps() {
            log.push(format!(
                "w{w}k{k}: alive=true name=Some(\"w{w}k{k}\") freed=true dead=true"
            ));
        }
        log.push("pids contiguous: true".to_string());
        log.push("final live count: 0".to_string());
        for (w, k) in steps() {
            log.push(format!(
                "w{w}k{k}: wrote=true size=Ok({}) relooked=true gone=true",
                64 + k
            ));
        }
        log.push("final listing: []".to_string());
        log
    }

    /// The replication contract: hammered from all cores at once, on
    /// either backend, the replicated services answer as a single
    /// sequential owner of the state would.
    #[test]
    fn replicated_storms_match_the_sequential_answers_on_both_backends() {
        let sim = storms_on_sim();
        assert_eq!(sim, sequential_answers(), "sim diverged");
        let threads = storms_on_threads();
        assert_eq!(threads, sequential_answers(), "threads diverged");
        assert_eq!(sim, threads, "backends diverged");
    }

    /// Zero-communication reads, proven with counters on the
    /// deterministic backend: N replicated pid reads bump
    /// `nr.local_reads` by exactly N while the simulator's channel
    /// traffic counters (`csp.sends` — every port call is at least
    /// one) do not move at all.
    #[test]
    fn replicated_reads_take_zero_port_round_trips() {
        const N: u64 = 500;
        let mut s = Simulation::with_config(Config {
            cores: 4,
            ..Config::default()
        });
        s.block_on(async {
            let cores: Vec<CoreId> = (0..2).map(CoreId).collect();
            let pids = PidTable::spawn(&cores);
            pids.register(Pid(7), "w", CoreId(0)).await;
            // Warm-up read: catches the local replica up to the tail.
            assert!(pids.alive(Pid(7)).await);
            let sends0 = chanos::rt::stat_get("csp.sends");
            let local0 = chanos::rt::stat_get("nr.local_reads");
            for _ in 0..N {
                assert!(pids.alive(Pid(7)).await);
            }
            assert_eq!(
                chanos::rt::stat_get("nr.local_reads") - local0,
                N,
                "every read must be served locally"
            );
            assert_eq!(
                chanos::rt::stat_get("csp.sends") - sends0,
                0,
                "replicated reads must move zero messages"
            );
        })
        .unwrap();
    }

    /// A read from a core that holds no replica is served from another
    /// core's replica: it is not a local read and is not counted as
    /// one.
    #[test]
    fn reads_from_a_core_without_a_replica_count_as_foreign() {
        const N: u64 = 100;
        let mut s = Simulation::with_config(Config {
            cores: 4,
            ..Config::default()
        });
        s.block_on(async {
            let cores: Vec<CoreId> = (0..2).map(CoreId).collect();
            let pids = PidTable::spawn(&cores);
            pids.register(Pid(7), "w", CoreId(0)).await;
            let local0 = chanos::rt::stat_get("nr.local_reads");
            let reads = |core: u32| {
                let pids = pids.clone();
                chanos::rt::spawn_on(CoreId(core), async move {
                    for _ in 0..N {
                        assert!(pids.alive(Pid(7)).await);
                    }
                })
            };
            reads(3).join().await.unwrap();
            assert_eq!(chanos::rt::stat_get("nr.foreign_reads"), N);
            assert_eq!(chanos::rt::stat_get("nr.local_reads"), local0);
            reads(1).join().await.unwrap();
            assert_eq!(chanos::rt::stat_get("nr.foreign_reads"), N);
            assert_eq!(chanos::rt::stat_get("nr.local_reads"), local0 + N);
        })
        .unwrap();
    }

    /// The same fast path exists on real threads: per-runtime nr.*
    /// counters show N local reads and an untouched log.
    #[test]
    fn replicated_reads_stay_local_on_threads() {
        const N: u64 = 500;
        let rt = Runtime::new(2);
        rt.block_on(async {
            let cores: Vec<CoreId> = (0..2).map(CoreId).collect();
            let pids = PidTable::spawn(&cores);
            pids.register(Pid(7), "w", CoreId(0)).await;
            assert!(pids.alive(Pid(7)).await);
            let local0 = chanos::rt::stat_get("nr.local_reads");
            let appends0 = chanos::rt::stat_get("nr.log_appends");
            for _ in 0..N {
                assert!(pids.alive(Pid(7)).await);
            }
            assert_eq!(chanos::rt::stat_get("nr.local_reads") - local0, N);
            assert_eq!(
                chanos::rt::stat_get("nr.log_appends") - appends0,
                0,
                "a read-only storm must not touch the log"
            );
        });
        rt.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Serving layer: the KV service, alone and under concurrent clients,
// and the priority contract must be backend-independent.
// ---------------------------------------------------------------------------

mod serve_equiv {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use chanos::drivers::{install_disk, spawn_disk_driver, DiskParams};
    use chanos::rt::{Pcg32, Priority};
    use chanos::serve::{spawn_file_server, spawn_kv, KvCfg, Zipf};

    /// A fixed-seed GET/SET/DEL storm over the sharded store, ops
    /// awaited in issue order so every response is deterministic;
    /// closes with a full batched sweep of the key space.
    async fn kv_script() -> Vec<String> {
        let kv = spawn_kv(KvCfg {
            shards: 3,
            priority: Priority::High,
        });
        let mut rng = Pcg32::new(0x5E4E);
        let mut log = Vec::new();
        for step in 0..200 {
            let key = rng.bounded(32);
            match rng.bounded(4) {
                0 => {
                    let len = 8 + rng.bounded(56) as usize;
                    log.push(format!(
                        "{step}: set {key} -> {:?}",
                        kv.set(key, vec![key as u8; len]).await
                    ));
                }
                1 => log.push(format!("{step}: del {key} -> {:?}", kv.del(key).await)),
                _ => log.push(format!(
                    "{step}: get {key} -> {:?}",
                    kv.get(key).await.map(|v| v.map(|v| v.len()))
                )),
            }
        }
        let keys: Vec<u64> = (0..32).collect();
        for (k, c) in keys.iter().zip(kv.get_many(&keys)) {
            log.push(format!(
                "final {k}: {:?}",
                c.await.map(|v| v.map(|v| v.len()))
            ));
        }
        log
    }

    #[test]
    fn kv_storm_identical_on_both_backends() {
        let mut s = Simulation::with_config(Config {
            cores: 4,
            ..Config::default()
        });
        let sim_log = s.block_on(kv_script()).unwrap();
        let sim_stats = s.block_on(async { chanos::rt::stat_snapshot() }).unwrap();
        let rt = Runtime::new(3);
        let thr_log = rt.block_on(kv_script());
        // The shards count a burst after answering it: let them exit.
        rt.wait_idle();
        let thr_stats = rt.block_on(async { chanos::rt::stat_snapshot() });
        rt.shutdown();
        assert_eq!(sim_log.len(), thr_log.len());
        for (i, (a, b)) in sim_log.iter().zip(&thr_log).enumerate() {
            assert_eq!(a, b, "KV observation {i} differs between backends");
        }

        // The snapshot is the same map on both backends. A name in a
        // registered family is itself registered — this, not the
        // lint's scan of literals, is what sees a computed name.
        let registry: Vec<&str> = include_str!("../crates/check/stat_registry.txt")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect();
        let family = |name: &str| name.split_once('.').map(|(f, _)| f.to_string());
        for (name, _) in sim_stats.iter().chain(&thr_stats) {
            let registered_family = registry.iter().any(|r| family(r) == family(name));
            assert!(
                !registered_family || registry.contains(&name.as_str()),
                "{name} is counted but not in crates/check/stat_registry.txt"
            );
        }
        // What the script asked for does not depend on the schedule.
        let read = |stats: &[(String, u64)], name: &str| {
            stats.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
        };
        for name in ["serve.kv_gets", "serve.kv_sets", "serve.kv_dels"] {
            let sim = read(&sim_stats, name);
            assert!(sim > Some(0), "{name} never counted on the simulator");
            assert_eq!(sim, read(&thr_stats, name), "{name} differs");
        }
        assert!(read(&thr_stats, "chan.fast_sends") > Some(0));
    }

    /// Three clients at once, each pipelining six bursts of sixteen
    /// zipf-keyed calls (every fourth a SET) without waiting for the
    /// others. A call that does not resolve `Ok` fails the script.
    async fn concurrent_bursts_script() {
        let kv = spawn_kv(KvCfg::default());
        let zipf = Arc::new(Zipf::new(500, 0.99));
        let clients: Vec<_> = (0..3u64)
            .map(|c| {
                let (kv, zipf) = (kv.clone(), zipf.clone());
                chanos::rt::spawn(async move {
                    let mut rng = Pcg32::with_stream(0x5EED, c + 1);
                    for _ in 0..6 {
                        let keys: Vec<u64> = (0..16).map(|_| zipf.sample(&mut rng)).collect();
                        let (set_keys, get_keys) = keys.split_at(4);
                        let pairs = set_keys.iter().map(|&k| (k, vec![c as u8; 64]));
                        let gets = kv.get_many(get_keys);
                        let sets = kv.set_many(pairs.collect());
                        for call in gets {
                            call.await.expect("get resolves");
                        }
                        for call in sets {
                            call.await.expect("set resolves");
                        }
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().await.expect("client survives");
        }
    }

    #[test]
    fn concurrent_kv_bursts_all_resolve_on_both_backends() {
        // `kv_storm…` awaits every call before the next; here the
        // bursts of three clients interleave in the shards' queues,
        // and what the shards count must still not depend on the
        // schedule.
        let served =
            || chanos::rt::stat_get("serve.kv_gets") + chanos::rt::stat_get("serve.kv_sets");
        let mut s = Simulation::with_config(Config {
            cores: 4,
            ..Config::default()
        });
        s.block_on(concurrent_bursts_script()).unwrap();
        let sim = s.block_on(async move { served() }).unwrap();
        let rt = Runtime::new(3);
        rt.block_on(concurrent_bursts_script());
        // The shards count a burst after answering it: let them exit.
        rt.wait_idle();
        let thr = rt.block_on(async move { served() });
        rt.shutdown();
        assert_eq!(sim, 3 * 6 * 16);
        assert_eq!(sim, thr, "the backends served different numbers of calls");
    }

    /// What file `i` of the file-server script holds: one to three
    /// blocks, a pattern of its own.
    fn served_body(i: usize) -> Vec<u8> {
        (0..10 + i % 8 * 1500).map(|j| (i * 7 + j) as u8).collect()
    }

    /// Three clients at once, each pipelining six bursts of eight
    /// zipf-picked GETs over 48 published files and one miss, so
    /// bursts are in flight together in the file server and their
    /// reads share the driver's queue. Every body is checked against
    /// what was published; returns the gets the server counted.
    async fn file_bursts_script(dev: CoreId) -> u64 {
        let gets0 = chanos::rt::stat_get("serve.file_gets");
        let (hw, irq) = install_disk(256, DiskParams::default(), dev);
        let disk = spawn_disk_driver(hw, irq, CoreId(1));
        let files = (0..48).map(|i| (format!("/f{i}"), served_body(i)));
        let srv = spawn_file_server(disk, files.collect(), Priority::Normal)
            .await
            .expect("publish");
        let zipf = Arc::new(Zipf::new(48, 0.99));
        let clients: Vec<_> = (0..3u64)
            .map(|c| {
                let (srv, zipf) = (srv.clone(), zipf.clone());
                chanos::rt::spawn(async move {
                    let mut rng = Pcg32::with_stream(0xF11E, c + 1);
                    for _ in 0..6 {
                        let picks: Vec<usize> =
                            (0..8).map(|_| zipf.sample(&mut rng) as usize).collect();
                        let gets: Vec<_> =
                            picks.iter().map(|i| srv.get(format!("/f{i}"))).collect();
                        let miss = srv.get("/missing");
                        for (i, call) in picks.iter().zip(gets) {
                            let body = call.await.expect("get resolves");
                            assert_eq!(body, Some(served_body(*i)), "/f{i}");
                        }
                        assert_eq!(miss.await.expect("miss resolves"), None);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().await.expect("client survives");
        }
        chanos::rt::stat_get("serve.file_gets") - gets0
    }

    #[test]
    fn concurrent_file_bursts_all_resolve_on_both_backends() {
        let mut s = Simulation::with_config(Config {
            cores: 4,
            ..Config::default()
        });
        let dev = s.add_device_core();
        let sim = s.block_on(file_bursts_script(dev)).unwrap();
        let rt = Runtime::new(3);
        let thr = rt.block_on(file_bursts_script(CoreId(0)));
        rt.shutdown();
        assert_eq!(sim, 3 * 6 * 9);
        assert_eq!(sim, thr, "the backends served different numbers of gets");
    }

    /// `spawn_with_priority` must make the class observable inside
    /// the task — at the first poll and across suspension points —
    /// on both backends.
    async fn priority_script() -> Vec<Priority> {
        let mut out = Vec::new();
        out.push(chanos::rt::current_priority());
        let h = chanos::rt::spawn_with_priority(Priority::High, async {
            let first = chanos::rt::current_priority();
            chanos::rt::sleep(10_000).await;
            (first, chanos::rt::current_priority())
        });
        let (first, after) = h.join().await.expect("high task ok");
        out.push(first);
        out.push(after);
        let h = chanos::rt::spawn(async { chanos::rt::current_priority() });
        out.push(h.join().await.expect("normal task ok"));
        out
    }

    #[test]
    fn spawn_with_priority_is_honored_on_both_backends() {
        use Priority::{High, Normal};
        let expect = vec![Normal, High, High, Normal];
        let mut s = Simulation::with_config(Config {
            cores: 2,
            ..Config::default()
        });
        assert_eq!(s.block_on(priority_script()).unwrap(), expect);
        let rt = Runtime::new(2);
        assert_eq!(rt.block_on(priority_script()), expect);
        rt.shutdown();
    }

    /// Spawns a 64-task flood, then one `High` task *last*; each task
    /// takes the next completion rank.
    fn spawn_flood_then_high() -> (
        Vec<chanos::rt::JoinHandle<u64>>,
        chanos::rt::JoinHandle<u64>,
    ) {
        let rank = Arc::new(AtomicU64::new(0));
        let mut flood = Vec::new();
        for _ in 0..64 {
            let r = rank.clone();
            flood.push(chanos::rt::spawn(async move {
                r.fetch_add(1, Ordering::AcqRel)
            }));
        }
        let high = chanos::rt::spawn_with_priority(Priority::High, async move {
            assert_eq!(chanos::rt::current_priority(), Priority::High);
            rank.fetch_add(1, Ordering::AcqRel)
        });
        (flood, high)
    }

    /// The `High` task's completion rank, once every task is done.
    async fn rank_of_high(
        flood: Vec<chanos::rt::JoinHandle<u64>>,
        high: chanos::rt::JoinHandle<u64>,
    ) -> u64 {
        for h in flood {
            h.join().await.expect("flood task ok");
        }
        high.join().await.expect("high task ok")
    }

    #[test]
    fn high_priority_is_not_starved_under_overload_on_both_backends() {
        // One core, with the whole flood queued before the High task
        // is spawned: both schedulers dispatch a ready High task
        // before any ready Normal one, so it must complete first.
        // On the simulator the spawning task holds its core until it
        // awaits, so everything is queued by the time the core frees.
        let mut s = Simulation::with_config(Config {
            cores: 1,
            ..Config::default()
        });
        let sim_rank = s
            .block_on(async {
                let (flood, high) = spawn_flood_then_high();
                rank_of_high(flood, high).await
            })
            .unwrap();
        assert_eq!(
            sim_rank, 0,
            "simulator: High task completed at rank {sim_rank}, after normal flood work"
        );
        // Real threads: the single worker is held hostage while the
        // flood queues up, then released.
        let rt = Runtime::new(1);
        let high_rank = rt.block_on(async {
            let started = Arc::new(AtomicU64::new(0));
            let gate = Arc::new(AtomicU64::new(0));
            let (s, g) = (started.clone(), gate.clone());
            let hostage = chanos::rt::spawn(async move {
                s.store(1, Ordering::Release);
                while g.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
            });
            // The main future runs on the caller thread, so spinning
            // here leaves the single worker to the hostage.
            while started.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            let (flood, high) = spawn_flood_then_high();
            gate.store(1, Ordering::Release);
            hostage.join().await.expect("hostage ok");
            rank_of_high(flood, high).await
        });
        rt.shutdown();
        assert_eq!(
            high_rank, 0,
            "threads: High task completed at rank {high_rank}, after normal flood work"
        );
    }
}
