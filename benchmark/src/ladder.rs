//! The ladder: unloaded round trips on an otherwise idle 16-core
//! machine, one request in flight, in exact modeled cycles.
//!
//! Every rung is timed from outside its layer with `rt::now()` around
//! a call to a public function, after a few warm-up calls (so lazily
//! spawned servers and vnode tasks exist). The simulator is
//! deterministic, so a rung repeats bit for bit; `*_self_*` rows are
//! differences of rungs, so the rungs under a round trip sum to it
//! exactly ([`IDENTITIES`]).
//!
//! Geometry: the caller sits on core 4 and the service it calls on
//! core 0 — neighbours on the 4x4 mesh — unless a row says otherwise.

use chanos_drivers::BLOCK_SIZE;
use chanos_kernel::Pid;
use chanos_rt::{self as rt, port_channel, Capacity, CoreId, ReplyTo};

use crate::machine::machine;
use crate::workloads::{self, Kind, Layout, Sizes, World};

/// Ladder rows by name; integral rows are exact cycle counts, the
/// `*_per_*` rows are a burst's cycles divided by its size.
pub type Rungs = crate::layers::Values;

const WARM: usize = 4;
const CALLER: CoreId = CoreId(4);
const SERVICE: CoreId = CoreId(0);
const FAR: CoreId = CoreId(15);

/// Each round trip and the rungs that sum to it.
pub const IDENTITIES: &[(&str, &[&str])] = &[
    (
        "rt.port_call_cycles",
        &["core.chan_rtt_cycles", "rt.port_self_cycles"],
    ),
    (
        "serve.kv_get_cycles",
        &[
            "core.chan_rtt_cycles",
            "rt.port_self_cycles",
            "serve.kv_self_cycles",
        ],
    ),
    (
        "kernel.getpid_cycles",
        &[
            "core.chan_rtt_cycles",
            "rt.port_self_cycles",
            "kernel.self_cycles",
        ],
    ),
    (
        "kernel.read_cycles",
        &["vfs.read_cycles", "kernel.read_self_cycles"],
    ),
    (
        "vfs.read_cold_cycles",
        &["drivers.disk_read_cycles", "vfs.read_self_cycles"],
    ),
    (
        "serve.file_get_cycles",
        &["drivers.disk_read_cycles", "serve.file_self_cycles"],
    ),
];

/// Times `$body` once after `WARM` untimed repetitions.
macro_rules! rtt {
    ($body:expr) => {{
        for _ in 0..WARM {
            $body;
        }
        let t = rt::now();
        $body;
        (rt::now() - t) as f64
    }};
}

enum Echo {
    Ping(u64, ReplyTo<u64>),
}

/// Runs `probe` as a task on `core` of the machine and returns what it
/// measured; the `block_on` task itself only waits.
async fn on_core<T, F>(core: CoreId, probe: F) -> T
where
    T: Send + 'static,
    F: std::future::Future<Output = T> + Send + 'static,
{
    rt::spawn_named_on("probe", core, probe)
        .join()
        .await
        .expect("ladder probe survives")
}

async fn chan_rtt(caller: CoreId, echo: CoreId) -> f64 {
    let (to_tx, to_rx) = rt::channel::<u64>(Capacity::Unbounded);
    let (back_tx, back_rx) = rt::channel::<u64>(Capacity::Unbounded);
    rt::spawn_daemon_on("echo", echo, async move {
        while let Ok(v) = to_rx.recv().await {
            if back_tx.send(v).await.is_err() {
                return;
            }
        }
    });
    on_core(caller, async move {
        rtt!({
            to_tx.send(7).await.expect("echo task alive");
            back_rx.recv().await.expect("echo task alive");
        })
    })
    .await
}

/// core, rt and serve.kv rungs.
async fn messaging_rungs(sizes: Sizes, out: &mut Rungs) {
    out.insert("core.chan_rtt_cycles", chan_rtt(CALLER, SERVICE).await);
    out.insert("core.chan_rtt_far_cycles", chan_rtt(FAR, SERVICE).await);

    let (port, rx) = port_channel::<Echo>(Capacity::Unbounded);
    rt::spawn_daemon_on("echo-port", SERVICE, async move {
        while let Ok(Echo::Ping(v, reply)) = rx.recv().await {
            let _ = reply.send(v).await;
        }
    });
    let (call, batch) = on_core(CALLER, async move {
        let call = rtt!({
            port.call(|r| Echo::Ping(1, r)).await.expect("echo port");
        });
        let batch = rtt!({
            let calls = port.call_batch((0..32u64).map(|i| move |r| Echo::Ping(i, r)));
            for c in calls {
                c.await.expect("echo port");
            }
        });
        (call, batch)
    })
    .await;
    out.insert("rt.port_call_cycles", call);
    out.insert("rt.port_batch32_cycles_per_call", batch / 32.0);

    let World::Kv(kv) = workloads::setup(
        Kind::KvSat,
        Layout::base(Kind::KvSat),
        Sizes {
            kv_keys: sizes.kv_keys.min(4096),
            ..sizes
        },
        CoreId(0),
    )
    .await
    else {
        unreachable!("kv set-up gives a kv world")
    };
    // A key of the shard on core 0, the caller's neighbour.
    let near = (0..).find(|&k| kv.shard_of(k) == 0).expect("some key");
    let (get, many) = on_core(CALLER, async move {
        let get = rtt!({
            kv.get(near).await.expect("kv get");
        });
        let keys: Vec<u64> = (0..32).collect();
        let many = rtt!({
            for c in kv.get_many(&keys) {
                c.await.expect("kv get_many");
            }
        });
        (get, many)
    })
    .await;
    out.insert("serve.kv_get_cycles", get);
    out.insert("serve.kv_batch32_cycles_per_get", many / 32.0);
}

/// kernel, vfs and nr rungs on a booted message kernel + MsgFs.
async fn os_rungs(sizes: Sizes, out: &mut Rungs) {
    let layout = Layout::base(Kind::SysFiles);
    let World::Sys(os) = workloads::setup(Kind::SysFiles, layout, sizes, CoreId(0)).await else {
        unreachable!("sys set-up gives an os world")
    };

    // vfs, called from kernel core 0 as a syscall server there would.
    let vfs = os.vfs.clone();
    let files = sizes.files;
    let vfs_rows = on_core(SERVICE, async move {
        // Cold: a file whose data block the buffer cache has evicted
        // since preload — set-up reads the highest-numbered files
        // longest ago — timed once, with no warm-up (warming is what
        // makes a read not cold).
        let mut cold = None;
        for i in (0..files).rev() {
            let ino = vfs.lookup(&workloads::sys_path(i)).await.expect("lookup");
            let misses = rt::stat_get("cache.misses");
            let t = rt::now();
            vfs.read(ino, 0, BLOCK_SIZE).await.expect("read");
            let took = rt::now() - t;
            if rt::stat_get("cache.misses") > misses {
                cold = Some((i, ino, took as f64));
                break;
            }
        }
        let (i, ino, cold) = cold.expect("some preloaded file went cold");
        let path = workloads::sys_path(i);
        let lookup = rtt!({
            vfs.lookup(&path).await.expect("lookup");
        });
        let read = rtt!({
            vfs.read(ino, 0, BLOCK_SIZE).await.expect("read");
        });
        let create_unlink = rtt!({
            vfs.create("/d0/ladder").await.expect("create");
            vfs.unlink("/d0/ladder").await.expect("unlink");
        });
        [(i as f64), lookup, read, cold, create_unlink]
    })
    .await;
    let file = vfs_rows[0] as usize;
    out.insert("vfs.lookup_cycles", vfs_rows[1]);
    out.insert("vfs.read_cycles", vfs_rows[2]);
    out.insert("vfs.read_cold_cycles", vfs_rows[3]);
    out.insert("vfs.create_unlink_cycles", vfs_rows[4]);

    // kernel + nr, from an application core, through the syscall
    // server on core 0 (a pid that hashes there).
    let env = loop {
        let env = os.procs.env();
        if env.pid.0 % layout.service as u32 == 0 {
            break env;
        }
    };
    let os2 = os.clone();
    let rows = on_core(CALLER, async move {
        let getpid = rtt!({
            env.getpid().await;
        });
        let batch = rtt!({
            let mut b = env.batch();
            let calls: Vec<_> = (0..32).map(|_| b.getpid()).collect();
            b.submit().await;
            for c in calls {
                c.await.expect("batched getpid");
            }
        });
        let path = workloads::sys_path(file);
        // One warm open/read/close, then the timed one, rung by rung.
        let (mut open, mut read, mut close) = (0, 0, 0);
        for _ in 0..=WARM {
            let t0 = rt::now();
            let fd = env.open(&path).await.expect("open");
            let t1 = rt::now();
            env.read(fd, BLOCK_SIZE).await.expect("read");
            let t2 = rt::now();
            env.close(fd).await.expect("close");
            (open, read, close) = (t1 - t0, t2 - t1, rt::now() - t2);
        }
        let data = workloads::content(0, BLOCK_SIZE);
        let cwu = rtt!({
            let fd = env.create("/d1/ladder").await.expect("create");
            env.write(fd, &data).await.expect("write");
            env.close(fd).await.expect("close");
            env.unlink("/d1/ladder").await.expect("unlink");
        });
        let pids = os2.procs.pids();
        let nr_read = rtt!({
            pids.alive(Pid(1)).await;
        });
        let mut next = 1_000_000u32;
        let nr_write = rtt!({
            next += 1;
            pids.register(Pid(next), "ladder", CALLER).await;
        });
        [
            getpid,
            batch / 32.0,
            open as f64,
            read as f64,
            close as f64,
            cwu,
            nr_read,
            nr_write,
        ]
    })
    .await;
    for (name, v) in [
        "kernel.getpid_cycles",
        "kernel.getpid_batch32_cycles_per_call",
        "kernel.open_cycles",
        "kernel.read_cycles",
        "kernel.close_cycles",
        "kernel.create_write_unlink_cycles",
        "nr.read_cycles",
        "nr.write_cycles",
    ]
    .into_iter()
    .zip(rows)
    {
        out.insert(name, v);
    }
}

/// drivers and serve.file rungs on the raw driver stack `file_get`
/// uses (driver on core 1, file server on core 2, disk on a device
/// core).
async fn disk_rungs(sizes: Sizes, dev: CoreId, out: &mut Rungs) {
    let layout = Layout::base(Kind::FileGet);
    let World::File { srv, disk } = workloads::setup(Kind::FileGet, layout, sizes, dev).await
    else {
        unreachable!("file set-up gives a file world")
    };
    let used: u64 = (0..sizes.files).map(|i| 1 + i as u64 % 8).sum();
    // The disk as the file server sees it, from the server's core.
    let rows = on_core(CoreId(2), async move {
        let read = rtt!({
            disk.read(0, 1).await.expect("disk read");
        });
        let block = vec![0xA5u8; BLOCK_SIZE];
        let write = rtt!({
            disk.write(used, block.clone()).await.expect("disk write");
        });
        let lbas: Vec<u64> = (0..8).collect();
        let batch = rtt!({
            for r in disk.read_batch(&lbas).await {
                r.expect("disk read_batch");
            }
        });
        [read, write, batch / 8.0]
    })
    .await;
    out.insert("drivers.disk_read_cycles", rows[0]);
    out.insert("drivers.disk_write_cycles", rows[1]);
    out.insert("drivers.disk_batch8_cycles_per_block", rows[2]);
    // File 0 is one block long.
    let get = on_core(CALLER, async move {
        rtt!({
            srv.get(workloads::served_path(0))
                .await
                .expect("file get")
                .expect("file 0 exists");
        })
    })
    .await;
    out.insert("serve.file_get_cycles", get);
}

/// Measures every ladder row, on the benchmark's full content (the
/// cold-read rung needs a working set larger than the buffer cache).
/// Deterministic: the rows are the same whichever run asks.
pub fn measure() -> Rungs {
    let sizes = Sizes::full();
    let mut out = Rungs::new();
    let base = Layout::base(Kind::KvSat);

    let mut sim = machine(base.cores, base.service, 0);
    out = sim
        .block_on(async move {
            messaging_rungs(sizes, &mut out).await;
            out
        })
        .expect("messaging ladder");

    let mut sim = machine(base.cores, base.service, 0);
    out = sim
        .block_on(async move {
            os_rungs(sizes, &mut out).await;
            out
        })
        .expect("os ladder");

    let mut sim = machine(base.cores, base.service, 0);
    let dev = sim.add_device_core();
    out = sim
        .block_on(async move {
            disk_rungs(sizes, dev, &mut out).await;
            out
        })
        .expect("disk ladder");

    let diff = |out: &Rungs, a: &str, b: &str| out[a] - out[b];
    let selfs = [
        (
            "rt.port_self_cycles",
            diff(&out, "rt.port_call_cycles", "core.chan_rtt_cycles"),
        ),
        (
            "serve.kv_self_cycles",
            diff(&out, "serve.kv_get_cycles", "rt.port_call_cycles"),
        ),
        (
            "kernel.self_cycles",
            diff(&out, "kernel.getpid_cycles", "rt.port_call_cycles"),
        ),
        (
            "kernel.read_self_cycles",
            diff(&out, "kernel.read_cycles", "vfs.read_cycles"),
        ),
        (
            "vfs.read_self_cycles",
            diff(&out, "vfs.read_cold_cycles", "drivers.disk_read_cycles"),
        ),
        (
            "serve.file_self_cycles",
            diff(&out, "serve.file_get_cycles", "drivers.disk_read_cycles"),
        ),
    ];
    out.extend(selfs);
    out
}

/// The ladder's round trips, each with the rungs that sum to it.
pub fn identities(rungs: &Rungs) -> Vec<String> {
    IDENTITIES
        .iter()
        .map(|(total, parts)| {
            let sum: f64 = parts.iter().map(|p| rungs[p]).sum();
            assert_eq!(sum, rungs[total], "rungs of {total} do not sum to it");
            let terms: Vec<String> = parts.iter().map(|p| format!("{p} {}", rungs[p])).collect();
            format!("{total} {} = {}", rungs[total], terms.join(" + "))
        })
        .collect()
}
