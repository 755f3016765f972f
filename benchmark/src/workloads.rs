//! The four workloads: set-up, client tasks, and reply verification.
//!
//! Everything here goes through public items of the crates and the
//! `chanos-rt` facade, so one body of client code drives the
//! simulator (the measurement of record) and real threads (the
//! threads leg). Content is a fixed function of the index — never of
//! the seed — so every reply can be verified and the amount of data
//! moved does not vary between seeds; the seed only picks which keys
//! and files are asked for, and when.

use std::sync::Arc;

use chanos_drivers::{install_disk, spawn_disk_driver, DiskClient, DiskParams, BLOCK_SIZE};
use chanos_kernel::{boot, BootCfg, Env, FsKind, KernelKind, Os};
use chanos_rt::{self as rt, CoreId, Pcg32, Priority};
use chanos_serve::{spawn_file_server, spawn_kv, FileClient, KvCfg, KvClient, Zipf};

use crate::drive::{ClientRec, Ctl};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    KvOpen,
    KvSat,
    SysFiles,
    FileGet,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "kv_open" => Kind::KvOpen,
            "kv_sat" => Kind::KvSat,
            "sys_files" => Kind::SysFiles,
            "file_get" => Kind::FileGet,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::KvOpen => "kv_open",
            Kind::KvSat => "kv_sat",
            Kind::SysFiles => "sys_files",
            Kind::FileGet => "file_get",
        }
    }

    pub fn is_closed_loop(self) -> bool {
        self != Kind::KvOpen
    }
}

/// Single-call saturation of the KV service on the 16-core machine:
/// 64 closed-loop clients each with one `get`/`set` in flight complete
/// this many operations per modeled second (`saturation` mode measures
/// it; frozen here so the offered load cannot drift with the code under
/// test).
pub const KV_SINGLE_CALL_SATURATION: f64 = 207.0e6;

/// `kv_open` offers this share of the saturation rate.
pub const KV_OPEN_LOAD: f64 = 0.60;

/// The threads leg cannot take the modeled machine's rate; its open
/// loop offers this many requests per wall-clock second.
pub const KV_OPEN_THREADS_RATE: f64 = 50_000.0;

pub const KV_VALUE_LEN: usize = 64;
pub const KV_SET_PERCENT: u64 = 10;
pub const KV_BURST: usize = 32;
pub const ZIPF_THETA: f64 = 0.99;
pub const FILE_BURST: usize = 8;
pub const SYS_DIRS: usize = 16;
pub const SYS_READ_LEN: usize = BLOCK_SIZE;
pub const SYS_ROUNDS_PER_PROCESS: u64 = 16;
pub const SYS_WRITE_EVERY: u64 = 8;

/// Where things run on the modeled machine. Service cores come first
/// (KV shards, or kernel cores; the disk driver and the file server
/// sit on cores 1 and 2), client cores follow.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    pub cores: usize,
    pub service: usize,
    pub clients: usize,
}

impl Layout {
    pub fn base(kind: Kind) -> Layout {
        Layout {
            cores: 16,
            service: 4,
            clients: match kind {
                Kind::KvOpen => 64,
                Kind::KvSat => 8,
                Kind::SysFiles => 12,
                Kind::FileGet => 6,
            },
        }
    }

    /// The scale-out machine: 4x cores, service cores and clients.
    pub fn scaled4(kind: Kind) -> Layout {
        let b = Layout::base(kind);
        Layout {
            cores: b.cores * 4,
            service: b.service * 4,
            clients: b.clients * 4,
        }
    }

    pub fn client_core(&self, i: usize) -> CoreId {
        CoreId((self.service + i % (self.cores - self.service)) as u32)
    }
}

/// How much content a workload is set up with. `full` is the
/// benchmark; `tiny` keeps debug-build unit tests quick.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub kv_keys: usize,
    pub files: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            kv_keys: 100_000,
            files: 512,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Sizes {
        Sizes {
            kv_keys: 4_000,
            files: 64,
        }
    }

    pub fn items(&self, kind: Kind) -> usize {
        match kind {
            Kind::KvOpen | Kind::KvSat => self.kv_keys,
            Kind::SysFiles | Kind::FileGet => self.files,
        }
    }
}

/// Operations discarded before measuring starts.
pub fn warm_ops(kind: Kind, layout: &Layout) -> u64 {
    let per_client = match kind {
        Kind::KvOpen => 32,
        Kind::KvSat => 32 * KV_BURST as u64,
        Kind::SysFiles => 4 * (3 * SYS_ROUNDS_PER_PROCESS + 8),
        Kind::FileGet => 16 * FILE_BURST as u64,
    };
    per_client * layout.clients as u64
}

// ---------------------------------------------------------------------------
// Content: fixed functions of the index.
// ---------------------------------------------------------------------------

pub fn kv_value(key: u64) -> Vec<u8> {
    key.to_le_bytes().repeat(KV_VALUE_LEN / 8)
}

fn kv_check(key: u64, val: &[u8]) -> bool {
    val.len() == KV_VALUE_LEN && val.chunks_exact(8).all(|c| c == key.to_le_bytes())
}

fn word(file: usize, w: usize) -> u64 {
    (file as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w as u64
}

pub fn content(file: usize, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    for w in 0..len.div_ceil(8) {
        out.extend_from_slice(&word(file, w).to_le_bytes());
    }
    out.truncate(len);
    out
}

pub fn content_check(file: usize, len: usize, got: &[u8]) -> bool {
    got.len() == len
        && got
            .chunks(8)
            .enumerate()
            .all(|(w, c)| c == &word(file, w).to_le_bytes()[..c.len()])
}

/// File `i` of the file server holds `1 + i mod 8` blocks, the last
/// one short, so the server's truncation path is exercised.
pub fn served_len(i: usize) -> usize {
    (1 + i % 8) * BLOCK_SIZE - i % 64
}

pub fn served_path(i: usize) -> String {
    format!("/f{i}")
}

pub fn sys_path(i: usize) -> String {
    format!("/d{}/f{i}", i % SYS_DIRS)
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

/// A workload's servers, set up, loaded and verified.
pub enum World {
    Kv(KvClient),
    Sys(Arc<Os>),
    File { srv: FileClient, disk: DiskClient },
}

/// Builds the servers of `kind`, loads the content and verifies it.
/// Must run inside a runtime; `dev` is the device core the raw disk of
/// `file_get` lives on.
pub async fn setup(kind: Kind, layout: Layout, sizes: Sizes, dev: CoreId) -> World {
    match kind {
        Kind::KvOpen | Kind::KvSat => {
            let kv = spawn_kv(KvCfg {
                shards: layout.service,
                priority: Priority::Normal,
            });
            let keys: Vec<u64> = (0..sizes.kv_keys as u64).collect();
            for chunk in keys.chunks(256) {
                let pairs = chunk.iter().map(|&k| (k, kv_value(k))).collect();
                for call in kv.set_many(pairs) {
                    assert_eq!(call.await, Ok(false), "kv preload");
                }
            }
            for chunk in keys.chunks(256) {
                for (k, call) in chunk.iter().zip(kv.get_many(chunk)) {
                    let got = call.await.expect("kv verify");
                    assert!(got.is_some_and(|v| kv_check(*k, &v)), "kv verify key {k}");
                }
            }
            World::Kv(kv)
        }
        Kind::SysFiles => {
            let kernel_cores = (0..layout.service as u32).map(CoreId).collect();
            let os = boot(BootCfg::new(
                KernelKind::Message,
                FsKind::Message,
                kernel_cores,
            ))
            .await;
            for d in 0..SYS_DIRS {
                os.vfs.mkdir(&format!("/d{d}")).await.expect("mkdir");
            }
            let mut inos = Vec::with_capacity(sizes.files);
            for i in 0..sizes.files {
                let ino = os.vfs.create(&sys_path(i)).await.expect("create");
                os.vfs
                    .write(ino, 0, &content(i, SYS_READ_LEN))
                    .await
                    .expect("preload write");
                inos.push(ino);
            }
            for (i, &ino) in inos.iter().enumerate() {
                let got = os.vfs.read(ino, 0, SYS_READ_LEN).await.expect("verify");
                assert!(content_check(i, SYS_READ_LEN, &got), "sys verify file {i}");
            }
            // Write the preload back, so the measured phase does not
            // start with a cache full of dirty blocks to evict.
            os.vfs.sync().await.expect("sync");
            // And once more the way a process sees it — coldest file
            // first, so the LRU buffer cache ends up holding the files
            // the zipf law asks for most, close to its steady state.
            let env = os.procs.env();
            for i in (0..sizes.files).rev() {
                let fd = env.open(&sys_path(i)).await.expect("verify open");
                let got = env.read(fd, SYS_READ_LEN).await.expect("verify read");
                assert!(content_check(i, SYS_READ_LEN, &got), "sys verify file {i}");
                env.close(fd).await.expect("verify close");
            }
            World::Sys(Arc::new(os))
        }
        Kind::FileGet => {
            let blocks: usize = (0..sizes.files).map(|i| 1 + i % 8).sum();
            let (hw, irq) = install_disk(blocks as u64 + 8, DiskParams::default(), dev);
            let disk = spawn_disk_driver(hw, irq, CoreId(1));
            let files = (0..sizes.files)
                .map(|i| (served_path(i), content(i, served_len(i))))
                .collect();
            let srv = spawn_file_server(disk.clone(), files, Priority::Normal)
                .await
                .expect("format the served files");
            // Verify every file alone, then again in pipelined bursts
            // (the server plans a burst as one `read_batch`).
            let check = |i: usize, got: Option<Vec<u8>>| {
                assert!(
                    got.is_some_and(|b| content_check(i, served_len(i), &b)),
                    "file verify {i}"
                );
            };
            for i in 0..sizes.files {
                check(i, srv.get(served_path(i)).await.expect("verify"));
            }
            let all: Vec<usize> = (0..sizes.files).collect();
            for burst in all.chunks(FILE_BURST) {
                let calls: Vec<_> = burst.iter().map(|&i| srv.get(served_path(i))).collect();
                for (&i, call) in burst.iter().zip(calls) {
                    check(i, call.await.expect("verify burst"));
                }
            }
            World::File { srv, disk }
        }
    }
}

// ---------------------------------------------------------------------------
// Clients.
// ---------------------------------------------------------------------------

/// What the clients of one segment need besides the servers.
#[derive(Clone)]
pub struct Load {
    pub kind: Kind,
    pub layout: Layout,
    pub ctl: Arc<Ctl>,
    pub zipf: Arc<Zipf>,
    pub seed: u64,
    /// Open loop: mean gap between one client's requests, in cycles.
    /// `None` issues back to back (the saturation probe).
    pub mean_gap: Option<f64>,
}

/// Spawns the clients of the workload, waits for them and merges what
/// they measured.
pub async fn run(world: World, load: Load) -> ClientRec {
    let mut handles = Vec::with_capacity(load.layout.clients);
    for i in 0..load.layout.clients {
        let core = load.layout.client_core(i);
        let l = load.clone();
        let id = i as u64;
        let name = format!("load{i}");
        handles.push(match (&world, load.kind) {
            (World::Kv(kv), Kind::KvOpen) => {
                rt::spawn_named_on(&name, core, kv_open_client(kv.clone(), l, id))
            }
            (World::Kv(kv), Kind::KvSat) => {
                rt::spawn_named_on(&name, core, kv_sat_client(kv.clone(), l, id))
            }
            (World::Sys(os), Kind::SysFiles) => {
                rt::spawn_named_on(&name, core, sys_slot(os.clone(), l, id, core))
            }
            (World::File { srv, .. }, Kind::FileGet) => {
                rt::spawn_named_on(&name, core, file_client(srv.clone(), l, id))
            }
            _ => unreachable!("world was set up for this kind"),
        });
    }
    let mut total = ClientRec::default();
    for h in handles {
        total.merge(h.join().await.expect("load client survives"));
    }
    total
}

fn client_rng(load: &Load, id: u64) -> Pcg32 {
    Pcg32::with_stream(load.seed, id + 1)
}

async fn kv_open_client(kv: KvClient, load: Load, id: u64) -> ClientRec {
    let ctl = &*load.ctl;
    let mut rec = ClientRec::new(id, ctl);
    let mut rng = client_rng(&load, id);
    let mut due = rt::now();
    loop {
        due = match load.mean_gap {
            Some(mean) => due + (rng.exp(mean).round() as u64).max(1),
            None => rt::now(),
        };
        if !ctl.keep_issuing(due) {
            break;
        }
        let now = rt::now();
        if due > now {
            rt::sleep(due - now).await;
        }
        let req = rec.begin();
        let issue = rt::now();
        let key = load.zipf.sample(&mut rng);
        let (ok, submitted) = if rng.bounded(100) < KV_SET_PERCENT {
            let call = kv.set(key, kv_value(key));
            let submitted = rt::now();
            (call.await == Ok(true), submitted)
        } else {
            let call = kv.get(key);
            let submitted = rt::now();
            let got = call.await;
            (matches!(got, Ok(Some(v)) if kv_check(key, &v)), submitted)
        };
        let done = rt::now();
        rec.request_spans(req, due, issue, submitted, done);
        if rec.op(ctl, due, done, ok && !ctl.past_drain_deadline(done)) {
            rec.late.record(issue - due);
        }
    }
    rec.t_end = rt::now();
    rec
}

async fn kv_sat_client(kv: KvClient, load: Load, id: u64) -> ClientRec {
    let ctl = &*load.ctl;
    let mut rec = ClientRec::new(id, ctl);
    let mut rng = client_rng(&load, id);
    while ctl.keep_going() {
        let req = rec.begin();
        let mut get_keys = Vec::with_capacity(KV_BURST);
        let mut set_pairs = Vec::new();
        for _ in 0..KV_BURST {
            let key = load.zipf.sample(&mut rng);
            if rng.bounded(100) < KV_SET_PERCENT {
                set_pairs.push((key, kv_value(key)));
            } else {
                get_keys.push(key);
            }
        }
        let issue = rt::now();
        let gets = kv.get_many(&get_keys);
        let sets = kv.set_many(set_pairs);
        let submitted = rt::now();
        for (key, call) in get_keys.iter().zip(gets) {
            let ok = matches!(call.await, Ok(Some(v)) if kv_check(*key, &v));
            rec.op(ctl, issue, rt::now(), ok);
        }
        for call in sets {
            let ok = call.await == Ok(true);
            rec.op(ctl, issue, rt::now(), ok);
        }
        rec.request_spans(req, issue, issue, submitted, rt::now());
    }
    rec.t_end = rt::now();
    rec
}

async fn file_client(srv: FileClient, load: Load, id: u64) -> ClientRec {
    let ctl = &*load.ctl;
    let mut rec = ClientRec::new(id, ctl);
    let mut rng = client_rng(&load, id);
    while ctl.keep_going() {
        let req = rec.begin();
        let picks: Vec<usize> = (0..FILE_BURST)
            .map(|_| load.zipf.sample(&mut rng) as usize)
            .collect();
        let issue = rt::now();
        let calls: Vec<_> = picks.iter().map(|&i| srv.get(served_path(i))).collect();
        let submitted = rt::now();
        for (&i, call) in picks.iter().zip(calls) {
            let ok = matches!(call.await, Ok(Some(b)) if content_check(i, served_len(i), &b));
            rec.op(ctl, issue, rt::now(), ok);
        }
        rec.request_spans(req, issue, issue, submitted, rt::now());
    }
    rec.t_end = rt::now();
    rec
}

/// One process slot of `sys_files`: runs a process, and when it exits
/// spawns its successor in the same slot (a pid-table exit and
/// register per generation).
///
/// A slot's rounds are numbered across its processes; a process exits
/// when the number reaches a multiple of 16, and every 8th round
/// writes. The slot starts at a random round, so the slots' write
/// rounds and process exits are out of phase from the start instead of
/// drifting apart over the first 100 k operations (which showed as a
/// `p50_us` that fell with run length).
async fn sys_slot(os: Arc<Os>, load: Load, slot: u64, core: CoreId) -> ClientRec {
    let mut rec = ClientRec::new(slot, &load.ctl);
    let mut round = client_rng(&load, slot).bounded(SYS_ROUNDS_PER_PROCESS);
    while load.ctl.keep_going() {
        let l = load.clone();
        let (_pid, h) = os
            .procs
            .spawn_process(core, move |env| sys_process(env, l, slot, round));
        rec.merge(h.join().await.expect("process survives"));
        round = (round / SYS_ROUNDS_PER_PROCESS + 1) * SYS_ROUNDS_PER_PROCESS;
    }
    rec.t_end = rt::now();
    rec
}

/// Times one syscall as one operation (and one span under `round`);
/// evaluates to its `Ok` value, if any.
macro_rules! syscall {
    ($rec:ident, $ctl:ident, $req:ident, $name:literal, $call:expr, $ok:expr) => {{
        let t = rt::now();
        let out = $call.await;
        let done = rt::now();
        $rec.span($req, $name, Some("round"), t, done);
        let ok: bool = $ok(&out);
        $rec.op($ctl, t, done, ok);
        out.ok()
    }};
}

/// One process: the slot's rounds from `first` up to the next multiple
/// of 16.
async fn sys_process(env: Env, load: Load, slot: u64, first: u64) -> ClientRec {
    let ctl = &*load.ctl;
    let mut rec = ClientRec::resume(slot, first, ctl);
    let mut rng = Pcg32::with_stream(
        load.seed ^ (first + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        slot + 1,
    );
    let scratch = format!("/d{}/t{slot}", slot as usize % SYS_DIRS);
    let end = (first / SYS_ROUNDS_PER_PROCESS + 1) * SYS_ROUNDS_PER_PROCESS;
    for round in first..end {
        if !ctl.keep_going() {
            break;
        }
        let req = rec.begin();
        let t_round = rt::now();
        let i = load.zipf.sample(&mut rng) as usize;
        let fd = syscall!(rec, ctl, req, "open", env.open(&sys_path(i)), Result::is_ok);
        if let Some(fd) = fd {
            syscall!(
                rec,
                ctl,
                req,
                "read",
                env.read(fd, SYS_READ_LEN),
                |r: &Result<Vec<u8>, _>| r.as_ref().is_ok_and(|b| content_check(
                    i,
                    SYS_READ_LEN,
                    b
                ))
            );
            syscall!(rec, ctl, req, "close", env.close(fd), Result::is_ok);
        }
        if round % SYS_WRITE_EVERY == SYS_WRITE_EVERY - 1 {
            let fd = syscall!(rec, ctl, req, "create", env.create(&scratch), Result::is_ok);
            if let Some(fd) = fd {
                let data = content(i, SYS_READ_LEN);
                syscall!(
                    rec,
                    ctl,
                    req,
                    "write",
                    env.write(fd, &data),
                    |r: &Result<usize, _>| *r == Ok(SYS_READ_LEN)
                );
                syscall!(rec, ctl, req, "close", env.close(fd), Result::is_ok);
            }
            syscall!(rec, ctl, req, "unlink", env.unlink(&scratch), Result::is_ok);
        }
        rec.span(req, "round", None, t_round, rt::now());
    }
    rec
}
