//! Randomized-property tests: layout round trips, cache model
//! equivalence, and cross-engine behavioural equivalence on random
//! operation scripts. Driven by the simulator's deterministic PCG
//! RNG (no external property-testing framework is available).

use chanos_drivers::{install_disk, spawn_disk_driver, DiskHw, DiskParams};
use chanos_sim::{Config, CoreId, Pcg32, Simulation};
use chanos_vfs::layout::{bitmap, Dirent, FileKind, Inode, Superblock, MAX_NAME, NDIRECT};
use chanos_vfs::{BigLockFs, Block, LruCache, MsgFs, ShardedFs, Vfs};

/// Inode encode/decode is the identity.
#[test]
fn inode_roundtrip() {
    let mut g = Pcg32::new(0xF5_0001);
    for _ in 0..48 {
        let mut ino = Inode::new(if g.chance(0.5) {
            FileKind::File
        } else {
            FileKind::Dir
        });
        ino.nlink = g.range(1, 100) as u16;
        ino.size = g.bounded(10_000_000);
        for d in ino.direct.iter_mut() {
            *d = g.bounded(100_000);
        }
        assert_eq!(ino.direct.len(), NDIRECT);
        ino.indirect = g.bounded(100_000);
        assert_eq!(Inode::decode(&ino.encode()), Some(ino));
    }
}

/// Dirent encode/decode is the identity for all legal names.
#[test]
fn dirent_roundtrip() {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    let mut g = Pcg32::new(0xF5_0002);
    for _ in 0..48 {
        let len = g.range(1, 56) as usize;
        let name: String = (0..len)
            .map(|_| ALPHA[g.index(ALPHA.len())] as char)
            .collect();
        assert!(name.len() <= MAX_NAME);
        let d = Dirent {
            ino: g.next_u64(),
            name,
        };
        assert_eq!(Dirent::decode(&d.encode()), Some(d));
    }
}

/// Superblock geometry: every group's blocks stay inside the volume
/// and regions never overlap.
#[test]
fn superblock_geometry_sound() {
    let mut g = Pcg32::new(0xF5_0003);
    let mut cases = 0;
    while cases < 32 {
        let total = g.range(256, 100_000);
        let groups = g.range(1, 32);
        if total / groups <= 40 {
            continue;
        }
        cases += 1;
        let sb = Superblock::design(total, groups);
        for gi in 0..sb.n_groups {
            assert!(sb.ibitmap_block(gi) < sb.dbitmap_block(gi));
            assert!(sb.dbitmap_block(gi) < sb.itable_start(gi));
            assert!(sb.itable_start(gi) + sb.itable_blocks() <= sb.data_start(gi));
            assert!(
                sb.data_start(gi) + sb.data_per_group <= sb.group_start(gi) + sb.blocks_per_group
            );
            assert!(sb.group_start(gi) + sb.blocks_per_group <= sb.total_blocks);
        }
        assert_eq!(Superblock::decode(&sb.encode()), Some(sb));
    }
}

/// Bitmap alloc never double-allocates and free makes bits reusable.
#[test]
fn bitmap_never_double_allocates() {
    let mut g = Pcg32::new(0xF5_0004);
    for _ in 0..32 {
        let limit = g.range(1, 512);
        let rounds = g.range(1, 100) as usize;
        let mut map = vec![0u8; limit.div_ceil(8) as usize];
        let mut live = std::collections::HashSet::new();
        for i in 0..rounds {
            if i % 3 == 2 && !live.is_empty() {
                let &k = live.iter().next().expect("non-empty");
                live.remove(&k);
                bitmap::free(&mut map, k);
            } else if let Some(k) = bitmap::alloc(&mut map, limit) {
                assert!(k < limit);
                assert!(live.insert(k), "bit {k} allocated twice");
            }
        }
        assert_eq!(bitmap::count(&map, limit), live.len() as u64);
    }
}

/// The LRU cache agrees with a naive model on hit contents.
#[test]
fn lru_agrees_with_model() {
    let mut g = Pcg32::new(0xF5_0005);
    for _ in 0..32 {
        let capacity = g.range(1, 8) as usize;
        let ops = g.range(1, 100);
        let mut cache = LruCache::new(capacity);
        let mut model: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
        for _ in 0..ops {
            let lba = g.bounded(16);
            if g.chance(0.5) {
                let data = vec![lba as u8; 4];
                cache.insert_dirty(lba, Block::new(data.clone()));
                model.insert(lba, data);
            } else if let Some(got) = cache.get(lba) {
                // A hit must return exactly what was last written.
                assert_eq!(Some(&*got), model.get(&lba));
            }
        }
        assert!(cache.len() <= capacity);
    }
}

/// One random FS op script, applied to every engine: observable
/// results must be identical (the engines differ only in concurrency
/// control).
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write(u8, u16),
    Read(u8),
    Unlink(u8),
    List,
}

fn random_script(g: &mut Pcg32) -> Vec<Op> {
    let len = g.range(1, 25) as usize;
    (0..len)
        .map(|_| match g.index(5) {
            0 => Op::Create(g.bounded(6) as u8),
            1 => Op::Write(g.bounded(6) as u8, g.range(1, 5000) as u16),
            2 => Op::Read(g.bounded(6) as u8),
            3 => Op::Unlink(g.bounded(6) as u8),
            _ => Op::List,
        })
        .collect()
}

const VOLUME_BLOCKS: u64 = 2048;

/// Buffer-cache blocks per shard (four shards; the big-lock engine's
/// one cache gets the four together). `ROOMY` holds everything these
/// tests touch; with `TIGHT` fills, evictions and write-backs overlap
/// all the time (eight per shard still hold all the namespace storm
/// touches).
const ROOMY: usize = 32;
const TIGHT: usize = 2;

/// A freshly formatted 2048-block, 4-group volume of the named engine
/// on a 4-core machine (disk and driver on core 3), and the disk under
/// it.
async fn fresh_fs_on(which: &str, cache: usize) -> (Vfs, DiskHw) {
    let dev = CoreId(3);
    let (hw, irq) = install_disk(VOLUME_BLOCKS, DiskParams::default(), dev);
    let disk = spawn_disk_driver(hw.clone(), irq, dev);
    let cores: Vec<CoreId> = (0..3u32).map(CoreId).collect();
    let fs = match which {
        "biglock" => Vfs::Big(
            BigLockFs::format(disk, VOLUME_BLOCKS, 4, 4 * cache)
                .await
                .expect("format"),
        ),
        "sharded" => Vfs::Sharded(
            ShardedFs::format(disk, VOLUME_BLOCKS, 4, 4, cache)
                .await
                .expect("format"),
        ),
        _ => Vfs::Msg(
            MsgFs::format(disk, VOLUME_BLOCKS, 4, 4, cache, cores)
                .await
                .expect("format"),
        ),
    };
    (fs, hw)
}

async fn fresh_fs(which: &str) -> Vfs {
    fresh_fs_on(which, ROOMY).await.0
}

/// What one storm left behind: a line per op, the volume after a
/// `sync`, the simulator's trace hash, how often it went to the disk,
/// and how many of the writes came before the final `sync`.
struct Storm {
    log: Vec<String>,
    volume: Vec<Vec<u8>>,
    trace: u64,
    disk_reads: u64,
    disk_writes: u64,
    writes_before_sync: u64,
    blocks_allocated: u64,
}

/// Runs `ops` — it returns its log — against a fresh volume of the
/// named engine with `cache` blocks per shard.
fn storm<Fut>(which: &'static str, cache: usize, ops: impl FnOnce(Vfs) -> Fut + 'static) -> Storm
where
    Fut: std::future::Future<Output = Vec<String>>,
{
    let mut s = Simulation::with_config(Config {
        cores: 4,
        ctx_switch: 10,
        ..Config::default()
    });
    let (log, volume, writes_before_sync) = s
        .block_on(async move {
            let (fs, hw) = fresh_fs_on(which, cache).await;
            let log = ops(fs.clone()).await;
            let writes = chanos_sim::stat_get("disk.writes");
            fs.sync().await.expect("sync");
            let volume = (0..VOLUME_BLOCKS).map(|lba| hw.peek_block(lba)).collect();
            (log, volume, writes)
        })
        .unwrap();
    let reap_errors = s.stats().counter("msgfs.reap_errors");
    assert_eq!(
        reap_errors, 0,
        "{which}: a reap step failed on a sound disk"
    );
    if which == "msgfs" {
        // Every allocated inode, the root included, got exactly one
        // vnode: the one its `create` (or the format) started.
        let spawned = s.stats().counter("msgfs.vnode_threads_spawned");
        let allocated = s.stats().counter("fs.inodes_allocated");
        assert_eq!(spawned, allocated, "vnodes started vs inodes allocated");
    }
    Storm {
        log,
        volume,
        trace: s.trace_hash(),
        disk_reads: s.stats().counter("disk.reads"),
        disk_writes: s.stats().counter("disk.writes"),
        writes_before_sync,
        blocks_allocated: s.stats().counter("fs.blocks_allocated"),
    }
}

/// Two engines gave the same answers op for op and left the same
/// bytes on the disk.
fn assert_same_storm(a: &Storm, b: &Storm) {
    for (i, (x, y)) in a.log.iter().zip(&b.log).enumerate() {
        assert_eq!(x, y, "op {i}");
    }
    assert_eq!(a.log.len(), b.log.len());
    for (lba, (x, y)) in a.volume.iter().zip(&b.volume).enumerate() {
        assert!(x == y, "block {lba} differs");
    }
}

/// The cache was small enough for the storm to live on the disk.
fn assert_cache_was_tight(storm: &Storm) {
    let Storm {
        disk_reads: r,
        disk_writes: w,
        ..
    } = storm;
    assert!(*r >= 200 && *w >= 200, "{r} fills, {w} write-backs");
}

fn apply_script(which: &'static str, script: Vec<Op>) -> Vec<String> {
    let mut s = Simulation::with_config(Config {
        cores: 4,
        ctx_switch: 10,
        ..Config::default()
    });
    s.block_on(async move {
        let fs = fresh_fs(which).await;
        let mut log = Vec::new();
        let mut sizes: std::collections::HashMap<u8, u64> = std::collections::HashMap::new();
        for op in script {
            match op {
                Op::Create(f) => {
                    let r = fs.create(&format!("/f{f}")).await;
                    if r.is_ok() {
                        sizes.insert(f, 0);
                    }
                    log.push(format!("create{f}:{}", r.is_ok()));
                }
                Op::Write(f, n) => {
                    let r = match fs.lookup(&format!("/f{f}")).await {
                        Ok(ino) => {
                            let off = sizes.get(&f).copied().unwrap_or(0);
                            let r = fs.write(ino, off, &vec![f; n as usize]).await;
                            if r.is_ok() {
                                sizes.insert(f, off + u64::from(n));
                            }
                            r.is_ok()
                        }
                        Err(_) => false,
                    };
                    log.push(format!("write{f}+{n}:{r}"));
                }
                Op::Read(f) => {
                    let out = match fs.lookup(&format!("/f{f}")).await {
                        Ok(ino) => {
                            let data = fs.read(ino, 0, 100_000).await.unwrap();
                            // Contents must be all-f bytes.
                            assert!(data.iter().all(|&b| b == f), "{which}: corrupt data");
                            format!("{}", data.len())
                        }
                        Err(_) => "missing".to_string(),
                    };
                    log.push(format!("read{f}:{out}"));
                }
                Op::Unlink(f) => {
                    let r = fs.unlink(&format!("/f{f}")).await;
                    if r.is_ok() {
                        sizes.remove(&f);
                    }
                    log.push(format!("unlink{f}:{}", r.is_ok()));
                }
                Op::List => {
                    let mut names: Vec<String> = fs
                        .readdir("/")
                        .await
                        .unwrap()
                        .into_iter()
                        .map(|e| e.name)
                        .collect();
                    names.sort();
                    log.push(format!("ls:{}", names.join("+")));
                }
            }
        }
        log
    })
    .unwrap()
}

/// All three engines produce identical observable logs for any
/// sequential operation script.
#[test]
fn engines_are_observably_equivalent() {
    let mut g = Pcg32::new(0xF5_0006);
    for case in 0..12 {
        let script = random_script(&mut g);
        let big = apply_script("biglock", script.clone());
        let sharded = apply_script("sharded", script.clone());
        let msg = apply_script("msgfs", script.clone());
        assert_eq!(&big, &sharded, "case {case}: biglock vs sharded");
        assert_eq!(&big, &msg, "case {case}: biglock vs msgfs");
    }
}

/// A namespace storm from one seed — create, unlink, lookup, readdir,
/// mkdir and rmdir over a few directories and a small pool of names,
/// so names are reused and slots are freed and refilled — must read
/// the same, op for op, on the engine whose directory vnodes answer
/// from their own copy of the blocks and entries (`MsgFs`) and on one
/// that reads the blocks every time (`BigLockFs`); the volumes after a
/// `sync` say whether the held blocks went to the cache as written.
fn namespace_storm(which: &'static str, cache: usize, seed: u64, ops: usize) -> Storm {
    const DIRS: [&str; 4] = ["", "/a", "/b", "/c"];
    // A big pool in the root; a small one below, so that a directory
    // is sometimes empty when its `rmdir` comes.
    const NAMES: usize = 10;
    const NAMES_BELOW: usize = 3;
    storm(which, cache, move |fs| async move {
        let listing = |entries: Vec<Dirent>| -> String {
            // Slot order, not sorted: the directory blocks must match.
            let names: Vec<String> = entries
                .into_iter()
                .map(|e| format!("{}={}", e.name, e.ino))
                .collect();
            names.join(",")
        };
        let mut g = Pcg32::new(seed);
        let mut log = Vec::with_capacity(ops + 64);
        for _ in 0..ops {
            let dir = DIRS[g.index(DIRS.len())];
            let pool = if dir.is_empty() { NAMES } else { NAMES_BELOW };
            let path = format!("{dir}/n{}", g.index(pool));
            let line = match g.index(8) {
                0 | 1 => format!("create {path}: {:?}", fs.create(&path).await),
                2 | 3 => format!("unlink {path}: {:?}", fs.unlink(&path).await),
                4 => format!("lookup {path}: {:?}", fs.lookup(&path).await),
                5 | 6 if !dir.is_empty() => match g.index(2) {
                    0 => format!("mkdir {dir}: {:?}", fs.mkdir(dir).await),
                    _ => format!("rmdir {dir}: {:?}", fs.unlink(dir).await),
                },
                _ => format!("ls {dir}/: {:?}", fs.readdir(dir).await.map(listing)),
            };
            log.push(line);
        }
        // What the blocks say (`readdir` decodes them; `MsgFs`'s
        // vnodes, the blocks they hold) against what lookups answer
        // from (`MsgFs`'s vnodes, the decoded entries).
        for dir in DIRS {
            let Ok(entries) = fs.readdir(dir).await else {
                continue;
            };
            for i in 0..NAMES {
                let name = format!("n{i}");
                let on_disk = entries.iter().find(|e| e.name == name).map(|e| e.ino);
                let answered = fs.lookup(&format!("{dir}/{name}")).await.ok();
                assert_eq!(answered, on_disk, "{which}: {dir}/{name}");
            }
            log.push(format!("final {dir}/: {}", listing(entries)));
        }
        log
    })
}

#[test]
fn namespace_storm_reads_the_same_from_owned_entries_and_from_blocks() {
    for cache in [ROOMY, TIGHT] {
        let msg = namespace_storm("msgfs", cache, 0xD1_4E57, 2500);
        let big = namespace_storm("biglock", cache, 0xD1_4E57, 2500);
        assert_same_storm(&msg, &big);
        // The storm must have exercised what it is for.
        for op in ["create", "unlink", "lookup", "mkdir", "rmdir", "ls"] {
            let done = |l: &&String| l.starts_with(op) && l.contains(": Ok(");
            assert!(
                msg.log.iter().filter(done).count() >= 20,
                "few `{op}` succeed"
            );
        }
        for refusal in ["Err(Exists)", "Err(NotFound)", "Err(NotEmpty)"] {
            let refused = |l: &&String| l.contains(refusal);
            let count = msg.log.iter().filter(refused).count();
            assert!(count >= 20, "few `{refusal}`");
        }
        if cache == TIGHT {
            // The namespace reads nothing from the cache once a group
            // task holds its bitmaps and inode table and a directory
            // vnode its blocks (a directory's vnode starts while it is
            // empty), so every fill is a group task's first use of one
            // of its own blocks, and no cache brings more. And until the
            // final `sync` it writes nothing the owners keep: a data
            // block reaches the disk zeroed, from the group that
            // allocated it, and at most once more, from the reap of the
            // directory it belonged to.
            let sb = Superblock::design(VOLUME_BLOCKS, 4);
            let (r, w) = (msg.disk_reads, msg.writes_before_sync);
            assert!(r <= sb.n_groups * (2 + sb.itable_blocks()), "{r} fills");
            let allocated = msg.blocks_allocated;
            assert!(
                w <= 2 * allocated,
                "{w} writes before the sync, {allocated} blocks allocated"
            );
        }
    }
}

/// A data storm from one seed over a few files of up to fifteen
/// blocks: writes at random offsets, reads, bursts of whole-file reads
/// in flight together, and unlinks that hand the blocks to the next
/// file.
fn data_storm(which: &'static str, cache: usize, seed: u64, ops: usize) -> Storm {
    const FILES: usize = 6;
    const MAX_OFF: u64 = 48_000;
    const MAX_LEN: u64 = 12_000;
    // What a read returned, short enough for a log line.
    let digest = |r: Result<Vec<u8>, chanos_vfs::FsError>| match r {
        Ok(data) => {
            let fnv = data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
            format!("{} bytes #{fnv:016x}", data.len())
        }
        Err(e) => format!("{e:?}"),
    };
    storm(which, cache, move |fs| async move {
        let mut g = Pcg32::new(seed);
        let mut log = Vec::with_capacity(ops);
        for _ in 0..ops {
            let path = format!("/f{}", g.index(FILES));
            let line = match g.index(8) {
                0 => format!("create {path}: {:?}", fs.create(&path).await),
                1..=3 => {
                    let (off, len) = (g.bounded(MAX_OFF), g.range(1, MAX_LEN) as usize);
                    let data = vec![g.next_u64() as u8; len];
                    let out = match fs.lookup(&path).await {
                        Ok(ino) => fs.write(ino, off, &data).await,
                        Err(e) => Err(e),
                    };
                    format!("write {path} {len}@{off}: {out:?}")
                }
                4 | 5 => {
                    let (off, len) = (g.bounded(MAX_OFF), g.range(1, MAX_LEN) as usize);
                    let out = match fs.lookup(&path).await {
                        Ok(ino) => fs.read(ino, off, len).await,
                        Err(e) => Err(e),
                    };
                    format!("read {path} {len}@{off}: {}", digest(out))
                }
                6 => {
                    // One task each: the lock engine's mutex is handed
                    // from task to task.
                    let whole = |i: usize| {
                        let fs = fs.clone();
                        chanos_rt::spawn(async move {
                            let ino = fs.lookup(&format!("/f{i}")).await?;
                            fs.read(ino, 0, 1 << 20).await
                        })
                    };
                    let reads: Vec<_> = (0..FILES).map(whole).collect();
                    let mut outs = Vec::with_capacity(FILES);
                    for read in reads {
                        outs.push(digest(read.join().await.expect("reader task")));
                    }
                    format!("read all: {}", outs.join(", "))
                }
                _ => format!("unlink {path}: {:?}", fs.unlink(&path).await),
            };
            log.push(line);
        }
        log
    })
}

/// With a cache far smaller than the working set, the message engine
/// — whose shards park readers and writers on fills and write-backs in
/// flight — must still answer exactly as the engine that does one
/// thing at a time, leave the same volume behind, and do it the same
/// way twice.
#[test]
fn small_cache_data_storm_reads_the_same_on_both_engines() {
    let msg = data_storm("msgfs", TIGHT, 0xDA7A_5702, 1200);
    let big = data_storm("biglock", TIGHT, 0xDA7A_5702, 1200);
    assert_same_storm(&msg, &big);
    for op in ["create", "write", "unlink"] {
        let done = |l: &&String| l.starts_with(op) && l.contains(": Ok(");
        let count = msg.log.iter().filter(done).count();
        assert!(count >= 50, "few `{op}` succeed: {count}");
    }
    let read = |l: &&String| l.starts_with("read /f") && l.contains(" bytes #");
    assert!(
        msg.log.iter().filter(read).count() >= 100,
        "few reads succeed"
    );
    assert_cache_was_tight(&msg);
    let again = data_storm("msgfs", TIGHT, 0xDA7A_5702, 1200);
    assert_eq!(msg.trace, again.trace, "one seed, two traces");
}
