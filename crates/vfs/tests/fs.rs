//! Engine-generic file-system tests: every scenario runs over all
//! three engines (big-lock, sharded, message-passing) and must behave
//! identically.

use chanos_drivers::{install_disk, spawn_disk_driver, DiskHw, DiskParams};
use chanos_sim::{Config, CoreId, Simulation};
use chanos_vfs::{BigLockFs, FileKind, FsError, MsgFs, ShardedFs, Vfs, ROOT_INO};

const DISK_BLOCKS: u64 = 2048;
const GROUPS: u64 = 4;

fn sim(cores: usize) -> Simulation {
    Simulation::with_config(Config {
        cores,
        ctx_switch: 10,
        ..Config::default()
    })
}

/// Builds a fresh fs of the requested engine inside the simulation.
async fn make_fs(which: &str, cores: usize) -> Vfs {
    make_fs_with_groups(which, cores, GROUPS).await
}

async fn make_fs_with_groups(which: &str, cores: usize, groups: u64) -> Vfs {
    let dev = {
        // Device cores must be added before tasks run; grab via ext?
        // Simpler: drivers accept any core; use the last CPU core as
        // the "device" — latency semantics are identical.
        CoreId((cores - 1) as u32)
    };
    let (hw, irq) = install_disk(DISK_BLOCKS, DiskParams::default(), dev);
    let disk = spawn_disk_driver(hw, irq, dev);
    let service: Vec<CoreId> = (0..cores as u32 - 1).map(CoreId).collect();
    match which {
        "biglock" => Vfs::Big(
            BigLockFs::format(disk, DISK_BLOCKS, groups, 256)
                .await
                .unwrap(),
        ),
        "sharded" => Vfs::Sharded(
            ShardedFs::format(disk, DISK_BLOCKS, groups, 8, 32)
                .await
                .unwrap(),
        ),
        "msgfs" => Vfs::Msg(
            MsgFs::format(disk, DISK_BLOCKS, groups, 8, 32, service)
                .await
                .unwrap(),
        ),
        other => panic!("unknown engine {other}"),
    }
}

fn for_each_engine(
    test: impl Fn(Vfs) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> + Copy + 'static,
) {
    for which in ["biglock", "sharded", "msgfs"] {
        let mut s = sim(4);
        s.block_on(async move {
            let fs = make_fs(which, 4).await;
            test(fs).await;
        })
        .unwrap_or_else(|e| panic!("engine {which}: {e}"));
    }
}

#[test]
fn create_write_read_roundtrip() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let ino = fs.create("/hello.txt").await.unwrap();
            fs.write(ino, 0, b"hello, multicore world").await.unwrap();
            let back = fs.read(ino, 0, 100).await.unwrap();
            assert_eq!(back, b"hello, multicore world", "{}", fs.name());
            let st = fs.stat(ino).await.unwrap();
            assert_eq!(st.size, 22);
            assert_eq!(st.kind, FileKind::File);
        })
    });
}

#[test]
fn lookup_resolves_nested_paths() {
    for_each_engine(|fs| {
        Box::pin(async move {
            fs.mkdir("/a").await.unwrap();
            fs.mkdir("/a/b").await.unwrap();
            let f = fs.create("/a/b/c.txt").await.unwrap();
            assert_eq!(fs.lookup("/a/b/c.txt").await.unwrap(), f, "{}", fs.name());
            assert_eq!(
                fs.lookup("/a/missing").await,
                Err(FsError::NotFound),
                "{}",
                fs.name()
            );
        })
    });
}

/// A walk that stops short is answered by the directory where it
/// stopped: a missing name at depth 1 or 2 is `NotFound`, a file on
/// the way is `NotDir`, for every request that walks.
#[test]
fn a_walk_that_stops_short_is_refused_where_it_stops() {
    for_each_engine(|fs| {
        Box::pin(async move {
            fs.mkdir("/a").await.unwrap();
            fs.create("/a/f").await.unwrap();
            let name = fs.name();
            for path in ["/missing", "/missing/x", "/a/missing", "/a/missing/x"] {
                assert_eq!(
                    fs.lookup(path).await,
                    Err(FsError::NotFound),
                    "{name} {path}"
                );
            }
            assert_eq!(
                fs.create("/missing/x").await,
                Err(FsError::NotFound),
                "{name}"
            );
            assert_eq!(
                fs.mkdir("/a/missing/x").await,
                Err(FsError::NotFound),
                "{name}"
            );
            assert_eq!(
                fs.unlink("/a/missing").await,
                Err(FsError::NotFound),
                "{name}"
            );
            assert_eq!(
                fs.unlink("/a/missing/x").await,
                Err(FsError::NotFound),
                "{name}"
            );
            assert_eq!(
                fs.readdir("/a/missing").await,
                Err(FsError::NotFound),
                "{name}"
            );
            for path in ["/a/f/x", "/a/f/x/y"] {
                assert_eq!(fs.lookup(path).await, Err(FsError::NotDir), "{name} {path}");
                assert_eq!(fs.create(path).await, Err(FsError::NotDir), "{name} {path}");
                assert_eq!(fs.unlink(path).await, Err(FsError::NotDir), "{name} {path}");
            }
            assert_eq!(fs.readdir("/a/f").await, Err(FsError::NotDir), "{name}");
            assert_eq!(fs.readdir("/a/f/x").await, Err(FsError::NotDir), "{name}");
        })
    });
}

/// A path with no components names the root: `lookup` answers its
/// inode number and `readdir` lists it; the root has no name to create
/// or unlink.
#[test]
fn an_empty_path_names_the_root() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let name = fs.name();
            fs.create("/top").await.unwrap();
            for path in ["", "/", "//"] {
                assert_eq!(fs.lookup(path).await, Ok(ROOT_INO), "{name} {path:?}");
                let listed = fs.readdir(path).await.unwrap();
                let names: Vec<_> = listed.into_iter().map(|d| d.name).collect();
                assert_eq!(names, ["top"], "{name} {path:?}");
                assert_eq!(
                    fs.create(path).await,
                    Err(FsError::Invalid),
                    "{name} {path:?}"
                );
                assert_eq!(
                    fs.unlink(path).await,
                    Err(FsError::Invalid),
                    "{name} {path:?}"
                );
            }
        })
    });
}

#[test]
fn duplicate_create_fails() {
    for_each_engine(|fs| {
        Box::pin(async move {
            fs.create("/x").await.unwrap();
            assert_eq!(fs.create("/x").await, Err(FsError::Exists), "{}", fs.name());
        })
    });
}

#[test]
fn write_at_offset_and_holes() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let ino = fs.create("/sparse").await.unwrap();
            // Write beyond block 0 leaving a hole.
            fs.write(ino, 10_000, b"tail").await.unwrap();
            let st = fs.stat(ino).await.unwrap();
            assert_eq!(st.size, 10_004, "{}", fs.name());
            let hole = fs.read(ino, 0, 16).await.unwrap();
            assert_eq!(hole, vec![0u8; 16], "{}: hole must read zero", fs.name());
            let tail = fs.read(ino, 10_000, 4).await.unwrap();
            assert_eq!(tail, b"tail");
        })
    });
}

#[test]
fn large_file_spans_indirect_blocks() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let ino = fs.create("/big").await.unwrap();
            // 60 blocks: beyond the 12 direct pointers.
            let chunk = vec![0xCDu8; 4096];
            for i in 0..60u64 {
                fs.write(ino, i * 4096, &chunk).await.unwrap();
            }
            let st = fs.stat(ino).await.unwrap();
            assert_eq!(st.size, 60 * 4096, "{}", fs.name());
            let back = fs.read(ino, 59 * 4096, 4096).await.unwrap();
            assert_eq!(back, chunk, "{}", fs.name());
        })
    });
}

#[test]
fn readdir_lists_live_entries() {
    for_each_engine(|fs| {
        Box::pin(async move {
            fs.mkdir("/d").await.unwrap();
            for n in ["one", "two", "three"] {
                fs.create(&format!("/d/{n}")).await.unwrap();
            }
            fs.unlink("/d/two").await.unwrap();
            let mut names: Vec<String> = fs
                .readdir("/d")
                .await
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect();
            names.sort();
            assert_eq!(names, vec!["one", "three"], "{}", fs.name());
        })
    });
}

#[test]
fn unlink_frees_and_name_is_reusable() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let a = fs.create("/f").await.unwrap();
            fs.write(a, 0, &vec![1u8; 8192]).await.unwrap();
            fs.unlink("/f").await.unwrap();
            assert_eq!(
                fs.lookup("/f").await,
                Err(FsError::NotFound),
                "{}",
                fs.name()
            );
            let b = fs.create("/f").await.unwrap();
            let st = fs.stat(b).await.unwrap();
            assert_eq!(st.size, 0, "{}: new file must be empty", fs.name());
        })
    });
}

#[test]
fn unlink_nonempty_dir_refused() {
    for_each_engine(|fs| {
        Box::pin(async move {
            fs.mkdir("/d").await.unwrap();
            fs.create("/d/child").await.unwrap();
            assert_eq!(
                fs.unlink("/d").await,
                Err(FsError::NotEmpty),
                "{}",
                fs.name()
            );
            fs.unlink("/d/child").await.unwrap();
            fs.unlink("/d").await.unwrap();
            assert_eq!(fs.lookup("/d").await, Err(FsError::NotFound));
        })
    });
}

#[test]
fn file_in_place_overwrite() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let ino = fs.create("/f").await.unwrap();
            fs.write(ino, 0, b"aaaaaaaa").await.unwrap();
            fs.write(ino, 4, b"BB").await.unwrap();
            let back = fs.read(ino, 0, 8).await.unwrap();
            assert_eq!(back, b"aaaaBBaa", "{}", fs.name());
            assert_eq!(fs.stat(ino).await.unwrap().size, 8);
        })
    });
}

#[test]
fn concurrent_private_files_do_not_interfere() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let hs: Vec<_> = (0..6u32)
                .map(|t| {
                    let fs = fs.clone();
                    chanos_sim::spawn_on(CoreId(t % 3), async move {
                        let path = format!("/t{t}");
                        let ino = fs.create(&path).await.unwrap();
                        let pat = vec![t as u8 + 1; 5000];
                        fs.write(ino, 0, &pat).await.unwrap();
                        let back = fs.read(ino, 0, 5000).await.unwrap();
                        assert_eq!(back, pat, "{} task {t}", fs.name());
                    })
                })
                .collect();
            for h in hs {
                h.join().await.unwrap();
            }
        })
    });
}

#[test]
fn concurrent_creates_in_one_dir_yield_unique_inos() {
    for_each_engine(|fs| {
        Box::pin(async move {
            fs.mkdir("/shared").await.unwrap();
            let hs: Vec<_> = (0..8u32)
                .map(|t| {
                    let fs = fs.clone();
                    chanos_sim::spawn_on(CoreId(t % 3), async move {
                        fs.create(&format!("/shared/f{t}")).await.unwrap()
                    })
                })
                .collect();
            let mut inos = Vec::new();
            for h in hs {
                inos.push(h.join().await.unwrap());
            }
            inos.sort_unstable();
            inos.dedup();
            assert_eq!(inos.len(), 8, "{}: inode numbers must be unique", fs.name());
            assert_eq!(fs.readdir("/shared").await.unwrap().len(), 8);
        })
    });
}

#[test]
fn racing_creates_of_same_name_one_wins() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let hs: Vec<_> = (0..4u32)
                .map(|t| {
                    let fs = fs.clone();
                    chanos_sim::spawn_on(
                        CoreId(t % 3),
                        async move { fs.create("/contested").await },
                    )
                })
                .collect();
            let mut ok = 0;
            let mut exists = 0;
            for h in hs {
                match h.join().await.unwrap() {
                    Ok(_) => ok += 1,
                    Err(FsError::Exists) => exists += 1,
                    Err(e) => panic!("{}: unexpected error {e:?}", fs.name()),
                }
            }
            assert_eq!(ok, 1, "{}: exactly one create must win", fs.name());
            assert_eq!(exists, 3);
        })
    });
}

#[test]
fn data_survives_sync() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let ino = fs.create("/persist").await.unwrap();
            fs.write(ino, 0, b"durable").await.unwrap();
            fs.sync().await.unwrap();
            let back = fs.read(ino, 0, 7).await.unwrap();
            assert_eq!(back, b"durable", "{}", fs.name());
        })
    });
}

#[test]
fn msgfs_spawns_vnode_threads() {
    let mut s = sim(4);
    s.block_on(async {
        let fs = make_fs("msgfs", 4).await;
        for i in 0..5 {
            let ino = fs.create(&format!("/v{i}")).await.unwrap();
            fs.write(ino, 0, b"x").await.unwrap();
        }
    })
    .unwrap();
    let spawned = s.stats().counter("msgfs.vnode_threads_spawned");
    assert_eq!(spawned, 6, "a vnode thread per inode (root + 5 files)");
}

/// A vnode is started once, by the call that makes its file. A call by
/// number asks the number's group for its vnode, and a number no live
/// file holds — one never handed out in each group (the root's group
/// included), one past the volume's last group, or a removed file's —
/// is answered `Gone`, by a pipelined `stat_burst` too, and starts
/// nothing. The root's number reaches the root.
#[test]
fn a_call_on_a_number_no_file_holds_starts_no_vnode() {
    let mut s = sim(4);
    s.block_on(async {
        let fs = make_fs("msgfs", 4).await;
        let Vfs::Msg(msg) = &fs else { unreachable!() };
        let reaped = fs.create("/f").await.unwrap();
        fs.unlink("/f").await.unwrap();
        let sb = chanos_vfs::Superblock::design(DISK_BLOCKS, GROUPS);
        let per = sb.inodes_per_group;
        let never = (0..GROUPS).map(|g| g * per + per / 2);
        let spawned = || chanos_sim::stat_get("msgfs.vnode_threads_spawned");
        let before = spawned();
        for ino in never.chain([sb.total_inodes(), reaped]) {
            assert_eq!(fs.stat(ino).await.err(), Some(FsError::Gone), "stat {ino}");
            assert_eq!(
                fs.read(ino, 0, 1).await.err(),
                Some(FsError::Gone),
                "read {ino}"
            );
            let wrote = fs.write(ino, 0, b"x").await;
            assert_eq!(wrote.err(), Some(FsError::Gone), "write {ino}");
            let burst = msg.stat_burst(ino, 4).await;
            assert_eq!(burst.err(), Some(FsError::Gone), "stat_burst {ino}");
        }
        assert_eq!(spawned(), before, "a call by number started a vnode");
        assert_eq!(fs.stat(ROOT_INO).await.map(|st| st.kind), Ok(FileKind::Dir));
    })
    .unwrap();
}

/// A number freed by an unlink goes to the next file made, and from
/// then on it names that file: a call by number reaches `/b`, while a
/// file still held open from `/a`, which had the number first, answers
/// `Gone`. On MsgFs the number's group forgot `/a`'s vnode as it freed
/// the number and keeps `/b`'s; a lock engine's file checks the
/// number's generation.
#[test]
fn a_reused_number_names_its_new_file_and_the_old_file_is_gone() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let name = fs.name();
            let a = fs.create_open("/a").await.unwrap();
            fs.write_file(&a, 0, b"old").await.unwrap();
            let old = fs.stat_file(&a).await.unwrap().ino;
            fs.unlink("/a").await.unwrap();
            let b = fs.create("/b").await.unwrap();
            assert_eq!(b, old, "{name}: first-fit hands out /a's number again");
            fs.write(b, 0, b"the new file").await.unwrap();
            let st = fs.stat(b).await.unwrap();
            assert_eq!((st.ino, st.size), (b, 12), "{name}: by number");
            assert_eq!(fs.stat_file(&a).await.err(), Some(FsError::Gone), "{name}");
            let read = fs.read_file(&a, 0, 12).await;
            assert_eq!(read.err(), Some(FsError::Gone), "{name}");
            assert_eq!(fs.read(b, 0, 12).await.unwrap(), b"the new file", "{name}");
        })
    });
}

/// The placement rule (FFS): directories spread over the cylinder
/// groups, a file goes to its directory's group — the same on every
/// engine, so the three volumes stay the same bytes.
#[test]
fn directories_spread_over_groups_and_files_follow_them() {
    const GROUPS: u64 = 8;
    let sb = chanos_vfs::Superblock::design(DISK_BLOCKS, GROUPS);
    let mut placed = Vec::new();
    for which in ["biglock", "sharded", "msgfs"] {
        let mut s = sim(4);
        let inos = s
            .block_on(async move {
                let fs = make_fs_with_groups(which, 4, GROUPS).await;
                let mut inos = Vec::new();
                for d in 0..16 {
                    let dir = fs.mkdir(&format!("/d{d}")).await.unwrap();
                    inos.push((dir, 0));
                }
                for (d, pair) in inos.iter_mut().enumerate() {
                    pair.1 = fs.create(&format!("/d{d}/f")).await.unwrap();
                }
                inos
            })
            .unwrap_or_else(|e| panic!("engine {which}: {e}"));
        let mut groups: Vec<u64> = inos.iter().map(|&(dir, _)| sb.group_of_ino(dir)).collect();
        for &(dir, file) in &inos {
            assert_eq!(
                sb.group_of_ino(file),
                sb.group_of_ino(dir),
                "{which}: a file lands in its directory's group"
            );
        }
        groups.sort_unstable();
        groups.dedup();
        assert_eq!(groups.len(), 8, "{which}: 16 directories use all 8 groups");
        placed.push(inos);
    }
    assert_eq!(placed[0], placed[1], "biglock vs sharded");
    assert_eq!(placed[0], placed[2], "biglock vs msgfs");
}

/// A `create` that races the removal of its directory gets an answer
/// either way: it lands first and the `unlink` is refused, or the
/// directory is gone and the walk to it is refused with `NotFound`.
/// Both requests are walked through the root's vnode, which serves them
/// one at a time: a `create` it forwards to the directory is queued
/// there ahead of the `Condemn` of an `unlink` that came later, and a
/// `create` that came after an `unlink` is looked up only once the
/// directory has left the root's entries. So the `create` cannot meet
/// the directory's vnode while it reaps (while the caller walked the
/// path itself, 8 of 61 delays did, and were refused with `Gone`);
/// `call_on_a_stale_handle_is_answered_at_any_point_of_the_reap` keeps
/// `Gone` covered through a stale inode number.
#[test]
fn create_racing_a_reaping_directory_is_answered() {
    let (mut landed, mut reaping, mut gone) = (0, 0, 0);
    // How long after the `create` the `unlink` starts, in cycles
    // (negative: before it).
    for delay in (-500i64..=1_000).step_by(25) {
        let mut s = sim(4);
        let (unlinked, created, dir_after, file_after) = s
            .block_on(async move {
                let fs = make_fs("msgfs", 4).await;
                fs.mkdir("/d").await.unwrap();
                let remover = {
                    let fs = fs.clone();
                    chanos_sim::spawn_on(CoreId(0), async move {
                        chanos_sim::sleep(delay.max(0) as u64).await;
                        fs.unlink("/d").await
                    })
                };
                let creator = {
                    let fs = fs.clone();
                    chanos_sim::spawn_on(CoreId(1), async move {
                        chanos_sim::sleep((-delay).max(0) as u64).await;
                        fs.create("/d/x").await
                    })
                };
                let unlinked = remover.join().await.unwrap();
                let created = creator.join().await.unwrap();
                (
                    unlinked,
                    created,
                    fs.lookup("/d").await,
                    fs.lookup("/d/x").await,
                )
            })
            .unwrap_or_else(|e| panic!("delay {delay}: a call was never answered: {e}"));
        match (unlinked, created) {
            (Err(FsError::NotEmpty), Ok(ino)) => {
                landed += 1;
                assert_eq!(file_after, Ok(ino), "delay {delay}");
            }
            (Ok(()), Err(e @ (FsError::Gone | FsError::NotFound))) => {
                if e == FsError::Gone {
                    reaping += 1;
                } else {
                    gone += 1;
                }
                assert_eq!(dir_after, Err(FsError::NotFound), "delay {delay}");
            }
            other => panic!("delay {delay}: {other:?}"),
        }
    }
    assert!(
        landed > 0 && gone > 0,
        "{landed} landed, {reaping} met the reaping vnode, {gone} came after"
    );
    assert_eq!(
        reaping, 0,
        "{landed} landed, {reaping} met the reaping vnode, {gone} came after"
    );
}

/// A call on an inode number whose file is being removed is answered
/// too, whenever it arrives: before the `Condemn` (served), while the
/// vnode is reaping or after it has exited (refused). The lock engines'
/// fd tables and set-up code hold exactly such numbers; a process on
/// MsgFs holds the vnode's port, which is refused the same way. A call
/// by number asks the number's group for the vnode's port first, so the
/// unlink starts `UNLINK_AT` cycles into the sweep: with it at once,
/// every call of the sweep reached the vnode after its `Condemn` (0
/// served, 161 refused).
#[test]
fn call_on_a_stale_handle_is_answered_at_any_point_of_the_reap() {
    const UNLINK_AT: u64 = 2_000;
    let (mut served, mut refused) = (0, 0);
    for delay in (0u64..=8_000).step_by(50) {
        let mut s = sim(4);
        let stat = s
            .block_on(async move {
                let fs = make_fs("msgfs", 4).await;
                let ino = fs.create("/f").await.unwrap();
                fs.write(ino, 0, b"doomed").await.unwrap();
                let holder = {
                    let fs = fs.clone();
                    chanos_sim::spawn_on(CoreId(1), async move {
                        chanos_sim::sleep(delay).await;
                        fs.stat(ino).await
                    })
                };
                chanos_sim::sleep(UNLINK_AT).await;
                fs.unlink("/f").await.unwrap();
                holder.join().await.unwrap()
            })
            .unwrap_or_else(|e| panic!("delay {delay}: a call was never answered: {e}"));
        match stat {
            Ok(st) => {
                served += 1;
                assert_eq!(st.size, 6, "delay {delay}");
            }
            Err(FsError::Gone) => refused += 1,
            Err(e) => panic!("delay {delay}: {e:?}"),
        }
    }
    assert!(
        served > 0 && refused > 0,
        "{served} served, {refused} refused"
    );
}

/// A block is not cleared when it is allocated, so a freed block keeps
/// its last file's bytes until its next first write, and that write
/// must make the whole block: part of a block starts from zeroes, never
/// from what the block holds. `/a`'s two blocks of `0xAA` are freed and
/// synced (the disk and the cache both hold them) before `/b` is
/// created, and `/b`'s first write reuses them: 100 bytes at offset 10
/// read back with zeroes around them; a whole block reads back exactly;
/// 100 bytes into file block 13, mapped through a fresh indirect block
/// that is `/a`'s second block, read back with zeroes around them and
/// file block 12, a hole behind the same indirect block, reads as
/// zeroes.
#[test]
fn a_reused_block_never_shows_its_last_files_bytes() {
    const BLOCK: u64 = 4096;
    async fn reused(fs: &Vfs) -> u64 {
        let a = fs.create("/a").await.unwrap();
        fs.write(a, 0, &[0xAA; 2 * BLOCK as usize]).await.unwrap();
        fs.unlink("/a").await.unwrap();
        fs.sync().await.unwrap();
        fs.create("/b").await.unwrap()
    }
    let around = |at: u64, len: usize| {
        let mut want = vec![0u8; len];
        want[at as usize..at as usize + 100].fill(0xBB);
        want
    };
    for_each_engine(move |fs| {
        Box::pin(async move {
            let b = reused(&fs).await;
            fs.write(b, 10, &[0xBB; 100]).await.unwrap();
            let back = fs.read(b, 0, BLOCK as usize).await.unwrap();
            assert_eq!(
                back,
                around(10, 110),
                "{}: a partial first write",
                fs.name()
            );
        })
    });
    for_each_engine(|fs| {
        Box::pin(async move {
            let b = reused(&fs).await;
            let whole: Vec<u8> = (0..BLOCK).map(|i| i as u8).collect();
            fs.write(b, 0, &whole).await.unwrap();
            let back = fs.read(b, 0, BLOCK as usize).await.unwrap();
            assert_eq!(back, whole, "{}: a whole first write", fs.name());
        })
    });
    for_each_engine(move |fs| {
        Box::pin(async move {
            let b = reused(&fs).await;
            fs.write(b, 13 * BLOCK + 10, &[0xBB; 100]).await.unwrap();
            let back = fs.read(b, 12 * BLOCK, 2 * BLOCK as usize).await.unwrap();
            assert_eq!(
                back,
                around(BLOCK + 10, BLOCK as usize + 110),
                "{}: a partial first write behind a fresh indirect block",
                fs.name()
            );
        })
    });
}

/// A read that lies in one directly mapped block is the block's cache
/// shard's to answer: the vnode hands it on with its caller's reply
/// (`msgfs.reads_handed_on`), warm or cold. A read that spans blocks,
/// goes through the indirect block, falls in a hole or reads nothing is
/// gathered by the vnode. Every engine answers the same bytes.
#[test]
fn a_one_block_read_is_answered_by_its_cache_shard() {
    const BLOCK: u64 = 4096;
    let file = || {
        let mut want: Vec<u8> = (0..2 * BLOCK).map(|i| (i % 251) as u8).collect();
        want.resize(13 * BLOCK as usize, 0);
        want.extend_from_slice(&[0xCC; 10]);
        want
    };
    for_each_engine(move |fs| {
        Box::pin(async move {
            let want = file();
            let f = fs.create("/f").await.unwrap();
            fs.write(f, 0, &want[..2 * BLOCK as usize]).await.unwrap();
            fs.write(f, 13 * BLOCK, &[0xCC; 10]).await.unwrap();
            // Push the file's blocks out of the cache: the first read
            // below is a miss.
            for i in 0..80 {
                let g = fs.create(&format!("/g{i}")).await.unwrap();
                fs.write(g, 0, &[i as u8; 4 * BLOCK as usize])
                    .await
                    .unwrap();
            }
            let misses = chanos_rt::stat_get("cache.misses");
            let handed = || chanos_rt::stat_get("msgfs.reads_handed_on");
            for (off, len, one_block) in [
                (0, BLOCK, true),
                (10, 100, true),
                (BLOCK + 5, 4_000, true),
                (BLOCK - 10, 20, false),
                (3 * BLOCK, 10, false),
                (13 * BLOCK, 100, false),
                (20 * BLOCK, 10, false),
                (0, 0, false),
            ] {
                let before = handed();
                let got = fs.read(f, off, len as usize).await.unwrap();
                let (from, to) = (off as usize, want.len().min((off + len) as usize));
                let expected = want.get(from..to).unwrap_or_default();
                assert_eq!(got, expected, "{}: {len} bytes at {off}", fs.name());
                if let Vfs::Msg(_) = fs {
                    let handed_on = handed() - before;
                    assert_eq!(handed_on, one_block as u64, "{len} bytes at {off}");
                }
                assert!(
                    chanos_rt::stat_get("cache.misses") > misses,
                    "{}",
                    fs.name()
                );
            }
        })
    });
}

/// A stale handle used after its file is gone must not spoil the inode
/// number for the file that gets it next.
#[test]
fn a_reused_inode_number_is_not_haunted_by_a_stale_handle() {
    for_each_engine(|fs| {
        Box::pin(async move {
            let old = fs.create("/old").await.unwrap();
            fs.unlink("/old").await.unwrap();
            assert!(fs.stat(old).await.is_err(), "{}", fs.name());
            let new = fs.create("/new").await.unwrap();
            assert_eq!(new, old, "{}: first-fit reuses the number", fs.name());
            fs.write(new, 0, b"fresh").await.unwrap();
            assert_eq!(fs.read(new, 0, 5).await.unwrap(), b"fresh", "{}", fs.name());
        })
    });
}

/// A number freed by a reap may be handed at once to a `create` in
/// another directory, which publishes its new vnode; the reap must have
/// left the registry before it freed the number, or its late `Retire`
/// would withdraw the new file's vnode. One group, so the new file takes
/// the reaped one's number whenever it is allocated after the free.
/// From every point of the `unlink` on, the reaping vnode's core is
/// kept busy for a while and a `create` runs in another directory; the
/// new file must be reachable by number and by name.
#[test]
fn a_reaped_number_handed_out_again_reaches_its_new_file() {
    let mut reused = 0;
    for delay in (0u64..=3_000).step_by(25) {
        let mut s = sim(4);
        let took_it = s
            .block_on(async move {
                let fs = make_fs_with_groups("msgfs", 4, 1).await;
                fs.mkdir("/d1").await.unwrap();
                fs.mkdir("/d2").await.unwrap();
                fs.create("/d1/pad").await.unwrap();
                let old = fs.create("/d1/a").await.unwrap();
                // A free slot in `/d2`: the `create` stores no inode and
                // allocates no block between its number and its vnode.
                fs.create("/d2/x").await.unwrap();
                fs.unlink("/d2/x").await.unwrap();
                // Vnodes are placed ino-mod over the service cores 0–2.
                let reaper = CoreId((old % 3) as u32);
                assert_ne!(reaper, CoreId(0), "the group's core stays free");
                chanos_sim::spawn_on(reaper, async move {
                    chanos_sim::sleep(delay).await;
                    chanos_sim::delay(20_000).await;
                });
                let creator = {
                    let fs = fs.clone();
                    chanos_sim::spawn_on(CoreId(2), async move {
                        chanos_sim::sleep(delay).await;
                        fs.create("/d2/b").await.unwrap()
                    })
                };
                fs.unlink("/d1/a").await.unwrap();
                let new = creator.join().await.unwrap();
                let st = fs.stat(new).await;
                assert_eq!(st.map(|st| st.ino), Ok(new), "delay {delay}: stat");
                assert_eq!(fs.unlink("/d2/b").await, Ok(()), "delay {delay}: unlink");
                new == old
            })
            .unwrap_or_else(|e| panic!("delay {delay}: {e}"));
        reused += u32::from(took_it);
    }
    assert!(reused > 0, "no create took the reaped number");
}

/// A lock engine's file answers `Gone` once its number was freed, even
/// when its unlink and the number's next file land while the call waits
/// for the inode's lock: the generation is read where the name is
/// resolved and checked under the inode's lock, which the unlink holds
/// when it bumps it (BigLockFs: the big lock; ShardedFs: the inode's
/// rwlock, held for writing). A `stat` through the file is made at every
/// point of an unlink that a `create` is queued behind; it must answer
/// the old file or `Gone`, never the freed record or the new file.
/// (While the check ran before the call took the lock, a call made
/// during the unlink passed it and then read the freed number.)
#[test]
fn a_lock_engines_file_is_checked_under_the_lock_its_unlink_holds() {
    use chanos_rt::{reply_channel, ReplyBatch};
    use chanos_vfs::FileCall;

    for which in ["biglock", "sharded"] {
        let (mut old, mut gone) = (0, 0);
        for delay in (0u64..=3_000).step_by(20) {
            let mut s = sim(4);
            let (stat, reused) = s
                .block_on(async move {
                    let fs = make_fs(which, 4).await;
                    let ino = fs.create("/old").await.unwrap();
                    fs.write(ino, 0, b"old bytes").await.unwrap();
                    let file = fs.open("/old").await.unwrap();
                    let unlink = {
                        let fs = fs.clone();
                        chanos_sim::spawn_on(CoreId(1), async move {
                            chanos_sim::sleep(200).await;
                            fs.unlink("/old").await.unwrap();
                        })
                    };
                    // Queued behind the unlink: it takes the freed number.
                    let create = {
                        let fs = fs.clone();
                        chanos_sim::spawn_on(CoreId(2), async move {
                            chanos_sim::sleep(210).await;
                            fs.create("/new").await.unwrap()
                        })
                    };
                    let stat = chanos_sim::spawn_on(CoreId(0), async move {
                        chanos_sim::sleep(delay).await;
                        let (reply, answer) = reply_channel();
                        let mut replies = ReplyBatch::default();
                        fs.on_file(&file, FileCall::Stat { reply }, &mut replies)
                            .await;
                        replies.flush();
                        answer.recv().await.unwrap()
                    });
                    unlink.join().await.unwrap();
                    let new = create.join().await.unwrap();
                    (stat.join().await.unwrap(), new == ino)
                })
                .unwrap_or_else(|e| panic!("{which}, delay {delay}: {e}"));
            assert!(reused, "{which}: the new file takes the old number");
            match stat {
                Ok(st) if st.size == 9 => old += 1,
                Err(FsError::Gone) => gone += 1,
                other => panic!("{which}, delay {delay}: the stat answered {other:?}"),
            }
        }
        assert!(old > 0 && gone > 0, "{which}: {old} old, {gone} gone");
    }
}

/// The benchmark ladder's machine and volume — 16 cores, the file
/// system's servers over cores 0–3 (disk and driver on 3), 8192 blocks
/// in 8 groups, 4 cache shards of 128 blocks — with `test` run as a task
/// on core 0, where the ladder's vfs rungs call from.
fn on_the_ladder_machine<T: 'static, Fut>(test: impl FnOnce(MsgFs) -> Fut + 'static) -> T
where
    Fut: std::future::Future<Output = T> + 'static,
{
    let mut s = Simulation::with_config(Config {
        cores: 16,
        ..Config::default()
    });
    s.block_on(async move {
        let dev = CoreId(3);
        let (hw, irq) = install_disk(8192, DiskParams::default(), dev);
        let disk = spawn_disk_driver(hw, irq, dev);
        let service = (0..4).map(CoreId).collect();
        let fs = MsgFs::format(disk, 8192, 8, 4, 128, service).await.unwrap();
        chanos_sim::spawn_on(CoreId(0), test(fs))
            .join()
            .await
            .unwrap()
    })
    .unwrap()
}

/// What the traced benchmark run calls `vfs.create_unlink_cycles`: an
/// unloaded `create` + `unlink` in a warm directory. While a group task
/// fetched its bitmaps and inode-table blocks from the cache per touch
/// the pair cost 16 483 cycles there and 16 653 here (a directory with
/// nothing else in it), twelve sequential shard round trips on the
/// group tasks' side; with one write-through per request and the
/// directory's unchanged inode not stored, three are left (10 708 is
/// what the write-through alone reads on the benchmark's ladder). While
/// the directory vnode read its block back before each 64-byte entry
/// the pair cost 8 176 here: two shard round trips and two block copies
/// more than writing the held block through. While the group tasks and
/// the directory vnode wrote each block through whole — a 4 KiB copy
/// in a shard for a bitmap bit, a 128-byte inode record or a 64-byte
/// dirent — it cost 6 576: the same round trips, and 512 cycles of
/// copy per block. While they patched the bytes they changed into the
/// shards' copies, once per burst, it cost 4 035. Since the owners keep
/// their blocks until a `sync`, no request of the pair reaches a cache
/// shard. While the caller walked each path itself — a round trip to the
/// root's vnode for `d0`, then one to `d0`'s — the pair cost 2 691; now
/// each is one call to the root's vnode, which forwards it to `d0`'s.
/// A `create` answers with the new file's vnode port, so `d0` starts and
/// registers that vnode in its own turn (the `create` 730 → 1 070
/// cycles) and the `unlink` finds it running with its inode loaded
/// (1 749 → 1 507): while the `unlink` started it, the pair cost 2 479.
/// While the new vnode loaded its record from its group, and each
/// registry write carried a task number and was answered with the
/// winning port, the pair cost 2 577; now the vnode starts with the
/// record its `create` wrote. While the vnode's port lived in a
/// replicated registry, the `create` waited for its `Insert` and the
/// reap for its `Retire` before a separate `FreeInode` trip, and the
/// pair cost 2 459; now `d0` keeps the port beside the entry and the
/// group records it with the number, so the `create` waits for nothing
/// more than the number, and the reap's clear and free are one burst.
#[test]
fn create_unlink_pair_in_a_warm_directory_costs_exact_cycles() {
    let pair = || {
        on_the_ladder_machine(|fs| async move {
            fs.mkdir("/d0").await.unwrap();
            let mut took = 0;
            for _ in 0..5 {
                let t = chanos_sim::now();
                fs.create("/d0/ladder").await.unwrap();
                fs.unlink("/d0/ladder").await.unwrap();
                took = chanos_sim::now() - t;
            }
            took
        })
    };
    let took = pair();
    assert_eq!(took, pair(), "one program, one count");
    // The bound outlives a change to the cost model; the count pins
    // this one.
    assert!(
        took <= 10_708,
        "{took} cycles: a group task fetches its blocks per touch again"
    );
    assert!(
        took < 8_176,
        "{took} cycles: the directory reads its block before a dirent write again"
    );
    assert!(
        took < 6_576,
        "{took} cycles: a group or a directory writes its block through whole again"
    );
    assert!(
        took < 4_035,
        "{took} cycles: a group or a directory writes its blocks through the cache again"
    );
    assert!(
        took < 2_691,
        "{took} cycles: the caller walks the path, a round trip per component, again"
    );
    assert!(
        took < 2_577,
        "{took} cycles: a new vnode loads its record, or a registry write is answered with a port, again"
    );
    assert!(
        took < 2_459,
        "{took} cycles: a create or a reap waits for a registry write again"
    );
    assert_eq!(took, 1_736);
}

/// Over warm `create`/`write`/`unlink` rounds nothing reads the cache.
/// The group tasks allocate and free an inode and a block a round from
/// their own copies — each of their blocks came from the cache once,
/// the first time it was used — and the directory vnode writes each
/// 64-byte dirent into the block it holds. (While it read that block
/// back before each of the two dirent writes, this was 200 reads.)
#[test]
fn nothing_in_a_warm_directory_reads_the_cache() {
    let reads = || chanos_sim::stat_get("cache.hits") + chanos_sim::stat_get("cache.misses");
    on_the_ladder_machine(move |fs| async move {
        let block = vec![7u8; 4096];
        let round = || async {
            let ino = fs.create("/d0/f").await.unwrap();
            fs.write(ino, 0, block.clone()).await.unwrap();
            fs.unlink("/d0/f").await.unwrap();
        };
        fs.mkdir("/d0").await.unwrap();
        round().await;
        let warm = reads();
        for _ in 0..100 {
            round().await;
        }
        assert_eq!(reads() - warm, 0);
    });
}

/// A reap sends its group one burst: its `ClearInode`, its `FreeInode`
/// and the file's `FreeBlock`s are all submitted before the first
/// answer is awaited, and the group task drains them together. The
/// burst writes nothing through: the group keeps the data bitmap, the
/// inode bitmap and the inode-table block dirty until a `sync`, and the
/// directory its zeroed dirent. With a round trip per free and per
/// write-through, and the directory's block read back before its entry
/// was zeroed, the `unlink` of a warm 3-block file cost 7 615 cycles;
/// with every block written through whole, 3 944; with the changed
/// bytes patched into the shards' copies once per burst, 2 422; with
/// the caller walking to `d0` before asking it, 1 613; with the
/// registry's `Retire` carrying a task number and answered with a
/// flag, 1 507; with the `FreeInode` a burst of its own after the
/// `Retire`, 1 468.
#[test]
fn a_reap_reaches_its_group_as_one_burst() {
    let unlink = || {
        on_the_ladder_machine(|fs| async move {
            fs.mkdir("/d0").await.unwrap();
            let data = vec![7u8; 3 * 4096];
            let mut took = (0, 0);
            for _ in 0..3 {
                let ino = fs.create("/d0/f").await.unwrap();
                fs.write(ino, 0, data.clone()).await.unwrap();
                let through = chanos_sim::stat_get("msgfs.group_write_throughs");
                let t = chanos_sim::now();
                fs.unlink("/d0/f").await.unwrap();
                took = (
                    chanos_sim::now() - t,
                    chanos_sim::stat_get("msgfs.group_write_throughs") - through,
                );
            }
            took
        })
    };
    let (took, through) = unlink();
    assert_eq!((took, through), unlink(), "one program, one count");
    assert_eq!(through, 0, "a reap's bursts reach no cache shard");
    assert!(
        took < 3_944,
        "{took} cycles: a group or a directory writes its block through whole again"
    );
    assert!(
        took < 2_422,
        "{took} cycles: a group or a directory writes its blocks through the cache again"
    );
    assert!(
        took < 1_613,
        "{took} cycles: the caller walks the path, a round trip per component, again"
    );
    assert!(
        took < 1_507,
        "{took} cycles: the registry's writes carry a task number or answer something again"
    );
    assert!(
        took < 1_468,
        "{took} cycles: a reap waits for a registry write before it frees the number again"
    );
    assert_eq!(took, 982);
}

/// A directory's inode changes when an entry is appended (its size
/// grows) and not when a slot is zeroed or a freed one refilled; only
/// a changed inode is sent to its group. Seen from the disk: the child
/// of a `mkdir` lives in another group than its parent, so what the
/// operation dirtied is the child's bitmap block, the child's
/// inode-table block, the parent's dirent block — and the parent's
/// inode-table block if and only if the parent's inode was stored.
#[test]
fn an_unchanged_inode_is_not_stored() {
    on_the_ladder_machine(|fs| async move {
        let written_back_by = |make: bool, path: &'static str| {
            let fs = fs.clone();
            async move {
                fs.sync().await.unwrap();
                let before = chanos_sim::stat_get("disk.writes");
                if make {
                    fs.mkdir(path).await.unwrap();
                } else {
                    fs.unlink(path).await.unwrap();
                }
                fs.sync().await.unwrap();
                chanos_sim::stat_get("disk.writes") - before
            }
        };
        fs.mkdir("/d0").await.unwrap();
        fs.create("/d0/first").await.unwrap();
        assert_eq!(written_back_by(true, "/d0/a").await, 4, "appended");
        assert_eq!(written_back_by(false, "/d0/a").await, 3, "zeroed");
        assert_eq!(written_back_by(true, "/d0/a").await, 3, "refilled");
        assert_eq!(written_back_by(true, "/d0/b").await, 4, "appended");
    });
}

/// `sync` is how a block its owner changed reaches the disk, and it
/// misses none. One cache shard of two blocks, so whatever enters the
/// cache is on the disk soon after: forty directories each gain an
/// entry, and until the `sync` the disk holds the volume as it was
/// before them. The owners keep every block they changed — the groups'
/// bitmaps and inode tables, the root's dirent block and each new
/// directory's, which its vnode made from zeroes — and no group goes to
/// the cache (while a group zeroed every block it allocated, each new
/// directory's block went through it to the cache: 40 write-throughs).
/// After the `sync` the volume is the big-lock engine's. Then one directory loses its entry and is
/// removed: its reap writes the zeroed slot back before it frees the
/// block, and after the next `sync` the volumes match again. A second
/// run takes the same trace.
#[test]
fn sync_writes_back_every_block_its_owners_changed() {
    const DIRS: u64 = 40;
    let run = || {
        let mut s = sim(4);
        s.block_on(async {
            let dev = CoreId(3);
            let (hw, irq) = install_disk(DISK_BLOCKS, DiskParams::default(), dev);
            let disk = spawn_disk_driver(hw.clone(), irq, dev);
            let service = (0..3).map(CoreId).collect();
            let fs = MsgFs::format(disk, DISK_BLOCKS, GROUPS, 1, 2, service)
                .await
                .unwrap();
            let (ref_hw, irq) = install_disk(DISK_BLOCKS, DiskParams::default(), dev);
            let disk = spawn_disk_driver(ref_hw.clone(), irq, dev);
            let reference = BigLockFs::format(disk, DISK_BLOCKS, GROUPS, 64)
                .await
                .unwrap();
            let volume = |hw: &DiskHw| -> Vec<Vec<u8>> {
                (0..DISK_BLOCKS).map(|lba| hw.peek_block(lba)).collect()
            };
            let same_volumes = || {
                let (ours, theirs) = (volume(&hw), volume(&ref_hw));
                for (lba, (a, b)) in ours.iter().zip(&theirs).enumerate() {
                    assert!(a == b, "block {lba} differs");
                }
            };
            // A file of two blocks: reading it pushes whatever else the
            // cache holds out to the disk.
            let cold = vec![7u8; 2 * 4096];
            for fs in [Vfs::Msg(fs.clone()), Vfs::Big(reference.clone())] {
                let ino = fs.create("/cold").await.unwrap();
                fs.write(ino, 0, &cold).await.unwrap();
                fs.sync().await.unwrap();
            }
            let before = volume(&hw);
            let through = chanos_sim::stat_get("msgfs.group_write_throughs");
            for fs in [Vfs::Msg(fs.clone()), Vfs::Big(reference.clone())] {
                for d in 0..DIRS {
                    fs.mkdir(&format!("/d{d}")).await.unwrap();
                    fs.create(&format!("/d{d}/f")).await.unwrap();
                }
            }
            let through = chanos_sim::stat_get("msgfs.group_write_throughs") - through;
            assert!(through <= DIRS, "a group writes through per request");
            assert_eq!(through, 0, "a group reaches the cache with a zeroed block");
            let ino = fs.lookup("/cold").await.unwrap();
            let read = fs.read(ino, 0, cold.len()).await.unwrap();
            assert_eq!(read.copy_out().await, cold);
            chanos_sim::sleep(1_000_000).await;
            assert!(
                volume(&hw) == before,
                "an owned block reached the cache before the sync"
            );
            fs.sync().await.unwrap();
            reference.sync().await.unwrap();
            same_volumes();

            for fs in [Vfs::Msg(fs.clone()), Vfs::Big(reference.clone())] {
                fs.unlink("/d7/f").await.unwrap();
                fs.unlink("/d7").await.unwrap();
                fs.sync().await.unwrap();
            }
            same_volumes();
        })
        .unwrap();
        s.trace_hash()
    };
    assert_eq!(run(), run(), "one program, one trace");
}
