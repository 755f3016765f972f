//! The buffer-cache shard servers against a disk the test drives by
//! hand: commands are held, released one at a time in any order, or
//! failed, so every overlap of requests, fills and write-backs a shard
//! can see is forced rather than waited for. Simulator only: the
//! interleavings are exact, and so are the cycle counts.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use chanos_drivers::{DiskClient, DiskError, DiskReq, BLOCK_SIZE};
use chanos_rt::{self as rt, Capacity, CoreId, JoinHandle};
use chanos_sim::{plock, Simulation};
use chanos_vfs::layout::bitmap;
use chanos_vfs::{
    BigLockFs, Block, BlockStore, CacheClient, CachedDisk, FsError, MsgFs, ShardedCachedDisk,
    Superblock, Vfs,
};

/// A command the scripted disk is holding.
enum Held {
    /// A read, with the bytes the block had when the command arrived
    /// (a real driver would have run it then, ahead of later writes).
    Read {
        lba: u64,
        data: Vec<u8>,
        reply: rt::ReplyTo<Result<Vec<u8>, DiskError>>,
    },
    Write {
        lba: u64,
        data: Vec<u8>,
        reply: rt::ReplyTo<Result<(), DiskError>>,
    },
}

#[derive(Default)]
struct DiskState {
    /// Blocks written so far; the rest read as zeroes.
    blocks: HashMap<u64, Vec<u8>>,
    holding: bool,
    /// Writes that arrive while not holding are refused.
    refusing: bool,
    held: VecDeque<Held>,
    reads: u64,
    writes: u64,
    refused: u64,
}

impl DiskState {
    fn block(&self, lba: u64) -> Vec<u8> {
        let zeroes = || vec![0; BLOCK_SIZE];
        self.blocks.get(&lba).cloned().unwrap_or_else(zeroes)
    }

    /// Runs a command to its reply; `fail` answers with an error and
    /// leaves the block alone.
    fn finish(&mut self, cmd: Held, fail: bool) {
        match cmd {
            Held::Read { data, reply, .. } => {
                self.reads += 1;
                let out = if fail {
                    Err(DiskError::BadTag)
                } else {
                    Ok(data)
                };
                rt::ReplyBatch::default().send(reply, out);
            }
            Held::Write { lba, data, reply } => {
                self.writes += 1;
                let out = if fail {
                    self.refused += 1;
                    Err(DiskError::BadTag)
                } else {
                    self.blocks.insert(lba, data);
                    Ok(())
                };
                rt::ReplyBatch::default().send(reply, out);
            }
        }
    }
}

/// The test's handle on the disk: a task behind a [`DiskClient`] that
/// completes commands at once until told to hold them.
#[derive(Clone)]
struct ScriptedDisk(Arc<Mutex<DiskState>>);

impl ScriptedDisk {
    /// Spawns the disk task on `core`; the join handle finishes when
    /// the last [`DiskClient`] clone is gone.
    fn spawn(core: CoreId) -> (ScriptedDisk, DiskClient, JoinHandle<()>) {
        let (port, rx) = rt::port_channel::<DiskReq>(Capacity::Unbounded);
        let disk = ScriptedDisk(Arc::default());
        let state = disk.0.clone();
        let task = rt::spawn_daemon_on("scripted-disk", core, async move {
            while let Ok(req) = rx.recv().await {
                let mut st = plock(&state);
                let cmd = match req {
                    DiskReq::Read { lba, reply, .. } => Held::Read {
                        lba,
                        data: st.block(lba),
                        reply,
                    },
                    DiskReq::Write { lba, data, reply } => Held::Write { lba, data, reply },
                };
                if st.holding {
                    st.held.push_back(cmd);
                } else {
                    let refuse = st.refusing && matches!(cmd, Held::Write { .. });
                    st.finish(cmd, refuse);
                }
            }
        });
        (disk, DiskClient::new(port), task)
    }

    /// From now on commands queue up instead of completing.
    fn hold(&self) {
        plock(&self.0).holding = true;
    }

    /// Completes everything held, in arrival order, and stops holding.
    fn free(&self) {
        let mut st = plock(&self.0);
        st.holding = false;
        while let Some(cmd) = st.held.pop_front() {
            st.finish(cmd, false);
        }
    }

    /// From now on every write is refused (`true`) or done (`false`).
    fn refuse_writes(&self, on: bool) {
        plock(&self.0).refusing = on;
    }

    /// Writes refused so far, by [`fail`](Self::fail) or wholesale.
    fn refused(&self) -> u64 {
        plock(&self.0).refused
    }

    /// The held commands in arrival order, as `"r<lba>"` / `"w<lba>"`.
    fn held(&self) -> Vec<String> {
        let name = |cmd: &Held| match cmd {
            Held::Read { lba, .. } => format!("r{lba}"),
            Held::Write { lba, .. } => format!("w{lba}"),
        };
        plock(&self.0).held.iter().map(name).collect()
    }

    /// Waits until exactly `n` commands are held.
    async fn wait_held(&self, n: usize) {
        for _ in 0..200 {
            if plock(&self.0).held.len() == n {
                return;
            }
            rt::sleep(500).await;
        }
        panic!("held {:?}, waiting for {n}", self.held());
    }

    /// Completes the `i`th held command.
    fn release(&self, i: usize) {
        let mut st = plock(&self.0);
        let cmd = st.held.remove(i).expect("a held command");
        st.finish(cmd, false);
    }

    /// Fails the `i`th held command.
    fn fail(&self, i: usize) {
        let mut st = plock(&self.0);
        let cmd = st.held.remove(i).expect("a held command");
        st.finish(cmd, true);
    }

    fn set_block(&self, lba: u64, data: Vec<u8>) {
        plock(&self.0).blocks.insert(lba, data);
    }

    fn peek_block(&self, lba: u64) -> Vec<u8> {
        plock(&self.0).block(lba)
    }

    fn reads(&self) -> u64 {
        plock(&self.0).reads
    }

    fn writes(&self) -> u64 {
        plock(&self.0).writes
    }
}

fn blk(fill: u8) -> Vec<u8> {
    vec![fill; BLOCK_SIZE]
}

fn block(fill: u8) -> Block {
    Block::new(blk(fill))
}

/// Lets every task that can run without the disk run.
async fn settle() {
    rt::sleep(20_000).await;
}

/// A scripted disk on core 3 and cache shards over cores 1 and 2; the
/// test itself is on core 0.
fn rig(shards: usize, blocks_per_shard: usize) -> (ScriptedDisk, CacheClient, JoinHandle<()>) {
    let (disk, client, task) = ScriptedDisk::spawn(CoreId(3));
    let cores = [CoreId(1), CoreId(2)];
    let cache = CacheClient::spawn(client, shards, blocks_per_shard, &cores);
    (disk, cache, task)
}

fn spawn_read(cache: &CacheClient, lba: u64) -> JoinHandle<Result<Vec<u8>, FsError>> {
    let cache = cache.clone();
    rt::spawn(async move { cache.read_block(lba).await.map(|b| b.to_vec()) })
}

fn spawn_write(cache: &CacheClient, lba: u64, fill: u8) -> JoinHandle<Result<(), FsError>> {
    let cache = cache.clone();
    rt::spawn(async move { cache.write_block(lba, blk(fill)).await })
}

fn in_sim<T: 'static>(test: impl std::future::Future<Output = T> + 'static) -> T {
    Simulation::new(4).block_on(test).expect("test task")
}

/// (a) A shard goes on answering hits while one of its misses is at
/// the disk — in exactly the cycles a hit takes on an idle shard.
#[test]
fn hit_during_a_miss_on_the_same_shard_takes_the_unloaded_hit_time() {
    in_sim(async {
        let (disk, cache, _) = rig(2, 8);
        cache.write_block(0, blk(7)).await.unwrap();
        let timed_hit = || async {
            let t = rt::now();
            assert_eq!(*cache.read_block(0).await.unwrap(), blk(7));
            rt::now() - t
        };
        let unloaded = timed_hit().await;
        assert_eq!(timed_hit().await, unloaded, "a hit's time repeats");

        disk.hold();
        let miss = spawn_read(&cache, 2); // Block 2 is shard 0's too.
        disk.wait_held(1).await;
        assert_eq!(timed_hit().await, unloaded);
        assert_eq!(disk.held(), ["r2"], "the miss is still at the disk");

        disk.free();
        assert_eq!(miss.join().await.unwrap().unwrap(), blk(0));
    });
}

/// (b) Readers of a block that is already on its way join the one
/// disk read.
#[test]
fn readers_of_one_cold_block_share_one_disk_read() {
    in_sim(async {
        let (disk, cache, _) = rig(2, 8);
        disk.set_block(4, blk(9));
        disk.hold();
        let readers: Vec<_> = (0..8).map(|_| spawn_read(&cache, 4)).collect();
        settle().await;
        assert_eq!(disk.held(), ["r4"]);
        disk.release(0);
        for r in readers {
            assert_eq!(r.join().await.unwrap().unwrap(), blk(9));
        }
        assert_eq!(disk.reads(), 1);
        assert_eq!(rt::stat_get("cache.fill_joins"), 7);
        assert_eq!(rt::stat_get("cache.misses"), 1);
    });
}

/// (c) A write overtakes a fill. The reader parked on the fill asked
/// before the write, so it is given the block as the disk sends it, as
/// if the fill had landed first; a reader after the write gets the
/// block written. The block is evicted and written back; a new miss
/// starts a second read of it; only then does the first read's answer
/// — the block as it was before the write — arrive. Its own reader gets
/// it, and nobody else may.
#[test]
fn late_answer_of_an_overtaken_fill_goes_to_its_own_readers() {
    in_sim(async {
        let (disk, cache, _) = rig(1, 2);
        disk.hold();
        let parked = spawn_read(&cache, 5);
        disk.wait_held(1).await; // [r5], carrying zeroes.
        cache.write_block(5, blk(1)).await.unwrap();
        assert_eq!(*cache.read_block(5).await.unwrap(), blk(1));
        assert!(!parked.is_finished(), "answered with a later write");

        // Two more dirty blocks push block 5 out: its write-back is
        // held, and the writer that caused it waits.
        cache.write_block(6, blk(2)).await.unwrap();
        let evicting = spawn_write(&cache, 7, 3);
        disk.wait_held(2).await;
        assert_eq!(disk.held(), ["r5", "w5"]);
        disk.release(1);
        evicting.join().await.unwrap().unwrap();
        assert_eq!(disk.peek_block(5), blk(1));

        // Block 5 has left memory: this read goes to the disk.
        let reader = spawn_read(&cache, 5);
        disk.wait_held(2).await;
        assert_eq!(disk.held(), ["r5", "r5"]);
        disk.release(0); // The overtaken fill's zeroes.
        assert_eq!(parked.join().await.unwrap().unwrap(), blk(0));
        settle().await;
        assert!(!reader.is_finished(), "answered from the overtaken fill");
        disk.release(0);
        assert_eq!(reader.join().await.unwrap().unwrap(), blk(1));
    });
}

/// (d) An evicted block stays readable until its write lands.
#[test]
fn block_is_read_from_memory_while_its_writeback_is_held() {
    in_sim(async {
        let (disk, cache, _) = rig(1, 2);
        cache.write_block(1, blk(1)).await.unwrap();
        cache.write_block(2, blk(2)).await.unwrap();
        disk.hold();
        let evicting = spawn_write(&cache, 3, 3);
        disk.wait_held(1).await;
        assert_eq!(disk.held(), ["w1"]);
        assert_eq!(*cache.read_block(1).await.unwrap(), blk(1));
        assert_eq!(disk.reads(), 0);
        assert_eq!(disk.held(), ["w1"]);
        assert!(!evicting.is_finished(), "the writer waits for its victim");
        disk.release(0);
        evicting.join().await.unwrap().unwrap();
        // Landed: the next read of block 1 is a miss.
        disk.free();
        assert_eq!(*cache.read_block(1).await.unwrap(), blk(1));
        assert_eq!(disk.reads(), 1);
    });
}

/// (e) `sync` returns only when every write-back has landed, and then
/// the disk holds the last write of every block.
#[test]
fn sync_waits_for_every_writeback() {
    in_sim(async {
        let (disk, cache, _) = rig(2, 4);
        // Three rounds over twelve blocks through eight slots: plenty
        // of evictions on the way, all of them let through.
        for round in 1..=3u8 {
            for lba in 0..12u64 {
                cache
                    .write_block(lba, blk(round * 16 + lba as u8))
                    .await
                    .unwrap();
            }
        }
        let landed = disk.writes();
        assert!(landed > 0, "evictions wrote back");

        // One write-back still held from before the sync, too.
        disk.hold();
        let evicting = spawn_write(&cache, 12, 0xEE);
        disk.wait_held(1).await;
        let syncing = {
            let cache = cache.clone();
            rt::spawn(async move { cache.sync().await })
        };
        let mut released = 0;
        loop {
            settle().await;
            if disk.held().is_empty() {
                break;
            }
            assert!(!syncing.is_finished(), "sync returned over a held write");
            disk.release(0);
            released += 1;
        }
        syncing.join().await.unwrap().unwrap();
        evicting.join().await.unwrap().unwrap();
        assert!(released >= 8, "both shards flushed: {released}");
        for lba in 0..12u64 {
            assert_eq!(disk.peek_block(lba), blk(3 * 16 + lba as u8), "block {lba}");
        }
        assert_eq!(disk.peek_block(12), blk(0xEE));
        assert_eq!(disk.writes(), landed + released);
    });
}

/// (f) The cold blocks of one `read_many` are all at the disk together,
/// and the answer is in request order whatever order they come back.
#[test]
fn read_many_has_all_its_fills_in_the_queue_at_once() {
    in_sim(async {
        let (disk, cache, _) = rig(2, 8);
        for lba in [6, 2, 4, 3] {
            disk.set_block(lba, blk(lba as u8));
        }
        cache.read_block(3).await.unwrap(); // Shard 1's block is warm.
        disk.hold();
        let reading = {
            let cache = cache.clone();
            rt::spawn(async move { cache.read_many(&[6, 3, 2, 4]).await })
        };
        disk.wait_held(3).await;
        assert_eq!(disk.held(), ["r6", "r2", "r4"]);
        for i in (0..3).rev() {
            disk.release(i);
        }
        let blocks = reading.join().await.unwrap().unwrap();
        assert_eq!(blocks, [6, 3, 2, 4].map(block));
    });
}

/// (g) The clients go away with a read and a write-back at the disk:
/// the shard exits, the helpers finish when the disk answers, and the
/// last of them releases the disk.
#[test]
fn dropping_the_last_client_with_io_in_flight_hangs_nothing() {
    in_sim(async {
        let (disk, cache, disk_task) = rig(1, 1);
        cache.write_block(1, blk(1)).await.unwrap();
        disk.hold();
        let reader = spawn_read(&cache, 2);
        disk.wait_held(1).await;
        let writer = spawn_write(&cache, 3, 3);
        disk.wait_held(2).await;
        assert_eq!(disk.held(), ["r2", "w1"]);
        assert!(reader.abort() && writer.abort());
        drop(cache);
        settle().await;
        assert!(!disk_task.is_finished(), "the helpers still hold the disk");
        disk.free();
        settle().await;
        assert!(
            disk_task.is_finished(),
            "a shard or helper outlived its clients"
        );
        assert_eq!(disk.peek_block(1), blk(1), "the write-back still landed");
    });
}

/// A read the disk fails is an error for every reader parked on it,
/// and only for them.
#[test]
fn fill_error_reaches_every_parked_reader() {
    in_sim(async {
        let (disk, cache, _) = rig(1, 4);
        disk.set_block(9, blk(9));
        disk.hold();
        let readers: Vec<_> = (0..3).map(|_| spawn_read(&cache, 9)).collect();
        let gather = {
            let cache = cache.clone();
            rt::spawn(async move { cache.read_many(&[9, 8]).await })
        };
        disk.wait_held(2).await;
        assert_eq!(disk.held(), ["r9", "r8"]);
        disk.fail(0);
        let refused = Err(FsError::Io(DiskError::BadTag));
        for r in readers {
            assert_eq!(r.join().await.unwrap(), refused);
        }
        assert_eq!(
            gather.join().await.unwrap(),
            refused.clone().map(|_| vec![])
        );
        disk.free();
        assert_eq!(*cache.read_block(9).await.unwrap(), blk(9));
        assert_eq!(*cache.read_block(8).await.unwrap(), blk(0));
    });
}

/// A write-back the disk fails does not lose the block: it is dirty in
/// the cache again, a `sync` while the disk still refuses says so, and
/// the first one after the disk is well has it on the disk and answers
/// `Ok`: a `sync` reports only what is still not durable, not a refusal
/// that a later write-back of the block made good.
#[test]
fn failed_writeback_keeps_the_block_and_fails_the_next_sync() {
    in_sim(async {
        let (disk, cache, _) = rig(1, 2);
        cache.write_block(1, blk(1)).await.unwrap();
        cache.write_block(2, blk(2)).await.unwrap();
        disk.hold();
        // A fill pushes dirty block 1 out; no writer waits for it.
        let reader = spawn_read(&cache, 3);
        disk.wait_held(1).await;
        disk.release(0);
        assert_eq!(reader.join().await.unwrap().unwrap(), blk(0));
        disk.wait_held(1).await;
        assert_eq!(disk.held(), ["w1"]);
        disk.fail(0);
        settle().await;
        assert_eq!(rt::stat_get("cache.writeback_errors"), 1);
        assert_eq!(rt::stat_get("cache.writebacks"), 1);

        let reads = disk.reads();
        assert_eq!(*cache.read_block(1).await.unwrap(), blk(1));
        assert_eq!(disk.reads(), reads, "block 1 never left memory");

        disk.free();
        disk.refuse_writes(true);
        assert_eq!(cache.sync().await, Err(FsError::Io(DiskError::BadTag)));
        disk.refuse_writes(false);
        assert_eq!(cache.sync().await, Ok(()));
        assert_eq!(disk.peek_block(1), blk(1));
        assert_eq!(disk.peek_block(2), blk(2));

        // With a writer waiting, the writer is told as well.
        cache.write_block(4, blk(4)).await.unwrap();
        cache.write_block(5, blk(5)).await.unwrap();
        cache.write_block(6, blk(6)).await.unwrap();
        disk.hold();
        let evicting = spawn_write(&cache, 7, 7);
        disk.wait_held(1).await;
        disk.fail(0);
        let refused = Err(FsError::Io(DiskError::BadTag));
        assert_eq!(evicting.join().await.unwrap(), refused);
        disk.free();
        assert_eq!(cache.sync().await, Ok(()), "the sync wrote the block");
        for lba in 4..=7u64 {
            assert_eq!(disk.peek_block(lba), blk(lba as u8), "block {lba}");
        }
    });
}

/// `write_many` has every write at its shard before it waits for the
/// first: two shards work side by side, and one shard sees its blocks
/// in the order given. A shard copies nothing (the writer made the
/// block), so a write costs it no cycles and its queue no time: one
/// shard drains both writes in one wake, where two shards take a wake
/// each — in the time of one write either way.
#[test]
fn write_many_overlaps_shards_and_keeps_a_shards_order() {
    in_sim(async {
        let (disk, cache, _) = rig(2, 1);
        let timed = |blocks: Vec<(u64, Block)>| {
            let cache = cache.clone();
            async move {
                let (t, woken) = (rt::now(), rt::stat_get("sim.dispatches"));
                for answer in cache.write_many(&blocks).await {
                    answer.unwrap();
                }
                (rt::now() - t, rt::stat_get("sim.dispatches") - woken)
            }
        };
        timed(vec![(0, block(0)), (1, block(1))]).await; // Both shards up.
        let (one, one_wakes) = timed(vec![(1, block(1))]).await;
        assert_eq!(
            timed(vec![(1, block(1))]).await,
            (one, one_wakes),
            "a write's time repeats"
        );
        let apart = timed(vec![(0, block(2)), (1, block(3))]).await;
        let together = timed(vec![(1, block(4)), (1, block(5))]).await;
        assert_eq!(apart, (one, one_wakes + 1), "two shards, a wake each");
        assert_eq!(together, (one, one_wakes), "one shard, one queue");

        // One slot per shard: each write pushes the one before it out,
        // and the write-backs reach the disk in the order the shard
        // was given the blocks.
        disk.hold();
        let writing = {
            let cache = cache.clone();
            rt::spawn(async move {
                cache
                    .write_many(&[(3, block(6)), (5, block(7)), (7, block(8))])
                    .await
            })
        };
        disk.wait_held(3).await;
        assert_eq!(disk.held(), ["w1", "w3", "w5"]);
        assert_eq!(*cache.read_block(1).await.unwrap(), blk(5));
        disk.free();
        assert_eq!(writing.join().await.unwrap(), [Ok(()), Ok(()), Ok(())]);
        assert_eq!(
            cache.write_many(&[(9, Block::new(vec![0; 7]))]).await,
            [Err(FsError::Invalid)]
        );
    });
}

/// The lock engines' stores keep a block the disk refuses. A refused
/// write-back — of a block pushed out, or at `sync` — leaves the block
/// dirty in the cache; a `sync` writes the blocks after a refused one
/// too and fails with the first refusal; and the next `sync`, with the
/// disk well, puts every acknowledged block on the disk. Two slots, so
/// a third block pushes a dirty one out.
#[test]
fn lock_stores_keep_a_refused_write_back_for_the_next_sync() {
    async fn script(disk: ScriptedDisk, store: impl BlockStore) {
        let refused = Err(FsError::Io(DiskError::BadTag));
        store.write_block(1, blk(1)).await.unwrap();
        store.write_block(2, blk(2)).await.unwrap();
        store.sync().await.unwrap();
        // The happy path: each dirty block written once, nothing after.
        store.write_block(1, blk(1)).await.unwrap();
        store.write_block(2, blk(2)).await.unwrap();
        assert_eq!(disk.writes(), 2);
        assert_eq!(store.sync().await, Ok(()));
        assert_eq!(disk.writes(), 4);
        assert_eq!(store.sync().await, Ok(()));
        assert_eq!(disk.writes(), 4, "nothing dirty");

        store.write_block(1, blk(0x11)).await.unwrap();
        store.write_block(2, blk(0x12)).await.unwrap();
        disk.refuse_writes(true);
        // Block 3 pushes dirty block 1 out, and the disk refuses it.
        assert_eq!(store.write_block(3, blk(0x13)).await, refused);
        assert_eq!(disk.refused(), 1);
        assert_eq!(*store.read_block(1).await.unwrap(), blk(0x11));
        assert_eq!(store.sync().await, refused);
        assert_eq!(disk.refused(), 4, "blocks 1, 2 and 3 all tried");
        assert_eq!(store.sync().await, refused, "and kept again");
        disk.refuse_writes(false);
        assert_eq!(store.sync().await, Ok(()));
        for lba in 1..=3u64 {
            assert_eq!(disk.peek_block(lba), blk(0x10 + lba as u8), "block {lba}");
        }
        assert_eq!(store.sync().await, Ok(()));
    }
    in_sim(async {
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        script(disk, CachedDisk::new(client, 2)).await;
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        script(disk, ShardedCachedDisk::new(client, 1, 2)).await;
    });
}

/// A group task's copy of its bitmaps and inode table is the truth, so
/// a write-back the cache refuses must be neither silent nor lost: the
/// `sync` that saw it fails, the block stays dirty with its owner, and
/// once the disk is well again the volume ends up the bytes the
/// big-lock engine writes for the same operations. One cache shard of
/// two blocks: with the disk refusing writes, every dirty block pushed
/// out comes back with an error. A change by an owner goes to the cache
/// only at `sync`, so no request fails for the refusal.
#[test]
fn refused_write_back_fails_the_sync_and_reaches_the_disk_later() {
    const BLOCKS: u64 = 256;
    const GROUPS: u64 = 2;
    in_sim(async {
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        let cores = vec![CoreId(1), CoreId(2)];
        let fs = MsgFs::format(client, BLOCKS, GROUPS, 1, 2, cores)
            .await
            .unwrap();
        let (ref_disk, ref_client, _) = ScriptedDisk::spawn(CoreId(3));
        let reference = BigLockFs::format(ref_client, BLOCKS, GROUPS, 64)
            .await
            .unwrap();

        // A directory in group 1 with two files, one of one block.
        fs.mkdir("/d").await.unwrap();
        let f = fs.create("/d/f").await.unwrap();
        fs.write(f, 0, blk(0xF1)).await.unwrap();
        fs.create("/d/g").await.unwrap();
        fs.sync().await.unwrap();

        // With the disk refusing writes, `mkdir` (the child goes to
        // group 0) changes group 0's bitmap and inode-table blocks,
        // group 1's inode-table block for `/d`'s grown inode, and `/d`'s
        // dirent block: all of them held by their owners, so nothing
        // reaches the cache and the `mkdir` succeeds.
        disk.refuse_writes(true);
        let refused = FsError::Io(DiskError::BadTag);
        assert_eq!(fs.mkdir("/d/sub").await, Ok(1));
        assert_eq!(disk.refused(), 0);
        assert_eq!(fs.lookup("/d/sub").await, Ok(1));

        // A reap's steps change owned blocks alone, so none fails.
        let errors = rt::stat_get("msgfs.reap_errors");
        assert_eq!(fs.unlink("/d/f").await, Ok(()));
        assert_eq!(rt::stat_get("msgfs.reap_errors") - errors, 0);
        assert_eq!(rt::stat_get("msgfs.vnodes_reaped"), 1);

        // The `sync` is where the refusal surfaces. The owners write
        // six blocks back (`/d`'s dirent block; group 0's bitmap and
        // inode-table blocks; group 1's two bitmaps and inode-table
        // block); past the first two, each pushes a dirty one out of
        // the two-block cache, and the disk refuses it. A refused block
        // is dirty in the cache again, so the shard's own `Sync` tries
        // all six.
        assert_eq!(fs.sync().await, Err(refused.clone()));
        assert_eq!(disk.refused(), 4 + 6);

        // Well again: the inode number the reap freed is handed out,
        // and the next `sync` writes what the last one could not.
        disk.refuse_writes(false);
        assert_eq!(fs.create("/d/x").await, Ok(f));
        assert_eq!(fs.sync().await, Ok(()));

        reference.mkdir("/d").await.unwrap();
        let f = reference.create("/d/f").await.unwrap();
        reference.write(f, 0, blk(0xF1)).await.unwrap();
        reference.create("/d/g").await.unwrap();
        reference.mkdir("/d/sub").await.unwrap();
        reference.unlink("/d/f").await.unwrap();
        reference.create("/d/x").await.unwrap();
        reference.sync().await.unwrap();
        let same_volume = || {
            for lba in 0..BLOCKS {
                assert!(
                    disk.peek_block(lba) == ref_disk.peek_block(lba),
                    "block {lba} differs"
                );
            }
        };
        same_volume();

        // A group keeps a refused block dirty. `/d/y` has one byte;
        // `x`'s eight blocks, written and then overwritten in place,
        // fill the cache with dirty blocks. With the disk refusing
        // writes, `y` grows inside its block: its data block reaches
        // the cache over a victim whose write-back is refused, and its
        // stored inode stays with group 1. The `sync` writes the
        // group's inode-table block into the cache over a dirty victim,
        // which is refused, so the group keeps the block dirty; the
        // next `sync`, with the disk well, sends it again.
        let (x, y) = (f, fs.create("/d/y").await.unwrap());
        fs.write(y, 0, vec![0x79]).await.unwrap();
        let first: Vec<u8> = (0..8).flat_map(|i| blk(0x50 + i)).collect();
        let again: Vec<u8> = (0..8).flat_map(|i| blk(0x60 + i)).collect();
        fs.write(x, 0, first.clone()).await.unwrap();
        fs.write(x, 0, again.clone()).await.unwrap();
        disk.refuse_writes(true);
        assert_eq!(fs.write(y, 1, vec![0x79; 99]).await, Ok(()));
        let through = rt::stat_get("msgfs.group_write_throughs");
        assert_eq!(fs.sync().await, Err(refused), "the refused write-backs");
        disk.refuse_writes(false);
        assert_eq!(fs.sync().await, Ok(()));
        assert_eq!(
            rt::stat_get("msgfs.group_write_throughs") - through,
            2,
            "group 1's dirty blocks, then again the ones refused"
        );

        assert_eq!(reference.create("/d/y").await, Ok(y));
        reference.write(y, 0, vec![0x79]).await.unwrap();
        reference.write(x, 0, first.clone()).await.unwrap();
        reference.write(x, 0, again.clone()).await.unwrap();
        reference.write(y, 1, vec![0x79; 99]).await.unwrap();
        reference.sync().await.unwrap();
        same_volume();
    });
}

/// A directory's vnode holds its blocks, so a dirent write the cache
/// refuses follows the group tasks' rule: the vnode's entries and block
/// change and the request succeeds; the `sync` that finds the disk
/// refusing fails, and the block reaches the disk with the next one.
/// The cache of the tests around it: a `create` into a freed slot (the
/// directory's inode does not change), so what it dirties is group 0's
/// inode bitmap and inode-table block and `/d`'s dirent block.
#[test]
fn refused_dirent_write_back_fails_the_sync_and_reaches_the_disk_later() {
    const BLOCKS: u64 = 256;
    const GROUPS: u64 = 2;
    in_sim(async {
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        let cores = vec![CoreId(1), CoreId(2)];
        let fs = MsgFs::format(client, BLOCKS, GROUPS, 1, 2, cores)
            .await
            .unwrap();
        let (ref_disk, ref_client, _) = ScriptedDisk::spawn(CoreId(3));
        let reference = BigLockFs::format(ref_client, BLOCKS, GROUPS, 64)
            .await
            .unwrap();
        for fs in [Vfs::Msg(fs.clone()), Vfs::Big(reference.clone())] {
            fs.mkdir("/d").await.unwrap();
            fs.create("/d/a").await.unwrap();
            fs.create("/d/b").await.unwrap();
            fs.unlink("/d/a").await.unwrap();
            fs.sync().await.unwrap();
        }

        disk.refuse_writes(true);
        let refused = FsError::Io(DiskError::BadTag);
        let c = fs
            .create("/d/c")
            .await
            .expect("the create reaches no cache");
        assert_eq!(disk.refused(), 0);
        assert_eq!(fs.lookup("/d/c").await, Ok(c));
        let names: Vec<String> = fs
            .readdir("/d")
            .await
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["c", "b"], "in the freed slot");

        assert_eq!(fs.sync().await, Err(refused), "the refused write-backs");
        disk.refuse_writes(false);
        assert_eq!(fs.sync().await, Ok(()));
        assert_eq!(reference.create("/d/c").await, Ok(c));
        reference.sync().await.unwrap();
        for lba in 0..BLOCKS {
            assert!(
                disk.peek_block(lba) == ref_disk.peek_block(lba),
                "block {lba} differs"
            );
        }
    });
}

/// A reap frees every block of the file, and a disk that refuses
/// writes cannot undo it. The cache of the test above, both of its
/// blocks made dirty while the disk refuses writes: the file's three
/// `FreeBlock`s and its `ClearInode` reach the group as one burst,
/// which changes the group's own blocks and nothing else, so the
/// `unlink` succeeds with every step. The `sync` that finds the disk
/// refusing fails, and the one after it leaves the blocks free on the
/// disk.
#[test]
fn a_reap_under_a_refusing_disk_frees_every_block_by_the_next_sync() {
    const BLOCKS: u64 = 256;
    const GROUPS: u64 = 2;
    in_sim(async {
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        let cores = vec![CoreId(1), CoreId(2)];
        let fs = MsgFs::format(client, BLOCKS, GROUPS, 1, 2, cores)
            .await
            .unwrap();
        let sb = Superblock::design(BLOCKS, GROUPS);
        let data_blocks_in_use = || {
            let in_group =
                |g| bitmap::count(&disk.peek_block(sb.dbitmap_block(g)), sb.data_per_group);
            (0..GROUPS).map(in_group).sum::<u64>()
        };
        let two = |fill| [blk(fill), blk(fill)].concat();

        fs.mkdir("/d").await.unwrap();
        let g = fs.create("/d/g").await.unwrap();
        fs.write(g, 0, two(1)).await.unwrap();
        fs.sync().await.unwrap();
        let before_create = data_blocks_in_use();
        let f = fs.create("/d/f").await.unwrap();
        for i in 0..3 {
            fs.write(f, i * BLOCK_SIZE as u64, blk(0xF1)).await.unwrap();
        }
        fs.sync().await.unwrap();
        assert_eq!(data_blocks_in_use(), before_create + 3);

        // Overwriting `g` in place stores no inode and asks no group:
        // the cache holds its two data blocks, dirty, and nothing else.
        disk.refuse_writes(true);
        fs.write(g, 0, two(2)).await.unwrap();
        let errors = rt::stat_get("msgfs.reap_errors");
        let refused = FsError::Io(DiskError::BadTag);
        assert_eq!(fs.unlink("/d/f").await, Ok(()));
        assert_eq!(disk.refused(), 0);
        assert_eq!(rt::stat_get("msgfs.reap_errors") - errors, 0);
        assert_eq!(fs.lookup("/d/f").await, Err(FsError::NotFound));

        // The group's changed blocks meet the refusing disk at `sync`,
        // and go out again with the next one.
        assert_eq!(fs.sync().await, Err(refused), "the refused write-backs");
        assert_eq!(data_blocks_in_use(), before_create + 3);
        disk.refuse_writes(false);
        fs.sync().await.unwrap();
        assert_eq!(data_blocks_in_use(), before_create);
    });
}

/// A group task and a directory vnode keep the blocks they own until a
/// `sync`, however hard the cache churns. One cache shard of two
/// blocks: every file's two data blocks push everything else out, and
/// the group's bitmap and inode-table blocks and the directory's block
/// change in every round. A group does not go to the cache at all (while
/// it zeroed every data block it allocated, it went once per block), and
/// the volume after a `sync` must still be the bytes the big-lock engine
/// writes.
#[test]
fn owned_blocks_stay_with_their_owners_through_a_churning_cache() {
    const BLOCKS: u64 = 256;
    const GROUPS: u64 = 2;
    in_sim(async {
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        let cores = vec![CoreId(1), CoreId(2)];
        let fs = MsgFs::format(client, BLOCKS, GROUPS, 1, 2, cores)
            .await
            .unwrap();
        let (ref_disk, ref_client, _) = ScriptedDisk::spawn(CoreId(3));
        let reference = BigLockFs::format(ref_client, BLOCKS, GROUPS, 64)
            .await
            .unwrap();
        let counts = || {
            let count = rt::stat_get;
            (
                count("msgfs.group_write_throughs"),
                count("fs.blocks_allocated"),
            )
        };
        fs.mkdir("/d").await.unwrap();
        reference.mkdir("/d").await.unwrap();
        let before = counts();
        for round in 0..6u8 {
            for fs in [Vfs::Msg(fs.clone()), Vfs::Big(reference.clone())] {
                let f = fs.create(&format!("/d/f{round}")).await.unwrap();
                let data = [blk(round), blk(round + 0x10)].concat();
                fs.write(f, 0, &data).await.unwrap();
                if round % 2 == 1 {
                    fs.unlink(&format!("/d/f{}", round - 1)).await.unwrap();
                }
            }
        }
        let through = counts().0 - before.0;
        // Both engines count their allocations: the message engine's
        // are half.
        let allocated = (counts().1 - before.1) / 2;
        assert!(through <= allocated, "a group writes through per request");
        assert_eq!(through, 0, "a group writes through the blocks it allocates");
        assert_eq!(allocated, 13, "the directory's block and 6 × 2");

        fs.sync().await.unwrap();
        reference.sync().await.unwrap();
        for lba in 0..BLOCKS {
            assert!(
                disk.peek_block(lba) == ref_disk.peek_block(lba),
                "block {lba} differs"
            );
        }
    });
}

/// A fresh block whose first write fails is not left in the file: it
/// may still hold its last file's bytes. One cache shard of two blocks,
/// both dirty with `/c`'s data, and the disk refusing writes: `/b`'s
/// first write into its hole at block 0 lands on `/a`'s freed block of
/// `0xAA`, pushes a dirty block out, and is refused. Block 0 stays a
/// hole, the block goes back to its group, and once the disk is well
/// the same write takes the same block, zeroes around its 100 bytes.
/// The one `sync`, after that, answers `Ok` (every refused write-back
/// has been made good by then) and leaves the volume the big-lock
/// engine writes for the same operations without the refusal.
#[test]
fn a_refused_first_write_leaves_no_old_bytes_behind() {
    const BLOCKS: u64 = 256;
    const GROUPS: u64 = 2;
    const BLOCK: usize = BLOCK_SIZE;
    in_sim(async {
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        let cores = vec![CoreId(1), CoreId(2)];
        let fs = MsgFs::format(client, BLOCKS, GROUPS, 1, 2, cores)
            .await
            .unwrap();
        let (ref_disk, ref_client, _) = ScriptedDisk::spawn(CoreId(3));
        let reference = BigLockFs::format(ref_client, BLOCKS, GROUPS, 64)
            .await
            .unwrap();
        let two = |fill| [blk(fill), blk(fill)].concat();
        let mut b = 0;
        for fs in [Vfs::Msg(fs.clone()), Vfs::Big(reference.clone())] {
            let a = fs.create("/a").await.unwrap();
            fs.write(a, 0, &blk(0xAA)).await.unwrap();
            let c = fs.create("/c").await.unwrap();
            fs.write(c, 0, &two(0x0C)).await.unwrap();
            b = fs.create("/b").await.unwrap();
            fs.write(b, BLOCK as u64, &blk(0x0B)).await.unwrap();
            fs.unlink("/a").await.unwrap();
            fs.sync().await.unwrap();
            fs.write(c, 0, &two(0x0D)).await.unwrap();
        }
        let with_bb = || {
            let mut want = vec![0; BLOCK];
            want[10..110].fill(0xBB);
            want
        };

        disk.refuse_writes(true);
        let refused = FsError::Io(DiskError::BadTag);
        let allocated = rt::stat_get("fs.blocks_allocated");
        assert_eq!(fs.write(b, 10, vec![0xBB; 100]).await, Err(refused.clone()));
        assert_eq!(rt::stat_get("fs.blocks_allocated") - allocated, 1);
        let hole = fs.read(b, 0, BLOCK).await.unwrap().copy_out().await;
        assert_eq!(hole, vec![0; BLOCK], "block 0 is still a hole");

        disk.refuse_writes(false);
        fs.write(b, 10, vec![0xBB; 100]).await.unwrap();
        let back = fs.read(b, 0, BLOCK).await.unwrap().copy_out().await;
        assert_eq!(back, with_bb(), "zeroes around the bytes written");
        assert_eq!(fs.sync().await, Ok(()));

        reference.write(b, 10, vec![0xBB; 100]).await.unwrap();
        reference.sync().await.unwrap();
        for lba in 0..BLOCKS {
            assert!(
                disk.peek_block(lba) == ref_disk.peek_block(lba),
                "block {lba} differs"
            );
        }
    });
}

/// A group keeps every byte a burst changed in a block, not only the
/// last request's. The reap of a twelve-block file sends its group one
/// burst; the twelve `FreeBlock`s clear bits in two bytes of the data
/// bitmap, one request at a time, and the group writes nothing through
/// for them: the bitmap block stays with it, dirty, until the `sync`
/// writes it back whole with both bytes. A roomy cache, so that nothing
/// is pushed out on the way.
#[test]
fn a_reaps_frees_reach_the_disk_with_the_next_sync() {
    const BLOCKS: u64 = 256;
    const GROUPS: u64 = 2;
    in_sim(async {
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        let cores = vec![CoreId(1), CoreId(2)];
        let fs = MsgFs::format(client, BLOCKS, GROUPS, 1, 64, cores)
            .await
            .unwrap();
        let (ref_disk, ref_client, _) = ScriptedDisk::spawn(CoreId(3));
        let reference = BigLockFs::format(ref_client, BLOCKS, GROUPS, 64)
            .await
            .unwrap();
        let data: Vec<u8> = (0..12).flat_map(blk).collect();
        for fs in [Vfs::Msg(fs.clone()), Vfs::Big(reference.clone())] {
            fs.mkdir("/d").await.unwrap();
            let f = fs.create("/d/f").await.unwrap();
            fs.write(f, 0, &data).await.unwrap();
            fs.sync().await.unwrap();
        }
        let sb = Superblock::design(BLOCKS, GROUPS);
        let in_use = |disk: &ScriptedDisk| {
            bitmap::count(&disk.peek_block(sb.dbitmap_block(1)), sb.data_per_group)
        };
        assert_eq!(in_use(&disk), 13, "the directory's block and the file's");

        let through = rt::stat_get("msgfs.group_write_throughs");
        let writes = disk.writes();
        fs.unlink("/d/f").await.unwrap();
        assert_eq!(rt::stat_get("msgfs.group_write_throughs") - through, 0);
        settle().await;
        assert_eq!(disk.writes() - writes, 0);
        fs.sync().await.unwrap();
        assert_eq!(in_use(&disk), 1);

        reference.unlink("/d/f").await.unwrap();
        reference.sync().await.unwrap();
        for lba in 0..BLOCKS {
            assert!(
                disk.peek_block(lba) == ref_disk.peek_block(lba),
                "block {lba} differs"
            );
        }
    });
}

/// A read a vnode hands on to a cache shard is answered in the order the
/// vnode sent it. `/f`'s block is cold; its read parks on the fill, and
/// a whole-block write of the block, which the vnode serves next,
/// reaches the shard before the disk answers. The read is still given
/// the block as it was, and a read after the write gets the new one.
/// (While a write gave the readers parked on a fill its own block, the
/// first read returned the bytes written after it.)
#[test]
fn a_read_handed_on_is_not_answered_with_a_later_write() {
    in_sim(async {
        let (disk, client, _) = ScriptedDisk::spawn(CoreId(3));
        let cores = vec![CoreId(1), CoreId(2)];
        let fs = MsgFs::format(client, 256, 2, 1, 4, cores).await.unwrap();
        let f = fs.create("/f").await.unwrap();
        fs.write(f, 0, blk(0x0F)).await.unwrap();
        // Push `/f`'s block out of the shard's four slots, and leave
        // them clean: the write below evicts without a write-back.
        for i in 0..4 {
            let g = fs.create(&format!("/g{i}")).await.unwrap();
            fs.write(g, 0, blk(i)).await.unwrap();
        }
        fs.sync().await.unwrap();

        disk.hold();
        let reader = {
            let fs = fs.clone();
            rt::spawn(async move { fs.read(f, 0, BLOCK_SIZE).await.unwrap().copy_out().await })
        };
        disk.wait_held(1).await;
        assert!(disk.held()[0].starts_with('r'), "the read's fill is held");
        fs.write(f, 0, blk(0xF1)).await.unwrap();
        assert!(!reader.is_finished(), "answered with a later write");
        disk.free();
        assert_eq!(reader.join().await.unwrap(), blk(0x0F));
        let now = fs.read(f, 0, BLOCK_SIZE).await.unwrap().copy_out().await;
        assert_eq!(now, blk(0xF1));
    });
}
