//! Block stores: the disk with a write-back LRU buffer cache, in the
//! three concurrency styles the engines need.
//!
//! * [`CachedDisk`] — unsynchronized; safe only under an external
//!   global lock (the big-lock engine).
//! * [`ShardedCachedDisk`] — cache shards behind [`SimMutex`]es (the
//!   fine-grained-locking engine).
//! * [`CacheClient`] — cache *server tasks*, one per shard, owning
//!   their blocks outright and serving requests over channels (the
//!   message-passing engine; §4's buffer-cache threads).
//!
//! The two lock stores hold their lock — the big one, or the shard's —
//! across a fill, as buffer caches hold the buffer lock across I/O: a
//! miss stalls everyone behind that lock. A cache server task never
//! waits for the disk at all: a miss parks the *reader* in a
//! block → waiters table, a dirty eviction parks the *writer* that
//! caused it, a short-lived helper task per command does the waiting
//! ("a thread which waits costs nobody else anything", §4), and the
//! shard goes back to its queue. A shard has one kind of read request,
//! `Read`: a reader of many blocks sends one per block, every one
//! before it awaits the first ([`CacheClient::read_many`]), so the fills
//! of its cold blocks are at the driver together.
//!
//! No store copies a block's bytes for anyone. A block is a [`Block`]:
//! shared and immutable, handed to every reader by reference count and
//! replaced whole by a write, so a reader that was already answered
//! keeps the bytes it was given, and the readers parked on one fill
//! share the one block the disk returned. The copying that message
//! passing pays for its scalability (§3) is done, and charged
//! [`copy_cost`], by the task that moves the bytes, on its own core:
//! the reader that takes a file's bytes out of the shared blocks into
//! its buffer (`FileSlice::copy_out`), the writer whose buffer becomes a
//! block, and a task that copies a shared block to change it
//! (`FsCore`). A block with one writer that keeps it (a group task's
//! bitmaps and inode table, a directory vnode's blocks) reaches a shard
//! only when it must go to the disk, at `sync`: the shards' slots are
//! left to file data.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::future::Future;
use std::sync::{Arc, Mutex};
use std::task::Poll;

use chanos_drivers::{DiskClient, DiskError, DiskReq, BLOCK_SIZE};
use chanos_rt::{
    self as rt, port_channel, Call, Capacity, CoreId, Either, Port, Receiver, ReplyTo, Sender,
};
use chanos_shmem::SimMutex;

use crate::core_fs::FileSlice;
use crate::error::FsError;

use chanos_sim::plock;

/// How many queued requests a cache shard drains per wakeup.
const CACHE_BATCH: usize = 32;

/// Modeled memory-copy bandwidth: bytes per cycle. Every engine pays
/// this where block bytes are copied (the §3 note that copying "buys
/// scalability at the cost of some memory bandwidth overhead" — but
/// shared-memory engines copy too).
pub const COPY_BYTES_PER_CYCLE: u64 = 8;

/// Cycles to copy `bytes` of block data, charged by the task that
/// copies them.
pub fn copy_cost(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(COPY_BYTES_PER_CYCLE)
}

/// One block's bytes as the stores hold and hand them out: shared by
/// every holder (the cache, the readers it answered, a write-back on
/// its way to the disk) and never changed; a write installs a new one.
/// A `Vec` behind the `Arc`, so that a writer's buffer becomes the
/// block by move.
pub type Block = Arc<Vec<u8>>;

/// Uniform async interface over cached block storage.
///
/// Implementations must give read-your-writes consistency per block;
/// cross-block ordering is the caller's concern.
pub trait BlockStore: Clone + 'static {
    /// Reads one block: the store's own, shared, not a copy.
    fn read_block(&self, lba: u64) -> impl std::future::Future<Output = Result<Block, FsError>>;
    /// Writes one block (must be exactly [`BLOCK_SIZE`] bytes): the
    /// buffer becomes the block.
    fn write_block(
        &self,
        lba: u64,
        data: Vec<u8>,
    ) -> impl std::future::Future<Output = Result<(), FsError>>;
    /// Flushes all dirty blocks to the device.
    fn sync(&self) -> impl std::future::Future<Output = Result<(), FsError>>;

    /// Reads many blocks, returned in request order.
    ///
    /// The default reads them one at a time; [`CacheClient`] overrides
    /// this to have every block's read at its shard at once.
    fn read_blocks(
        &self,
        lbas: &[u64],
    ) -> impl std::future::Future<Output = Result<Vec<Block>, FsError>> {
        async move {
            let mut out = Vec::with_capacity(lbas.len());
            for &lba in lbas {
                out.push(self.read_block(lba).await?);
            }
            Ok(out)
        }
    }

    /// `true` if block `lba` is the calling task's own memory rather
    /// than a block shared through the cache: the task changes it in
    /// place, with no copy to pay for. Only a task that keeps blocks in
    /// front of the cache (a group task) owns any.
    fn owns(&self, _lba: u64) -> bool {
        false
    }
}

/// A write-back LRU cache of disk blocks (pure data structure).
pub struct LruCache {
    capacity: usize,
    seq: u64,
    blocks: HashMap<u64, Entry>,
}

struct Entry {
    data: Block,
    dirty: bool,
    last_used: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        LruCache {
            capacity,
            seq: 0,
            blocks: HashMap::new(),
        }
    }

    /// Looks up a block, refreshing its LRU position.
    pub fn get(&mut self, lba: u64) -> Option<Block> {
        self.seq += 1;
        let seq = self.seq;
        self.blocks.get_mut(&lba).map(|e| {
            e.last_used = seq;
            e.data.clone()
        })
    }

    /// Inserts a clean block (from a device read); returns an evicted
    /// dirty block that must be written back, if any.
    pub fn insert_clean(&mut self, lba: u64, data: Block) -> Option<(u64, Block)> {
        self.insert(lba, data, false)
    }

    /// Inserts/overwrites a dirty block (from a write); returns an
    /// evicted dirty block that must be written back, if any.
    pub fn insert_dirty(&mut self, lba: u64, data: Block) -> Option<(u64, Block)> {
        self.insert(lba, data, true)
    }

    fn insert(&mut self, lba: u64, data: Block, dirty: bool) -> Option<(u64, Block)> {
        self.seq += 1;
        let seq = self.seq;
        if let Some(e) = self.blocks.get_mut(&lba) {
            e.data = data;
            e.dirty = e.dirty || dirty;
            e.last_used = seq;
            return None;
        }
        let mut evicted = None;
        if self.blocks.len() >= self.capacity {
            let victim = self
                .blocks
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&lba, _)| lba)
                .expect("cache non-empty");
            let e = self.blocks.remove(&victim).expect("present");
            if e.dirty {
                evicted = Some((victim, e.data));
            }
        }
        self.blocks.insert(
            lba,
            Entry {
                data,
                dirty,
                last_used: seq,
            },
        );
        evicted
    }

    /// Takes back a block whose write-back failed: dirty again, and
    /// nothing is evicted to make room, so a disk that refuses writes
    /// cannot set off a chain of evictions (the cache exceeds its
    /// capacity by the blocks refused). A cached copy is the same
    /// bytes or newer, and stays.
    fn restore_dirty(&mut self, lba: u64, data: Block) {
        self.seq += 1;
        let fresh = Entry {
            data,
            dirty: true,
            last_used: self.seq,
        };
        self.blocks.entry(lba).or_insert(fresh).dirty = true;
    }

    /// Drains all dirty blocks (marking them clean).
    pub fn take_dirty(&mut self) -> Vec<(u64, Block)> {
        let mut out = Vec::new();
        for (&lba, e) in self.blocks.iter_mut() {
            if e.dirty {
                e.dirty = false;
                out.push((lba, e.data.clone()));
            }
        }
        out.sort_by_key(|(lba, _)| *lba);
        out
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

pub(crate) fn check_block_len(data: &[u8]) -> Result<(), FsError> {
    if data.len() == BLOCK_SIZE {
        Ok(())
    } else {
        Err(FsError::Invalid)
    }
}

// ---------------------------------------------------------------------------
// Unsynchronized cached disk (big-lock engine).
// ---------------------------------------------------------------------------

/// Disk + cache with **no internal synchronization**: correct only
/// when every access is serialized externally (the big kernel lock).
#[derive(Clone)]
pub struct CachedDisk {
    disk: DiskClient,
    cache: Arc<Mutex<LruCache>>,
}

impl CachedDisk {
    /// Wraps a disk with a cache of `capacity` blocks.
    pub fn new(disk: DiskClient, capacity: usize) -> Self {
        CachedDisk {
            disk,
            cache: Arc::new(Mutex::new(LruCache::new(capacity))),
        }
    }

    /// Writes a dirty block back; one the disk refuses is dirty in the
    /// cache again, for the next `sync`.
    async fn write_back(&self, lba: u64, data: Block) -> Result<(), FsError> {
        let out = self.disk.write(lba, data.to_vec()).await;
        if out.is_err() {
            plock(&self.cache).restore_dirty(lba, data);
        }
        Ok(out?)
    }
}

impl BlockStore for CachedDisk {
    async fn read_block(&self, lba: u64) -> Result<Block, FsError> {
        let cached = plock(&self.cache).get(lba);
        if let Some(data) = cached {
            rt::stat_incr("cache.hits");
            return Ok(data);
        }
        rt::stat_incr("cache.misses");
        let data = Block::new(self.disk.read(lba, 1).await?);
        let evicted = plock(&self.cache).insert_clean(lba, data.clone());
        if let Some((vlba, vdata)) = evicted {
            self.write_back(vlba, vdata).await?;
        }
        Ok(data)
    }

    async fn write_block(&self, lba: u64, data: Vec<u8>) -> Result<(), FsError> {
        check_block_len(&data)?;
        let evicted = plock(&self.cache).insert_dirty(lba, Block::new(data));
        if let Some((vlba, vdata)) = evicted {
            self.write_back(vlba, vdata).await?;
        }
        Ok(())
    }

    /// Writes every dirty block back, the ones after a refused block
    /// too; the error is the first refusal's.
    async fn sync(&self) -> Result<(), FsError> {
        let dirty = plock(&self.cache).take_dirty();
        let mut out = Ok(());
        for (lba, data) in dirty {
            let written = self.write_back(lba, data).await;
            out = out.and(written);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Sharded, lock-protected cached disk (fine-grained-lock engine).
// ---------------------------------------------------------------------------

/// Disk + cache split into shards, each behind a [`SimMutex`]; the
/// conventional fine-grained-locking buffer cache.
#[derive(Clone)]
pub struct ShardedCachedDisk {
    disk: DiskClient,
    shards: Arc<Vec<SimMutex<LruCache>>>,
}

impl ShardedCachedDisk {
    /// Wraps a disk with `shards` cache shards of `capacity` blocks
    /// each. Must be created inside the simulation.
    pub fn new(disk: DiskClient, shards: usize, capacity_per_shard: usize) -> Self {
        assert!(shards > 0);
        let shards = (0..shards)
            .map(|_| SimMutex::new(LruCache::new(capacity_per_shard)))
            .collect();
        ShardedCachedDisk {
            disk,
            shards: Arc::new(shards),
        }
    }

    fn shard(&self, lba: u64) -> &SimMutex<LruCache> {
        &self.shards[(lba % self.shards.len() as u64) as usize]
    }

    /// Writes a dirty block back, outside its shard's lock; one the
    /// disk refuses is dirty in its shard again, for the next `sync`.
    async fn write_back(&self, lba: u64, data: Block) -> Result<(), FsError> {
        let out = self.disk.write(lba, data.to_vec()).await;
        if out.is_err() {
            let g = self.shard(lba).lock().await;
            g.with(|c| c.restore_dirty(lba, data));
        }
        Ok(out?)
    }
}

impl BlockStore for ShardedCachedDisk {
    async fn read_block(&self, lba: u64) -> Result<Block, FsError> {
        let shard = self.shard(lba);
        let g = shard.lock().await;
        if let Some(data) = g.with(|c| c.get(lba)) {
            rt::stat_incr("cache.hits");
            return Ok(data);
        }
        rt::stat_incr("cache.misses");
        // Hold the shard lock across the fill, as real buffer caches
        // hold the buffer lock across I/O.
        let data = Block::new(self.disk.read(lba, 1).await?);
        let evicted = g.with(|c| c.insert_clean(lba, data.clone()));
        drop(g);
        if let Some((vlba, vdata)) = evicted {
            self.write_back(vlba, vdata).await?;
        }
        Ok(data)
    }

    async fn write_block(&self, lba: u64, data: Vec<u8>) -> Result<(), FsError> {
        check_block_len(&data)?;
        let g = self.shard(lba).lock().await;
        let evicted = g.with(|c| c.insert_dirty(lba, Block::new(data)));
        drop(g);
        if let Some((vlba, vdata)) = evicted {
            self.write_back(vlba, vdata).await?;
        }
        Ok(())
    }

    /// Writes every shard's dirty blocks back, the ones after a refused
    /// block too; the error is the first refusal's.
    async fn sync(&self) -> Result<(), FsError> {
        let mut out = Ok(());
        for shard in self.shards.iter() {
            let g = shard.lock().await;
            let dirty = g.with(|c| c.take_dirty());
            drop(g);
            for (lba, data) in dirty {
                let written = self.write_back(lba, data).await;
                out = out.and(written);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Cache server tasks (message-passing engine).
// ---------------------------------------------------------------------------

enum CacheMsg {
    /// `len` bytes from `start` of block `lba`, answered as a
    /// [`FileSlice`] of the shared block: a whole block for a task that
    /// reads the block itself, one file read's range for a vnode that
    /// hands its reader's reply on (whoever sent the reply gets it).
    Read {
        lba: u64,
        start: u32,
        len: u32,
        reply: ReplyTo<Result<FileSlice, FsError>>,
    },
    Write {
        lba: u64,
        data: Block,
        reply: ReplyTo<Result<(), FsError>>,
    },
    Sync {
        reply: ReplyTo<Result<(), FsError>>,
    },
}

/// The end of a disk command, posted to the shard by the helper task
/// that waited for it.
enum Done {
    Fill {
        lba: u64,
        id: u64,
        result: Result<Vec<u8>, DiskError>,
    },
    Writeback {
        lba: u64,
        gen: u64,
        result: Result<(), DiskError>,
        /// The writer whose insert evicted the block, answered now.
        writer: Option<ReplyTo<Result<(), FsError>>>,
    },
}

/// A `Read` waiting for a block that is on its way from the disk, and
/// the range of the block it asked for.
struct Waiter {
    reply: ReplyTo<Result<FileSlice, FsError>>,
    start: u32,
    len: u32,
}

/// One cache shard: the blocks it owns and what it is waiting for.
///
/// The shard never waits for the disk. It submits each command itself
/// — [`Port::call`] submits at once, so the driver sees a block's
/// commands in the order the shard decided them — and hands the
/// [`Call`] to a helper task that posts a [`Done`] back;
/// whoever wants the result is parked in the tables below meanwhile.
/// The tables are only ever looked up by key: no `HashMap` iteration
/// order reaches the disk or a reply.
struct Shard {
    cache: LruCache,
    disk: DiskClient,
    /// Where the shard runs, and its helpers with it.
    core: CoreId,
    done: Sender<Done>,
    /// Names fills and write-backs (their generation).
    last_id: u64,
    /// Blocks being read from the disk: the read's id and who waits.
    /// Later readers of the block join the list.
    fills: HashMap<u64, (u64, Vec<Waiter>)>,
    /// Fills a write overtook, by id, and who waits for them: readers
    /// that asked before the write, answered with what the disk sends.
    /// Nobody joins them, and the cache keeps the block written.
    overtaken: HashMap<u64, Vec<Waiter>>,
    /// Evicted dirty blocks whose write has not landed yet, still
    /// readable from here: generation and bytes of the newest
    /// write-back of each.
    writebacks: HashMap<u64, (u64, Block)>,
    /// Generations of the write-backs in flight.
    wb_in_flight: BTreeSet<u64>,
    /// Parked `Sync`s in arrival order, each with the last generation
    /// it has to see land.
    syncs: VecDeque<(u64, ReplyTo<Result<(), FsError>>)>,
    /// Blocks the disk does not hold yet because it refused their
    /// newest finished write-back: that write-back's generation and
    /// error, until a later write-back of the block lands.
    refused: HashMap<u64, (u64, DiskError)>,
}

impl Shard {
    fn fresh_id(&mut self) -> u64 {
        self.last_id += 1;
        self.last_id
    }

    /// The block, if memory has it: cached, or evicted and still on
    /// its way to the disk.
    fn in_memory(&mut self, lba: u64) -> Option<Block> {
        let cached = self.cache.get(lba);
        cached.or_else(|| self.writebacks.get(&lba).map(|(_, data)| data.clone()))
    }

    /// Parks `waiter` until `lba` arrives, starting the disk read
    /// unless one is already in flight.
    fn park(&mut self, lba: u64, waiter: Waiter) {
        if let Some((_, waiters)) = self.fills.get_mut(&lba) {
            rt::stat_incr("cache.fill_joins");
            waiters.push(waiter);
            return;
        }
        rt::stat_incr("cache.misses");
        let id = self.fresh_id();
        self.fills.insert(lba, (id, vec![waiter]));
        let call = self.disk.port().call(|reply| DiskReq::Read {
            lba,
            count: 1,
            reply,
        });
        self.hand_off("cache-fill", call, move |result| Done::Fill {
            lba,
            id,
            result,
        });
    }

    /// Starts writing an evicted (or flushed) dirty block back. A
    /// newer write-back of a block takes the table entry over; the
    /// driver's write-hazard rule keeps the two in order on the disk.
    fn start_writeback(
        &mut self,
        lba: u64,
        data: Block,
        writer: Option<ReplyTo<Result<(), FsError>>>,
    ) {
        rt::stat_incr("cache.writebacks");
        let gen = self.fresh_id();
        self.wb_in_flight.insert(gen);
        // The disk takes a buffer of its own (its DMA, not a copy any
        // task pays for); memory keeps the block until the write lands.
        let dma = data.to_vec();
        self.writebacks.insert(lba, (gen, data));
        let call = self.disk.port().call(|reply| DiskReq::Write {
            lba,
            data: dma,
            reply,
        });
        self.hand_off("cache-wb", call, move |result| Done::Writeback {
            lba,
            gen,
            result,
            writer,
        });
    }

    /// Spawns the helper that waits for `call` in the shard's place
    /// and posts what `done` makes of the disk's answer.
    fn hand_off<T: Send + 'static>(
        &self,
        name: &str,
        call: Call<Result<T, DiskError>>,
        done: impl FnOnce(Result<T, DiskError>) -> Done + Send + 'static,
    ) {
        let tx = self.done.clone();
        rt::spawn_daemon_on(name, self.core, async move {
            let result = call.await.unwrap_or_else(|e| Err(e.into()));
            let _ = tx.send(done(result)).await;
        });
    }

    /// Hands a block (or the error that came instead) to everyone
    /// parked on it, in the order they parked: the one block, shared.
    async fn deliver(&self, waiters: Vec<Waiter>, block: Result<&Block, &FsError>) {
        for Waiter { reply, start, len } in waiters {
            let out = block.map(|b| FileSlice::in_block(b.clone(), start, len));
            let _ = reply.send(out.map_err(FsError::clone)).await;
        }
    }

    /// Answers the parked `Sync`s whose write-backs have all landed,
    /// each with the error of the oldest write-back it covers whose
    /// block is still not on the disk: a refusal that a later
    /// write-back of the block has since made good is not reported.
    async fn answer_syncs(&mut self) {
        let oldest = self.wb_in_flight.first().copied();
        while let Some(&(until, _)) = self.syncs.front() {
            if oldest.is_some_and(|gen| gen <= until) {
                break;
            }
            let (_, reply) = self.syncs.pop_front().expect("front is there");
            let covered = self.refused.values().filter(|(gen, _)| *gen <= until);
            let out = match covered.min_by_key(|(gen, _)| *gen) {
                Some((_, e)) => Err(FsError::Io(e.clone())),
                None => Ok(()),
            };
            let _ = reply.send(out).await;
        }
    }

    async fn serve(&mut self, msg: CacheMsg) {
        match msg {
            CacheMsg::Read {
                lba,
                start,
                len,
                reply,
            } => match self.in_memory(lba) {
                Some(data) => {
                    rt::stat_incr("cache.hits");
                    let _ = reply.send(Ok(FileSlice::in_block(data, start, len))).await;
                }
                None => self.park(lba, Waiter { reply, start, len }),
            },
            CacheMsg::Write { lba, data, reply } => {
                // The write overtakes a fill. The readers parked on it
                // asked first: they get what the disk sends, as they
                // would have had the fill landed first — a vnode that
                // hands a read on and then writes the block is answered
                // in the order it sent them. Readers from now on get
                // this block.
                if let Some((id, waiters)) = self.fills.remove(&lba) {
                    self.overtaken.insert(id, waiters);
                }
                match self.cache.insert_dirty(lba, data) {
                    // The writer waits for its victim: that bounds the
                    // write-backs in flight by the clients in flight.
                    Some((vlba, vdata)) => self.start_writeback(vlba, vdata, Some(reply)),
                    None => {
                        let _ = reply.send(Ok(())).await;
                    }
                }
            }
            CacheMsg::Sync { reply } => {
                for (lba, data) in self.cache.take_dirty() {
                    self.start_writeback(lba, data, None);
                }
                self.syncs.push_back((self.last_id, reply));
                self.answer_syncs().await;
            }
        }
    }

    async fn complete(&mut self, done: Done) {
        match done {
            Done::Fill { lba, id, result } => {
                // A `Write` overtook this read (and a later miss may
                // have started another): the block it carries is older
                // than the one written, for its own readers only.
                let waiters = match self.fills.entry(lba) {
                    MapEntry::Occupied(fill) if fill.get().0 == id => fill.remove().1,
                    _ => {
                        let waiters = self.overtaken.remove(&id).expect("a fill has readers");
                        let result = result.map(Block::new).map_err(FsError::Io);
                        return self.deliver(waiters, result.as_ref()).await;
                    }
                };
                match result {
                    Ok(data) => {
                        let data = Block::new(data);
                        self.deliver(waiters, Ok(&data)).await;
                        if let Some((vlba, vdata)) = self.cache.insert_clean(lba, data) {
                            self.start_writeback(vlba, vdata, None);
                        }
                    }
                    Err(e) => self.deliver(waiters, Err(&FsError::Io(e))).await,
                }
            }
            Done::Writeback {
                lba,
                gen,
                result,
                writer,
            } => {
                self.wb_in_flight.remove(&gen);
                // Unless a newer write-back of the block has taken the
                // entry over, the block leaves memory here — or, if
                // the disk refused it, goes back to the cache.
                if let MapEntry::Occupied(wb) = self.writebacks.entry(lba) {
                    if wb.get().0 == gen {
                        let (_, bytes) = wb.remove();
                        if result.is_err() {
                            self.cache.restore_dirty(lba, bytes);
                        }
                    }
                }
                match &result {
                    Err(e) => {
                        rt::stat_incr("cache.writeback_errors");
                        let newest = self.refused.get(&lba).is_none_or(|(g, _)| *g < gen);
                        if newest {
                            self.refused.insert(lba, (gen, e.clone()));
                        }
                    }
                    Ok(()) => {
                        if self.refused.get(&lba).is_some_and(|(g, _)| *g < gen) {
                            self.refused.remove(&lba);
                        }
                    }
                }
                if let Some(reply) = writer {
                    let _ = reply.send(result.map_err(FsError::Io)).await;
                }
                self.answer_syncs().await;
            }
        }
    }
}

/// What the shard wakes for next: a completion, else a request; `None`
/// once every client is gone. Completions go first — there are never
/// more of them than commands in flight, so requests cannot starve —
/// and in a fixed order, so that one seed gives one trace.
async fn next_wake(
    done: &Receiver<Done>,
    requests: &Receiver<CacheMsg>,
) -> Option<Either<Done, CacheMsg>> {
    let mut done = std::pin::pin!(done.recv());
    let mut request = std::pin::pin!(requests.recv());
    std::future::poll_fn(|cx| {
        // The shard holds a sender of its own: never closed.
        if let Poll::Ready(Ok(d)) = done.as_mut().poll(cx) {
            return Poll::Ready(Some(Either::Left(d)));
        }
        request.as_mut().poll(cx).map(|r| r.ok().map(Either::Right))
    })
    .await
}

/// Client handle to the buffer-cache server shards.
///
/// Each shard is an autonomous task owning its blocks outright (§4):
/// per-block read-modify-write is serialized by construction, with no
/// locks anywhere. Requests go through typed [`Port`]s. A shard keeps
/// serving while the disk works: a miss parks the reader, a dirty
/// eviction parks the writer, and a helper task per command
/// (`cache-fill`, `cache-wb`) does the waiting.
#[derive(Clone)]
pub struct CacheClient {
    shards: Arc<Vec<Port<CacheMsg>>>,
}

impl CacheClient {
    /// Spawns `shards` cache server tasks (round-robin over `cores`)
    /// and returns the client handle.
    ///
    /// A shard may have two writes of one block at the driver together
    /// (an older write-back and a newer one), so the driver behind
    /// `disk` must run overlapping writes in arrival order, as
    /// `spawn_disk_driver`'s write-hazard rule does.
    pub fn spawn(
        disk: DiskClient,
        shards: usize,
        capacity_per_shard: usize,
        cores: &[CoreId],
    ) -> CacheClient {
        assert!(shards > 0 && !cores.is_empty());
        let mut txs = Vec::with_capacity(shards);
        for s in 0..shards {
            let (tx, rx) = port_channel::<CacheMsg>(Capacity::Unbounded);
            let disk = disk.clone();
            let core = cores[s % cores.len()];
            rt::spawn_daemon_on(&format!("cache-shard{s}"), core, async move {
                let (done_tx, done_rx) = rt::channel::<Done>(Capacity::Unbounded);
                let mut shard = Shard {
                    cache: LruCache::new(capacity_per_shard),
                    disk,
                    core,
                    done: done_tx,
                    last_id: 0,
                    fills: HashMap::new(),
                    overtaken: HashMap::new(),
                    writebacks: HashMap::new(),
                    wb_in_flight: BTreeSet::new(),
                    syncs: VecDeque::new(),
                    refused: HashMap::new(),
                };
                // Drain request bursts: one wakeup serves a batch.
                let mut batch = Vec::with_capacity(CACHE_BATCH);
                while let Some(wake) = next_wake(&done_rx, &rx).await {
                    match wake {
                        Either::Left(done) => shard.complete(done).await,
                        Either::Right(msg) => {
                            shard.serve(msg).await;
                            rx.try_recv_many(&mut batch, CACHE_BATCH - 1);
                            for msg in batch.drain(..) {
                                shard.serve(msg).await;
                            }
                        }
                    }
                }
            });
            txs.push(tx);
        }
        CacheClient {
            shards: Arc::new(txs),
        }
    }

    fn shard(&self, lba: u64) -> &Port<CacheMsg> {
        &self.shards[(lba % self.shards.len() as u64) as usize]
    }

    /// Hands a read of `len` bytes from `start` of block `lba` to the
    /// block's shard with someone else's `reply`: the shard answers it
    /// (a hit at once, a miss when the fill lands) and nobody waits
    /// here. A shard that is gone gives the reply back.
    pub(crate) fn forward_read(
        &self,
        lba: u64,
        start: u32,
        len: u32,
        reply: ReplyTo<Result<FileSlice, FsError>>,
    ) -> Result<(), ReplyTo<Result<FileSlice, FsError>>> {
        let read = CacheMsg::Read {
            lba,
            start,
            len,
            reply,
        };
        match self.shard(lba).forward(read) {
            Ok(()) => Ok(()),
            Err(CacheMsg::Read { reply, .. }) => Err(reply),
            Err(_) => unreachable!("a read comes back a read"),
        }
    }

    /// Submits a read of the whole block `lba` to its shard now.
    fn read_call(&self, lba: u64) -> Call<Result<FileSlice, FsError>> {
        self.shard(lba).call(|reply| CacheMsg::Read {
            lba,
            start: 0,
            len: BLOCK_SIZE as u32,
            reply,
        })
    }

    /// Reads many blocks, the mirror of [`CacheClient::write_many`]:
    /// one whole-block `Read` per block, every one submitted when this
    /// is called, before the returned future is first polled, so every
    /// cold block's fill is in the driver's queue together. Answers in
    /// request order; the first error in that order fails the call.
    pub fn read_many(&self, lbas: &[u64]) -> impl Future<Output = Result<Vec<Block>, FsError>> {
        let calls: Vec<_> = lbas.iter().map(|&lba| self.read_call(lba)).collect();
        async move {
            let mut out = Vec::with_capacity(calls.len());
            for call in calls {
                let slice = call.await.unwrap_or_else(|e| Err(e.into()))?;
                out.push(slice.into_block());
            }
            Ok(out)
        }
    }

    /// Writes many blocks in one round trip: every `Write` is
    /// submitted when this is called, before the returned future is
    /// first polled, so blocks of different shards are written in
    /// parallel and blocks of one shard arrive in the order given.
    /// Answers block for block, in that order; a block answered
    /// `Err` may or may not be in the cache (the error can be its
    /// evicted victim's), so its writer keeps the bytes.
    pub fn write_many(
        &self,
        blocks: &[(u64, Block)],
    ) -> impl Future<Output = Vec<Result<(), FsError>>> {
        let calls: Vec<_> = blocks
            .iter()
            .map(|(lba, data)| {
                check_block_len(data)?;
                let (lba, data) = (*lba, data.clone());
                Ok(self
                    .shard(lba)
                    .call(|reply| CacheMsg::Write { lba, data, reply }))
            })
            .collect();
        async move {
            let mut out = Vec::with_capacity(calls.len());
            for call in calls {
                out.push(match call {
                    Ok(call) => call.await.unwrap_or_else(|e| Err(e.into())),
                    Err(e) => Err(e),
                });
            }
            out
        }
    }
}

impl BlockStore for CacheClient {
    async fn read_block(&self, lba: u64) -> Result<Block, FsError> {
        let slice = self
            .read_call(lba)
            .await
            .unwrap_or_else(|e| Err(e.into()))?;
        Ok(slice.into_block())
    }

    async fn write_block(&self, lba: u64, data: Vec<u8>) -> Result<(), FsError> {
        check_block_len(&data)?;
        let data = Block::new(data);
        self.shard(lba)
            .call(|reply| CacheMsg::Write { lba, data, reply })
            .await
            .unwrap_or_else(|e| Err(e.into()))
    }

    async fn sync(&self) -> Result<(), FsError> {
        for shard in self.shards.iter() {
            shard
                .call(|reply| CacheMsg::Sync { reply })
                .await
                .unwrap_or_else(|e| Err(e.into()))?;
        }
        Ok(())
    }

    async fn read_blocks(&self, lbas: &[u64]) -> Result<Vec<Block>, FsError> {
        self.read_many(lbas).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn cache_request_layout_is_pinned() {
        // The simulator charges a message `size_of::<T>()` bytes: a failure
        // here means every modeled number is about to move.
        assert_eq!(std::mem::size_of::<CacheMsg>(), 48);
    }

    fn b(fill: u8) -> Block {
        Block::new(vec![fill])
    }

    #[test]
    fn lru_get_refreshes_recency() {
        let mut c = LruCache::new(2);
        assert!(c.insert_clean(1, b(1)).is_none());
        assert!(c.insert_clean(2, b(2)).is_none());
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(1), Some(b(1)));
        c.insert_clean(3, b(3));
        assert_eq!(c.get(2), None, "2 should have been evicted");
        assert_eq!(c.get(1), Some(b(1)));
        assert_eq!(c.get(3), Some(b(3)));
    }

    #[test]
    fn eviction_returns_dirty_victims_only() {
        let mut c = LruCache::new(1);
        assert!(c.insert_dirty(1, b(1)).is_none());
        let evicted = c.insert_clean(2, b(2));
        assert_eq!(evicted, Some((1, b(1))));
        // A clean victim is dropped silently.
        let evicted = c.insert_clean(3, b(3));
        assert!(evicted.is_none());
    }

    #[test]
    fn overwrite_keeps_dirty_bit() {
        let mut c = LruCache::new(4);
        c.insert_dirty(1, b(1));
        c.insert_clean(1, b(2)); // Refill of a dirty block.
        let dirty = c.take_dirty();
        assert_eq!(dirty, vec![(1, b(2))]);
        assert!(c.take_dirty().is_empty(), "take_dirty cleans");
    }

    #[test]
    fn a_reader_keeps_its_block_through_a_write() {
        let mut c = LruCache::new(4);
        c.insert_clean(1, b(1));
        let read = c.get(1).expect("cached");
        c.insert_dirty(1, b(2));
        assert_eq!(*read, [1], "a write installs a new block");
        assert_eq!(c.get(1), Some(b(2)));
    }
}
