//! The paper's file system (§4): every vnode is its own thread,
//! cylinder groups and free maps are administered by their own
//! threads, and the buffer cache is a set of server threads.
//!
//! *"For example, the file system could be structured so that every
//! vnode is its own thread, which communicates with other threads
//! that administer cylinder groups and free-maps and so forth."*
//!
//! Structure:
//!
//! ```text
//! client ──Walk ["d"], Create "f"──▶ root's vnode ──Create "f"──▶ d's vnode
//!    ▲                                (looks "d" up)  (forwarded)      │
//!    └──────────────────────────── Ok(ino) ───────────────────────────┘
//!
//! client ──Read/Write/Stat──▶ vnode task (one per active inode)
//!    ▲                              │  owns its Inode outright and,
//!    │                              │  for a directory, its blocks
//!    │                              │  and entries
//!    │                              ├──AllocBlock/WriteInode──▶ group task (one per
//!    │                              │                           cylinder group; holds
//!    │                              │                           its bitmaps and inode
//!    │                              │                           table)
//!    │                              └──Read/Write block───────▶ cache shard task
//!    └──────────── a one-block Read's FileSlice ────────────────────────┘
//! ```
//!
//! A call that names a path makes one round trip, to the root's vnode:
//! the message carries the components still to walk and the request at
//! the end of them with its reply (§3, channels as capabilities). Each
//! directory looks the next name up in its own entries and forwards
//! the message to the child's vnode, whose port it finds in its own
//! core's registry replica; the last directory hands the request
//! (`Lookup`, `Create`, `Unlink`, `ReadDir`) to its target, which
//! answers the caller; a `Lookup` or a `Create` answers with a [`File`],
//! the entry's number and its vnode's port, taken in the directory's
//! turn, which is how an open file reaches its vnode from then on. A
//! walk that stops short — a missing name, a file
//! on the way, a vnode that cannot be reached — is refused, to the
//! caller, by the vnode where it stopped. A directory serves a walk in
//! its turn like any request, so a `create` under a directory is
//! ordered by the parent with that directory's `unlink`.
//!
//! A vnode is started once, by the call that makes its file: the
//! root's by [`MsgFs::format`], every other one by its directory's
//! `Create`, in the directory's turn, with the record the group just
//! wrote (so a vnode loads nothing). It lives until its reap. A call
//! that names a number no live file holds finds no vnode and is
//! answered [`FsError::Gone`]; nothing is started for it.
//!
//! Every piece of mutable state has exactly one writing task (or, for
//! the vnode registry below, one replica per core over a shared op
//! log), and dispatch-by-channel replaces dispatch-by-function-pointer
//! (§4). State with one owner needs no lock and no fetch, and a block
//! with one writer has one home: its owner's memory. A group task
//! keeps its group's two bitmaps and inode table (`GroupStore`: `2 +
//! itable_blocks` blocks, each read from the cache once in the task's
//! life), changes them there, and marks the blocks a request changes
//! dirty; the cache shards see them when `sync` asks the group to
//! write them back. So the shards' slots hold file data,
//! not copies of blocks nobody else reads, and after a `sync` the
//! volume holds the bytes the lock engines would have written. A
//! file's data blocks live in the cache shards alone.
//!
//! A process makes its calls itself, and a vnode validates each one
//! ([`VALIDATE_CYCLES`]) as the request it answers: a `Read`, `Write`
//! or `Stat` comes through the [`File`] its `open` answered
//! ([`File::forward`]), marked `validate`, and a path call through the
//! root's ([`File::forward_path`]). The request at the end of a
//! process's walk is `Checked`, and the vnode that serves it, or
//! refuses it where the walk stops, pays the check once; the
//! directories on the way only look their component up. The kernel's
//! own calls, by number, by path or through a file it holds, are not
//! validated.
//!
//! Who copies: the task that moves the bytes, on its own core. A `Read`
//! is answered with the blocks the bytes lie in (`FileSlice`), shared
//! with the cache, and the reader copies them out. One that lies in a
//! single directly mapped block the vnode hands on, with its caller's
//! reply, to the block's cache shard, which answers the caller; any
//! other the vnode gathers and answers itself. A `Write`'s
//! buffer is the writer's copy and becomes the block. A vnode that
//! writes part of a file block copies the block to change it, or makes
//! zeroes to start a block the file did not have; a group task and a
//! directory vnode change their own blocks in place, and copy them when
//! a `sync` hands them to the cache.
//!
//! Who waits for the disk: the caller, never a cache shard. A shard
//! that misses submits the read, parks the reply endpoint under the
//! block's number and serves its next request; a vnode or group task
//! whose block is cold waits in its `Call` (and its own queue behind
//! it — one file, one group), while every other vnode and group whose
//! blocks hash to that shard is answered in the time a hit takes. See
//! `store.rs` and ARCHITECTURE.md, "Who waits for the disk".
//!
//! A directory's vnode task is the only writer of the directory, so it
//! keeps the directory's blocks and their decoded entries in its own
//! state — read from the cache on first use, kept in step by its own
//! `Create` and `Unlink` — and answers `Lookup`, `ReadDir`, the
//! existence checks and `Condemn`'s emptiness test from there. A
//! `Create` or `Unlink` writes its 64-byte entry into the held block,
//! slot for slot as `FsCore::dir_add`/`dir_remove` place them, and
//! marks the block dirty; a `sync`, and the directory's reap before it
//! frees the blocks, write the dirty blocks back whole.
//!
//! The failure rule follows: a change by an owner cannot fail the
//! request that made it, because nothing goes to the cache then. A
//! block the cache refuses on its way back fails that `sync` and stays
//! dirty for the next one, as a refused write-back of file data does in
//! the cache. A group allocates a data block by setting its bit alone;
//! the block's first bytes come from its file's vnode (the write that
//! fills it, or zeroes the vnode made), so a group task goes to the
//! cache only at `Flush`.
//!
//! Unlink of a directory checks emptiness in the child vnode. A vnode
//! that drops its last link reaps itself in an order that keeps its
//! inode number safe to hand out again: write a directory's blocks
//! back, free the data and clear the inode record (one burst to the
//! group), leave the registry, and only then free the number — so the
//! number's next file is `Insert`ed only after this one's `Retire`.
//! It then closes its channel and refuses whatever was queued or still
//! on its way, and the rest of the burst it reaped in — a call through
//! a removed file's port — so those callers get [`FsError::Gone`], not
//! silence. The caller may be a process that sent the call through
//! its [`File`]; one sent after the vnode has gone finds the port
//! closed and is answered `Gone` where it was sent.
//!
//! The ino→vnode-port registry itself is node-replicated
//! (`fs-vnreg`, one replica per service core): `Get` is served from
//! the caller's **local** replica with no cross-core communication. It
//! is a published index with nothing to arbitrate: its writes are one
//! `Insert` where a vnode starts and one `Retire` in its reap, through
//! the shared operation log. It is also how `sync` finds the live
//! vnodes, in inode order.
//!
//! Every hop is a typed [`Port`] call, so clients can pipeline
//! requests into a server's batch drain. Each server answers a drained
//! burst through one [`ReplyBatch`], in arrival order: every reply is
//! sent where it is produced, and on real threads a client with
//! several outstanding calls against one vnode or group server is
//! woken once per burst (`chan.reply_wakes_coalesced`).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex};

use chanos_drivers::{DiskClient, BLOCK_SIZE};
use chanos_nr::{NrService, Replicated};
use chanos_rt::{self as rt, port_channel, Capacity, CoreId, Port, ReplyBatch, ReplyTo};
use chanos_sim::plock;

use crate::core_fs::{
    check_name, dirent_slots, in_one_block, split_parent, split_path, Allocator, FileSlice, FsCore,
    Stat,
};
use crate::error::FsError;
use crate::layout::{Dirent, FileKind, Inode, Superblock, DIRENT_SIZE, ROOT_INO};
use crate::store::{check_block_len, copy_cost, Block, BlockStore, CacheClient};
use crate::{File, FileCall, Handle, PathCall, VALIDATE_CYCLES};

/// Messages understood by a cylinder-group server task.
enum GroupMsg {
    AllocInode {
        kind: FileKind,
        reply: ReplyTo<Result<Option<u64>, FsError>>,
    },
    /// Zeroes the inode's record; its number stays allocated.
    ClearInode {
        ino: u64,
        reply: ReplyTo<Result<(), FsError>>,
    },
    /// Frees the number of an inode whose record is already cleared.
    FreeInode {
        ino: u64,
        reply: ReplyTo<Result<(), FsError>>,
    },
    AllocBlock {
        reply: ReplyTo<Result<Option<u64>, FsError>>,
    },
    FreeBlock {
        lba: u64,
        reply: ReplyTo<Result<(), FsError>>,
    },
    WriteInode {
        ino: u64,
        inode: Box<Inode>,
        reply: ReplyTo<Result<(), FsError>>,
    },
    /// Writes every block the group changed back to the cache.
    Flush { reply: ReplyTo<Result<(), FsError>> },
}

/// Messages understood by a vnode task. A request a process made is
/// validated: the vnode that answers it pays [`VALIDATE_CYCLES`] on its
/// core, once, whether it serves the request or refuses it, and a
/// directory that only walks a path on pays nothing. One the kernel
/// makes, by number, by path or through a file it holds, pays nothing.
/// A process's `Read`, `Write` or `Stat` carries the mark inline
/// (`validate`), so the hot path allocates nothing for it; the request
/// at the end of a process's walk comes `Checked`, boxed as the walk
/// already boxes it.
pub(crate) enum VnodeMsg {
    /// A process's request at the end of its walk, validated where it
    /// is answered.
    Checked(Box<VnodeMsg>),
    /// A one-block read of a file is handed on to the block's cache
    /// shard with `reply`; any other read is gathered and answered here.
    Read {
        off: u64,
        len: usize,
        validate: bool,
        reply: ReplyTo<Result<FileSlice, FsError>>,
    },
    /// Writes at `off`, or at the end of the file if `or_end` and the
    /// end comes first.
    Write {
        off: u64,
        or_end: bool,
        validate: bool,
        data: Vec<u8>,
        reply: ReplyTo<Result<(), FsError>>,
    },
    Stat {
        validate: bool,
        reply: ReplyTo<Result<Stat, FsError>>,
    },
    /// Opens this vnode's own file: how `open("/")` reaches the root.
    Open {
        reply: ReplyTo<Result<File, FsError>>,
    },
    /// Opens the entry `name`: its inode and its vnode's port, taken in
    /// this directory's turn.
    Lookup {
        name: String,
        reply: ReplyTo<Result<File, FsError>>,
    },
    /// Creates and opens the entry `name`.
    Create {
        name: String,
        kind: FileKind,
        reply: ReplyTo<Result<File, FsError>>,
    },
    Unlink {
        name: String,
        reply: ReplyTo<Result<(), FsError>>,
    },
    ReadDir {
        reply: ReplyTo<Result<Vec<Dirent>, FsError>>,
    },
    /// Parent→child during unlink: refuse if a non-empty directory,
    /// else decrement nlink and reap at zero. Returns `true` if the
    /// vnode reaped itself.
    Condemn {
        reply: ReplyTo<Result<bool, FsError>>,
    },
    /// Writes a directory's changed blocks back to the cache.
    Flush { reply: ReplyTo<Result<(), FsError>> },
    /// A path on its way to the directory that serves `then`: the
    /// receiving directory looks up the first component of `path` and
    /// forwards the rest — `then` itself once `path` is spent — to that
    /// child's vnode. `then` carries the caller's reply, so whichever
    /// vnode serves or refuses it answers the caller directly.
    Walk {
        path: VecDeque<String>,
        then: Box<VnodeMsg>,
    },
}

impl VnodeMsg {
    /// Answers the request with `e`, unserved; a walk's request is the
    /// one at its end.
    fn refuse(self, e: FsError, replies: &mut ReplyBatch) {
        match self {
            VnodeMsg::Checked(msg) => msg.refuse(e, replies),
            VnodeMsg::Open { reply } => replies.send(reply, Err(e)),
            VnodeMsg::Read { reply, .. } => replies.send(reply, Err(e)),
            VnodeMsg::Write { reply, .. } => replies.send(reply, Err(e)),
            VnodeMsg::Stat { reply, .. } => replies.send(reply, Err(e)),
            VnodeMsg::Lookup { reply, .. } => replies.send(reply, Err(e)),
            VnodeMsg::Create { reply, .. } => replies.send(reply, Err(e)),
            VnodeMsg::Unlink { reply, .. } => replies.send(reply, Err(e)),
            VnodeMsg::ReadDir { reply } => replies.send(reply, Err(e)),
            VnodeMsg::Condemn { reply } => replies.send(reply, Err(e)),
            VnodeMsg::Flush { reply } => replies.send(reply, Err(e)),
            VnodeMsg::Walk { then, .. } => then.refuse(e, replies),
        }
    }

    /// Whether a process made the request, at the end of its walk.
    fn checked(&self) -> bool {
        match self {
            VnodeMsg::Checked(_) => true,
            VnodeMsg::Walk { then, .. } => then.checked(),
            _ => false,
        }
    }
}

/// Refuses `msg` with `e` where its walk stopped. A process's request is
/// answered here, so it is validated here.
async fn refuse(msg: VnodeMsg, e: FsError, replies: &mut ReplyBatch) {
    if msg.checked() {
        rt::delay(VALIDATE_CYCLES).await;
    }
    msg.refuse(e, replies);
}

/// Read-only vnode-registry queries (served from the caller's local
/// replica).
enum VnRead {
    /// The serving port for `ino`, if a vnode task is active.
    Get(u64),
    /// Every serving port, in inode order.
    Live,
}

/// Mutating vnode-registry ops: the log entries every replica
/// applies. Whoever starts a vnode `Insert`s it; its reap `Retire`s it
/// before the number is freed, so the number's next vnode always finds
/// the slot vacant.
#[derive(Clone)]
enum VnWrite {
    Insert { ino: u64, port: Port<VnodeMsg> },
    Retire { ino: u64 },
}

/// The replicated ino→vnode-port registry state.
#[derive(Default)]
struct VnRegistry {
    map: HashMap<u64, Port<VnodeMsg>>,
}

impl NrService for VnRegistry {
    type ReadOp = VnRead;
    type ReadResp = Vec<Port<VnodeMsg>>;
    type WriteOp = VnWrite;
    type WriteResp = ();

    fn read(&self, op: &VnRead) -> Vec<Port<VnodeMsg>> {
        match op {
            VnRead::Get(ino) => self.map.get(ino).into_iter().cloned().collect(),
            VnRead::Live => {
                let mut live: Vec<_> = self.map.iter().collect();
                live.sort_unstable_by_key(|&(ino, _)| ino);
                live.into_iter().map(|(_, port)| port.clone()).collect()
            }
        }
    }

    fn apply(&mut self, op: &VnWrite) {
        match op {
            VnWrite::Insert { ino, port } => {
                let old = self.map.insert(*ino, port.clone());
                debug_assert!(old.is_none(), "inode {ino} has a live vnode already");
            }
            VnWrite::Retire { ino } => {
                self.map.remove(ino);
            }
        }
    }
}

struct MsgShared {
    core: FsCore<CacheClient>,
    groups: Vec<Port<GroupMsg>>,
    /// One registry replica per service core over a shared op log;
    /// `Get` reads the caller's local replica.
    vnreg: Replicated<VnRegistry>,
    vnode_cores: Vec<CoreId>,
    /// The root's vnode, started by [`MsgFs::format`]: where every walk
    /// begins.
    root: Port<VnodeMsg>,
}

impl MsgShared {
    fn group_of_ino(&self, ino: u64) -> &Port<GroupMsg> {
        &self.groups[self.core.superblock().group_of_ino(ino) as usize]
    }

    async fn store_inode(&self, ino: u64, inode: Inode) -> Result<(), FsError> {
        self.group_of_ino(ino)
            .call(|reply| GroupMsg::WriteInode {
                ino,
                inode: Box::new(inode),
                reply,
            })
            .await
            .unwrap_or_else(|e| Err(e.into()))
    }
}

/// Block allocator that routes to the group-server tasks.
struct MsgAllocator {
    shared: Arc<MsgShared>,
}

impl Allocator for MsgAllocator {
    async fn alloc_block<S: BlockStore>(
        &self,
        core: &FsCore<S>,
        hint: u64,
    ) -> Result<u64, FsError> {
        let n = core.superblock().n_groups;
        for i in 0..n {
            let g = ((hint + i) % n) as usize;
            let got = self.shared.groups[g]
                .call(|reply| GroupMsg::AllocBlock { reply })
                .await
                .unwrap_or_else(|e| Err(e.into()))?;
            if let Some(lba) = got {
                return Ok(lba);
            }
        }
        Err(FsError::NoSpace)
    }

    /// Every `FreeBlock` is at its group before the first is awaited,
    /// so a file's blocks reach their group as one burst.
    async fn free_blocks<S: BlockStore>(
        &self,
        core: &FsCore<S>,
        lbas: &[u64],
    ) -> Result<(), FsError> {
        let calls: Vec<_> = lbas
            .iter()
            .map(|&lba| {
                let g = core
                    .superblock()
                    .group_of_block(lba)
                    .ok_or(FsError::Invalid)?;
                Ok(self.shared.groups[g as usize].call(|reply| GroupMsg::FreeBlock { lba, reply }))
            })
            .collect();
        let mut out = Ok(());
        for call in calls {
            let freed = match call {
                Ok(call) => call.await.unwrap_or_else(|e| Err(e.into())),
                Err(e) => Err(e),
            };
            out = out.and(freed);
        }
        out
    }
}

/// How many queued requests a file-system server task drains per
/// wakeup (group servers, vnode tasks).
const FS_BATCH: usize = 32;

/// A group task's view of the volume: the cache, with the group's own
/// blocks — inode bitmap, data bitmap, inode table — kept in front of
/// it. [`FsCore`]'s allocation and inode-record algorithms run over
/// this store unchanged, and they write no other block: allocating a
/// data block only sets its bit.
///
/// The task is the write-back buffer of its own blocks. A read of an
/// own block is answered from the task's copy, fetched from the cache
/// the first time and never again (nobody else writes those blocks, so
/// the copy cannot go stale). The task changes its own blocks in place
/// ([`BlockStore::owns`]): a `write_block` replaces the copy and marks
/// it dirty, and the cache sees it when a `Flush` writes the dirty
/// blocks back whole, a copy of each, paid on the task's core. A block
/// the cache refused stays dirty and goes out again with the next
/// write-back: the task's copy is the truth, and the volume must end up
/// holding it.
#[derive(Clone)]
struct GroupStore {
    cache: CacheClient,
    /// The group's own block numbers.
    own: Range<u64>,
    blocks: Arc<Mutex<GroupBlocks>>,
}

struct GroupBlocks {
    /// The group's own blocks in order, `None` until first used: `2 +
    /// itable_blocks` of them whatever the workload (10 at the
    /// benchmark's geometry, 130 at the layout's largest).
    held: Vec<Option<Block>>,
    /// Own blocks changed since the cache last took them.
    dirty: BTreeSet<u64>,
}

impl GroupStore {
    fn new(cache: CacheClient, sb: &Superblock, g: u64) -> GroupStore {
        let own = sb.group_start(g)..sb.data_start(g);
        debug_assert_eq!(own.end - own.start, 2 + sb.itable_blocks());
        let blocks = GroupBlocks {
            held: vec![None; (own.end - own.start) as usize],
            dirty: BTreeSet::new(),
        };
        GroupStore {
            cache,
            own,
            blocks: Arc::new(Mutex::new(blocks)),
        }
    }

    /// Where `lba` is held, if it is one of the group's own blocks.
    fn slot(&self, lba: u64) -> Option<usize> {
        self.own
            .contains(&lba)
            .then(|| (lba - self.own.start) as usize)
    }

    /// Writes every dirty block to the cache, in block-number order,
    /// all shards at once. The blocks the cache refused stay dirty; the
    /// error is the first of theirs.
    async fn write_back(&self) -> Result<(), FsError> {
        let sent: Vec<_> = {
            let mut blocks = plock(&self.blocks);
            let dirty = std::mem::take(&mut blocks.dirty);
            let copy = |lba: u64| {
                let slot = self.slot(lba).expect("an own block");
                let held = blocks.held[slot].clone().expect("held since written");
                (lba, held)
            };
            dirty.into_iter().map(copy).collect()
        };
        if sent.is_empty() {
            return Ok(());
        }
        // The cache is given a copy of each block: the task goes on
        // changing its own in place.
        rt::delay(copy_cost(sent.len() * BLOCK_SIZE)).await;
        // A group task's one trip to the cache shards.
        rt::stat_incr("msgfs.group_write_throughs");
        let answers = self.cache.write_many(&sent).await;
        let mut out = Ok(());
        // The one task that writes here was waiting above.
        let mut blocks = plock(&self.blocks);
        for ((lba, _), answer) in sent.into_iter().zip(answers) {
            if let Err(e) = answer {
                blocks.dirty.insert(lba);
                out = out.and(Err(e));
            }
        }
        out
    }
}

impl BlockStore for GroupStore {
    async fn read_block(&self, lba: u64) -> Result<Block, FsError> {
        let slot = self.slot(lba);
        if let Some(data) = slot.and_then(|i| plock(&self.blocks).held[i].clone()) {
            return Ok(data);
        }
        let data = self.cache.read_block(lba).await?;
        if let Some(i) = slot {
            plock(&self.blocks).held[i] = Some(data.clone());
        }
        Ok(data)
    }

    /// A group writes its own blocks alone.
    async fn write_block(&self, lba: u64, data: Vec<u8>) -> Result<(), FsError> {
        check_block_len(&data)?;
        let i = self.slot(lba).ok_or(FsError::Invalid)?;
        let mut blocks = plock(&self.blocks);
        blocks.held[i] = Some(Block::new(data));
        blocks.dirty.insert(lba);
        Ok(())
    }

    async fn sync(&self) -> Result<(), FsError> {
        self.write_back().await?;
        self.cache.sync().await
    }

    fn owns(&self, lba: u64) -> bool {
        self.slot(lba).is_some()
    }
}

/// One cylinder-group server: the owner of the group's bitmaps and
/// inode table, which it keeps in its [`GroupStore`] for as long as it
/// lives and writes back to the cache when a `Flush` asks (`sync`).
/// Drains request bursts so allocation storms (and a reap's frees) cost
/// one wakeup per batch, not one per message — and one *reply* wake per
/// waiting peer per batch. Every request but `Flush` changes the
/// group's own blocks alone, so it is answered where it is produced.
async fn group_task(g: u64, core: FsCore<CacheClient>, rx: chanos_rt::Receiver<GroupMsg>) {
    let store = GroupStore::new(core.store().clone(), core.superblock(), g);
    let core = core.with_store(store);
    let mut batch = Vec::with_capacity(FS_BATCH);
    let mut replies = ReplyBatch::default();
    loop {
        let n = rx.recv_many(&mut batch, FS_BATCH).await;
        if n == 0 {
            break;
        }
        for msg in batch.drain(..) {
            group_handle(g, &core, msg, &mut replies).await;
        }
        replies.flush();
    }
}

async fn group_handle(g: u64, core: &FsCore<GroupStore>, msg: GroupMsg, replies: &mut ReplyBatch) {
    match msg {
        GroupMsg::AllocInode { kind, reply } => {
            replies.send(reply, core.alloc_inode_in(g, kind).await)
        }
        GroupMsg::ClearInode { ino, reply } => replies.send(reply, core.clear_inode(ino).await),
        GroupMsg::FreeInode { ino, reply } => replies.send(reply, core.free_inode_bit(ino).await),
        GroupMsg::AllocBlock { reply } => replies.send(reply, core.alloc_block_in(g).await),
        GroupMsg::FreeBlock { lba, reply } => replies.send(reply, core.free_block(lba).await),
        GroupMsg::WriteInode { ino, inode, reply } => {
            replies.send(reply, core.write_inode(ino, &inode).await)
        }
        GroupMsg::Flush { reply } => replies.send(reply, core.store().write_back().await),
    }
}

/// A directory's blocks and decoded entries, kept by the vnode task
/// that owns the directory. That task is the only writer of the
/// directory's blocks, so the copy cannot go stale; it saves fetching
/// and scanning the blocks on every path component of every `open`,
/// and reading a block back before a 64-byte entry is written into it.
#[derive(Default)]
struct DirEntries {
    /// name → (inode, slot).
    by_name: HashMap<String, (u64, u64)>,
    /// Free slots below the directory's slot count (its size in
    /// dirents).
    free: BTreeSet<u64>,
    /// The directory's data blocks by file block number: an entry never
    /// straddles two blocks, and the bytes past the directory's size
    /// are zero.
    blocks: Vec<Vec<u8>>,
    /// Blocks changed since the cache last took them: block number →
    /// file block number.
    dirty: BTreeMap<u64, usize>,
}

/// The state of one vnode task: inode `ino`, owned for the task's
/// lifetime.
struct Vnode {
    ino: u64,
    shared: Arc<MsgShared>,
    inode: Inode,
    /// The record the inode's group holds: as started with or last
    /// stored.
    stored: Inode,
    /// The inode's own group, where its blocks and its files go.
    group: u64,
    alloc: MsgAllocator,
    /// A directory's entries, loaded on first use.
    dir: Option<DirEntries>,
}

/// One vnode task. Serves until its channel closes or a `Condemn`
/// reaps the inode; then refuses everything still queued or on its
/// way, so those callers observe a typed transport failure
/// (`CallError::ServerGone`) instead of waiting on a channel nobody
/// reads.
async fn vnode_task(vn: Vnode, rx: chanos_rt::Receiver<VnodeMsg>) {
    rt::stat_incr("msgfs.vnode_threads_spawned");
    vn.serve(&rx).await;
    // A call queued or still on its way reached a file that is gone:
    // its caller, who may be a process that sent it through its file,
    // is answered so.
    rx.close();
    let (mut refused, mut replies) = (Vec::new(), ReplyBatch::default());
    while rx.recv_many(&mut refused, FS_BATCH).await > 0 {
        for msg in refused.drain(..) {
            msg.refuse(FsError::Gone, &mut replies);
        }
        replies.flush();
    }
}

impl Vnode {
    /// Drains request bursts per wakeup until the channel closes or a
    /// `Condemn` reaps the inode (the rest of that burst is refused
    /// `Gone`).
    async fn serve(mut self, rx: &chanos_rt::Receiver<VnodeMsg>) {
        let mut batch = Vec::with_capacity(FS_BATCH);
        let mut replies = ReplyBatch::default();
        loop {
            let n = rx.recv_many(&mut batch, FS_BATCH).await;
            if n == 0 {
                return;
            }
            let mut burst = batch.drain(..);
            while let Some(msg) = burst.next() {
                if self.handle(msg, &mut replies).await.is_break() {
                    // The vnode thread exits with its inode; dropping
                    // the batch flushes the reaping Condemn's reply
                    // with the rest of the burst's.
                    for msg in burst {
                        msg.refuse(FsError::Gone, &mut replies);
                    }
                    return;
                }
            }
            replies.flush();
        }
    }

    async fn handle(
        &mut self,
        msg: VnodeMsg,
        replies: &mut ReplyBatch,
    ) -> std::ops::ControlFlow<()> {
        let msg = match msg {
            VnodeMsg::Checked(msg) => {
                rt::delay(VALIDATE_CYCLES).await;
                *msg
            }
            VnodeMsg::Read { validate: true, .. }
            | VnodeMsg::Write { validate: true, .. }
            | VnodeMsg::Stat { validate: true, .. } => {
                rt::delay(VALIDATE_CYCLES).await;
                msg
            }
            msg => msg,
        };
        match msg {
            // Validated once: no request this crate makes is wrapped twice.
            VnodeMsg::Checked(msg) => msg.refuse(FsError::Invalid, replies),
            VnodeMsg::Read {
                off, len, reply, ..
            } => self.read(off, len, reply, replies).await,
            VnodeMsg::Write {
                off,
                or_end,
                data,
                reply,
                ..
            } => {
                let off = if or_end {
                    off.min(self.inode.size)
                } else {
                    off
                };
                let out = if self.inode.kind == FileKind::Dir {
                    Err(FsError::IsDir)
                } else {
                    match self.write_at(off, data).await {
                        Ok(()) => self.store().await,
                        Err(e) => Err(e),
                    }
                };
                replies.send(reply, out);
            }
            VnodeMsg::Stat { reply, .. } => {
                let out = Ok(Stat {
                    ino: self.ino,
                    kind: self.inode.kind,
                    size: self.inode.size,
                    nlink: self.inode.nlink,
                });
                replies.send(reply, out);
            }
            VnodeMsg::Open { reply } => {
                let out = open(&self.shared, self.ino).await;
                replies.send(reply, out);
            }
            VnodeMsg::Lookup { name, reply } => {
                let out = match self.child(&name).await {
                    Ok(ino) => open(&self.shared, ino).await,
                    Err(e) => Err(e),
                };
                replies.send(reply, out);
            }
            VnodeMsg::Create { name, kind, reply } => {
                let out = match self.create(name, kind).await {
                    Ok(ino) => start_vnode(&self.shared, ino, Inode::new(kind)).await,
                    Err(e) => Err(e),
                };
                replies.send(reply, out);
            }
            VnodeMsg::Unlink { name, reply } => {
                let out = self.unlink(name).await;
                replies.send(reply, out);
            }
            VnodeMsg::ReadDir { reply } => {
                let out = self.entries().await.map(|dir| {
                    let slots = dir.blocks.iter().flat_map(|b| b.chunks_exact(DIRENT_SIZE));
                    slots.filter_map(Dirent::decode).collect()
                });
                replies.send(reply, out);
            }
            VnodeMsg::Condemn { reply } => {
                if self.inode.kind == FileKind::Dir {
                    let refusal = match self.entries().await {
                        Ok(dir) if dir.by_name.is_empty() => None,
                        Ok(_) => Some(FsError::NotEmpty),
                        Err(e) => Some(e),
                    };
                    if let Some(e) = refusal {
                        replies.send(reply, Err(e));
                        return std::ops::ControlFlow::Continue(());
                    }
                }
                self.inode.nlink = self.inode.nlink.saturating_sub(1);
                if self.inode.nlink == 0 {
                    // Reap: write a directory's changed blocks back,
                    // free the data and clear the record — one burst to
                    // a file's group, the clear submitted before the
                    // frees and awaited after them — then leave the
                    // registry, and only then free the number, so the
                    // file given it next is `Insert`ed after this
                    // `Retire` and can never be routed to this task.
                    // For the same reason every step runs whatever
                    // became of the one before it; the ones that fail
                    // are counted.
                    count_reap_error(self.flush().await);
                    let ino = self.ino;
                    let group = self.shared.group_of_ino(ino);
                    let cleared = group.call(|reply| GroupMsg::ClearInode { ino, reply });
                    let freed = self
                        .shared
                        .core
                        .truncate(&mut self.inode, &self.alloc)
                        .await;
                    count_reap_error(freed);
                    count_reap_error(cleared.await.unwrap_or_else(|e| Err(e.into())));
                    let retired = self.shared.vnreg.write(VnWrite::Retire { ino }).await;
                    count_reap_error(retired.map_err(FsError::from));
                    let released = group.call(|reply| GroupMsg::FreeInode { ino, reply }).await;
                    count_reap_error(released.unwrap_or_else(|e| Err(e.into())));
                    rt::stat_incr("msgfs.vnodes_reaped");
                    replies.send(reply, Ok(true));
                    return std::ops::ControlFlow::Break(());
                }
                let out = self.store().await;
                replies.send(reply, out.map(|()| false));
            }
            VnodeMsg::Flush { reply } => {
                let out = self.flush().await;
                replies.send(reply, out);
            }
            VnodeMsg::Walk { mut path, then } => {
                let name = path.pop_front().expect("a walk has a component left");
                let child = self.child(&name).await;
                let next = if path.is_empty() {
                    *then
                } else {
                    VnodeMsg::Walk { path, then }
                };
                match child {
                    Ok(ino) => self.forward(ino, next, replies).await,
                    Err(e) => refuse(next, e, replies).await,
                }
            }
        }
        std::ops::ControlFlow::Continue(())
    }

    /// Answers a read of this file. A read that lies in one directly
    /// mapped block is the block's cache shard's to answer: it goes
    /// there with its caller's reply, and the shard answers the caller
    /// with the range of its shared block, a hit at once and a miss
    /// when the fill lands. Any other read is gathered here: one that
    /// spans blocks, goes through the indirect block, falls in a hole,
    /// or reads nothing.
    async fn read(
        &self,
        off: u64,
        len: usize,
        reply: ReplyTo<Result<FileSlice, FsError>>,
        replies: &mut ReplyBatch,
    ) {
        if self.inode.kind == FileKind::Dir {
            return replies.send(reply, Err(FsError::IsDir));
        }
        let Some((lba, start, len)) = in_one_block(&self.inode, off, len) else {
            let out = self.shared.core.read_file(&self.inode, off, len).await;
            return replies.send(reply, out);
        };
        rt::stat_incr("msgfs.reads_handed_on");
        let cache = self.shared.core.store();
        if let Err(reply) = cache.forward_read(lba, start, len, reply) {
            replies.send(reply, Err(FsError::Gone));
        }
    }

    /// The inode this directory names `name`.
    async fn child(&mut self, name: &str) -> Result<u64, FsError> {
        match self.entries().await?.by_name.get(name) {
            Some(&(child, _)) => Ok(child),
            None => Err(FsError::NotFound),
        }
    }

    /// Hands `msg` on to the vnode of `ino`, found in this core's
    /// registry replica. The message carries its caller's reply: a
    /// vnode that cannot be reached is answered for here.
    async fn forward(&self, ino: u64, msg: VnodeMsg, replies: &mut ReplyBatch) {
        let sent = match get_vnode(&self.shared, ino).await {
            Ok(vn) => vn.forward(msg).map_err(|msg| (msg, FsError::Gone)),
            Err(e) => Err((msg, e)),
        };
        if let Err((msg, e)) = sent {
            refuse(msg, e, replies).await;
        }
    }

    /// Writes `data` at `off` of this vnode's file. The inode changes
    /// in memory only; [`Vnode::store`] persists it.
    async fn write_at(&mut self, off: u64, data: Vec<u8>) -> Result<(), FsError> {
        self.shared
            .core
            .write_file(&mut self.inode, off, data, self.group, &self.alloc)
            .await
    }

    /// Persists the inode if it changed: an `unlink` that zeroes a
    /// slot and a `create` that fills a freed one leave the directory's
    /// inode as its group has it, and storing the same bytes again
    /// would be a round trip for nothing.
    async fn store(&mut self) -> Result<(), FsError> {
        if self.inode != self.stored {
            self.shared
                .store_inode(self.ino, self.inode.clone())
                .await?;
            self.stored = self.inode.clone();
        }
        Ok(())
    }

    /// This directory's blocks and entries, read and decoded on first
    /// use.
    async fn entries(&mut self) -> Result<&mut DirEntries, FsError> {
        if self.dir.is_none() {
            if self.inode.kind != FileKind::Dir {
                return Err(FsError::NotDir);
            }
            let size = self.inode.size as usize;
            let data = self.shared.core.read_file(&self.inode, 0, size).await?;
            let mut dir = DirEntries::default();
            for (slot, rec) in (0u64..).zip(dirent_slots(&data)) {
                match Dirent::decode(rec) {
                    Some(d) => {
                        dir.by_name.insert(d.name, (d.ino, slot));
                    }
                    None => {
                        dir.free.insert(slot);
                    }
                }
            }
            // The vnode changes its blocks in place from here on: it
            // copies them out of the cache, on its own core.
            let whole = |chunk: &[u8]| {
                let mut block = chunk.to_vec();
                block.resize(BLOCK_SIZE, 0);
                block
            };
            dir.blocks = data.chunks().map(whole).collect();
            rt::delay(copy_cost(dir.blocks.len() * BLOCK_SIZE)).await;
            self.dir = Some(dir);
        }
        Ok(self.dir.as_mut().expect("loaded above"))
    }

    /// The cache block behind `slot`, allocated near the directory's
    /// group if the slot starts a new block. Called before the entries
    /// change, so a failure here (no space) leaves them as they were.
    async fn slot_block(&mut self, slot: u64) -> Result<u64, FsError> {
        let fbn = slot * DIRENT_SIZE as u64 / BLOCK_SIZE as u64;
        self.shared
            .core
            .bmap_alloc(&mut self.inode, fbn, self.group, &self.alloc)
            .await
    }

    /// Puts `rec` into `slot` of the held block at `lba` (from
    /// [`Vnode::slot_block`]), marks the block dirty, and stores the
    /// inode if the directory grew. The cache sees the block when the
    /// directory is flushed: at a `sync`, or in its reap.
    async fn put_slot(&mut self, lba: u64, slot: u64, rec: &[u8]) -> Result<(), FsError> {
        let pos = slot * DIRENT_SIZE as u64;
        let (fbn, at) = (pos as usize / BLOCK_SIZE, pos as usize % BLOCK_SIZE);
        let dir = self.dir.as_mut().expect("loaded by the caller");
        if fbn == dir.blocks.len() {
            dir.blocks.push(vec![0; BLOCK_SIZE]);
        }
        dir.blocks[fbn][at..at + DIRENT_SIZE].copy_from_slice(rec);
        dir.dirty.insert(lba, fbn);
        self.inode.size = self.inode.size.max(pos + DIRENT_SIZE as u64);
        self.store().await
    }

    /// Writes a directory's dirty blocks back to the cache whole, in
    /// block-number order. A block the cache refuses stays dirty; the
    /// error is the first of theirs.
    async fn flush(&mut self) -> Result<(), FsError> {
        let Some(dir) = self.dir.as_mut() else {
            return Ok(());
        };
        let dirty = std::mem::take(&mut dir.dirty);
        if dirty.is_empty() {
            return Ok(());
        }
        // The cache is given a copy of each block: the vnode goes on
        // changing its own in place.
        let blocks: Vec<_> = dirty
            .iter()
            .map(|(&lba, &fbn)| (lba, Block::new(dir.blocks[fbn].clone())))
            .collect();
        rt::delay(copy_cost(blocks.len() * BLOCK_SIZE)).await;
        let answers = self.shared.core.store().write_many(&blocks).await;
        let mut out = Ok(());
        for ((lba, fbn), answer) in dirty.into_iter().zip(answers) {
            if let Err(e) = answer {
                dir.dirty.insert(lba, fbn);
                out = out.and(Err(e));
            }
        }
        out
    }

    /// Adds `name` to this directory with a fresh inode of `kind`. The
    /// entry goes where [`FsCore::dir_add`] would put it (the lowest
    /// free slot, else a new one), so the blocks stay what the lock
    /// engines would have written.
    async fn create(&mut self, name: String, kind: FileKind) -> Result<u64, FsError> {
        let appended = self.inode.size / DIRENT_SIZE as u64;
        let dir = self.entries().await?;
        check_name(&name)?;
        if dir.by_name.contains_key(&name) {
            return Err(FsError::Exists);
        }
        let slot = dir.free.first().copied().unwrap_or(appended);
        let entries = dir.by_name.len() as u64;
        let sb = self.shared.core.superblock();
        let start = sb.inode_start_group(self.group, kind, entries);
        // Allocate the inode via the group servers, scanning from there.
        let mut ino = None;
        for i in 0..sb.n_groups {
            let g = ((start + i) % sb.n_groups) as usize;
            let got = self.shared.groups[g]
                .call(|reply| GroupMsg::AllocInode { kind, reply })
                .await
                .unwrap_or_else(|e| Err(e.into()))?;
            if got.is_some() {
                ino = got;
                break;
            }
        }
        let ino = ino.ok_or(FsError::NoInodes)?;
        let lba = self.slot_block(slot).await?;
        let entry = Dirent { ino, name };
        let rec = entry.encode();
        let dir = self.dir.as_mut().expect("loaded above");
        dir.free.remove(&slot);
        dir.by_name.insert(entry.name, (ino, slot));
        self.put_slot(lba, slot, &rec).await?;
        Ok(ino)
    }

    /// Removes `name` from this directory, if the child agrees.
    async fn unlink(&mut self, name: String) -> Result<(), FsError> {
        let Some(&(child_ino, slot)) = self.entries().await?.by_name.get(&name) else {
            return Err(FsError::NotFound);
        };
        // Ask the child vnode to check emptiness and drop a link.
        let child = get_vnode(&self.shared, child_ino).await?;
        child
            .call(|reply| VnodeMsg::Condemn { reply })
            .await
            .unwrap_or_else(|e| Err(e.into()))?;
        let lba = self.slot_block(slot).await?;
        let dir = self.dir.as_mut().expect("loaded above");
        dir.by_name.remove(&name);
        dir.free.insert(slot);
        self.put_slot(lba, slot, &[0u8; DIRENT_SIZE]).await
    }
}

/// A reap cannot stop at a failed step and has nobody to hand the
/// error to (the file is gone either way; what leaks is a block or an
/// inode number): it counts it.
fn count_reap_error(step: Result<(), FsError>) {
    if step.is_err() {
        rt::stat_incr("msgfs.reap_errors");
    }
}

/// Starts the task of vnode `ino`, whose record is `inode`, serving
/// `rx` on the inode's core (ino-mod over the service cores). Not
/// `async`: a directory's task awaits [`start_vnode`], so a spawn
/// inside an `async` fn would make the task's future contain itself.
fn spawn_vnode(shared: &Arc<MsgShared>, ino: u64, inode: Inode, rx: chanos_rt::Receiver<VnodeMsg>) {
    let on = shared.vnode_cores[(ino as usize) % shared.vnode_cores.len()];
    let vn = Vnode {
        ino,
        stored: inode.clone(),
        inode,
        group: shared.core.superblock().group_of_ino(ino),
        alloc: MsgAllocator {
            shared: shared.clone(),
        },
        shared: shared.clone(),
        dir: None,
    };
    rt::spawn_daemon_on(&format!("vnode{ino}"), on, vnode_task(vn, rx));
}

/// Starts the vnode of the file `ino` just made, whose record is
/// `inode`, publishes its port, and opens the file.
async fn start_vnode(shared: &Arc<MsgShared>, ino: u64, inode: Inode) -> Result<File, FsError> {
    let (port, rx) = port_channel::<VnodeMsg>(Capacity::Unbounded);
    spawn_vnode(shared, ino, inode, rx);
    let handle = Handle::Vnode(port.clone());
    shared.vnreg.write(VnWrite::Insert { ino, port }).await?;
    Ok(File { ino, handle })
}

/// Opens inode `ino`: its number and its vnode's port.
async fn open(shared: &MsgShared, ino: u64) -> Result<File, FsError> {
    Ok(File {
        ino,
        handle: Handle::Vnode(get_vnode(shared, ino).await?),
    })
}

/// The port of `ino`'s vnode, read from this core's registry replica —
/// zero port round trips. A number no live file holds has none, and
/// answers `Gone`.
async fn get_vnode(shared: &MsgShared, ino: u64) -> Result<Port<VnodeMsg>, FsError> {
    let found = shared.vnreg.read(VnRead::Get(ino)).await.pop();
    found.ok_or(FsError::Gone)
}

/// Hands a process's `call` to the vnode `vn`, validated (see
/// [`VnodeMsg`]); a vnode gone with its file is answered for, `Gone`.
pub(crate) fn forward(vn: &Port<VnodeMsg>, call: FileCall) {
    let validate = true;
    let msg = match call {
        FileCall::Read { off, len, reply } => VnodeMsg::Read {
            off,
            len,
            validate,
            reply,
        },
        FileCall::Write {
            off,
            or_end,
            data,
            reply,
        } => VnodeMsg::Write {
            off,
            or_end,
            validate,
            data,
            reply,
        },
        FileCall::Stat { reply } => VnodeMsg::Stat { validate, reply },
    };
    if let Err(msg) = vn.forward(msg) {
        msg.refuse(FsError::Gone, &mut ReplyBatch::default());
    }
}

/// Hands `call` on `path` to the vnode `from`, where its walk starts, in
/// one message: the components to walk and the request at their end,
/// `Checked` if a process made it (see [`VnodeMsg`]). The vnode that
/// serves or refuses the request answers its reply, and nothing here
/// waits for it. A path that names nothing the call can act on
/// (`create("/")`) is refused here, and a vnode that cannot be reached
/// is answered for, `Gone`.
pub(crate) fn forward_path(from: &Port<VnodeMsg>, path: &str, call: PathCall, checked: bool) {
    let mut replies = ReplyBatch::default();
    let create = |reply, kind| match split_parent(path) {
        Ok((dir, name)) => {
            let name = name.to_string();
            Ok((dir, VnodeMsg::Create { name, kind, reply }))
        }
        Err(e) => Err((reply, e)),
    };
    let (dir, then) = match call {
        PathCall::ReadDir { reply } => (split_path(path), VnodeMsg::ReadDir { reply }),
        PathCall::Open { reply } => {
            let comps = split_path(path);
            match comps.split_last() {
                Some((name, dir)) => {
                    let name = name.to_string();
                    (dir.to_vec(), VnodeMsg::Lookup { name, reply })
                }
                None => (comps, VnodeMsg::Open { reply }),
            }
        }
        PathCall::Create { reply } => match create(reply, FileKind::File) {
            Ok(walk) => walk,
            Err((reply, e)) => return replies.send(reply, Err(e)),
        },
        PathCall::Mkdir { reply } => match create(reply, FileKind::Dir) {
            Ok(walk) => walk,
            Err((reply, e)) => return replies.send(reply, Err(e)),
        },
        PathCall::Unlink { reply } => match split_parent(path) {
            Ok((dir, name)) => {
                let name = name.to_string();
                (dir, VnodeMsg::Unlink { name, reply })
            }
            Err(e) => return replies.send(reply, Err(e)),
        },
    };
    let then = match checked {
        true => VnodeMsg::Checked(Box::new(then)),
        false => then,
    };
    let msg = match dir.is_empty() {
        true => then,
        false => VnodeMsg::Walk {
            path: dir.iter().map(|c| c.to_string()).collect(),
            then: Box::new(then),
        },
    };
    if let Err(msg) = from.forward(msg) {
        msg.refuse(FsError::Gone, &mut replies);
    }
}

/// Reads `len` bytes at `off` from the file of vnode `vn`: the blocks
/// they lie in, shared with the cache. The kernel's call: not
/// validated.
pub(crate) async fn read(vn: &Port<VnodeMsg>, off: u64, len: usize) -> Result<FileSlice, FsError> {
    let validate = false;
    vn.call(|reply| VnodeMsg::Read {
        off,
        len,
        validate,
        reply,
    })
    .await
    .unwrap_or_else(|e| Err(e.into()))
}

/// Writes `data` at `off` into the file of vnode `vn`; the buffer
/// becomes the file's blocks. The kernel's call: not validated.
pub(crate) async fn write(vn: &Port<VnodeMsg>, off: u64, data: Vec<u8>) -> Result<(), FsError> {
    let (or_end, validate) = (false, false);
    vn.call(|reply| VnodeMsg::Write {
        off,
        or_end,
        validate,
        data,
        reply,
    })
    .await
    .unwrap_or_else(|e| Err(e.into()))
}

/// The metadata of the file of vnode `vn`. The kernel's call: not
/// validated.
pub(crate) async fn stat(vn: &Port<VnodeMsg>) -> Result<Stat, FsError> {
    let validate = false;
    vn.call(|reply| VnodeMsg::Stat { validate, reply })
        .await
        .unwrap_or_else(|e| Err(e.into()))
}

/// The message-passing file system client.
#[derive(Clone)]
pub struct MsgFs {
    shared: Arc<MsgShared>,
}

impl MsgFs {
    /// Formats a fresh volume and boots the server constellation:
    /// cache shards, one group server per cylinder group, the
    /// replicated vnode registry and the root's vnode. Every other
    /// vnode is started by the `create` that makes its file, ino-mod
    /// over `service_cores`.
    pub async fn format(
        disk: DiskClient,
        total_blocks: u64,
        n_groups: u64,
        cache_shards: usize,
        cache_blocks_per_shard: usize,
        service_cores: Vec<CoreId>,
    ) -> Result<MsgFs, FsError> {
        assert!(!service_cores.is_empty());
        let store = CacheClient::spawn(disk, cache_shards, cache_blocks_per_shard, &service_cores);
        let core = FsCore::mkfs(store, total_blocks, n_groups).await?;
        // Read through the cache before the groups take their blocks
        // over.
        let root = core.read_inode(ROOT_INO).await?;

        // Group servers.
        let mut groups = Vec::with_capacity(n_groups as usize);
        for g in 0..n_groups {
            let (port, rx) = port_channel::<GroupMsg>(Capacity::Unbounded);
            let core = core.clone();
            let on = service_cores[(g as usize) % service_cores.len()];
            rt::spawn_daemon_on(&format!("fs-group{g}"), on, async move {
                group_task(g, core, rx).await;
            });
            groups.push(port);
        }

        // §4 taken seriously: the registry is node-replicated, so
        // the hot lookup path never leaves the caller's core.
        let vnreg = Replicated::spawn("fs-vnreg", &service_cores, VnRegistry::default);

        let (port, rx) = port_channel::<VnodeMsg>(Capacity::Unbounded);
        let shared = Arc::new(MsgShared {
            core,
            groups,
            vnreg,
            vnode_cores: service_cores,
            root: port.clone(),
        });
        spawn_vnode(&shared, ROOT_INO, root, rx);
        // Published, so that `sync` finds the root among the live.
        let ino = ROOT_INO;
        shared.vnreg.write(VnWrite::Insert { ino, port }).await?;

        Ok(MsgFs { shared })
    }

    /// Makes the call `make` builds on `path`, unchecked, and waits for
    /// its answer: one message to the root's vnode ([`forward_path`]),
    /// each directory on the way looks the next component up and hands
    /// the walk on to its child ([`VnodeMsg::Walk`]), and the vnode at
    /// its end answers.
    async fn call_path<T: Send + 'static>(
        &self,
        path: &str,
        make: impl FnOnce(ReplyTo<Result<T, FsError>>) -> PathCall,
    ) -> Result<T, FsError> {
        let (reply, answer) = rt::reply_channel();
        forward_path(&self.shared.root, path, make(reply), false);
        answer.recv().await.unwrap_or(Err(FsError::Gone))
    }

    pub(crate) async fn create_kind(&self, path: &str, kind: FileKind) -> Result<File, FsError> {
        self.call_path(path, |reply| match kind {
            FileKind::File => PathCall::Create { reply },
            FileKind::Dir => PathCall::Mkdir { reply },
        })
        .await
    }

    /// Creates and opens a regular file.
    pub async fn create_open(&self, path: &str) -> Result<File, FsError> {
        self.create_kind(path, FileKind::File).await
    }

    /// Creates a regular file; returns its inode number.
    pub async fn create(&self, path: &str) -> Result<u64, FsError> {
        Ok(self.create_open(path).await?.ino)
    }

    /// Creates a directory; returns its inode number.
    pub async fn mkdir(&self, path: &str) -> Result<u64, FsError> {
        Ok(self.create_kind(path, FileKind::Dir).await?.ino)
    }

    /// Opens the file or directory `path` names: the directory that
    /// holds the last name answers with the entry's inode and its
    /// vnode's port, and the root answers for itself.
    pub async fn open(&self, path: &str) -> Result<File, FsError> {
        self.call_path(path, |reply| PathCall::Open { reply }).await
    }

    /// The root directory, opened.
    pub(crate) fn root(&self) -> File {
        File {
            ino: ROOT_INO,
            handle: Handle::Vnode(self.shared.root.clone()),
        }
    }

    /// Resolves a path to an inode number.
    pub async fn lookup(&self, path: &str) -> Result<u64, FsError> {
        Ok(self.open(path).await?.ino)
    }

    /// Reads `len` bytes at `off` from inode `ino`: the blocks they
    /// lie in, shared with the cache.
    pub async fn read(&self, ino: u64, off: u64, len: usize) -> Result<FileSlice, FsError> {
        read(&get_vnode(&self.shared, ino).await?, off, len).await
    }

    /// Writes `data` at `off` into inode `ino`; the buffer becomes the
    /// file's blocks.
    pub async fn write(&self, ino: u64, off: u64, data: Vec<u8>) -> Result<(), FsError> {
        write(&get_vnode(&self.shared, ino).await?, off, data).await
    }

    /// Returns metadata for inode `ino`.
    pub async fn stat(&self, ino: u64) -> Result<Stat, FsError> {
        stat(&get_vnode(&self.shared, ino).await?).await
    }

    /// Pipelined stat burst against one vnode: issues `n` `Stat`
    /// calls as **one** submission burst and completes them together.
    /// The vnode drains the burst with `recv_many` and answers it
    /// through one [`ReplyBatch`] — the §3 RPC pattern at full depth,
    /// used by tests and benches to exercise the pipelined path.
    pub async fn stat_burst(&self, ino: u64, n: usize) -> Result<Vec<Stat>, FsError> {
        let vn = get_vnode(&self.shared, ino).await?;
        let validate = false;
        let calls = vn.call_batch((0..n).map(|_| |reply| VnodeMsg::Stat { validate, reply }));
        let outs = chanos_rt::join_all(calls).await;
        outs.into_iter()
            .map(|r| r.unwrap_or_else(|e| Err(e.into())))
            .collect()
    }

    /// Removes a file or empty directory.
    pub async fn unlink(&self, path: &str) -> Result<(), FsError> {
        self.call_path(path, |reply| PathCall::Unlink { reply })
            .await
    }

    /// Lists a directory.
    pub async fn readdir(&self, path: &str) -> Result<Vec<Dirent>, FsError> {
        self.call_path(path, |reply| PathCall::ReadDir { reply })
            .await
    }

    /// Writes every changed block to the disk: each live directory
    /// vnode's blocks, in inode order, then each group's bitmaps and
    /// inode table, then the cache shards' dirty blocks. Every step runs
    /// whatever became of the one before it; a block refused on the way
    /// fails the `sync` and stays dirty for the next one.
    pub async fn sync(&self) -> Result<(), FsError> {
        let vnodes = self.shared.vnreg.read(VnRead::Live).await;
        let flushes: Vec<_> = vnodes
            .iter()
            .map(|vn| vn.call(|reply| VnodeMsg::Flush { reply }))
            .collect();
        let mut out = Ok(());
        for flush in flushes {
            // A vnode gone since wrote its blocks back in its reap.
            if let Ok(flushed) = flush.await {
                out = out.and(flushed);
            }
        }
        let groups = &self.shared.groups;
        let flushes: Vec<_> = groups
            .iter()
            .map(|group| group.call(|reply| GroupMsg::Flush { reply }))
            .collect();
        for flush in flushes {
            out = out.and(flush.await.unwrap_or_else(|e| Err(e.into())));
        }
        out.and(self.shared.core.store().sync().await)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn request_layout_is_pinned() {
        // The simulator charges a message `size_of::<T>()` bytes: a failure
        // here means every modeled number is about to move.
        // (`VnWrite` is the op of the registry's NR write request.)
        assert_eq!(std::mem::size_of::<VnodeMsg>(), 64);
        // What a `Lookup` or a `Create` answers: the file's vnode port
        // beside its number (16 bytes while it was the number alone).
        assert_eq!(std::mem::size_of::<Result<File, FsError>>(), 40);
        assert_eq!(std::mem::size_of::<GroupMsg>(), 40);
        assert_eq!(std::mem::size_of::<VnWrite>(), 32);
    }
}
