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
//! the message to the child's vnode, whose port it keeps beside the
//! entry; the last directory hands the request
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
//! wrote (so a vnode loads nothing). It lives until its reap. Its port
//! has two owners, both already on the path that makes the file: the
//! directory keeps it beside the entry, which is how a walk and a
//! `Lookup` reach the child, and the number's group keeps it from the
//! `AllocInode` that hands the number out to the `FreeInode` that takes
//! it back (the root's from `format`), which is how the kernel's calls
//! by number and `sync` find a vnode, one round trip to the group each.
//! A call that names a number no live file holds finds no vnode and is
//! answered [`FsError::Gone`]; nothing is started for it.
//!
//! Every piece of mutable state has exactly one writing task, and
//! dispatch-by-channel replaces dispatch-by-function-pointer
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
//! state — empty when it starts, since every entry is made by its own
//! directory's `Create` in this boot, and kept in step by its own
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
//! Unlink of a directory checks emptiness in the child vnode, through
//! the port beside the entry, which the directory drops with the entry.
//! A vnode that drops its last link reaps itself: it writes a
//! directory's blocks back, then sends its group one burst — clear the
//! inode record, free the number, free the data, in that order on the
//! group's channel — and awaits it. The group forgets the vnode's port
//! in the turn that frees the number, so the number's next file can
//! never be routed to the vnode that is reaping this one. The vnode
//! then closes its channel and refuses whatever was queued or still on
//! its way, and the rest of the burst it reaped in — a call through a
//! removed file's port — so those callers get [`FsError::Gone`], not
//! silence. The caller may be a process that sent the call through its
//! [`File`]; one sent after the vnode has gone finds the port closed
//! and is answered `Gone` where it was sent.
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
use chanos_rt::{self as rt, port_channel, Capacity, CoreId, Port, ReplyBatch, ReplyTo};
use chanos_sim::plock;

use crate::core_fs::{
    check_name, in_one_block, split_parent, split_path, Allocator, FileSlice, FsCore, Stat,
};
use crate::error::FsError;
use crate::layout::{Dirent, FileKind, Inode, Superblock, DIRENT_SIZE, ROOT_INO};
use crate::store::{check_block_len, copy_cost, Block, BlockStore, CacheClient};
use crate::{File, FileCall, Handle, PathCall, VALIDATE_CYCLES};

/// Messages understood by a cylinder-group server task.
enum GroupMsg {
    /// Allocates a number for a new file of the kind given, whose vnode
    /// will serve the port given: the group keeps it as the number's
    /// until the number is freed. (Boxed: the message stays 40 bytes.)
    AllocInode {
        new: Box<(FileKind, Port<VnodeMsg>)>,
        reply: ReplyTo<Result<Option<u64>, FsError>>,
    },
    /// Zeroes the inode's record; its number stays allocated.
    ClearInode {
        ino: u64,
        reply: ReplyTo<Result<(), FsError>>,
    },
    /// Frees the number of an inode whose record is already cleared,
    /// and forgets its vnode's port in the same turn.
    FreeInode {
        ino: u64,
        reply: ReplyTo<Result<(), FsError>>,
    },
    /// The port of the vnode of `ino`, if a live file holds the number.
    Vnode {
        ino: u64,
        reply: ReplyTo<Option<Port<VnodeMsg>>>,
    },
    /// The ports of the group's live vnodes, in inode order.
    Live { reply: ReplyTo<Vec<Port<VnodeMsg>>> },
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

struct MsgShared {
    core: FsCore<CacheClient>,
    groups: Vec<Port<GroupMsg>>,
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
/// lives and writes back to the cache when a `Flush` asks (`sync`),
/// and of the port of each live vnode whose number it handed out
/// (`vnodes`, the root's from the start in its group). Drains request
/// bursts so allocation storms (and a reap's frees) cost one wakeup per
/// batch, not one per message — and one *reply* wake per waiting peer
/// per batch. Every request but `Flush` changes the group's own state
/// alone, so it is answered where it is produced.
async fn group_task(
    g: u64,
    core: FsCore<CacheClient>,
    mut vnodes: BTreeMap<u64, Port<VnodeMsg>>,
    rx: chanos_rt::Receiver<GroupMsg>,
) {
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
            group_handle(g, &core, &mut vnodes, msg, &mut replies).await;
        }
        replies.flush();
    }
}

async fn group_handle(
    g: u64,
    core: &FsCore<GroupStore>,
    vnodes: &mut BTreeMap<u64, Port<VnodeMsg>>,
    msg: GroupMsg,
    replies: &mut ReplyBatch,
) {
    match msg {
        GroupMsg::AllocInode { new, reply } => {
            let (kind, vnode) = *new;
            let out = core.alloc_inode_in(g, kind).await;
            if let Ok(Some(ino)) = out {
                let old = vnodes.insert(ino, vnode);
                debug_assert!(old.is_none(), "inode {ino} has a live vnode already");
            }
            replies.send(reply, out)
        }
        GroupMsg::ClearInode { ino, reply } => replies.send(reply, core.clear_inode(ino).await),
        GroupMsg::FreeInode { ino, reply } => {
            // In the turn that frees the number: its next file can never
            // be routed to the vnode that is reaping this one.
            vnodes.remove(&ino);
            replies.send(reply, core.free_inode_bit(ino).await)
        }
        GroupMsg::Vnode { ino, reply } => replies.send(reply, vnodes.get(&ino).cloned()),
        GroupMsg::Live { reply } => replies.send(reply, vnodes.values().cloned().collect()),
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
/// It starts empty: every entry is made by its own directory's `Create`
/// in this boot, which keeps the entry's vnode port — there is no
/// mount, and there are no dot entries.
#[derive(Default)]
struct DirEntries {
    by_name: HashMap<String, Entry>,
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

/// A directory entry as its directory's vnode keeps it.
struct Entry {
    ino: u64,
    slot: u64,
    /// The port of the entry's vnode, which this directory's `Create`
    /// started.
    vnode: Port<VnodeMsg>,
}

/// The state of one vnode task: inode `ino`, owned for the task's
/// lifetime.
struct Vnode {
    ino: u64,
    /// The task's own port, which an `Open` answers with.
    me: Port<VnodeMsg>,
    shared: Arc<MsgShared>,
    inode: Inode,
    /// The record the inode's group holds: as started with or last
    /// stored.
    stored: Inode,
    /// The inode's own group, where its blocks and its files go.
    group: u64,
    alloc: MsgAllocator,
    /// A directory's entries; `None` for a file.
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
                let (ino, handle) = (self.ino, Handle::Vnode(self.me.clone()));
                replies.send(reply, Ok(File { ino, handle }));
            }
            VnodeMsg::Lookup { name, reply } => {
                let out = self.child(&name).map(|(ino, vnode)| File {
                    ino,
                    handle: Handle::Vnode(vnode),
                });
                replies.send(reply, out);
            }
            VnodeMsg::Create { name, kind, reply } => {
                let out = self.create(name, kind).await;
                replies.send(reply, out);
            }
            VnodeMsg::Unlink { name, reply } => {
                let out = self.unlink(name).await;
                replies.send(reply, out);
            }
            VnodeMsg::ReadDir { reply } => {
                let out = self.entries().map(|dir| {
                    let slots = dir.blocks.iter().flat_map(|b| b.chunks_exact(DIRENT_SIZE));
                    slots.filter_map(Dirent::decode).collect()
                });
                replies.send(reply, out);
            }
            VnodeMsg::Condemn { reply } => {
                if self.dir.as_ref().is_some_and(|dir| !dir.by_name.is_empty()) {
                    replies.send(reply, Err(FsError::NotEmpty));
                    return std::ops::ControlFlow::Continue(());
                }
                self.inode.nlink = self.inode.nlink.saturating_sub(1);
                if self.inode.nlink == 0 {
                    // Reap: write a directory's changed blocks back,
                    // then clear the record, free the number and free
                    // the data — one burst to a file's group, the clear
                    // first (the group's channel keeps their order), all
                    // submitted before the first is awaited. The group
                    // forgets this vnode's port as it frees the number,
                    // so the file given the number next can never be
                    // routed to this task. Every step runs whatever
                    // became of the one before it; the ones that fail
                    // are counted.
                    count_reap_error(self.flush().await);
                    let ino = self.ino;
                    let group = self.shared.group_of_ino(ino);
                    let cleared = group.call(|reply| GroupMsg::ClearInode { ino, reply });
                    let released = group.call(|reply| GroupMsg::FreeInode { ino, reply });
                    let freed = self
                        .shared
                        .core
                        .truncate(&mut self.inode, &self.alloc)
                        .await;
                    count_reap_error(freed);
                    count_reap_error(cleared.await.unwrap_or_else(|e| Err(e.into())));
                    count_reap_error(released.await.unwrap_or_else(|e| Err(e.into())));
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
                let child = self.child(&name);
                let next = if path.is_empty() {
                    *then
                } else {
                    VnodeMsg::Walk { path, then }
                };
                // A vnode gone with its file is answered for here.
                let refused = match child {
                    Ok((_, vnode)) => vnode.forward(next).map_err(|next| (next, FsError::Gone)),
                    Err(e) => Err((next, e)),
                };
                if let Err((next, e)) = refused {
                    refuse(next, e, replies).await;
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

    /// The inode this directory names `name`, and its vnode's port.
    fn child(&mut self, name: &str) -> Result<(u64, Port<VnodeMsg>), FsError> {
        match self.entries()?.by_name.get(name) {
            Some(entry) => Ok((entry.ino, entry.vnode.clone())),
            None => Err(FsError::NotFound),
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

    /// This directory's blocks and entries.
    fn entries(&mut self) -> Result<&mut DirEntries, FsError> {
        self.dir.as_mut().ok_or(FsError::NotDir)
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
        let dir = self.dir.as_mut().expect("called for a directory");
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

    /// Adds `name` to this directory with a fresh inode of `kind`, starts
    /// its vnode and opens it. The entry goes where [`FsCore::dir_add`]
    /// would put it (the lowest free slot, else a new one), so the
    /// blocks stay what the lock engines would have written. The vnode's
    /// port goes to the group with the number's allocation and beside
    /// the entry; the vnode starts once the entry's slot is secured, so
    /// a failed `create` starts nothing.
    async fn create(&mut self, name: String, kind: FileKind) -> Result<File, FsError> {
        let appended = self.inode.size / DIRENT_SIZE as u64;
        let dir = self.entries()?;
        check_name(&name)?;
        if dir.by_name.contains_key(&name) {
            return Err(FsError::Exists);
        }
        let slot = dir.free.first().copied().unwrap_or(appended);
        let entries = dir.by_name.len() as u64;
        let sb = self.shared.core.superblock();
        let start = sb.inode_start_group(self.group, kind, entries);
        let (vnode, rx) = port_channel::<VnodeMsg>(Capacity::Unbounded);
        // Allocate the inode via the group servers, scanning from there.
        let mut ino = None;
        for i in 0..sb.n_groups {
            let g = ((start + i) % sb.n_groups) as usize;
            let new = Box::new((kind, vnode.clone()));
            let got = self.shared.groups[g]
                .call(|reply| GroupMsg::AllocInode { new, reply })
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
        let dir = self.dir.as_mut().expect("a directory, checked above");
        dir.free.remove(&slot);
        dir.by_name.insert(
            entry.name,
            Entry {
                ino,
                slot,
                vnode: vnode.clone(),
            },
        );
        self.put_slot(lba, slot, &rec).await?;
        spawn_vnode(&self.shared, ino, Inode::new(kind), vnode.clone(), rx);
        let handle = Handle::Vnode(vnode);
        Ok(File { ino, handle })
    }

    /// Removes `name` from this directory, if the child agrees, and
    /// drops the entry's vnode port with it.
    async fn unlink(&mut self, name: String) -> Result<(), FsError> {
        let Some(entry) = self.entries()?.by_name.get(&name) else {
            return Err(FsError::NotFound);
        };
        let (slot, child) = (entry.slot, entry.vnode.clone());
        // Ask the child vnode to check emptiness and drop a link.
        child
            .call(|reply| VnodeMsg::Condemn { reply })
            .await
            .unwrap_or_else(|e| Err(e.into()))?;
        let lba = self.slot_block(slot).await?;
        let dir = self.dir.as_mut().expect("a directory, checked above");
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
/// `rx`, the receiving end of `me`, on the inode's core (ino-mod over
/// the service cores). Not `async`: a directory's task calls it from
/// its `Create`, so a spawn inside an `async` fn would make the task's
/// future contain itself.
fn spawn_vnode(
    shared: &Arc<MsgShared>,
    ino: u64,
    inode: Inode,
    me: Port<VnodeMsg>,
    rx: chanos_rt::Receiver<VnodeMsg>,
) {
    let on = shared.vnode_cores[(ino as usize) % shared.vnode_cores.len()];
    let dir = (inode.kind == FileKind::Dir).then(|| {
        // See `DirEntries`: a directory's vnode starts with no entries.
        assert_eq!(
            inode.size, 0,
            "directory {ino} holds entries it did not make"
        );
        DirEntries::default()
    });
    let vn = Vnode {
        ino,
        me,
        stored: inode.clone(),
        inode,
        group: shared.core.superblock().group_of_ino(ino),
        alloc: MsgAllocator {
            shared: shared.clone(),
        },
        shared: shared.clone(),
        dir,
    };
    rt::spawn_daemon_on(&format!("vnode{ino}"), on, vnode_task(vn, rx));
}

/// The port of `ino`'s vnode, asked of the number's group: one round
/// trip, which only the kernel's calls by number make. A number no live
/// file holds has none, and answers `Gone`; so does one past the
/// volume's last group.
async fn get_vnode(shared: &MsgShared, ino: u64) -> Result<Port<VnodeMsg>, FsError> {
    let g = shared.core.superblock().group_of_ino(ino) as usize;
    let group = shared.groups.get(g).ok_or(FsError::Gone)?;
    let found = group.call(|reply| GroupMsg::Vnode { ino, reply }).await?;
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
    /// cache shards, one group server per cylinder group and the root's
    /// vnode, whose port its group keeps from the start. Every other
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

        // Group servers; the root's group keeps its vnode's port as it
        // keeps every other number's.
        let (root_vnode, rx) = port_channel::<VnodeMsg>(Capacity::Unbounded);
        let root_group = core.superblock().group_of_ino(ROOT_INO);
        let mut groups = Vec::with_capacity(n_groups as usize);
        for g in 0..n_groups {
            let (port, rx) = port_channel::<GroupMsg>(Capacity::Unbounded);
            let core = core.clone();
            let on = service_cores[(g as usize) % service_cores.len()];
            let mut vnodes = BTreeMap::new();
            if g == root_group {
                vnodes.insert(ROOT_INO, root_vnode.clone());
            }
            rt::spawn_daemon_on(&format!("fs-group{g}"), on, async move {
                group_task(g, core, vnodes, rx).await;
            });
            groups.push(port);
        }

        let shared = Arc::new(MsgShared {
            core,
            groups,
            vnode_cores: service_cores,
            root: root_vnode.clone(),
        });
        spawn_vnode(&shared, ROOT_INO, root, root_vnode, rx);

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
    /// lie in, shared with the cache. Like every call by number, it
    /// first asks the number's group for the vnode, one round trip that
    /// a call through a [`File`] does not make.
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

    /// Pipelined stat burst against one vnode, found as
    /// [`MsgFs::read`] finds it: issues `n` `Stat` calls as **one**
    /// submission burst and completes them together.
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
    /// vnode's blocks, in inode order (the root's first), then each
    /// group's bitmaps and inode table, then the cache shards' dirty
    /// blocks. The live vnodes are their groups' to list. Every step
    /// runs whatever became of the one before it; a block refused on the
    /// way fails the `sync` and stays dirty for the next one.
    pub async fn sync(&self) -> Result<(), FsError> {
        let groups = &self.shared.groups;
        let lists: Vec<_> = groups
            .iter()
            .map(|group| group.call(|reply| GroupMsg::Live { reply }))
            .collect();
        let (mut vnodes, mut out) = (Vec::new(), Ok(()));
        // Group by group is inode order: a group's numbers follow the
        // one's before it.
        for list in lists {
            match list.await {
                Ok(live) => vnodes.extend(live),
                Err(e) => out = out.and(Err(e.into())),
            }
        }
        let flushes: Vec<_> = vnodes
            .iter()
            .map(|vn| vn.call(|reply| VnodeMsg::Flush { reply }))
            .collect();
        for flush in flushes {
            // A vnode gone since wrote its blocks back in its reap.
            if let Ok(flushed) = flush.await {
                out = out.and(flushed);
            }
        }
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
        assert_eq!(std::mem::size_of::<VnodeMsg>(), 64);
        // What a `Lookup` or a `Create` answers: the file's vnode port
        // beside its number (16 bytes while it was the number alone).
        assert_eq!(std::mem::size_of::<Result<File, FsError>>(), 40);
        assert_eq!(std::mem::size_of::<GroupMsg>(), 40);
    }
}
