//! # chanos-vfs — one on-disk file system, three concurrency worlds
//!
//! §4 of Holland & Seltzer proposes structuring the file system as
//! message-passing threads: *"every vnode is its own thread, which
//! communicates with other threads that administer cylinder groups
//! and free-maps and so forth."* This crate builds that file system —
//! and, over the **same FFS-like on-disk layout** and the same
//! byte-level algorithms ([`FsCore`]), the two conventional designs
//! it competes against:
//!
//! | engine | concurrency control | paper role |
//! |---|---|---|
//! | [`MsgFs`] | none — ownership by tasks (vnodes, group servers, cache shards) | the proposal (§4) |
//! | [`BigLockFs`] | one global mutex | classic Unix |
//! | [`ShardedFs`] | per-inode rwlocks + per-group mutexes + sharded cache locks | "Solaris at great effort" (§1) |
//!
//! Because all three run identical algorithms, the equivalence tests
//! demand identical observable behaviour, and experiment E4 measures
//! only what the paper is about: the cost of the concurrency
//! discipline.

mod biglock;
mod core_fs;
mod error;
pub mod layout;
mod msgfs;
mod sharded;
mod store;

pub use biglock::BigLockFs;
pub use core_fs::{split_parent, split_path, Allocator, FileSlice, FsCore, ScanAllocator, Stat};
pub use error::FsError;
pub use layout::{Dirent, FileKind, Inode, Superblock, ROOT_INO};
pub use msgfs::MsgFs;
pub use sharded::ShardedFs;
pub use store::{
    copy_cost, Block, BlockStore, CacheClient, CachedDisk, LruCache, ShardedCachedDisk,
    COPY_BYTES_PER_CYCLE,
};

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use chanos_rt::{Cycles, Port, ReplyBatch, ReplyTo};
use chanos_sim::plock;

/// What a process's call costs the vnode that answers it, on top of
/// serving it: its validation. It is the message kernel's `syscall_cpu`
/// (`KernelCosts`), which the call paid on the process's kernel task
/// while that task relayed it, and it moved with the call.
///
/// A call on an open file pays it at the file's vnode. A call on a path
/// pays it once, at the vnode that serves it or refuses it: the
/// directories along the walk only look their component up. The root
/// would take the whole namespace's checks on one task, a split per
/// hop would put most of them there too, and the process's own core
/// cannot check its own call. A call the kernel makes, by number or by
/// path ([`Vfs::read`], [`Vfs::open`] and their kin), is its own and
/// pays nothing.
pub const VALIDATE_CYCLES: Cycles = 300;

/// An open file: what [`Vfs::open`] and [`Vfs::create_open`] answer.
///
/// Every call through it reaches that file and no other: once the file
/// is removed, a call answers [`FsError::Gone`], even after the inode
/// number names another file. It is opaque, and so a narrowed
/// capability: a process holding one can send its file a [`FileCall`]
/// and nothing else.
#[derive(Clone, Debug)]
pub struct File {
    ino: u64,
    handle: Handle,
}

impl File {
    /// Hands a process's `call` to this file's vnode, which validates
    /// it ([`VALIDATE_CYCLES`]), serves it and answers the caller; a
    /// vnode gone with its file is answered for, `Gone`. A lock
    /// engine's file has no vnode: its call comes back, for
    /// [`Vfs::on_file`] to serve.
    pub fn forward(&self, call: FileCall) -> Result<(), FileCall> {
        match &self.handle {
            Handle::Vnode(vnode) => {
                msgfs::forward(vnode, call);
                Ok(())
            }
            Handle::Generation(_) => Err(call),
        }
    }

    /// Hands a process's `call` on `path`, walked from this directory,
    /// to this directory's vnode: each directory on the way looks its
    /// component up and hands the rest on, and the vnode that serves or
    /// refuses the call validates it ([`VALIDATE_CYCLES`]) and answers
    /// the caller. A path that names nothing the call can act on
    /// (`create("/")`) is refused here. A lock engine's directory has no
    /// vnode to walk from, and refuses the call `Invalid`: its engine
    /// serves a path whole, from the root ([`Vfs::on_path`]).
    pub fn forward_path(&self, path: &str, call: PathCall) {
        match &self.handle {
            Handle::Vnode(vnode) => msgfs::forward_path(vnode, path, call, true),
            Handle::Generation(_) => call.refuse(FsError::Invalid, &mut ReplyBatch::default()),
        }
    }
}

/// What ties a [`File`] to its file rather than to its inode number.
#[derive(Clone, Debug)]
enum Handle {
    /// On [`MsgFs`]: the file's vnode port, which the directory that
    /// names the file takes in the same turn as the lookup, so in order
    /// with that directory's unlinks. The vnode goes with the file.
    Vnode(Port<msgfs::VnodeMsg>),
    /// On a lock engine: the number's [`Generations`] entry, read where
    /// the name was resolved, under the lock that orders it with the
    /// name's unlink.
    Generation(u64),
}

/// A lock engine's generation of each inode number, bumped when the
/// number is freed (FFS's `di_gen`): a [`File`] that recorded an older
/// one names a removed file. The engine reads it where it resolves a
/// name and checks it where a call holds the inode's lock, the lock its
/// `unlink` holds when it bumps it. It is kept in memory, off the disk,
/// so volumes stay byte-equal across engines, and it costs no modeled
/// cycle.
#[derive(Clone, Default)]
struct Generations(Arc<Mutex<HashMap<u64, u64>>>);

impl Generations {
    /// The generation of `ino`.
    fn of(&self, ino: u64) -> u64 {
        plock(&self.0).get(&ino).copied().unwrap_or(0)
    }

    /// Called as `ino` is freed: files opened before now are gone.
    fn bump(&self, ino: u64) {
        *plock(&self.0).entry(ino).or_default() += 1;
    }

    /// Refuses a call on a file opened at generation `gen` of `ino` (no
    /// check for a call by number) if the number was freed since.
    fn check(&self, ino: u64, gen: Option<u64>) -> Result<(), FsError> {
        match gen {
            Some(gen) if gen != self.of(ino) => Err(FsError::Gone),
            _ => Ok(()),
        }
    }
}

/// A call on an open file carrying its caller's reply: the file system
/// answers the caller itself ([`File::forward`], [`Vfs::on_file`]).
pub enum FileCall {
    /// Reads up to `len` bytes at `off`.
    Read {
        /// Where the read starts.
        off: u64,
        /// Maximum bytes.
        len: usize,
        /// The blocks the bytes lie in, shared with the cache.
        reply: ReplyTo<Result<FileSlice, FsError>>,
    },
    /// Writes `data` at `off`, or at the end of the file if `or_end`
    /// and the end comes first.
    Write {
        /// Where the write starts.
        off: u64,
        /// Whether the end of the file, if it comes first, is where.
        or_end: bool,
        /// The writer's buffer, which becomes the file's blocks.
        data: Vec<u8>,
        /// Completion channel.
        reply: ReplyTo<Result<(), FsError>>,
    },
    /// The file's metadata.
    Stat {
        /// Completion channel.
        reply: ReplyTo<Result<Stat, FsError>>,
    },
}

impl FileCall {
    /// Answers the call with `e`, unserved.
    pub fn refuse(self, e: FsError, replies: &mut ReplyBatch) {
        match self {
            FileCall::Read { reply, .. } => replies.send(reply, Err(e)),
            FileCall::Write { reply, .. } => replies.send(reply, Err(e)),
            FileCall::Stat { reply } => replies.send(reply, Err(e)),
        }
    }
}

/// A call on a path carrying its caller's reply, which the file system
/// answers itself ([`File::forward_path`], [`Vfs::on_path`]).
pub enum PathCall {
    /// Opens the file or directory the path names.
    Open {
        /// Completion channel.
        reply: ReplyTo<Result<File, FsError>>,
    },
    /// Creates and opens a regular file.
    Create {
        /// Completion channel.
        reply: ReplyTo<Result<File, FsError>>,
    },
    /// Creates and opens a directory.
    Mkdir {
        /// Completion channel.
        reply: ReplyTo<Result<File, FsError>>,
    },
    /// Removes a file or empty directory.
    Unlink {
        /// Completion channel.
        reply: ReplyTo<Result<(), FsError>>,
    },
    /// Lists a directory.
    ReadDir {
        /// Completion channel.
        reply: ReplyTo<Result<Vec<Dirent>, FsError>>,
    },
}

impl PathCall {
    /// Answers the call with `e`, unserved.
    pub fn refuse(self, e: FsError, replies: &mut ReplyBatch) {
        match self {
            PathCall::Open { reply } | PathCall::Create { reply } | PathCall::Mkdir { reply } => {
                replies.send(reply, Err(e))
            }
            PathCall::Unlink { reply } => replies.send(reply, Err(e)),
            PathCall::ReadDir { reply } => replies.send(reply, Err(e)),
        }
    }
}

/// A file-system client of any engine, for engine-generic code
/// (tests, experiments, the kernel's VFS layer).
#[derive(Clone)]
pub enum Vfs {
    /// The big-kernel-lock engine.
    Big(BigLockFs),
    /// The fine-grained-locking engine.
    Sharded(ShardedFs),
    /// The message-passing engine (the paper's design).
    Msg(MsgFs),
}

macro_rules! delegate {
    ($self:ident, $fs:ident, $e:expr) => {
        match $self {
            Vfs::Big($fs) => $e,
            Vfs::Sharded($fs) => $e,
            Vfs::Msg($fs) => $e,
        }
    };
}

/// A lock engine's file: its number and that number's generation,
/// both read under the lock that resolved or made its name.
fn numbered((ino, gen): (u64, u64)) -> File {
    File {
        ino,
        handle: Handle::Generation(gen),
    }
}

impl Vfs {
    /// Short engine name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Vfs::Big(_) => "biglock",
            Vfs::Sharded(_) => "sharded",
            Vfs::Msg(_) => "msgfs",
        }
    }

    /// Creates a regular file; returns its inode number.
    pub async fn create(&self, path: &str) -> Result<u64, FsError> {
        delegate!(self, fs, fs.create(path).await)
    }

    /// Creates a directory; returns its inode number.
    pub async fn mkdir(&self, path: &str) -> Result<u64, FsError> {
        delegate!(self, fs, fs.mkdir(path).await)
    }

    /// Resolves a path to an inode number.
    pub async fn lookup(&self, path: &str) -> Result<u64, FsError> {
        delegate!(self, fs, fs.lookup(path).await)
    }

    /// Opens the file or directory `path` names.
    pub async fn open(&self, path: &str) -> Result<File, FsError> {
        match self {
            Vfs::Msg(fs) => fs.open(path).await,
            Vfs::Big(fs) => fs.open(path).await.map(numbered),
            Vfs::Sharded(fs) => fs.open(path).await.map(numbered),
        }
    }

    /// The root directory's vnode, opened: where a process's path calls
    /// start ([`File::forward_path`]). A lock engine has none: its path
    /// calls are served whole, by the process's kernel task
    /// ([`Vfs::on_path`]).
    pub fn root(&self) -> Option<File> {
        match self {
            Vfs::Msg(fs) => Some(fs.root()),
            Vfs::Big(_) | Vfs::Sharded(_) => None,
        }
    }

    /// Creates and opens a regular file.
    pub async fn create_open(&self, path: &str) -> Result<File, FsError> {
        self.create_kind(path, FileKind::File).await
    }

    async fn create_kind(&self, path: &str, kind: FileKind) -> Result<File, FsError> {
        match self {
            Vfs::Msg(fs) => fs.create_kind(path, kind).await,
            Vfs::Big(fs) => fs.create_kind(path, kind).await.map(numbered),
            Vfs::Sharded(fs) => fs.create_kind(path, kind).await.map(numbered),
        }
    }

    /// Serves a process's `call` on `file`, answering its reply. On
    /// [`MsgFs`] the call goes to the file's vnode (and a one-block read
    /// on to its cache shard), which answers, and this returns once it
    /// is sent ([`File::forward`]); a lock engine serves it here, and
    /// this returns once it is answered. A file removed since it was
    /// opened answers `Gone`.
    pub async fn on_file(&self, file: &File, call: FileCall, replies: &mut ReplyBatch) {
        let Err(call) = file.forward(call) else {
            return;
        };
        match call {
            FileCall::Read { off, len, reply } => {
                replies.send(reply, self.read_file_shared(file, off, len).await)
            }
            FileCall::Write {
                off,
                or_end,
                data,
                reply,
            } => {
                let write = async {
                    let off = match or_end {
                        true => off.min(self.stat_file(file).await?.size),
                        false => off,
                    };
                    self.write_file_owned(file, off, data).await
                };
                replies.send(reply, write.await)
            }
            FileCall::Stat { reply } => replies.send(reply, self.stat_file(file).await),
        }
    }

    /// Serves `call` on the absolute `path` here and answers the caller's
    /// reply once it is served: how a lock engine's path call is served,
    /// by the process's kernel task, since it has no root vnode to take
    /// it ([`Vfs::root`]).
    pub async fn on_path(&self, path: &str, call: PathCall, replies: &mut ReplyBatch) {
        match call {
            PathCall::Open { reply } => replies.send(reply, self.open(path).await),
            PathCall::Create { reply } => replies.send(reply, self.create_open(path).await),
            PathCall::Mkdir { reply } => {
                replies.send(reply, self.create_kind(path, FileKind::Dir).await)
            }
            PathCall::Unlink { reply } => replies.send(reply, self.unlink(path).await),
            PathCall::ReadDir { reply } => replies.send(reply, self.readdir(path).await),
        }
    }

    /// Reads `len` bytes at `off` from `file` into a buffer of the
    /// caller's, charged [`copy_cost`] on the caller's core, as
    /// [`Vfs::read`] does by number. The caller is the kernel: a call
    /// that reaches a vnode pays no [`VALIDATE_CYCLES`].
    pub async fn read_file(&self, file: &File, off: u64, len: usize) -> Result<Vec<u8>, FsError> {
        Ok(self
            .read_file_shared(file, off, len)
            .await?
            .copy_out()
            .await)
    }

    /// Writes `data` at `off` into `file`, copying it as [`Vfs::write`]
    /// does (see [`Vfs::read_file`]).
    pub async fn write_file(&self, file: &File, off: u64, data: &[u8]) -> Result<(), FsError> {
        chanos_rt::delay(copy_cost(data.len())).await;
        self.write_file_owned(file, off, data.to_vec()).await
    }

    /// Returns `file`'s metadata (see [`Vfs::read_file`]).
    pub async fn stat_file(&self, file: &File) -> Result<Stat, FsError> {
        match (self, &file.handle) {
            (Vfs::Msg(_), Handle::Vnode(vn)) => msgfs::stat(vn).await,
            (Vfs::Big(fs), &Handle::Generation(g)) => fs.stat_checked(file.ino, Some(g)).await,
            (Vfs::Sharded(fs), &Handle::Generation(g)) => fs.stat_checked(file.ino, Some(g)).await,
            _ => Err(FsError::Invalid),
        }
    }

    /// `file`'s bytes at `off`, shared with the cache.
    async fn read_file_shared(
        &self,
        file: &File,
        off: u64,
        len: usize,
    ) -> Result<FileSlice, FsError> {
        let ino = file.ino;
        match (self, &file.handle) {
            (Vfs::Msg(_), Handle::Vnode(vn)) => msgfs::read(vn, off, len).await,
            (Vfs::Big(fs), &Handle::Generation(g)) => fs.read_checked(ino, Some(g), off, len).await,
            (Vfs::Sharded(fs), &Handle::Generation(g)) => {
                fs.read_checked(ino, Some(g), off, len).await
            }
            _ => Err(FsError::Invalid),
        }
    }

    /// Writes the caller's buffer `data` into `file` at `off`.
    async fn write_file_owned(&self, file: &File, off: u64, data: Vec<u8>) -> Result<(), FsError> {
        let ino = file.ino;
        match (self, &file.handle) {
            (Vfs::Msg(_), Handle::Vnode(vn)) => msgfs::write(vn, off, data).await,
            (Vfs::Big(fs), &Handle::Generation(g)) => {
                fs.write_checked(ino, Some(g), off, data).await
            }
            (Vfs::Sharded(fs), &Handle::Generation(g)) => {
                fs.write_checked(ino, Some(g), off, data).await
            }
            _ => Err(FsError::Invalid),
        }
    }

    /// Reads `len` bytes at `off` from inode `ino` into a buffer of the
    /// caller's: the read's one copy, charged [`copy_cost`] on the
    /// caller's core.
    pub async fn read(&self, ino: u64, off: u64, len: usize) -> Result<Vec<u8>, FsError> {
        Ok(self.read_shared(ino, off, len).await?.copy_out().await)
    }

    /// Reads `len` bytes at `off` from inode `ino` without copying
    /// them: the blocks they lie in, shared with the cache. [`Vfs::read`]
    /// copies them out.
    pub async fn read_shared(&self, ino: u64, off: u64, len: usize) -> Result<FileSlice, FsError> {
        delegate!(self, fs, fs.read(ino, off, len).await)
    }

    /// Writes `data` at `off` into inode `ino`: copies it into a buffer
    /// of the file system's, charged [`copy_cost`] on the caller's
    /// core, and writes that.
    pub async fn write(&self, ino: u64, off: u64, data: &[u8]) -> Result<(), FsError> {
        chanos_rt::delay(copy_cost(data.len())).await;
        delegate!(self, fs, fs.write(ino, off, data.to_vec()).await)
    }

    /// Returns metadata for inode `ino`.
    pub async fn stat(&self, ino: u64) -> Result<Stat, FsError> {
        delegate!(self, fs, fs.stat(ino).await)
    }

    /// Removes a file or empty directory.
    pub async fn unlink(&self, path: &str) -> Result<(), FsError> {
        delegate!(self, fs, fs.unlink(path).await)
    }

    /// Lists a directory.
    pub async fn readdir(&self, path: &str) -> Result<Vec<Dirent>, FsError> {
        delegate!(self, fs, fs.readdir(path).await)
    }

    /// Flushes dirty cache blocks.
    pub async fn sync(&self) -> Result<(), FsError> {
        delegate!(self, fs, fs.sync().await)
    }
}
