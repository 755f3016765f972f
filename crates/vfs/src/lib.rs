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

use chanos_rt::{Port, ReplyBatch, ReplyTo};
use chanos_sim::plock;

/// An open file: what [`Vfs::open`] and [`Vfs::create_open`] answer.
///
/// Every call through it reaches that file and no other: once the file
/// is removed, a call answers [`FsError::Gone`], even after the inode
/// number names another file.
#[derive(Clone, Debug)]
pub struct File {
    ino: u64,
    handle: Handle,
}

/// What ties a [`File`] to its file rather than to its inode number.
#[derive(Clone, Debug)]
enum Handle {
    /// On [`MsgFs`]: the file's vnode port, which the directory that
    /// names the file takes in the same turn as the lookup, so in order
    /// with that directory's unlinks. The vnode goes with the file.
    Vnode(Port<msgfs::VnodeMsg>),
    /// On a lock engine: the number's [`Generations`] entry when the
    /// file was opened.
    Generation(u64),
}

/// A lock engine's generation of each inode number, bumped when the
/// number is freed (FFS's `di_gen`): a [`File`] that recorded an older
/// one names a removed file. It is kept in memory, off the disk, so
/// volumes stay byte-equal across engines, and it costs no modeled
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
}

/// A call on an open file carrying its caller's reply: the file system
/// answers the caller itself ([`Vfs::on_file`]).
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
/// answers itself ([`Vfs::on_path`]).
pub enum PathCall {
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
            _ => self.lookup(path).await.map(|ino| self.numbered(ino)),
        }
    }

    /// Creates and opens a regular file.
    pub async fn create_open(&self, path: &str) -> Result<File, FsError> {
        match self {
            Vfs::Msg(fs) => fs.create_open(path).await,
            _ => self.create(path).await.map(|ino| self.numbered(ino)),
        }
    }

    /// A lock engine's file `ino`, as its number names it now.
    fn numbered(&self, ino: u64) -> File {
        File {
            ino,
            handle: Handle::Generation(self.generation(ino)),
        }
    }

    /// A lock engine's generation of inode number `ino`.
    fn generation(&self, ino: u64) -> u64 {
        match self {
            Vfs::Big(fs) => fs.generations().of(ino),
            Vfs::Sharded(fs) => fs.generations().of(ino),
            Vfs::Msg(_) => unreachable!("a MsgFs file holds its vnode"),
        }
    }

    /// Serves `call` on `file`, answering the caller's reply. On
    /// [`MsgFs`] the call goes to the file's vnode (and a one-block read
    /// on to its cache shard), which answers, and this returns once it
    /// is sent; a lock engine serves it here, and this returns once it
    /// is answered. A file removed since it was opened answers `Gone`.
    pub async fn on_file(&self, file: &File, call: FileCall, replies: &mut ReplyBatch) {
        if let Vfs::Msg(fs) = self {
            return fs.on_file(file, call, replies);
        }
        let ino = file.ino;
        let refused = match file.handle {
            Handle::Generation(gen) if gen == self.generation(ino) => None,
            Handle::Generation(_) => Some(FsError::Gone),
            Handle::Vnode(_) => Some(FsError::Invalid),
        };
        if let Some(e) = refused {
            return call.refuse(e, replies);
        }
        match call {
            FileCall::Read { off, len, reply } => {
                replies.send(reply, self.read_shared(ino, off, len).await)
            }
            FileCall::Write {
                off,
                or_end,
                data,
                reply,
            } => {
                let write = async {
                    let off = match or_end {
                        true => off.min(self.stat(ino).await?.size),
                        false => off,
                    };
                    delegate!(self, fs, fs.write(ino, off, data).await)
                };
                replies.send(reply, write.await)
            }
            FileCall::Stat { reply } => replies.send(reply, self.stat(ino).await),
        }
    }

    /// Serves `call` on `path`, answering the caller's reply: handed on
    /// to the directory that serves it on [`MsgFs`], served here on a
    /// lock engine (see [`Vfs::on_file`]).
    pub async fn on_path(&self, path: &str, call: PathCall, replies: &mut ReplyBatch) {
        if let Vfs::Msg(fs) = self {
            return fs.on_path(path, call, replies);
        }
        match call {
            PathCall::Mkdir { reply } => {
                let made = self.mkdir(path).await;
                replies.send(reply, made.map(|ino| self.numbered(ino)))
            }
            PathCall::Unlink { reply } => replies.send(reply, self.unlink(path).await),
            PathCall::ReadDir { reply } => replies.send(reply, self.readdir(path).await),
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
    /// copies them out; a lock engine's [`Vfs::on_file`] hands them to
    /// the process whose read it serves, which copies them. (On
    /// [`MsgFs`] a process's read goes to the file's vnode instead.)
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
