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

    /// Reads `len` bytes at `off` from inode `ino` into a buffer of the
    /// caller's: the read's one copy, charged [`copy_cost`] on the
    /// caller's core.
    pub async fn read(&self, ino: u64, off: u64, len: usize) -> Result<Vec<u8>, FsError> {
        Ok(self.read_shared(ino, off, len).await?.copy_out().await)
    }

    /// Reads `len` bytes at `off` from inode `ino` without copying
    /// them: the blocks they lie in, shared with the cache, for a
    /// caller that hands them on to the one that copies them (the
    /// kernel task of a process, to the process).
    pub async fn read_shared(&self, ino: u64, off: u64, len: usize) -> Result<FileSlice, FsError> {
        delegate!(self, fs, fs.read(ino, off, len).await)
    }

    /// Writes `data` at `off` into inode `ino`: copies it into a buffer
    /// of the file system's, charged [`copy_cost`] on the caller's
    /// core, and writes that.
    pub async fn write(&self, ino: u64, off: u64, data: &[u8]) -> Result<(), FsError> {
        chanos_rt::delay(copy_cost(data.len())).await;
        self.write_owned(ino, off, data.to_vec()).await
    }

    /// Writes a buffer its caller gives up, its copy already paid for
    /// (a process's bytes, copied on its core): the bytes become the
    /// file's blocks without another copy.
    pub async fn write_owned(&self, ino: u64, off: u64, data: Vec<u8>) -> Result<(), FsError> {
        delegate!(self, fs, fs.write(ino, off, data).await)
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
