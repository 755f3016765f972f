//! The fine-grained-locking engine: per-inode reader-writer locks,
//! per-group allocator mutexes, sharded buffer cache.
//!
//! This is the decade-of-engineering answer the paper credits Solaris
//! with ("by great effort Solaris has been made to scale to perhaps
//! 128 cores", §1): the big lock is shattered into many small ones.
//! Scales much further than the big lock — and every acquisition
//! still pays coherence traffic, which is where its curve bends in E4.
//!
//! Lock ordering discipline (deadlock freedom): path resolution takes
//! inode locks hand-over-hand; mutating ops lock parent before child;
//! group allocator mutexes are leaves (taken last, never while
//! holding another group mutex).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use chanos_drivers::DiskClient;
use chanos_shmem::{SimMutex, SimRwLock};

use crate::core_fs::{split_parent, split_path, Allocator, FileSlice, FsCore, Stat};
use crate::error::FsError;
use crate::layout::{Dirent, FileKind, ROOT_INO};
use crate::store::{BlockStore, ShardedCachedDisk};
use crate::Generations;

/// Registry of per-inode locks (itself a short-critical-section
/// shared structure, as in real kernels).
struct LockTable {
    registry: SimMutex<()>,
    locks: Mutex<HashMap<u64, SimRwLock<()>>>,
}

impl LockTable {
    fn new() -> Self {
        LockTable {
            registry: SimMutex::new(()),
            locks: Mutex::new(HashMap::new()),
        }
    }

    /// Fetches (or creates) the lock for `ino`.
    async fn get(&self, ino: u64) -> SimRwLock<()> {
        let g = self.registry.lock().await;
        let lock = self
            .locks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(ino)
            .or_insert_with(|| SimRwLock::new(()))
            .clone();
        drop(g);
        lock
    }
}

/// Per-group allocator serialization + inode-table-block RMW
/// serialization (inodes share itable blocks, so inode record writes
/// of one group must not interleave).
struct GroupLocks {
    locks: Vec<SimMutex<()>>,
}

/// Block allocator routing through the per-group mutexes.
struct ShardedAllocator {
    groups: Arc<GroupLocks>,
}

impl Allocator for ShardedAllocator {
    async fn alloc_block<S: BlockStore>(
        &self,
        core: &FsCore<S>,
        hint: u64,
    ) -> Result<u64, FsError> {
        let n = core.superblock().n_groups;
        for i in 0..n {
            let g = (hint + i) % n;
            let guard = self.groups.locks[g as usize].lock().await;
            let got = core.alloc_block_in(g).await?;
            drop(guard);
            if let Some(lba) = got {
                return Ok(lba);
            }
        }
        Err(FsError::NoSpace)
    }

    async fn free_blocks<S: BlockStore>(
        &self,
        core: &FsCore<S>,
        lbas: &[u64],
    ) -> Result<(), FsError> {
        let mut out = Ok(());
        for &lba in lbas {
            let Some(g) = core.superblock().group_of_block(lba) else {
                out = out.and(Err(FsError::Invalid));
                continue;
            };
            let guard = self.groups.locks[g as usize].lock().await;
            out = out.and(core.free_block(lba).await);
            drop(guard);
        }
        out
    }
}

/// The fine-grained-locking file system client.
#[derive(Clone)]
pub struct ShardedFs {
    core: Arc<FsCore<ShardedCachedDisk>>,
    inode_locks: Arc<LockTable>,
    groups: Arc<GroupLocks>,
    gens: Generations,
}

impl ShardedFs {
    /// Formats a fresh volume and returns a client.
    pub async fn format(
        disk: DiskClient,
        total_blocks: u64,
        n_groups: u64,
        cache_shards: usize,
        cache_blocks_per_shard: usize,
    ) -> Result<ShardedFs, FsError> {
        let store = ShardedCachedDisk::new(disk, cache_shards, cache_blocks_per_shard);
        let core = FsCore::mkfs(store, total_blocks, n_groups).await?;
        let groups = GroupLocks {
            locks: (0..n_groups).map(|_| SimMutex::new(())).collect(),
        };
        Ok(ShardedFs {
            core: Arc::new(core),
            inode_locks: Arc::new(LockTable::new()),
            groups: Arc::new(groups),
            gens: Generations::default(),
        })
    }

    fn allocator(&self) -> ShardedAllocator {
        ShardedAllocator {
            groups: self.groups.clone(),
        }
    }

    /// Writes an inode record under its group's itable lock.
    async fn put_inode(&self, ino: u64, inode: &crate::layout::Inode) -> Result<(), FsError> {
        let g = self.core.superblock().group_of_ino(ino);
        let guard = self.groups.locks[g as usize].lock().await;
        let out = self.core.write_inode(ino, inode).await;
        drop(guard);
        out
    }

    /// Resolves a path with hand-over-hand read locks: the inode and
    /// its number's generation, read under its directory's lock, which
    /// the name's `unlink` holds for writing when it frees the number.
    async fn resolve(&self, comps: &[&str]) -> Result<(u64, u64), FsError> {
        let (mut ino, mut gen) = (ROOT_INO, self.gens.of(ROOT_INO));
        for comp in comps {
            let lock = self.inode_locks.get(ino).await;
            let g = lock.read().await;
            let inode = self.core.read_inode(ino).await?;
            let found = self.core.dir_lookup(&inode, comp).await?;
            let (next, _) = found.ok_or(FsError::NotFound)?;
            (ino, gen) = (next, self.gens.of(next));
            drop(g);
        }
        Ok((ino, gen))
    }

    /// Makes `path` a fresh inode of `kind`: its number and the
    /// number's generation, read under the directory's lock.
    pub(crate) async fn create_kind(
        &self,
        path: &str,
        kind: FileKind,
    ) -> Result<(u64, u64), FsError> {
        let (parent_comps, name) = split_parent(path)?;
        let (parent, _) = self.resolve(&parent_comps).await?;
        let plock = self.inode_locks.get(parent).await;
        let pg = plock.write().await;
        let mut dir = self.core.read_inode(parent).await?;
        if dir.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        // One read of the directory answers both "is the name taken"
        // and "how many entries", which placement wants.
        let listing = self.core.dir_list(&dir).await?;
        if listing.iter().any(|d| d.name == name) {
            return Err(FsError::Exists);
        }
        let hint = self.core.superblock().group_of_ino(parent);
        // Inode allocation under the group lock.
        let ino = {
            let n = self.core.superblock().n_groups;
            let start = self
                .core
                .superblock()
                .inode_start_group(hint, kind, listing.len() as u64);
            let mut got = None;
            for i in 0..n {
                let g = (start + i) % n;
                let guard = self.groups.locks[g as usize].lock().await;
                let r = self.core.alloc_inode_in(g, kind).await?;
                drop(guard);
                if let Some(ino) = r {
                    got = Some(ino);
                    break;
                }
            }
            got.ok_or(FsError::NoInodes)?
        };
        self.core
            .dir_add(&mut dir, name, ino, hint, &self.allocator())
            .await?;
        self.put_inode(parent, &dir).await?;
        let gen = self.gens.of(ino);
        drop(pg);
        Ok((ino, gen))
    }

    /// Creates a regular file; returns its inode number.
    pub async fn create(&self, path: &str) -> Result<u64, FsError> {
        Ok(self.create_kind(path, FileKind::File).await?.0)
    }

    /// Creates a directory; returns its inode number.
    pub async fn mkdir(&self, path: &str) -> Result<u64, FsError> {
        Ok(self.create_kind(path, FileKind::Dir).await?.0)
    }

    /// Resolves a path to an inode number.
    pub async fn lookup(&self, path: &str) -> Result<u64, FsError> {
        Ok(self.open(path).await?.0)
    }

    /// Resolves a path to an inode number and the number's generation
    /// (see [`ShardedFs::resolve`]).
    pub(crate) async fn open(&self, path: &str) -> Result<(u64, u64), FsError> {
        self.resolve(&split_path(path)).await
    }

    /// Reads `len` bytes at `off` from inode `ino`: the blocks they
    /// lie in, shared with the cache.
    pub async fn read(&self, ino: u64, off: u64, len: usize) -> Result<FileSlice, FsError> {
        self.read_checked(ino, None, off, len).await
    }

    /// [`ShardedFs::read`], refused `Gone` under the inode's lock if
    /// `gen` is given and the number was freed since.
    pub(crate) async fn read_checked(
        &self,
        ino: u64,
        gen: Option<u64>,
        off: u64,
        len: usize,
    ) -> Result<FileSlice, FsError> {
        let lock = self.inode_locks.get(ino).await;
        let g = lock.read().await;
        self.gens.check(ino, gen)?;
        let inode = self.core.read_inode(ino).await?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let out = self.core.read_file(&inode, off, len).await;
        drop(g);
        out
    }

    /// Writes `data` at `off` into inode `ino`; the buffer becomes the
    /// file's blocks.
    pub async fn write(&self, ino: u64, off: u64, data: Vec<u8>) -> Result<(), FsError> {
        self.write_checked(ino, None, off, data).await
    }

    /// [`ShardedFs::write`], checked as [`ShardedFs::read_checked`] is.
    pub(crate) async fn write_checked(
        &self,
        ino: u64,
        gen: Option<u64>,
        off: u64,
        data: Vec<u8>,
    ) -> Result<(), FsError> {
        let lock = self.inode_locks.get(ino).await;
        let g = lock.write().await;
        self.gens.check(ino, gen)?;
        let mut inode = self.core.read_inode(ino).await?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let hint = self.core.superblock().group_of_ino(ino);
        self.core
            .write_file(&mut inode, off, data, hint, &self.allocator())
            .await?;
        self.put_inode(ino, &inode).await?;
        drop(g);
        Ok(())
    }

    /// Returns metadata for inode `ino`.
    pub async fn stat(&self, ino: u64) -> Result<Stat, FsError> {
        self.stat_checked(ino, None).await
    }

    /// [`ShardedFs::stat`], checked as [`ShardedFs::read_checked`] is.
    pub(crate) async fn stat_checked(&self, ino: u64, gen: Option<u64>) -> Result<Stat, FsError> {
        let lock = self.inode_locks.get(ino).await;
        let g = lock.read().await;
        self.gens.check(ino, gen)?;
        let inode = self.core.read_inode(ino).await?;
        drop(g);
        Ok(Stat {
            ino,
            kind: inode.kind,
            size: inode.size,
            nlink: inode.nlink,
        })
    }

    /// Removes a file or empty directory.
    pub async fn unlink(&self, path: &str) -> Result<(), FsError> {
        let (parent_comps, name) = split_parent(path)?;
        let (parent, _) = self.resolve(&parent_comps).await?;
        let plock = self.inode_locks.get(parent).await;
        let pg = plock.write().await;
        let mut dir = self.core.read_inode(parent).await?;
        let (child_ino, _) = self
            .core
            .dir_lookup(&dir, name)
            .await?
            .ok_or(FsError::NotFound)?;
        // Parent-then-child lock order.
        let clock = self.inode_locks.get(child_ino).await;
        let cg = clock.write().await;
        let mut child = self.core.read_inode(child_ino).await?;
        if child.kind == FileKind::Dir && !self.core.dir_list(&child).await?.is_empty() {
            return Err(FsError::NotEmpty);
        }
        let hint = self.core.superblock().group_of_ino(parent);
        self.core
            .dir_remove(&mut dir, name, hint, &self.allocator())
            .await?;
        self.put_inode(parent, &dir).await?;
        child.nlink = child.nlink.saturating_sub(1);
        if child.nlink == 0 {
            self.core.truncate(&mut child, &self.allocator()).await?;
            let g = self.core.superblock().group_of_ino(child_ino);
            let guard = self.groups.locks[g as usize].lock().await;
            self.gens.bump(child_ino);
            self.core.free_inode(child_ino).await?;
            drop(guard);
        } else {
            self.put_inode(child_ino, &child).await?;
        }
        drop(cg);
        drop(pg);
        Ok(())
    }

    /// Lists a directory.
    pub async fn readdir(&self, path: &str) -> Result<Vec<Dirent>, FsError> {
        let (ino, _) = self.resolve(&split_path(path)).await?;
        let lock = self.inode_locks.get(ino).await;
        let g = lock.read().await;
        let inode = self.core.read_inode(ino).await?;
        let out = self.core.dir_list(&inode).await;
        drop(g);
        out
    }

    /// Flushes dirty cache blocks to disk.
    pub async fn sync(&self) -> Result<(), FsError> {
        self.core.store().sync().await
    }
}
