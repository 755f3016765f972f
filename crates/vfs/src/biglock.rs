//! The big-kernel-lock engine: one mutex around the whole file
//! system.
//!
//! This is the classic pre-scalability Unix structure: every
//! operation, however small, takes the global lock. Correct, simple,
//! and — as experiment E4 shows — flat-lining as client concurrency
//! grows, with the lock line ping-ponging across cores.

use std::sync::Arc;

use chanos_drivers::DiskClient;
use chanos_shmem::SimMutex;

use crate::core_fs::{split_parent, split_path, FileSlice, FsCore, ScanAllocator, Stat};
use crate::error::FsError;
use crate::layout::{Dirent, FileKind, ROOT_INO};
use crate::store::{BlockStore, CachedDisk};
use crate::Generations;

/// The big-lock file system client.
#[derive(Clone)]
pub struct BigLockFs {
    core: Arc<FsCore<CachedDisk>>,
    lock: SimMutex<()>,
    gens: Generations,
}

impl BigLockFs {
    /// Formats a fresh volume and returns a client.
    pub async fn format(
        disk: DiskClient,
        total_blocks: u64,
        n_groups: u64,
        cache_blocks: usize,
    ) -> Result<BigLockFs, FsError> {
        let store = CachedDisk::new(disk, cache_blocks);
        let core = FsCore::mkfs(store, total_blocks, n_groups).await?;
        Ok(BigLockFs {
            core: Arc::new(core),
            lock: SimMutex::new(()),
            gens: Generations::default(),
        })
    }

    async fn resolve(&self, comps: &[&str]) -> Result<u64, FsError> {
        let mut ino = ROOT_INO;
        for comp in comps {
            let inode = self.core.read_inode(ino).await?;
            let (found, _) = self
                .core
                .dir_lookup(&inode, comp)
                .await?
                .ok_or(FsError::NotFound)?;
            ino = found;
        }
        Ok(ino)
    }

    /// Makes `path` a fresh inode of `kind`: its number and the
    /// number's generation, read under the lock.
    pub(crate) async fn create_kind(
        &self,
        path: &str,
        kind: FileKind,
    ) -> Result<(u64, u64), FsError> {
        let _g = self.lock.lock().await;
        let (parent_comps, name) = split_parent(path)?;
        let parent = self.resolve(&parent_comps).await?;
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
        let sb = self.core.superblock();
        let hint = sb.group_of_ino(parent);
        let start = sb.inode_start_group(hint, kind, listing.len() as u64);
        let ino = self.core.alloc_inode(start, kind).await?;
        self.core
            .dir_add(&mut dir, name, ino, hint, &ScanAllocator)
            .await?;
        self.core.write_inode(parent, &dir).await?;
        Ok((ino, self.gens.of(ino)))
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

    /// Resolves a path to an inode number and the number's generation,
    /// read under the lock.
    pub(crate) async fn open(&self, path: &str) -> Result<(u64, u64), FsError> {
        let _g = self.lock.lock().await;
        let ino = self.resolve(&split_path(path)).await?;
        Ok((ino, self.gens.of(ino)))
    }

    /// Reads `len` bytes at `off` from inode `ino`: the blocks they
    /// lie in, shared with the cache.
    pub async fn read(&self, ino: u64, off: u64, len: usize) -> Result<FileSlice, FsError> {
        self.read_checked(ino, None, off, len).await
    }

    /// [`BigLockFs::read`], refused `Gone` under the lock if `gen` is
    /// given and the number was freed since.
    pub(crate) async fn read_checked(
        &self,
        ino: u64,
        gen: Option<u64>,
        off: u64,
        len: usize,
    ) -> Result<FileSlice, FsError> {
        let _g = self.lock.lock().await;
        self.gens.check(ino, gen)?;
        let inode = self.core.read_inode(ino).await?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        self.core.read_file(&inode, off, len).await
    }

    /// Writes `data` at `off` into inode `ino`; the buffer becomes the
    /// file's blocks.
    pub async fn write(&self, ino: u64, off: u64, data: Vec<u8>) -> Result<(), FsError> {
        self.write_checked(ino, None, off, data).await
    }

    /// [`BigLockFs::write`], checked as [`BigLockFs::read_checked`] is.
    pub(crate) async fn write_checked(
        &self,
        ino: u64,
        gen: Option<u64>,
        off: u64,
        data: Vec<u8>,
    ) -> Result<(), FsError> {
        let _g = self.lock.lock().await;
        self.gens.check(ino, gen)?;
        let mut inode = self.core.read_inode(ino).await?;
        if inode.kind == FileKind::Dir {
            return Err(FsError::IsDir);
        }
        let hint = self.core.superblock().group_of_ino(ino);
        self.core
            .write_file(&mut inode, off, data, hint, &ScanAllocator)
            .await?;
        self.core.write_inode(ino, &inode).await
    }

    /// Returns metadata for inode `ino`.
    pub async fn stat(&self, ino: u64) -> Result<Stat, FsError> {
        self.stat_checked(ino, None).await
    }

    /// [`BigLockFs::stat`], checked as [`BigLockFs::read_checked`] is.
    pub(crate) async fn stat_checked(&self, ino: u64, gen: Option<u64>) -> Result<Stat, FsError> {
        let _g = self.lock.lock().await;
        self.gens.check(ino, gen)?;
        let inode = self.core.read_inode(ino).await?;
        Ok(Stat {
            ino,
            kind: inode.kind,
            size: inode.size,
            nlink: inode.nlink,
        })
    }

    /// Removes a file or empty directory.
    pub async fn unlink(&self, path: &str) -> Result<(), FsError> {
        let _g = self.lock.lock().await;
        let (parent_comps, name) = split_parent(path)?;
        let parent = self.resolve(&parent_comps).await?;
        let mut dir = self.core.read_inode(parent).await?;
        let (child_ino, _) = self
            .core
            .dir_lookup(&dir, name)
            .await?
            .ok_or(FsError::NotFound)?;
        let mut child = self.core.read_inode(child_ino).await?;
        if child.kind == FileKind::Dir && !self.core.dir_list(&child).await?.is_empty() {
            return Err(FsError::NotEmpty);
        }
        let hint = self.core.superblock().group_of_ino(parent);
        self.core
            .dir_remove(&mut dir, name, hint, &ScanAllocator)
            .await?;
        self.core.write_inode(parent, &dir).await?;
        child.nlink = child.nlink.saturating_sub(1);
        if child.nlink == 0 {
            self.core.truncate(&mut child, &ScanAllocator).await?;
            self.gens.bump(child_ino);
            self.core.free_inode(child_ino).await?;
        } else {
            self.core.write_inode(child_ino, &child).await?;
        }
        Ok(())
    }

    /// Lists a directory.
    pub async fn readdir(&self, path: &str) -> Result<Vec<Dirent>, FsError> {
        let _g = self.lock.lock().await;
        let ino = self.resolve(&split_path(path)).await?;
        let inode = self.core.read_inode(ino).await?;
        self.core.dir_list(&inode).await
    }

    /// Flushes dirty cache blocks to disk.
    pub async fn sync(&self) -> Result<(), FsError> {
        let _g = self.lock.lock().await;
        self.core.store().sync().await
    }
}
