//! Concurrency-free file-system algorithms shared by all three
//! engines: allocation, inode I/O, directory operations, file I/O.
//!
//! `FsCore` contains **no locking and no ownership discipline**; each
//! engine supplies that:
//!
//! * big-lock — one mutex around everything;
//! * sharded — per-inode rwlocks plus per-group allocator mutexes;
//! * message-passing — vnode tasks own inodes (and a directory's
//!   blocks and entries), group-server tasks own each group's bitmaps
//!   and inode table and run these algorithms over their own copy of
//!   them.
//!
//! Because all engines run these same byte-level algorithms over the
//! same [`crate::layout`], the equivalence tests can require their
//! observable behaviour to match exactly.
//!
//! The algorithms read blocks where the store keeps them: decoding an
//! inode, an indirect entry or a directory entry copies nothing, and a
//! file read returns the blocks themselves ([`FileSlice`]). A copy is
//! made, and charged [`copy_cost`] on the running task's core, only to
//! change a shared block (`to_change`) and to make a block's bytes
//! from nothing (`zeroes`, `write_made`); the bytes of a file write
//! were copied by its writer.
//!
//! Allocating a block writes nothing to it: a freed block keeps its
//! last file's bytes until its next first write, which is the only
//! write of its new bytes. So a block is made whole before anything
//! points at it — a whole-block write is the block, part of a block
//! goes into zeroes, never into what the block held — and a block
//! whose first write failed goes back to the allocator unmapped.

use chanos_drivers::BLOCK_SIZE;

use crate::error::FsError;
use crate::layout::{
    bitmap, Dirent, FileKind, Inode, Superblock, DIRENT_SIZE, MAX_FILE_SIZE, MAX_NAME, NDIRECT,
    NINDIRECT,
};
use crate::store::{copy_cost, Block, BlockStore};

/// File metadata returned by `stat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: u64,
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
    /// Link count.
    pub nlink: u16,
}

/// What a file read returns: the blocks its range spans, shared with
/// the cache, and where the range lies in them. Nothing is copied to
/// make one; the reader copies the bytes out, once, on its own core
/// ([`FileSlice::copy_out`]), so a later write to the file cannot
/// change what it was given.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileSlice {
    /// The blocks the range touches, in file order; `None` is a hole,
    /// which reads as zeroes.
    blocks: Box<[Option<Block>]>,
    /// Where the range starts in the first block.
    start: u32,
    /// The range's length in bytes.
    len: u32,
}

/// What a hole reads as.
static ZEROES: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

impl FileSlice {
    /// `len` bytes from `start` in one block: how a cache shard answers
    /// a read that lies in a block of its own.
    pub(crate) fn in_block(block: Block, start: u32, len: u32) -> FileSlice {
        debug_assert!((start + len) as usize <= BLOCK_SIZE);
        FileSlice {
            blocks: Box::new([Some(block)]),
            start,
            len,
        }
    }

    /// The one block a slice made by [`FileSlice::in_block`] lies in.
    pub(crate) fn into_block(self) -> Block {
        let mut blocks = self.blocks.into_vec();
        debug_assert_eq!(blocks.len(), 1);
        blocks.pop().flatten().expect("a slice of one cached block")
    }

    /// The range's length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` for an empty range (a read at or past the end).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The range's bytes, one slice per block, in file order.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        let (mut start, mut left) = (self.start as usize, self.len as usize);
        self.blocks.iter().map(move |block| {
            let bytes = block.as_deref().map_or(&ZEROES[..], Vec::as_slice);
            let take = (BLOCK_SIZE - start).min(left);
            let chunk = &bytes[start..start + take];
            (start, left) = (0, left - take);
            chunk
        })
    }

    /// Copies the range into a buffer of the caller's: the one copy a
    /// read makes, charged [`copy_cost`] on the caller's core.
    pub async fn copy_out(&self) -> Vec<u8> {
        chanos_rt::delay(copy_cost(self.len())).await;
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }
}

/// Where a read of `len` bytes at `off` lies if it lies in one
/// directly mapped block: the block, where in it the read starts,
/// and its length once cut at the end of the file. A read that
/// spans blocks, goes through the indirect block, falls in a hole or
/// reads nothing is `None`: [`FsCore::read_file`] gathers it.
pub(crate) fn in_one_block(inode: &Inode, off: u64, len: usize) -> Option<(u64, u32, u32)> {
    if off >= inode.size || len == 0 {
        return None;
    }
    let end = (off + len as u64).min(inode.size);
    let fbn = off / BLOCK_SIZE as u64;
    if (end - 1) / BLOCK_SIZE as u64 != fbn {
        return None;
    }
    let lba = *inode.direct.get(fbn as usize)?;
    let start = (off % BLOCK_SIZE as u64) as u32;
    (lba != 0).then_some((lba, start, (end - off) as u32))
}

/// The shared algorithm layer over a block store.
#[derive(Clone)]
pub struct FsCore<S: BlockStore> {
    sb: Superblock,
    store: S,
}

impl<S: BlockStore> FsCore<S> {
    /// Formats the volume: writes the superblock, clears all bitmaps,
    /// and creates the empty root directory.
    pub async fn mkfs(store: S, total_blocks: u64, n_groups: u64) -> Result<FsCore<S>, FsError> {
        let sb = Superblock::design(total_blocks, n_groups);
        let fs = FsCore { sb, store };
        let sb = &fs.sb;
        fs.write_made(0, sb.encode()).await?;
        for g in 0..n_groups {
            fs.write_made(sb.ibitmap_block(g), vec![0; BLOCK_SIZE])
                .await?;
            fs.write_made(sb.dbitmap_block(g), vec![0; BLOCK_SIZE])
                .await?;
            for b in 0..sb.itable_blocks() {
                fs.write_made(sb.itable_start(g) + b, vec![0; BLOCK_SIZE])
                    .await?;
            }
        }
        // Root directory: inode 0 in group 0.
        let root = fs
            .alloc_inode_in(0, FileKind::Dir)
            .await?
            .ok_or(FsError::NoInodes)?;
        debug_assert_eq!(root, crate::layout::ROOT_INO);
        fs.store.sync().await?;
        Ok(fs)
    }

    /// The volume geometry.
    pub fn superblock(&self) -> &Superblock {
        &self.sb
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The same algorithms over the same volume through another store:
    /// how a task that keeps some of the blocks itself runs them.
    pub(crate) fn with_store<T: BlockStore>(&self, store: T) -> FsCore<T> {
        FsCore {
            sb: self.sb.clone(),
            store,
        }
    }

    // -- Copies ---------------------------------------------------------------

    /// `block` (block `lba`, as the store handed it out) in a buffer of
    /// this task's own, to change and write back. A block shared
    /// through the cache is copied, and this task pays [`copy_cost`] on
    /// its core; one the store keeps as the task's own
    /// ([`BlockStore::owns`]) is changed in place, for nothing.
    async fn to_change(&self, lba: u64, block: &[u8]) -> Vec<u8> {
        if !self.store.owns(lba) {
            chanos_rt::delay(copy_cost(block.len())).await;
        }
        block.to_vec()
    }

    /// Reads block `lba` into a buffer of this task's own, to change
    /// and write back (see [`Self::to_change`]).
    async fn read_to_change(&self, lba: u64) -> Result<Vec<u8>, FsError> {
        let block = self.store.read_block(lba).await?;
        Ok(self.to_change(lba, &block).await)
    }

    /// A block of zeroes made by this task, paid like a copy on its
    /// core: the start of a fresh block that is not written whole.
    async fn zeroes(&self) -> Vec<u8> {
        chanos_rt::delay(copy_cost(BLOCK_SIZE)).await;
        vec![0; BLOCK_SIZE]
    }

    /// Writes block `lba` with bytes this task made (zeroes, the
    /// superblock): making them is paid like a copy, on this core.
    async fn write_made(&self, lba: u64, data: Vec<u8>) -> Result<(), FsError> {
        chanos_rt::delay(copy_cost(data.len())).await;
        self.store.write_block(lba, data).await
    }

    // -- Inode records ------------------------------------------------------

    /// Reads inode `ino` from the inode table.
    pub async fn read_inode(&self, ino: u64) -> Result<Inode, FsError> {
        if ino >= self.sb.total_inodes() {
            return Err(FsError::Invalid);
        }
        let (block, off) = self.sb.ino_location(ino);
        let data = self.store.read_block(block).await?;
        Inode::decode(&data[off..off + crate::layout::INODE_SIZE]).ok_or(FsError::NotFound)
    }

    /// Writes inode `ino` into the inode table.
    pub async fn write_inode(&self, ino: u64, inode: &Inode) -> Result<(), FsError> {
        let (block, off) = self.sb.ino_location(ino);
        let mut data = self.read_to_change(block).await?;
        data[off..off + crate::layout::INODE_SIZE].copy_from_slice(&inode.encode());
        self.store.write_block(block, data).await
    }

    /// Clears inode `ino`'s record.
    pub async fn clear_inode(&self, ino: u64) -> Result<(), FsError> {
        let (block, off) = self.sb.ino_location(ino);
        let mut data = self.read_to_change(block).await?;
        data[off..off + crate::layout::INODE_SIZE].fill(0);
        self.store.write_block(block, data).await
    }

    // -- Allocation (single-group primitives) --------------------------------

    /// Allocates an inode in group `g`, initializing its record.
    /// Returns `None` if the group is out of inodes.
    pub async fn alloc_inode_in(&self, g: u64, kind: FileKind) -> Result<Option<u64>, FsError> {
        let bblock = self.sb.ibitmap_block(g);
        let mut map = self.read_to_change(bblock).await?;
        let Some(idx) = bitmap::alloc(&mut map, self.sb.inodes_per_group) else {
            return Ok(None);
        };
        self.store.write_block(bblock, map).await?;
        let ino = g * self.sb.inodes_per_group + idx;
        self.write_inode(ino, &Inode::new(kind)).await?;
        chanos_rt::stat_incr("fs.inodes_allocated");
        Ok(Some(ino))
    }

    /// Frees inode `ino`'s bitmap bit and clears its record.
    pub async fn free_inode(&self, ino: u64) -> Result<(), FsError> {
        self.free_inode_bit(ino).await?;
        self.clear_inode(ino).await
    }

    /// Frees inode `ino`'s bitmap bit alone: the second half of
    /// [`free_inode`](Self::free_inode), for an engine that has to do
    /// something between clearing the record and letting the number
    /// be allocated again.
    pub(crate) async fn free_inode_bit(&self, ino: u64) -> Result<(), FsError> {
        let g = self.sb.group_of_ino(ino);
        let bblock = self.sb.ibitmap_block(g);
        let mut map = self.read_to_change(bblock).await?;
        bitmap::free(&mut map, ino % self.sb.inodes_per_group);
        self.store.write_block(bblock, map).await
    }

    /// Allocates a data block in group `g`; returns its LBA, or
    /// `None` if the group is full. Only the bitmap changes: the block
    /// may still hold the bytes of the file that freed it, and whoever
    /// maps it writes it first ([`Self::write_file`],
    /// [`Self::bmap_alloc`]).
    pub async fn alloc_block_in(&self, g: u64) -> Result<Option<u64>, FsError> {
        let bblock = self.sb.dbitmap_block(g);
        let mut map = self.read_to_change(bblock).await?;
        let Some(idx) = bitmap::alloc(&mut map, self.sb.data_per_group) else {
            return Ok(None);
        };
        self.store.write_block(bblock, map).await?;
        chanos_rt::stat_incr("fs.blocks_allocated");
        Ok(Some(self.sb.data_start(g) + idx))
    }

    /// Frees data block `lba`.
    pub async fn free_block(&self, lba: u64) -> Result<(), FsError> {
        let g = self.sb.group_of_block(lba).ok_or(FsError::Invalid)?;
        let idx = lba - self.sb.data_start(g);
        let bblock = self.sb.dbitmap_block(g);
        let mut map = self.read_to_change(bblock).await?;
        bitmap::free(&mut map, idx);
        self.store.write_block(bblock, map).await
    }

    // -- Allocation (whole-volume scan, for the lock engines) ---------------

    /// Allocates an inode, scanning groups starting at `hint`.
    pub async fn alloc_inode(&self, hint: u64, kind: FileKind) -> Result<u64, FsError> {
        for i in 0..self.sb.n_groups {
            let g = (hint + i) % self.sb.n_groups;
            if let Some(ino) = self.alloc_inode_in(g, kind).await? {
                return Ok(ino);
            }
        }
        Err(FsError::NoInodes)
    }

    /// Allocates a data block, scanning groups starting at `hint`.
    pub async fn alloc_block(&self, hint: u64) -> Result<u64, FsError> {
        for i in 0..self.sb.n_groups {
            let g = (hint + i) % self.sb.n_groups;
            if let Some(lba) = self.alloc_block_in(g).await? {
                return Ok(lba);
            }
        }
        Err(FsError::NoSpace)
    }

    // -- Block mapping -------------------------------------------------------

    /// Maps file block `fbn` to its LBA, or 0 if unallocated.
    pub async fn bmap(&self, inode: &Inode, fbn: u64) -> Result<u64, FsError> {
        Ok(self.locate(inode, fbn).await?.0)
    }

    /// Where file block `fbn` is (0: nowhere yet), and, for a block
    /// mapped through the indirect block, that block as it was read
    /// (`None` while the inode has none).
    async fn locate(&self, inode: &Inode, fbn: u64) -> Result<(u64, Option<Block>), FsError> {
        let Some(idx) = (fbn as usize).checked_sub(NDIRECT) else {
            return Ok((inode.direct[fbn as usize], None));
        };
        if idx >= NINDIRECT {
            return Err(FsError::TooBig);
        }
        if inode.indirect == 0 {
            return Ok((0, None));
        }
        let blk = self.store.read_block(inode.indirect).await?;
        let lba = u64::from_le_bytes(blk[idx * 8..idx * 8 + 8].try_into().expect("8 bytes"));
        Ok((lba, Some(blk)))
    }

    /// Points file block `fbn` at `lba`. `indirect` is what
    /// [`Self::locate`] found; without one, an indirect block is
    /// allocated near `hint` and made from zeroes here, and the inode
    /// takes it once its first write has succeeded (a failed one gives
    /// it back). May mutate `inode` (caller persists it).
    async fn map(
        &self,
        inode: &mut Inode,
        fbn: u64,
        lba: u64,
        indirect: Option<Block>,
        hint: u64,
        alloc: &impl Allocator,
    ) -> Result<(), FsError> {
        let Some(idx) = (fbn as usize).checked_sub(NDIRECT) else {
            inode.direct[fbn as usize] = lba;
            return Ok(());
        };
        let (ind, mut blk) = match indirect {
            Some(blk) => (inode.indirect, self.to_change(inode.indirect, &blk).await),
            None => (alloc.alloc_block(self, hint).await?, self.zeroes().await),
        };
        blk[idx * 8..idx * 8 + 8].copy_from_slice(&lba.to_le_bytes());
        if let Err(e) = self.store.write_block(ind, blk).await {
            // A fresh indirect block: the inode never had it.
            if inode.indirect == 0 {
                self.give_back(ind, alloc).await;
            }
            return Err(e);
        }
        inode.indirect = ind;
        Ok(())
    }

    /// Frees a fresh block whose first write failed. Nothing points at
    /// it; the write's error is the one its caller reports.
    async fn give_back(&self, lba: u64, alloc: &impl Allocator) {
        let _ = alloc.free_blocks(self, &[lba]).await;
    }

    /// Maps file block `fbn`, allocating (near group `hint`) if absent,
    /// for a caller that keeps the block's bytes itself and writes them
    /// later: a directory vnode holds a fresh block as zeroes until its
    /// `Flush`. May mutate `inode` (caller persists it).
    pub async fn bmap_alloc(
        &self,
        inode: &mut Inode,
        fbn: u64,
        hint: u64,
        alloc: &impl Allocator,
    ) -> Result<u64, FsError> {
        let (lba, indirect) = self.locate(inode, fbn).await?;
        if lba != 0 {
            return Ok(lba);
        }
        let lba = alloc.alloc_block(self, hint).await?;
        self.map(inode, fbn, lba, indirect, hint, alloc).await?;
        Ok(lba)
    }

    // -- File data ------------------------------------------------------------

    /// Reads up to `len` bytes at `off`; short reads at EOF. Returns
    /// the blocks the range spans, not a copy of its bytes.
    ///
    /// Maps the whole range first, then fetches every mapped block
    /// with one [`BlockStore::read_blocks`] call — the message-passing
    /// cache has every block's read at its shard at once instead of
    /// one after another.
    pub async fn read_file(
        &self,
        inode: &Inode,
        off: u64,
        len: usize,
    ) -> Result<FileSlice, FsError> {
        if off >= inode.size {
            return Ok(FileSlice::default());
        }
        let end = (off + len as u64).min(inode.size);
        // Pass 1: map each touched block (0 marks a hole).
        let mut lbas = Vec::new();
        for fbn in off / BLOCK_SIZE as u64..end.div_ceil(BLOCK_SIZE as u64) {
            lbas.push(self.bmap(inode, fbn).await?);
        }
        // Pass 2: one fetch for every mapped block.
        let mapped: Vec<u64> = lbas.iter().copied().filter(|&l| l != 0).collect();
        let mut fetched = self.store.read_blocks(&mapped).await?.into_iter();
        let blocks = lbas
            .iter()
            .map(|&lba| (lba != 0).then(|| fetched.next().expect("one block per mapped block")))
            .collect();
        Ok(FileSlice {
            blocks,
            start: (off % BLOCK_SIZE as u64) as u32,
            len: (end - off) as u32,
        })
    }

    /// Writes `data` at `off`, growing the file as needed. May mutate
    /// `inode` (caller persists it).
    ///
    /// `data` is the writer's copy of the bytes, paid for by the
    /// writer: a whole block of it becomes the block without another
    /// copy charged — a one-block write's buffer is the block itself,
    /// a longer write's blocks are cut from it. Part of a block is
    /// written into a copy of the block ([`Self::to_change`]), or, for
    /// a block not allocated yet, into zeroes made here (`zeroes`):
    /// never into the bytes a reused block still holds. A fresh block
    /// is mapped once that first write has succeeded, and given back to
    /// the allocator if it failed.
    pub async fn write_file(
        &self,
        inode: &mut Inode,
        off: u64,
        mut data: Vec<u8>,
        hint: u64,
        alloc: &impl Allocator,
    ) -> Result<(), FsError> {
        let end = off + data.len() as u64;
        if end > MAX_FILE_SIZE {
            return Err(FsError::TooBig);
        }
        let mut pos = off;
        let mut src = 0usize;
        while pos < end {
            let fbn = pos / BLOCK_SIZE as u64;
            let in_block = (pos % BLOCK_SIZE as u64) as usize;
            let take = ((BLOCK_SIZE - in_block) as u64).min(end - pos) as usize;
            let (lba, indirect) = self.locate(inode, fbn).await?;
            let block = if take == BLOCK_SIZE && take == data.len() {
                std::mem::take(&mut data)
            } else if take == BLOCK_SIZE {
                data[src..src + take].to_vec()
            } else {
                let mut blk = match lba {
                    0 => self.zeroes().await,
                    lba => self.read_to_change(lba).await?,
                };
                blk[in_block..in_block + take].copy_from_slice(&data[src..src + take]);
                blk
            };
            if lba != 0 {
                self.store.write_block(lba, block).await?;
            } else {
                let lba = alloc.alloc_block(self, hint).await?;
                if let Err(e) = self.store.write_block(lba, block).await {
                    self.give_back(lba, alloc).await;
                    return Err(e);
                }
                self.map(inode, fbn, lba, indirect, hint, alloc).await?;
            }
            pos += take as u64;
            src += take;
        }
        if end > inode.size {
            inode.size = end;
        }
        Ok(())
    }

    /// Frees every data block of the file and zeroes its size. May
    /// mutate `inode` (caller persists it). The blocks go to the
    /// allocator in one [`Allocator::free_blocks`] call, so a block
    /// that cannot be freed does not keep the ones after it allocated;
    /// the first error is what is returned.
    pub async fn truncate(&self, inode: &mut Inode, alloc: &impl Allocator) -> Result<(), FsError> {
        let mut lbas: Vec<u64> = inode.direct.iter().copied().filter(|&d| d != 0).collect();
        let mut out = Ok(());
        if inode.indirect != 0 {
            match self.store.read_block(inode.indirect).await {
                Ok(blk) => lbas.extend(
                    blk.chunks_exact(8)
                        .map(|e| u64::from_le_bytes(e.try_into().expect("8 bytes")))
                        .filter(|&lba| lba != 0),
                ),
                Err(e) => out = Err(e),
            }
            lbas.push(inode.indirect);
        }
        inode.direct = [0; NDIRECT];
        inode.indirect = 0;
        inode.size = 0;
        out.and(alloc.free_blocks(self, &lbas).await)
    }

    // -- Directories -----------------------------------------------------------

    /// Looks `name` up in a directory; returns `(ino, slot_index)`.
    pub async fn dir_lookup(&self, dir: &Inode, name: &str) -> Result<Option<(u64, u64)>, FsError> {
        if dir.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        let data = self.read_file(dir, 0, dir.size as usize).await?;
        for (slot, rec) in (0u64..).zip(dirent_slots(&data)) {
            if let Some(d) = Dirent::decode(rec) {
                if d.name == name {
                    return Ok(Some((d.ino, slot)));
                }
            }
        }
        Ok(None)
    }

    /// Adds `name -> ino`; fails with [`FsError::Exists`] if present.
    /// May mutate `dir` (caller persists it).
    pub async fn dir_add(
        &self,
        dir: &mut Inode,
        name: &str,
        ino: u64,
        hint: u64,
        alloc: &impl Allocator,
    ) -> Result<(), FsError> {
        check_name(name)?;
        if self.dir_lookup(dir, name).await?.is_some() {
            return Err(FsError::Exists);
        }
        let rec = Dirent {
            ino,
            name: name.to_string(),
        }
        .encode();
        // Reuse an empty slot if one exists.
        let data = self.read_file(dir, 0, dir.size as usize).await?;
        let free = (0u64..)
            .zip(dirent_slots(&data))
            .find(|(_, rec)| Dirent::decode(rec).is_none());
        let at = match free {
            Some((slot, _)) => slot * DIRENT_SIZE as u64,
            // Append a new slot.
            None => dir.size,
        };
        self.write_file(dir, at, rec.to_vec(), hint, alloc).await
    }

    /// Removes `name`; returns the inode it referred to. May mutate
    /// `dir` (caller persists it).
    pub async fn dir_remove(
        &self,
        dir: &mut Inode,
        name: &str,
        hint: u64,
        alloc: &impl Allocator,
    ) -> Result<u64, FsError> {
        let Some((ino, slot)) = self.dir_lookup(dir, name).await? else {
            return Err(FsError::NotFound);
        };
        let zero = vec![0u8; DIRENT_SIZE];
        self.write_file(dir, slot * DIRENT_SIZE as u64, zero, hint, alloc)
            .await?;
        Ok(ino)
    }

    /// Lists all live entries, in slot order.
    pub async fn dir_list(&self, dir: &Inode) -> Result<Vec<Dirent>, FsError> {
        if dir.kind != FileKind::Dir {
            return Err(FsError::NotDir);
        }
        let data = self.read_file(dir, 0, dir.size as usize).await?;
        Ok(dirent_slots(&data).filter_map(Dirent::decode).collect())
    }
}

/// A directory's entry slots, read where the blocks are: an entry never
/// straddles two blocks.
pub(crate) fn dirent_slots(data: &FileSlice) -> impl Iterator<Item = &[u8]> {
    data.chunks().flat_map(|c| c.chunks_exact(DIRENT_SIZE))
}

/// Checks that `name` can be stored in a directory entry.
pub(crate) fn check_name(name: &str) -> Result<(), FsError> {
    if name.is_empty() || name.contains('/') {
        return Err(FsError::Invalid);
    }
    if name.len() > MAX_NAME {
        return Err(FsError::NameTooLong);
    }
    Ok(())
}

/// How an engine allocates and frees data blocks.
///
/// The big-lock engine scans inline ([`ScanAllocator`]); the
/// message-passing engine routes to group-server tasks; the sharded
/// engine wraps the scan in per-group mutexes.
pub trait Allocator {
    /// Allocates one block near group `hint`, writing nothing to it:
    /// its first write is the caller's.
    fn alloc_block<S: BlockStore>(
        &self,
        core: &FsCore<S>,
        hint: u64,
    ) -> impl std::future::Future<Output = Result<u64, FsError>>;
    /// Frees blocks: every one of them is tried, and the first error
    /// is what is returned.
    fn free_blocks<S: BlockStore>(
        &self,
        core: &FsCore<S>,
        lbas: &[u64],
    ) -> impl std::future::Future<Output = Result<(), FsError>>;
}

/// The trivial allocator: direct bitmap scans (requires external
/// serialization).
pub struct ScanAllocator;

impl Allocator for ScanAllocator {
    async fn alloc_block<S: BlockStore>(
        &self,
        core: &FsCore<S>,
        hint: u64,
    ) -> Result<u64, FsError> {
        core.alloc_block(hint).await
    }
    async fn free_blocks<S: BlockStore>(
        &self,
        core: &FsCore<S>,
        lbas: &[u64],
    ) -> Result<(), FsError> {
        let mut out = Ok(());
        for &lba in lbas {
            out = out.and(core.free_block(lba).await);
        }
        out
    }
}

/// Splits a path into its components. Empty components are skipped,
/// so `""` and `"/"` have none: they name the root.
pub fn split_path(path: &str) -> Vec<&str> {
    path.split('/').filter(|c| !c.is_empty()).collect()
}

/// Splits a path into (parent components, final name); the root has no
/// final name ([`FsError::Invalid`]).
pub fn split_parent(path: &str) -> Result<(Vec<&str>, &str), FsError> {
    let mut comps = split_path(path);
    let name = comps.pop().ok_or(FsError::Invalid)?;
    Ok((comps, name))
}
