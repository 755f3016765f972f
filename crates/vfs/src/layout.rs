//! The on-disk layout: superblock, cylinder groups, inodes, and
//! directory entries (a simplified FFS).
//!
//! §4 of the paper structures the file system as threads that
//! "administer cylinder groups and free-maps and so forth" — so the
//! layout actually has cylinder groups and free maps. Each group
//! holds an inode bitmap block, a data bitmap block, an inode table,
//! and data blocks. All three concurrency engines operate on this
//! same layout byte-for-byte.
//!
//! ```text
//! block 0          superblock
//! block 1..        cylinder group 0: [ibitmap][dbitmap][itable...][data...]
//!                  cylinder group 1: ...
//! ```

use chanos_drivers::BLOCK_SIZE;

/// Magic number identifying a chanos file system.
pub const FS_MAGIC: u64 = 0x6368_616e_6f73_4653; // "chanosFS"

/// Size of one on-disk inode record.
pub const INODE_SIZE: usize = 128;

/// Number of direct block pointers per inode.
pub const NDIRECT: usize = 12;

/// Block pointers in one indirect block.
pub const NINDIRECT: usize = BLOCK_SIZE / 8;

/// Size of one directory entry record.
pub const DIRENT_SIZE: usize = 64;

/// Longest file name storable in a directory entry.
pub const MAX_NAME: usize = DIRENT_SIZE - 9;

/// Largest file the inode geometry supports, in bytes.
pub const MAX_FILE_SIZE: u64 = ((NDIRECT + NINDIRECT) * BLOCK_SIZE) as u64;

/// Inode number of the root directory.
pub const ROOT_INO: u64 = 0;

/// File type stored in an inode's mode field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

/// The superblock: geometry of the whole volume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Must equal [`FS_MAGIC`].
    pub magic: u64,
    /// Total blocks in the volume.
    pub total_blocks: u64,
    /// Number of cylinder groups.
    pub n_groups: u64,
    /// Inodes per cylinder group.
    pub inodes_per_group: u64,
    /// Total blocks per cylinder group (bitmaps + itable + data).
    pub blocks_per_group: u64,
    /// Data blocks per cylinder group.
    pub data_per_group: u64,
}

impl Superblock {
    /// Computes a geometry for a volume of `total_blocks` blocks split
    /// into `n_groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if the volume is too small for the requested grouping.
    pub fn design(total_blocks: u64, n_groups: u64) -> Superblock {
        assert!(n_groups >= 1);
        let blocks_per_group = (total_blocks - 1) / n_groups;
        let inodes_per_group = (blocks_per_group / 4).clamp(64, 4096);
        let itable_blocks = inode_table_blocks(inodes_per_group);
        let overhead = 2 + itable_blocks; // Bitmaps + inode table.
        assert!(
            blocks_per_group > overhead + 4,
            "volume too small: {blocks_per_group} blocks/group, {overhead} overhead"
        );
        let data_per_group = blocks_per_group - overhead;
        Superblock {
            magic: FS_MAGIC,
            total_blocks,
            n_groups,
            inodes_per_group,
            blocks_per_group,
            data_per_group,
        }
    }

    /// Serializes into a block-sized buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        put_u64(&mut b, 0, self.magic);
        put_u64(&mut b, 8, self.total_blocks);
        put_u64(&mut b, 16, self.n_groups);
        put_u64(&mut b, 24, self.inodes_per_group);
        put_u64(&mut b, 32, self.blocks_per_group);
        put_u64(&mut b, 40, self.data_per_group);
        b
    }

    /// Parses a superblock, validating the magic.
    pub fn decode(b: &[u8]) -> Option<Superblock> {
        if b.len() < 48 || get_u64(b, 0) != FS_MAGIC {
            return None;
        }
        Some(Superblock {
            magic: FS_MAGIC,
            total_blocks: get_u64(b, 8),
            n_groups: get_u64(b, 16),
            inodes_per_group: get_u64(b, 24),
            blocks_per_group: get_u64(b, 32),
            data_per_group: get_u64(b, 40),
        })
    }

    /// First block of cylinder group `g`.
    pub fn group_start(&self, g: u64) -> u64 {
        1 + g * self.blocks_per_group
    }

    /// Block holding group `g`'s inode bitmap.
    pub fn ibitmap_block(&self, g: u64) -> u64 {
        self.group_start(g)
    }

    /// Block holding group `g`'s data bitmap.
    pub fn dbitmap_block(&self, g: u64) -> u64 {
        self.group_start(g) + 1
    }

    /// First block of group `g`'s inode table.
    pub fn itable_start(&self, g: u64) -> u64 {
        self.group_start(g) + 2
    }

    /// Number of blocks in each group's inode table.
    pub fn itable_blocks(&self) -> u64 {
        inode_table_blocks(self.inodes_per_group)
    }

    /// First data block of group `g`.
    pub fn data_start(&self, g: u64) -> u64 {
        self.itable_start(g) + self.itable_blocks()
    }

    /// Total inodes in the volume.
    pub fn total_inodes(&self) -> u64 {
        self.n_groups * self.inodes_per_group
    }

    /// The cylinder group an inode lives in.
    pub fn group_of_ino(&self, ino: u64) -> u64 {
        ino / self.inodes_per_group
    }

    /// The cylinder group where the scan for a new inode starts,
    /// given its kind, its parent directory's group and how many
    /// entries the parent holds (the FFS rule, and the only copy of
    /// it: all three engines ask here). Files stay in their
    /// directory's group, next to its blocks; directories leave their
    /// parent's group and spread over the others, so the trees under
    /// them use every group's allocator, not one.
    pub(crate) fn inode_start_group(
        &self,
        parent_group: u64,
        kind: FileKind,
        parent_entries: u64,
    ) -> u64 {
        match kind {
            FileKind::File => parent_group,
            FileKind::Dir => (parent_group + 1 + parent_entries) % self.n_groups,
        }
    }

    /// (block, byte offset) of an inode record on disk.
    pub fn ino_location(&self, ino: u64) -> (u64, usize) {
        let g = self.group_of_ino(ino);
        let idx = ino % self.inodes_per_group;
        let per_block = (BLOCK_SIZE / INODE_SIZE) as u64;
        let block = self.itable_start(g) + idx / per_block;
        let off = (idx % per_block) as usize * INODE_SIZE;
        (block, off)
    }

    /// The cylinder group a data block belongs to, if any.
    pub fn group_of_block(&self, lba: u64) -> Option<u64> {
        if lba == 0 {
            return None;
        }
        let g = (lba - 1) / self.blocks_per_group;
        if g < self.n_groups {
            Some(g)
        } else {
            None
        }
    }
}

fn inode_table_blocks(inodes_per_group: u64) -> u64 {
    let per_block = (BLOCK_SIZE / INODE_SIZE) as u64;
    inodes_per_group.div_ceil(per_block)
}

/// An in-memory inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// File or directory.
    pub kind: FileKind,
    /// Link count; zero means free.
    pub nlink: u16,
    /// File size in bytes.
    pub size: u64,
    /// Direct block pointers (0 = hole/unallocated).
    pub direct: [u64; NDIRECT],
    /// Single indirect block pointer.
    pub indirect: u64,
}

impl Inode {
    /// A fresh empty inode of the given kind.
    pub fn new(kind: FileKind) -> Inode {
        Inode {
            kind,
            nlink: 1,
            size: 0,
            direct: [0; NDIRECT],
            indirect: 0,
        }
    }

    /// Serializes into [`INODE_SIZE`] bytes.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut b = [0u8; INODE_SIZE];
        b[0] = match self.kind {
            FileKind::File => 1,
            FileKind::Dir => 2,
        };
        b[2..4].copy_from_slice(&self.nlink.to_le_bytes());
        b[8..16].copy_from_slice(&self.size.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            b[16 + i * 8..24 + i * 8].copy_from_slice(&d.to_le_bytes());
        }
        let off = 16 + NDIRECT * 8;
        b[off..off + 8].copy_from_slice(&self.indirect.to_le_bytes());
        b
    }

    /// Parses an inode record; `None` if the slot is free/invalid.
    pub fn decode(b: &[u8]) -> Option<Inode> {
        let kind = match b[0] {
            1 => FileKind::File,
            2 => FileKind::Dir,
            _ => return None,
        };
        let mut direct = [0u64; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = get_u64(b, 16 + i * 8);
        }
        Some(Inode {
            kind,
            nlink: u16::from_le_bytes([b[2], b[3]]),
            size: get_u64(b, 8),
            direct,
            indirect: get_u64(b, 16 + NDIRECT * 8),
        })
    }

    /// Number of blocks this file occupies (by size).
    pub fn nblocks(&self) -> u64 {
        self.size.div_ceil(BLOCK_SIZE as u64)
    }
}

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Inode the name refers to.
    pub ino: u64,
    /// The file name.
    pub name: String,
}

impl Dirent {
    /// Serializes into [`DIRENT_SIZE`] bytes.
    ///
    /// # Panics
    ///
    /// Panics if the name exceeds [`MAX_NAME`] bytes.
    pub fn encode(&self) -> [u8; DIRENT_SIZE] {
        assert!(self.name.len() <= MAX_NAME, "name too long");
        assert!(!self.name.is_empty(), "empty name");
        let mut b = [0u8; DIRENT_SIZE];
        b[0..8].copy_from_slice(&self.ino.to_le_bytes());
        b[8] = self.name.len() as u8;
        b[9..9 + self.name.len()].copy_from_slice(self.name.as_bytes());
        b
    }

    /// Parses a directory entry; `None` if the slot is empty.
    pub fn decode(b: &[u8]) -> Option<Dirent> {
        let len = b[8] as usize;
        if len == 0 || len > MAX_NAME {
            return None;
        }
        let name = String::from_utf8(b[9..9 + len].to_vec()).ok()?;
        Some(Dirent {
            ino: get_u64(b, 0),
            name,
        })
    }
}

/// Bitmap helpers over one block.
pub mod bitmap {
    /// Finds the first clear bit below `limit`, sets it, and returns
    /// its index.
    pub fn alloc(map: &mut [u8], limit: u64) -> Option<u64> {
        for i in 0..limit {
            let (byte, bit) = ((i / 8) as usize, i % 8);
            if map[byte] & (1 << bit) == 0 {
                map[byte] |= 1 << bit;
                return Some(i);
            }
        }
        None
    }

    /// Clears bit `i`.
    pub fn free(map: &mut [u8], i: u64) {
        let (byte, bit) = ((i / 8) as usize, i % 8);
        map[byte] &= !(1 << bit);
    }

    /// Tests bit `i`.
    pub fn get(map: &[u8], i: u64) -> bool {
        let (byte, bit) = ((i / 8) as usize, i % 8);
        map[byte] & (1 << bit) != 0
    }

    /// Sets bit `i`.
    pub fn set(map: &mut [u8], i: u64) {
        let (byte, bit) = ((i / 8) as usize, i % 8);
        map[byte] |= 1 << bit;
    }

    /// Counts set bits below `limit`.
    pub fn count(map: &[u8], limit: u64) -> u64 {
        (0..limit).filter(|&i| get(map, i)).count() as u64
    }
}

fn put_u64(b: &mut [u8], off: usize, v: u64) {
    b[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_roundtrip() {
        let sb = Superblock::design(4096, 8);
        let decoded = Superblock::decode(&sb.encode()).unwrap();
        assert_eq!(sb, decoded);
    }

    #[test]
    fn superblock_rejects_bad_magic() {
        let mut b = Superblock::design(4096, 8).encode();
        b[0] ^= 0xFF;
        assert!(Superblock::decode(&b).is_none());
    }

    #[test]
    fn geometry_is_disjoint_and_in_range() {
        let sb = Superblock::design(4096, 8);
        for g in 0..sb.n_groups {
            assert!(sb.ibitmap_block(g) < sb.dbitmap_block(g));
            assert!(sb.dbitmap_block(g) < sb.itable_start(g));
            assert!(sb.itable_start(g) < sb.data_start(g));
            assert!(
                sb.data_start(g) + sb.data_per_group <= sb.group_start(g) + sb.blocks_per_group
            );
            assert!(sb.group_start(g) + sb.blocks_per_group <= sb.total_blocks);
        }
    }

    #[test]
    fn ino_locations_do_not_collide() {
        let sb = Superblock::design(4096, 4);
        let mut seen = std::collections::HashSet::new();
        for ino in 0..sb.total_inodes().min(512) {
            let loc = sb.ino_location(ino);
            assert!(seen.insert(loc), "collision at ino {ino}: {loc:?}");
            let (block, off) = loc;
            let g = sb.group_of_ino(ino);
            assert!(block >= sb.itable_start(g) && block < sb.data_start(g));
            assert!(off + INODE_SIZE <= chanos_drivers::BLOCK_SIZE);
        }
    }

    #[test]
    fn inode_roundtrip() {
        let mut ino = Inode::new(FileKind::File);
        ino.size = 123_456;
        ino.nlink = 3;
        ino.direct[0] = 77;
        ino.direct[11] = 1234;
        ino.indirect = 4321;
        let decoded = Inode::decode(&ino.encode()).unwrap();
        assert_eq!(ino, decoded);
    }

    #[test]
    fn free_inode_slot_decodes_none() {
        assert!(Inode::decode(&[0u8; INODE_SIZE]).is_none());
    }

    #[test]
    fn dirent_roundtrip() {
        let d = Dirent {
            ino: 42,
            name: "hello.txt".to_string(),
        };
        let decoded = Dirent::decode(&d.encode()).unwrap();
        assert_eq!(d, decoded);
    }

    #[test]
    fn dirent_max_name_roundtrip() {
        let d = Dirent {
            ino: 1,
            name: "x".repeat(MAX_NAME),
        };
        assert_eq!(Dirent::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    #[should_panic(expected = "name too long")]
    fn dirent_overlong_name_panics() {
        Dirent {
            ino: 1,
            name: "x".repeat(MAX_NAME + 1),
        }
        .encode();
    }

    #[test]
    fn bitmap_alloc_free_cycle() {
        let mut map = vec![0u8; 64];
        let a = bitmap::alloc(&mut map, 512).unwrap();
        let b = bitmap::alloc(&mut map, 512).unwrap();
        assert_ne!(a, b);
        assert!(bitmap::get(&map, a));
        bitmap::free(&mut map, a);
        assert!(!bitmap::get(&map, a));
        let c = bitmap::alloc(&mut map, 512).unwrap();
        assert_eq!(c, a, "first-fit should reuse the freed bit");
        assert_eq!(bitmap::count(&map, 512), 2);
    }

    #[test]
    fn bitmap_exhaustion_returns_none() {
        let mut map = vec![0u8; 1];
        for _ in 0..8 {
            assert!(bitmap::alloc(&mut map, 8).is_some());
        }
        assert!(bitmap::alloc(&mut map, 8).is_none());
    }

    #[test]
    fn max_file_size_is_sane() {
        // 12 direct + 512 indirect blocks of 4 KiB.
        assert_eq!(MAX_FILE_SIZE, (12 + 512) * 4096);
    }
}
