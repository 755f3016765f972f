//! Whole-OS assembly: boots the machine with a chosen kernel
//! architecture, file-system engine, and core partition.
//!
//! This is the integration point the examples and experiments use:
//! one call builds disk → driver → file system → kernel → process
//! table inside a simulation.

use chanos_drivers::{install_disk, spawn_disk_driver, DiskClient, DiskParams};
use chanos_rt::CoreId;
use chanos_vfs::{BigLockFs, MsgFs, ShardedFs, Vfs};

use crate::env::{KernelHandle, ProcessTable};
use crate::syscall::{KernelCosts, MsgKernel, TrapKernel};

/// Which kernel architecture to boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// §4's proposal: syscalls are messages to kernel cores.
    Message,
    /// The conventional baseline: syscalls trap on the caller's core.
    Trap,
}

/// Which file-system engine to mount.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    /// Vnode-per-thread message-passing FS (§4).
    Message,
    /// One global lock.
    BigLock,
    /// Per-inode + per-group locks.
    Sharded,
}

/// Boot parameters.
pub struct BootCfg {
    /// Kernel architecture.
    pub kernel: KernelKind,
    /// File-system engine.
    pub fs: FsKind,
    /// Cores reserved for kernel services (per-process kernel tasks, FS
    /// servers, drivers). Must be non-empty for the message kernel.
    pub kernel_cores: Vec<CoreId>,
    /// Kernel cost parameters.
    pub costs: KernelCosts,
}

/// Disk size in blocks.
const DISK_BLOCKS: u64 = 8192;
/// Cylinder groups.
const FS_GROUPS: u64 = 8;
/// Buffer cache size (total blocks, split over shards).
const CACHE_BLOCKS: usize = 512;

impl BootCfg {
    /// A reasonable default configuration over the given kernel
    /// cores.
    pub fn new(kernel: KernelKind, fs: FsKind, kernel_cores: Vec<CoreId>) -> BootCfg {
        BootCfg {
            kernel,
            fs,
            kernel_cores,
            costs: KernelCosts::default(),
        }
    }
}

/// A booted OS: handles to everything a workload needs.
pub struct Os {
    /// Launches processes.
    pub procs: ProcessTable,
    /// The kernel handle (for spawning more process tables).
    pub kernel: KernelHandle,
    /// Direct file-system access (for seeding workloads).
    pub vfs: Vfs,
    /// The raw disk client.
    pub disk: DiskClient,
}

/// Boots the OS inside the current simulation.
///
/// Must be called from a simulated task (e.g. under
/// `Simulation::block_on`).
pub async fn boot(cfg: BootCfg) -> Os {
    assert!(
        !cfg.kernel_cores.is_empty(),
        "need at least one kernel core"
    );
    // Device + driver on the last kernel core.
    let driver_core = *cfg.kernel_cores.last().expect("non-empty");
    let (hw, irq) = install_disk(DISK_BLOCKS, DiskParams::default(), driver_core);
    let disk = spawn_disk_driver(hw, irq, driver_core);

    let shards = cfg.kernel_cores.len().max(1);
    let per_shard = (CACHE_BLOCKS / shards).max(8);
    let vfs = match cfg.fs {
        FsKind::BigLock => Vfs::Big(
            BigLockFs::format(disk.clone(), DISK_BLOCKS, FS_GROUPS, CACHE_BLOCKS)
                .await
                .expect("mkfs biglock"),
        ),
        FsKind::Sharded => Vfs::Sharded(
            ShardedFs::format(disk.clone(), DISK_BLOCKS, FS_GROUPS, shards, per_shard)
                .await
                .expect("mkfs sharded"),
        ),
        FsKind::Message => Vfs::Msg(
            MsgFs::format(
                disk.clone(),
                DISK_BLOCKS,
                FS_GROUPS,
                shards,
                per_shard,
                cfg.kernel_cores.clone(),
            )
            .await
            .expect("mkfs msgfs"),
        ),
    };

    let kernel = match cfg.kernel {
        KernelKind::Message => KernelHandle::Msg(MsgKernel::new(
            vfs.clone(),
            cfg.costs.clone(),
            &cfg.kernel_cores,
        )),
        KernelKind::Trap => KernelHandle::Trap(TrapKernel::new(vfs.clone(), cfg.costs.clone())),
    };

    Os {
        procs: ProcessTable::new(kernel.clone(), &cfg.kernel_cores),
        kernel,
        vfs,
        disk,
    }
}
