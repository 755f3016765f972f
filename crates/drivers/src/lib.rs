//! # chanos-drivers — device models and the single-thread-per-driver
//! architecture
//!
//! §4 of Holland & Seltzer: *"It is also almost certainly desirable to
//! give each device driver its own, single, thread. … This eliminates
//! a fertile source of driver bugs."*
//!
//! This crate provides:
//!
//! * **Device models** — a block device ([`disk`]) with a multi-step
//!   MMIO register protocol, seek/transfer latency, and clobber-on-GO
//!   semantics when programmed concurrently; a NIC ([`nic`]) with
//!   Poisson arrivals and a bounded RX ring; a console ([`tty`]).
//! * **The paper's driver** — [`spawn_disk_driver`]: one task, one
//!   device, requests and interrupts joined by `choose!`; it sorts
//!   its queue and programs a run of nearby reads as one command,
//!   reading through any hole cheaper than a second command.
//! * **Baselines for experiment E5** — [`spawn_locked_disk_driver`]
//!   (multi-threaded, globally locked, correct) and
//!   [`spawn_racy_disk_driver`] (the same code without the lock,
//!   which clobbers commands and mismatches completion tags under
//!   load).

pub mod disk;
pub mod multi;
pub mod nic;
pub mod single;
pub mod tty;

pub use disk::{
    install_disk, DiskClient, DiskError, DiskHw, DiskIrq, DiskOp, DiskParams, DiskReq, BLOCK_SIZE,
};
pub use multi::{
    read_with_timeout, spawn_locked_disk_driver, spawn_racy_disk_driver, write_with_timeout,
};
pub use nic::{install_nic, spawn_nic_driver, NicParams, Packet, TxReq};
pub use single::spawn_disk_driver;
pub use tty::{spawn_tty_driver, TtyClient};
