//! # chanos — a message-passing multicore OS, as proposed in 2011
//!
//! A from-scratch reproduction of David A. Holland and Margo I.
//! Seltzer, *Multicore OSes: Looking Forward from 1991, er, 2011*
//! (HotOS XIII, 2011): the lightweight messages-and-channels
//! programming model (§3), an operating system built from it (§4),
//! the shared-memory baselines it argues against (§1), and an
//! evaluation suite derived from its claims (§5, DESIGN.md).
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `chanos-sim` | deterministic many-core simulator |
//! | [`noc`] | `chanos-noc` | interconnect topologies & costs |
//! | [`csp`] | `chanos-csp` | **the paper's model**: channels, `choose!`, spawn |
//! | [`shmem`] | `chanos-shmem` | coherence-priced locks & atomics (baseline) |
//! | [`drivers`] | `chanos-drivers` | device models + single-thread drivers |
//! | [`vfs`] | `chanos-vfs` | vnode-per-thread FS + lock-based engines |
//! | [`kernel`] | `chanos-kernel` | message syscalls, supervision, events |
//! | [`vm`] | `chanos-vm` | VM service granularities + libOS |
//! | [`proto`] | `chanos-proto` | protocol specs, static checking, monitors, deadlock detection |
//! | [`net`] | `chanos-net` | shared-nothing cluster: frames, reliable transport, RPC |
//! | [`parchan`] | `chanos-parchan` | the same model on real OS threads |
//! | [`nr`] | `chanos-nr` | node replication: operation-log replicas, local reads |
//! | [`serve`] | `chanos-serve` | serving layer: KV & file servers, zipf key sampler |
//!
//! ## Quickstart
//!
//! ```
//! use chanos::csp::{channel, Capacity};
//! use chanos::sim::Simulation;
//!
//! let mut machine = Simulation::new(64); // A 64-core machine.
//! let sum = machine
//!     .block_on(async {
//!         let (tx, rx) = channel::<u64>(Capacity::Unbounded);
//!         for i in 0..64 {
//!             let tx = tx.clone();
//!             chanos::sim::spawn_on(chanos::sim::CoreId(i), async move {
//!                 tx.send(u64::from(i)).await.unwrap();
//!             });
//!         }
//!         drop(tx);
//!         let mut sum = 0;
//!         while let Ok(v) = rx.recv().await {
//!             sum += v;
//!         }
//!         sum
//!     })
//!     .unwrap();
//! assert_eq!(sum, (0..64).sum());
//! ```
//!
//! See `examples/` for a booted OS, a supervised nine-nines service,
//! the scaling headline experiment, and the signals-vs-channels demo;
//! see `chanos-bench`'s `repro` binary for the full evaluation.

pub use chanos_csp as csp;
pub use chanos_drivers as drivers;
pub use chanos_kernel as kernel;
pub use chanos_net as net;
pub use chanos_noc as noc;
pub use chanos_nr as nr;
pub use chanos_parchan as parchan;
pub use chanos_proto as proto;
pub use chanos_rt as rt;
pub use chanos_select as select;
pub use chanos_serve as serve;
pub use chanos_shmem as shmem;
pub use chanos_sim as sim;
pub use chanos_vfs as vfs;
pub use chanos_vm as vm;
