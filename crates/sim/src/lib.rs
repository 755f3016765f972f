//! # chanos-sim — a deterministic many-core machine simulator
//!
//! This crate is the execution substrate for the `chanos` project, a
//! reproduction of Holland & Seltzer, *Multicore OSes: Looking Forward
//! from 1991, er, 2011* (HotOS XIII). The paper argues about machines
//! with hundreds of cores; this simulator provides such machines on a
//! laptop, deterministically.
//!
//! ## Model
//!
//! * **Tasks** are futures — the paper's "lightweight threads".
//! * **Cores** run one task at a time, non-preemptively.
//! * **Virtual time** advances through an event heap; code between
//!   `.await` points is free, and costs are charged explicitly:
//!   [`delay`] burns core cycles, [`sleep`] waits without the core,
//!   and higher layers (channels, locks) charge modeled costs.
//! * **Determinism**: one seed, one trace. [`Simulation::trace_hash`]
//!   lets tests assert bit-identical behaviour.
//!
//! ## Example
//!
//! ```
//! use chanos_sim::{Simulation, delay, spawn};
//!
//! let mut sim = Simulation::new(8);
//! let total = sim
//!     .block_on(async {
//!         let workers: Vec<_> = (0..8)
//!             .map(|i| spawn(async move {
//!                 delay(100).await;
//!                 i
//!             }))
//!             .collect();
//!         let mut sum = 0;
//!         for w in workers {
//!             sum += w.join().await.unwrap();
//!         }
//!         sum
//!     })
//!     .unwrap();
//! assert_eq!(total, 28);
//! ```

mod config;
mod ctx;
mod executor;
mod fut;
mod ids;
mod join;
mod rng;
mod slab;
mod stats;
mod sync;

pub use config::Config;
pub use ctx::{
    block_holding_core, current_core, current_task, current_task_is_high, ext_get, ext_insert,
    in_sim, kill, now, real_cores, schedule_wake_at, spawn, spawn_daemon, spawn_daemon_on,
    spawn_named, spawn_named_high, spawn_named_on, spawn_on, stat_add, stat_get, stat_incr,
    stat_snapshot, system_device_core, task_alive, wake_now, with_rng,
};
pub use executor::{Placer, RunEnd, RunOutcome, Simulation, SpawnInfo};
pub use fut::{delay, migrate, sleep, yield_now, Delay, Migrate, Sleep, YieldNow};
pub use ids::{CoreId, Cycles, TaskId};
pub use join::{Join, JoinError, JoinHandle};
pub use rng::Pcg32;
pub use slab::Slab;
pub use stats::Stats;
pub use sync::plock;
