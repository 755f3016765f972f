//! # chanos-parchan — the channels model on real threads
//!
//! The simulator runtime (`chanos-csp`) demonstrates the paper's
//! model at hundreds of cores; this crate is the same programming
//! model on the machine you actually have, so the library is usable
//! outside experiments and so microbenchmark E1 ("a send is
//! comparable in scope to a procedure call") can run on real
//! hardware:
//!
//! * [`Runtime`] — M:N scheduling of lightweight tasks over a
//!   work-stealing OS thread pool (`start { foo(); }`): per-worker
//!   run queues (LIFO slot + FIFO), randomized stealing, and
//!   [`Runtime::spawn_pinned`] for unstealable core placement.
//! * [`channel`] — MPMC channels with rendezvous / bounded /
//!   unbounded send, identical semantics to the simulator's; each
//!   channel is one mutex-guarded queue, and a sender parks only when
//!   its capacity says it may wait.
//! * [`choose!`] — the same macro; arms are cancel-safe here too.
//! * [`after`] — wall-clock timeouts for `choose!`.
//!
//! ## Example
//!
//! ```
//! use chanos_parchan::{channel, Capacity, Runtime};
//!
//! let rt = Runtime::new(4);
//! let (tx, rx) = channel::<u32>(Capacity::Unbounded);
//! let consumer = rt.spawn(async move {
//!     let mut sum = 0;
//!     while let Ok(v) = rx.recv().await {
//!         sum += v;
//!     }
//!     sum
//! });
//! rt.block_on(async move {
//!     for i in 1..=10 {
//!         tx.send(i).await.unwrap();
//!     }
//! });
//! // Dropping the last sender closes the channel.
//! assert_eq!(consumer.join_blocking().unwrap(), 55);
//! rt.shutdown();
//! ```

mod chan;
mod counters;
mod executor;
mod idle;
mod injector;
pub mod oneshot;
mod queue;
pub mod sync;
mod timer;

pub use chan::{
    channel, Capacity, Receiver, RecvError, RecvFut, SendError, SendFut, Sender, TryRecvError,
    TrySendError, WakeBatch,
};
pub use chanos_select::{choose, join2, join_all, race, select_all, Either};
pub use counters::stat_add;
pub use executor::{
    current, current_priority, current_task_key, current_worker, in_runtime, yield_now, Handle,
    JoinHandle, Panicked, Priority, Runtime, Watch, YieldNow,
};
#[doc(hidden)]
pub use timer::timer_heap_len;
pub use timer::{after, Sleep};
