//! `chanos-check`: an in-tree, dependency-free bounded model checker
//! and facade lint for the chanos lock-free core.
//!
//! The crates this workspace stacks on top of `parchan` all ride on
//! roughly 4k lines of hand-rolled lock-free code: the Vyukov ring
//! and spill path in `chan.rs`, the work-stealing ring in `queue.rs`,
//! the oneshot CAS waker slots, and the executor's Dekker-style
//! spin-then-park.
//! Stress tests *sample* that state space; this crate *enumerates*
//! it (up to a preemption bound) and proves schedule-level protocol
//! properties — no lost wakes, no double resolve, no deadlock, model
//! assertions — reporting every counterexample as a replayable
//! schedule string.
//!
//! Three pieces:
//!
//! * [`sched`] — the explorer: bounded-preemption DFS over
//!   interleavings with DPOR-lite sleep-set pruning.
//! * [`sync`] / [`thread`] — shim types that parchan's `crate::sync`
//!   facade re-exports under `--features chanos_check`, so
//!   `crates/parchan/tests/protocols.rs` and parchan's queue and
//!   injector unit tests check the shipping code, executor and
//!   stealing ring included, and `crates/nr/tests/protocols.rs` the NR
//!   log and combiners, which take the facade as `rt::sync`. Value
//!   slots are [`sync::ValueCell`]s: a bad read panics instead of UB.
//! * `bin/lint` — the workspace source lint (facade bypasses, stat
//!   registry, `SeqCst` invariant comments); run with
//!   `cargo run -p chanos-check --bin lint`.
//!
//! See ARCHITECTURE.md § "Concurrency checking" for how to write a
//! check and replay a schedule.

pub mod sched;
pub mod sync;
pub mod thread;

pub use sched::{Config, Explorer, Failure, FailureKind, Report};
