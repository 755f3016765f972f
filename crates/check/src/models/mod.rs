//! The one protocol the explorer cannot drive as it ships, as a
//! checked model.
//!
//! Everything else is checked as it ships. parchan's channels,
//! oneshot, reply batch, injector and executor run under the explorer
//! in `crates/parchan/tests/protocols.rs` and the injector's unit
//! tests, and chanos-nr's log, replicas and combiner in
//! `crates/nr/tests/protocols.rs`: their atomics, locks and worker
//! threads are this crate's shim under parchan's `chanos_check`
//! feature.
//!
//! [`steal`], the work-stealing ring, is left because its mutants are
//! memory-unsafe on the real ring: a slot claimed twice or read before
//! it is written is a duplicated or uninitialised `Arc<TaskCell>`, so a
//! seeded bug would crash the checker instead of reporting. (An
//! unpublished NR log slot, by contrast, is a `None` from
//! `OnceLock::get`, and reading it panics; that is why NR needs no
//! copy.) The model replicates the ring operation for operation,
//! ordering for ordering, under a `// mirrors:` line naming the
//! functions to diff against when either side changes.
//!
//! It takes a `Mutant` selector. `Mutant::None` is the shipping
//! protocol and must verify exhaustively; the other variants each seed
//! one historically-plausible bug (a publish before the write, a claim
//! weakened to a store) that the checker must catch — the proof that
//! the harness would notice a real regression, not just the proof that
//! today's code is right.

pub mod steal;
