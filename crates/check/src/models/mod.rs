//! Checked models of the protocols the explorer cannot drive as they
//! ship.
//!
//! parchan's channels, oneshot, reply batch, injector and executor are
//! checked as they ship: `crates/parchan/tests/protocols.rs` and the
//! injector's unit tests run the explorer over the real code, whose
//! atomics, locks and worker threads are this crate's shim under
//! `--features chanos_check`. The modules here replicate — operation
//! for operation, ordering for ordering — the two protocols that
//! cannot be run that way, each under a `// mirrors:` line naming the
//! functions to diff against when either side changes:
//!
//! * [`nr`]: chanos-nr does not take its atomics from the shim.
//! * [`steal`], the work-stealing ring: its mutants are memory-unsafe
//!   on the real ring (a duplicated or uninitialised `Arc<TaskCell>`),
//!   so they would crash the checker instead of reporting.
//!
//! Every model takes a `Mutant` selector. `Mutant::None` is the
//! shipping protocol and must verify exhaustively; the other variants
//! each seed one historically-plausible bug (a reordered publish, a
//! skipped re-check, a CAS weakened to a store) that the checker must
//! catch — they are the proof that the harness would notice a real
//! regression, not just the proof that today's code is right.

pub mod nr;
pub mod steal;
