//! Checked models of the protocols that carry the stack.
//!
//! Each module replicates one parchan protocol — operation for
//! operation, ordering for ordering — against [`crate::sync`] /
//! [`crate::thread`], so the explorer can enumerate its
//! interleavings. The models are deliberate *replicas*, not imports:
//! `chanos-check` is what parchan is checked *by* (its `crate::sync`
//! facade re-exports our shim under `--features chanos_check`), so a
//! dependency in the other direction would be a cycle. The price is
//! that a model can drift from the code it mirrors; the `// mirrors:`
//! line at the top of each module names the exact functions to diff
//! against when either side changes.
//!
//! Every model takes a `Mutant` selector. `Mutant::None` is the
//! shipping protocol and must verify exhaustively; the other variants
//! each seed one historically-plausible bug (a reordered publish, a
//! skipped re-check, a CAS weakened to a store) that the checker must
//! catch — they are the proof that the harness would notice a real
//! regression, not just the proof that today's code is right.

pub mod coalesce;
pub mod nr;
pub mod oneshot;
pub mod parking;
pub mod pinned;
pub mod priority;
pub mod ring;
pub mod steal;
