//! # chanos-bench — the derived evaluation suite
//!
//! Holland & Seltzer (HotOS XIII 2011) is a position paper with no
//! tables or figures; DESIGN.md §4 derives one experiment per
//! falsifiable claim. This crate regenerates each derived
//! table/figure:
//!
//! ```text
//! cargo run -p chanos-bench --release --bin repro            # all
//! cargo run -p chanos-bench --release --bin repro -- e2 e4   # some
//! cargo run -p chanos-bench --release --bin repro -- --quick # CI-sized
//! ```
//!
//! Each experiment module also carries a `#[test]` asserting the
//! *shape* the paper predicts (who wins, what collapses), so the
//! reproduction claims are themselves CI-checked.

pub mod experiments;
pub mod table;

pub use experiments::{all, Experiment};
pub use table::Table;
