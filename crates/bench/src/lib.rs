//! # wa-bench — registry-driven workload runner
//!
//! [`registry`] assembles every algorithm crate's workloads into one
//! [`wa_core::Registry`]; [`sweep`] holds the resumable per-cell journal
//! behind `harness sweep --journal/--resume`. The `harness` binary
//! (`src/bin/harness.rs`) drives both. The paper's figures and tables are
//! checked by the registry cells and by unit and integration tests; the
//! README's "Verifying the paper's claims" section maps each artifact to
//! the test or cell that checks it.

pub mod registry;
pub mod sweep;
