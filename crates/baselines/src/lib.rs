//! Crash-consistency baselines the paper compares PAX against.
//!
//! Each baseline is a [`MemSpace`](libpax::MemSpace) adapter, so the *same
//! unmodified structure code* from `libpax::structures` runs on every
//! mechanism — which is precisely how the comparison stays apples-to-apples:
//!
//! * [`DirectPmSpace`] — stores go straight to PM with no consistency
//!   mechanism ("PM Direct" in Fig. 2b; fast but broken after a crash).
//! * [`WalSpace`] — PMDK-style **synchronous undo-log WAL**: every store
//!   first appends the old value to a persistent log and waits for an
//!   SFENCE before the data write proceeds (§2). Counts the fences and
//!   log traffic the paper blames for PMDK's 2× slowdown.
//! * [`RedoSpace`] — redo-log WAL: stores buffer in the log during a
//!   transaction and are applied at commit (§2's other variant).
//! * [`PageFaultSpace`] — page-protection tracking [12, 15, 20]: the
//!   first store to each page per epoch takes a >1 µs trap and logs the
//!   whole 4 KiB page, reproducing the trap overhead and 64× write
//!   amplification the paper cites (§1).
//! * [`HybridSpace`] — the §5.1 "combining with paging" idea: first touch
//!   per page pays one trap, after which modifications are tracked at
//!   cache-line granularity.
//!
//! The four logging baselines are one crate-private engine under four
//! policies. The engine owns the PM pool, the undo log (PAX's own block
//! format and recovery), the one crash clock, the epoch counter, the
//! costs, the powered-off state, and the commit epilogue (flush the log,
//! drain, write the commit record). A policy says only what a store logs
//! on its first touch, whether reads see a private write buffer, and
//! what a commit adds. [`DirectPmSpace`] shares just the bounds check
//! and the line walk.
//!
//! Every adapter reports a [`CostReport`] of countable events which the
//! bench harness multiplies by [`LatencyProfile`](pax_pm::LatencyProfile)
//! constants — the paper's own estimation methodology. Log bytes are the
//! log lines each log actually wrote (block headers included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod direct;
mod engine;
pub mod hybrid;
pub mod pagefault;
pub mod redo;
pub mod wal;

pub use costs::{CostReport, Costed};
pub use direct::DirectPmSpace;
pub use hybrid::HybridSpace;
pub use pagefault::PageFaultSpace;
pub use redo::RedoSpace;
pub use wal::WalSpace;
