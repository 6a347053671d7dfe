//! Host-CPU cache hierarchy simulator for the PAX reproduction.
//!
//! The paper's mechanism lives entirely in the coherence traffic between
//! the host CPU's caches and the device that is the *home agent* for vPM
//! addresses. This crate models the host side:
//!
//! * `set` (crate-private) — the one set-associative engine: a set type
//!   that owns tag lookup, LRU stamps and victim choice, and the
//!   single-owner array over it that backs the host caches (L1/L2/LLC
//!   here).
//! * [`concurrent`] — the same sets behind per-set locks plus a
//!   lock-free presence probe, used by the device HBM cache in
//!   `pax-device` so same-lane stores scale across threads.
//! * [`mesi`] — MESI coherence states and their legal transitions.
//! * [`cache`] — the functional, data-carrying coherent cache
//!   ([`CoherentCache`]): it holds real line contents, requests lines from
//!   a [`HomeAgent`] on misses and upgrades, answers snoops, and loses its
//!   dirty lines on crash. This is the component whose behaviour makes
//!   crash consistency hard.
//! * [`complex`] — the host: [`SharedComplex`] keeps one [`CoherentCache`]
//!   per core coherent with core-to-core transfers, for any core count,
//!   and answers the device's persist snoops ([`HostSnoop`]).
//! * [`hierarchy`] — the three-level (L1/L2/LLC) statistics hierarchy used
//!   to measure per-level miss rates exactly as the paper's Fig. 2a
//!   methodology requires.
//! * [`amat`] — composes miss rates with a
//!   [`LatencyProfile`](pax_pm::LatencyProfile) into average memory access
//!   times for DRAM, PM, PM-via-CXL and PM-via-Enzian.
//!
//! # Example
//!
//! ```
//! # fn main() -> pax_pm::Result<()> {
//! use pax_cache::{CoherentCache, CacheConfig, MemoryHome};
//! use pax_pm::{LineAddr, PmMedia};
//!
//! let mut home = MemoryHome::new(PmMedia::new(1 << 20));
//! let mut cache = CoherentCache::new(CacheConfig::llc_c6420());
//! let addr = LineAddr(7);
//! let mut line = cache.read(addr, &mut home)?;
//! line.write_at(0, &42u64.to_le_bytes());
//! cache.write(addr, line, &mut home)?;
//! assert_eq!(cache.read(addr, &mut home)?.read_at(0, 8), &42u64.to_le_bytes());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amat;
pub mod cache;
pub mod complex;
pub mod concurrent;
pub mod hierarchy;
pub mod mesi;
mod set;

pub use amat::{AmatBreakdown, AmatEstimator, MemKind};
pub use cache::{CacheConfig, CacheStats, CoherentCache, HomeAgent, MemoryHome};
pub use complex::{ComplexStats, HostSnoop, SharedComplex};
pub use concurrent::ConcurrentSetAssoc;
pub use hierarchy::{Hierarchy, HierarchyConfig, HierarchyStats, LevelStats};
pub use mesi::MesiState;
