//! Simulated persistent-memory substrate for the PAX reproduction.
//!
//! This crate models everything the PAX paper assumes about the memory
//! system below the accelerator:
//!
//! * [`line`](mod@line) — 64-byte cache lines and line-aligned addressing, the
//!   granularity at which every other component (CPU caches, CXL messages,
//!   the PAX undo log) operates.
//! * [`media`] — the persistent medium ([`PmMedia`]), Optane under ADR:
//!   a line it accepts is durable, so what a crash loses is only what
//!   never reached it.
//! * [`pool`] — DAX-style pool files ([`PmPool`]) with a header carrying the
//!   committed epoch number, a persistent undo-log region, and a data region,
//!   mirroring the pool layout `libpax` maps into a process (§3.1 of the
//!   paper).
//! * [`crash`] — deterministic crash injection ([`CrashClock`]) so tests can
//!   cut power between any two simulation steps and exercise recovery.
//! * [`persistency`] — the switchable ordering/durability contract
//!   ([`PersistencyModel`]: strict / epoch / buffered-epoch) the pool,
//!   device, scheduler, and recovery layers all consult.
//! * [`latency`] — latency and bandwidth constants for DRAM, Optane DC PMM,
//!   CXL and Enzian taken from the sources the paper cites (Yang et al.,
//!   FAST '20; CXL 2.0; Cock et al., ASPLOS '22).
//!
//! # Example
//!
//! ```
//! use pax_pm::{PmMedia, LineAddr, CacheLine};
//!
//! # fn main() -> pax_pm::Result<()> {
//! let mut pm = PmMedia::new(1 << 20);
//! let addr = LineAddr::from_byte_addr(0x40);
//! pm.write_line(addr, CacheLine::filled(0xAB))?;
//! pm.crash(); // the medium accepted the write, so it survives
//! assert_eq!(pm.read_line(addr)?.as_bytes()[0], 0xAB);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod error;
pub mod latency;
pub mod line;
pub mod media;
pub mod persistency;
pub mod pool;

pub use crash::{CrashClock, CrashOutcome};
pub use error::PmError;
pub use latency::{BandwidthProfile, LatencyProfile, MediaLatency, Platform};
pub use line::{CacheLine, LineAddr, LINE_SIZE, PAGE_SIZE};
pub use media::{MediaStats, PmMedia};
pub use persistency::PersistencyModel;
pub use pool::{PmPool, PoolConfig, PoolLayout, MAX_TENANTS};

/// Result alias used throughout the PM substrate.
pub type Result<T> = std::result::Result<T, PmError>;
