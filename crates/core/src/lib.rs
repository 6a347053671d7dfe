//! `libpax` — the PAX programming model (§3.1).
//!
//! This crate is the library half of the paper: it maps a pool's vPM range
//! into the "process", wraps it in an allocator, and lets *volatile-style*
//! data-structure code run unmodified against persistent memory with
//! crash-consistent snapshot semantics.
//!
//! # The programming model, as in Listing 1 of the paper
//!
//! ```
//! use libpax::{HwSnapshotter, PaxConfig, Persistent, PHashMap};
//!
//! # fn main() -> libpax::Result<()> {
//! // 1. Map a pool; the region is wrapped in an allocator object.
//! let snap = HwSnapshotter::create(PaxConfig::default())?;
//! // 2. Pass the allocator to an unmodified (volatile-style) structure.
//! let ht: Persistent<PHashMap<u64, u64>> = Persistent::new(&snap)?;
//! // 3. Use it with normal loads and stores.
//! ht.insert(1, 100)?;
//! assert_eq!(ht.get(1)?, Some(100));
//! ht.insert(2, 200)?;
//! // 4. Capture a crash-consistent snapshot.
//! snap.persist()?;
//! # Ok(())
//! # }
//! ```
//!
//! # Architecture
//!
//! * [`space`] — [`MemSpace`]: the byte-addressed memory abstraction the
//!   data structures are written against. [`VolatileSpace`] implements it
//!   over plain memory (the "DRAM" world); [`VPm`] implements it over the
//!   host-cache + PAX-device simulation. *The structure code is identical
//!   in both worlds* — that is the paper's black-box-reuse claim in code.
//! * [`allocator`] — [`PmAllocator`]: the allocator seam the structures
//!   are generic over.
//! * [`balloc`] — [`BitmapAlloc`], the llfree-style allocator whose
//!   metadata (a frame bitmap and per-tree counters) lives inside the
//!   space it manages, so PAX's undo logging covers allocator state like
//!   any other data (§3.4 "recovers the pool's allocator state").
//! * [`pool`] — [`PaxPool`]: wires a [`PmPool`](pax_pm::PmPool) to a
//!   [`PaxDevice`](pax_device::PaxDevice) and a host of per-core caches
//!   ([`SharedComplex`](pax_cache::SharedComplex), one core by default),
//!   exposes `persist()` and crash/reopen for tests.
//! * [`structures`] — volatile-style collections ([`PHashMap`], [`PVec`],
//!   [`PList`]) generic over any [`MemSpace`].
//! * [`snapshotter`] — the Listing 1 façade: [`HwSnapshotter`] +
//!   [`Persistent<T>`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod balloc;
pub mod error;
pub mod pod;
pub mod pool;
pub mod snapshotter;
pub mod space;
pub mod structures;

pub use allocator::PmAllocator;
pub use balloc::{BitmapAlloc, DEFAULT_CORES};
pub use error::PaxError;
pub use pax_pm::PersistencyModel;
pub use pod::Pod;
pub use pool::{PaxConfig, PaxPool, PaxTenant, VPm};
pub use snapshotter::{HwSnapshotter, PStructure, Persistent};
pub use space::{MemSpace, VolatileSpace};
pub use structures::{PBTreeMap, PHashMap, PList, PRing, PVec};

/// Result alias for libpax operations.
pub type Result<T> = std::result::Result<T, PaxError>;
