//! The PAX persistence accelerator.
//!
//! This crate implements the device half of the paper (§3): a
//! cache-coherent accelerator that is the home agent for a pool's vPM
//! range and provides crash-consistent snapshot semantics *asynchronously*
//! — the host CPU never stalls for logging.
//!
//! * [`undo_log`] — the persistent, epoch-tagged undo log with a
//!   monotonically increasing durable watermark (§3.2–3.3).
//! * [`hbm`] — the on-device HBM buffer of modified lines, each tagged
//!   with the log offset whose durability gates its write back; its
//!   eviction policy can prefer already-durable lines (§3.3).
//! * `shard` — the per-lane slice of the device's per-line state (HBM
//!   sets, undo-log bank, write-back queue, metrics); `S`
//!   address-interleaved shards service independent lines without
//!   contending, and no lane-wide lock guards any of it.
//! * [`directory`] — [`OwnershipDirectory`]: the per-lane snoop filter
//!   tracking which lines the host plausibly holds modified, so
//!   `persist()` skips snoops for lines the host already gave up; plus
//!   the contiguous-run batcher of the persist write-back pipeline.
//! * [`device`] — [`PaxDevice`]: routes `RdShared`/`RdOwn`/evictions to
//!   the owning shard, performs undo logging on ownership requests,
//!   coordinates write back, and implements the `persist()` epoch
//!   protocol as a cross-shard barrier with one atomic commit.
//! * [`recovery`] — the §3.4 procedure: roll back every undo entry tagged
//!   with an epoch newer than the pool's committed epoch.
//! * [`tenant`] — [`TenantMap`]: the validated multi-pool layout; one
//!   device hosts `T` tenant contexts, each with its own vPM extent,
//!   epoch counter, header epoch slot, and scheduler weight.
//! * [`sched`] — the virtual-time scheduler: background engines advance
//!   on explicit, budgeted ticks in a fixed shard order, with per-shard
//!   budgets divided across active tenants by weight, so progress is
//!   decoupled from foreground traffic yet crash points stay replayable.
//! * [`metrics`] — event counters consumed by the benchmark harness.
//!
//! The device is the home agent and is driven directly through
//! [`pax_cache::HomeAgent`] calls; the link traffic a run implies is
//! derived from its request counters (the pool's `cxl` telemetry
//! component), not carried through a modelled transport.
//!
//! # Example
//!
//! ```
//! # fn main() -> pax_pm::Result<()> {
//! use pax_cache::{CacheConfig, CoherentCache};
//! use pax_device::{DeviceConfig, PaxDevice};
//! use pax_pm::{CacheLine, LineAddr, PmPool, PoolConfig};
//!
//! let pool = PmPool::create(PoolConfig::small())?;
//! let mut device = PaxDevice::open(pool, DeviceConfig::default())?;
//! let mut cache = CoherentCache::new(CacheConfig::llc_c6420());
//!
//! // Host stores go through the cache; the device undo-logs them.
//! cache.write(LineAddr(0), CacheLine::filled(1), &mut device)?;
//! let epoch = device.persist(&mut cache)?; // crash-consistent snapshot
//! assert_eq!(epoch, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod cell;
pub mod device;
pub mod directory;
pub mod hbm;
pub mod metrics;
pub mod recovery;
pub mod sched;
pub(crate) mod shard;
pub mod tenant;
pub mod undo_log;

pub use device::{DeviceConfig, PaxDevice};
pub use directory::{coalesce_runs, DirectoryConfig, OwnershipDirectory};
pub use hbm::{EvictionPolicy, HbmCache, HbmConfig, HbmLine};
pub use metrics::DeviceMetrics;
pub use recovery::{recover, recover_traced, RecoveryReport};
pub use sched::DeviceScheduler;
pub use tenant::{even_split, TenantId, TenantMap, TenantRegion};
pub use undo_log::{block_header_line, UndoEntry, UndoLog, BLOCK_ENTRIES, BLOCK_LINES};
