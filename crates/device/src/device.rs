//! The PAX device proper (§3).
//!
//! [`PaxDevice`] is the home agent for a pool's vPM range. It receives the
//! host's coherence requests (it implements
//! [`HomeAgent`], the synchronous rendition of the
//! CXL.cache H2D channel), performs asynchronous undo logging on ownership
//! requests, buffers and writes back modified lines, and implements the
//! `persist()` epoch protocol and post-crash recovery.
//!
//! All addresses at this interface are **vPM line offsets** (0-based within
//! the pool's data region); the device translates them to pool-absolute
//! lines internally — mirroring how a real PAX owns the physical range it
//! exposes.
//!
//! Internally the per-line state lives in **lanes**: the cross product of
//! `T` tenant pool contexts ([`TenantMap`]) and `S` address-interleaved
//! shards, tenant `t`'s line `addr` landing in lane `t*S + addr % S`. Each
//! lane owns its slice of the HBM buffer, its bank of the undo-log region,
//! its write-back queue, and its own metric registry. Requests route to
//! exactly one lane with no cross-lane coupling, and the epoch is **per
//! tenant** — tenant `t`'s `persist()` is a barrier across `t`'s own `S`
//! lanes only, ending in an atomic commit of `t`'s header epoch slot. One
//! tenant persisting or hammering its log never flushes, stalls, or
//! commits another tenant's in-flight epoch; what tenants share is
//! capacity (HBM, log region) and time (per-shard tick budgets divided by
//! scheduler weight). A single-tenant device (`T = 1`, the [`PaxDevice::open`]
//! default) degenerates to the classic sharded device exactly.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use pax_cache::{HomeAgent, HostSnoop};
use pax_pm::{CacheLine, CrashClock, LineAddr, PersistencyModel, PmError, PmPool, Result};
use pax_telemetry::{MetricSet, MetricSnapshot, TraceBuf, TraceEvent};

use crate::cell::{lock, try_lock, PoolCell, TraceCell};
use crate::directory::{coalesce_runs, DirectoryConfig};
use crate::hbm::{HbmConfig, HbmLine};
use crate::metrics::{DeviceCounters, DeviceMetrics};
use crate::recovery::{recover_traced, RecoveryReport};
use crate::sched::{persist_drain_budget, tick_budgets, DeviceScheduler};
use crate::shard::{split_log_region, tick, Lane};
use crate::tenant::{TenantId, TenantMap, TenantRegion};

/// Component name stamped on the device's metrics and trace records.
const COMPONENT: &str = "device";

/// Consecutive skipped non-blocking polls of one tenant's drain after
/// which [`PaxDevice::background`]'s poll falls back to a patient
/// (bounded-spin) acquisition of the ctl lock, so a store-heavy thread
/// mix cannot starve an async persist indefinitely.
const POLL_SKIP_LIMIT: u64 = 64;

/// Tuning knobs for a [`PaxDevice`].
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// HBM buffer geometry and eviction policy (split evenly across
    /// lanes).
    pub hbm: HbmConfig,
    /// Undo-log entries drained per pump — the background rate of each
    /// lane's asynchronous logging engine.
    pub log_pump_batch: usize,
    /// Pump once every this many host requests (1 = every request).
    /// Larger intervals model a logging engine that lags bursts, which is
    /// when the HBM eviction policy starts to matter (§3.3).
    pub log_pump_interval: usize,
    /// Dirty-durable lines written back per host request (§3.3's
    /// proactive write back); 0 disables background write back.
    pub writeback_batch: usize,
    /// Most recent trace events retained by the device's [`TraceBuf`]
    /// (0 disables tracing entirely).
    pub trace_capacity: usize,
    /// Address-interleaved shards each tenant's per-line state is split
    /// into. 1 = the unsharded device.
    pub shards: usize,
    /// Whether persist-time snoops are filtered through the per-lane
    /// ownership directory ([`crate::OwnershipDirectory`]). Enabled by
    /// default; [`DirectoryConfig::disabled`] restores always-snoop for
    /// ablation.
    pub directory: DirectoryConfig,
    /// Maximum lines per coalesced persist write-back batch: persist
    /// write-backs contiguous in lane-local address space share one
    /// durable-write step, up to this many. 1 = the unbatched pipeline.
    pub persist_wb_batch: usize,
    /// The ordering/durability contract the device enforces
    /// ([`PersistencyModel`]): strict (every store its own durable
    /// epoch), epoch (the synchronous-barrier default), or
    /// buffered-epoch (up to K closed epochs drain asynchronously,
    /// retired in order).
    pub persistency: PersistencyModel,
}

impl DeviceConfig {
    /// Returns the config with a different HBM configuration.
    pub fn with_hbm(mut self, hbm: HbmConfig) -> Self {
        self.hbm = hbm;
        self
    }

    /// Returns the config with a different log pump batch.
    pub fn with_log_pump_batch(mut self, n: usize) -> Self {
        self.log_pump_batch = n;
        self
    }

    /// Returns the config with a different log pump interval. A zero
    /// interval is rejected by [`DeviceConfig::validate`] when the device
    /// opens.
    pub fn with_log_pump_interval(mut self, n: usize) -> Self {
        self.log_pump_interval = n;
        self
    }

    /// Returns the config with a different background write-back batch.
    pub fn with_writeback_batch(mut self, n: usize) -> Self {
        self.writeback_batch = n;
        self
    }

    /// Returns the config with a different trace-buffer capacity
    /// (0 disables tracing).
    pub fn with_trace_capacity(mut self, n: usize) -> Self {
        self.trace_capacity = n;
        self
    }

    /// Returns the config with a different shard count. A zero count is
    /// rejected by [`DeviceConfig::validate`] when the device opens.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Returns the config with a different snoop-filter mode.
    pub fn with_directory(mut self, directory: DirectoryConfig) -> Self {
        self.directory = directory;
        self
    }

    /// Returns the config with a different persist write-back batch cap.
    /// A zero cap is rejected by [`DeviceConfig::validate`] when the
    /// device opens.
    pub fn with_persist_wb_batch(mut self, n: usize) -> Self {
        self.persist_wb_batch = n;
        self
    }

    /// Returns the config with a different persistency model. An invalid
    /// model (buffered depth 0) is rejected by
    /// [`DeviceConfig::validate`] when the device opens.
    pub fn with_persistency(mut self, model: PersistencyModel) -> Self {
        self.persistency = model;
        self
    }

    /// Checks the config against a device hosting one pool context per
    /// entry of `regions`. Run by [`PaxDevice::open_multi`] before any
    /// state is built, so a bad geometry is a typed error, not a panic
    /// deep in construction.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Config`] when the shard count, pump interval,
    /// or persist write-back batch is zero, a tenant's HBM share is zero,
    /// the persistency model is invalid (buffered depth 0), or the HBM
    /// cannot give each of the `shards × tenants` lanes at least one full
    /// associativity set.
    pub fn validate(&self, regions: &[TenantRegion]) -> Result<()> {
        if self.shards == 0 {
            return Err(PmError::Config("shard count must be at least 1".into()));
        }
        if self.log_pump_interval == 0 {
            return Err(PmError::Config("log pump interval must be at least 1".into()));
        }
        if self.persist_wb_batch == 0 {
            return Err(PmError::Config("persist write-back batch must be at least 1".into()));
        }
        self.persistency.validate().map_err(PmError::Config)?;
        for (t, r) in regions.iter().enumerate() {
            if r.hbm_share == 0 {
                return Err(PmError::Config(format!("tenant {t} has zero HBM share")));
            }
        }
        let lanes = self.shards * regions.len().max(1);
        let set_bytes = self.hbm.ways * pax_pm::LINE_SIZE;
        if set_bytes == 0 || self.hbm.capacity_bytes / lanes < set_bytes {
            return Err(PmError::Config(format!(
                "HBM capacity of {} B cannot give each of {lanes} lanes \
                 (shards x tenants) one {}-way set",
                self.hbm.capacity_bytes, self.hbm.ways
            )));
        }
        Ok(())
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            hbm: HbmConfig::default_config(),
            log_pump_batch: 2,
            log_pump_interval: 1,
            writeback_batch: 1,
            trace_capacity: 1024,
            shards: 1,
            directory: DirectoryConfig::enabled(),
            persist_wb_batch: 8,
            persistency: PersistencyModel::Epoch,
        }
    }
}

/// Which persist flavour a [`PaxDevice::sweep_lane`] gather serves. The
/// three flavours share the whole log-order iteration and differ only in
/// snoop opcode and HBM housekeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepMode {
    /// `SnpData` downgrade; the caller writes gathered lines back
    /// immediately (synchronous barrier).
    Snoop,
    /// `SnpInv` full eviction — the §4 CLWB ablation baseline.
    Clwb,
    /// `SnpData` downgrade capturing values for a deferred drain
    /// (non-blocking / buffered-epoch close): dirty HBM copies are
    /// marked clean at capture time, because their write back happens
    /// later from the drain queue.
    Capture,
}

/// In-flight state of one tenant's non-blocking persist (§6 "make
/// persist() fully non-blocking, so that epochs overlap").
#[derive(Debug)]
struct DrainState {
    /// The epoch being made durable.
    epoch: u64,
    /// Lines still to be written to PM, in (lane, log-offset) order.
    queue: VecDeque<LineAddr>,
    /// The epoch-final value of each queued line. Also consulted by
    /// `resolve`, because these values are newer than PM until written.
    values: HashMap<LineAddr, CacheLine>,
    /// Per-lane log offset (exclusive) over the tenant's `S` lanes in
    /// phase order that must be durable before writes proceed — the
    /// epoch's slots, which commit frees.
    flush_to: Vec<u64>,
    /// Lines logged in the draining epoch (for the commit trace event).
    entries: u64,
}

/// The PAX persistence accelerator (see module docs).
///
/// # Concurrency
///
/// Every public method takes `&self`: the device is `Send + Sync`, and N
/// OS threads may issue stores concurrently (one tenant/core per thread;
/// see DESIGN.md §11). The lock order is
/// **ctl (`draining[t]`) → host core → wb-gate → HBM set / directory
/// stripe / epoch-log stripe → pool → trace**
/// (DESIGN.md §15). Persist paths hold their tenant's ctl lock for their
/// whole duration; hot paths only ever `try_lock` it (a contended ctl
/// implies a concurrent persist, and non-blocking `DrainState`s exist
/// only in single-driver mode, so skipping is correct there — the
/// bounded-spin starvation fallback in `poll_one_tenant` likewise never
/// blocks on ctl, because `SharedComplex::write` reaches this code while
/// holding a host core lock and a hard `lock()` would invert ctl →
/// core). Hot paths never hold a wb-gate or HBM set lock across a call
/// that acquires a host core. Epoch counters and the per-lane durable
/// log watermarks are atomics, read lock-free.
///
/// **Lanes have no lane-wide mutex.** Each lane's state — the
/// concurrent HBM set index, the striped epoch-log map, the write-back
/// queue, the striped ownership directory, the atomic counter registry,
/// and the lock-free undo bank ([`crate::UndoLog`]) — is reached through
/// `&Lane`, so `RdShared` / `RdOwn` / eviction service and the persist
/// sweep on the *same lane* proceed concurrently. Undo appends reserve a
/// slot with a CAS on the bank's packed tail word (no lock at all), and
/// the pump/flush media handoff takes **pool only**. Write-back *drains*
/// serialize on the per-lane `WbGate`. Epoch
/// commit — which takes ctl, flushes every lane of the tenant, and
/// writes the header slot — is the only cross-shard rendezvous; crash is
/// stop-the-world by construction (it consumes the device).
#[derive(Debug)]
pub struct PaxDevice {
    /// The PM media behind its single global lock; engines lock it only
    /// around actual durable-write steps (HBM hits and undo-bank appends
    /// never touch it).
    pool: PoolCell,
    clock: CrashClock,
    config: DeviceConfig,
    /// The validated tenant layout; [`PaxDevice::open`] installs a single
    /// tenant spanning the whole data region.
    tenants: TenantMap,
    /// Physical interleave `S`: tenant `t`'s line `addr` lives in lane
    /// `t*S + addr % S`.
    stride: usize,
    /// The per-line state, one [`Lane`] per (tenant, shard) pair (`T*S`
    /// total, tenant-major).
    lanes: Vec<Lane>,
    /// Per tenant: depth of its non-blocking drain queue, mirrored out
    /// of `draining` so hot paths can skip the ctl `try_lock` entirely
    /// in the common nothing-draining case. Updated under ctl.
    drain_depth: Vec<AtomicUsize>,
    /// Per tenant: the epoch currently being built (= that tenant's
    /// committed epoch + 1). Written only under that tenant's ctl lock;
    /// hot paths read it lock-free.
    epochs: Vec<AtomicU64>,
    /// Per tenant: the persist control (ctl) lock, guarding the queue of
    /// epochs still being made durable (non-blocking and buffered-epoch
    /// persists), oldest first — retirement is strictly in order. Depth
    /// is bounded by [`PersistencyModel::max_open_epochs`] (1 under
    /// strict/epoch, K under buffered-epoch). Top of the lock order.
    draining: Vec<Mutex<VecDeque<DrainState>>>,
    /// Per tenant: consecutive `persist_poll_try` passes that found the
    /// ctl lock contended and skipped the tenant. At
    /// [`POLL_SKIP_LIMIT`] the poll escalates to a bounded
    /// spin (see `poll_one_tenant`) so an async drain cannot be starved by
    /// hot-path ctl traffic. Relaxed ordering: a pure heuristic counter,
    /// it guards no data.
    poll_skips: Vec<AtomicU64>,
    /// Virtual-time run-queue state: per-lane pump credits, the
    /// round-robin idle-service cursor, and the tick counter.
    sched: DeviceScheduler,
    /// Device-level counter registry: scheduler events that belong to no
    /// single lane. Lane registries merge into it in every snapshot.
    metrics: MetricSet,
    /// Counter handles into `metrics`.
    ctr: DeviceCounters,
    /// Bounded structured event trace (crash forensics, replay tests).
    trace: TraceCell,
    /// Recovery performed when the device was opened.
    recovery: RecoveryReport,
}

impl PaxDevice {
    /// Opens a single-tenant device over `pool`, running §3.4 recovery
    /// first: any undo entries newer than the pool's committed epoch are
    /// rolled back, so the application always observes the last persisted
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Config`] from [`DeviceConfig::validate`] and
    /// media errors from the recovery scan/rollback.
    pub fn open(pool: PmPool, config: DeviceConfig) -> Result<Self> {
        let data_lines = pool.layout().data_lines;
        Self::open_multi(pool, config, vec![TenantRegion::new(0, data_lines)])
    }

    /// Opens a device exposing one pool context per entry of `regions`:
    /// tenant `t` owns `regions[t]`'s vPM extent, epoch counter, header
    /// epoch slot, and recovery state. Recovery runs first and rolls each
    /// tenant back against its *own* committed epoch, even though all
    /// tenants' undo entries interleave in the shared log region.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Config`] for an invalid device geometry or
    /// tenant layout (overlapping, zero-length, or out-of-bounds regions),
    /// and media errors from recovery.
    pub fn open_multi(
        mut pool: PmPool,
        config: DeviceConfig,
        regions: Vec<TenantRegion>,
    ) -> Result<Self> {
        config.validate(&regions)?;
        let tenants = TenantMap::new(regions, pool.layout().data_lines)?;
        let t = tenants.len();
        let mut trace = TraceBuf::new(config.trace_capacity);
        let recovery = recover_traced(&mut pool, &mut trace)?;
        let epochs =
            (0..t).map(|i| Ok(pool.committed_epoch_for(i)? + 1)).collect::<Result<Vec<u64>>>()?;
        let banks = split_log_region(&pool, config.shards * t);
        if banks.is_empty() {
            return Err(PmError::Config(format!(
                "log region of {} lines holds no {}-line undo-log block",
                pool.layout().log_lines,
                crate::BLOCK_LINES
            )));
        }
        if !banks.len().is_multiple_of(t) {
            return Err(PmError::Config(format!(
                "log region holds only {} banks, not divisible across {t} tenants",
                banks.len()
            )));
        }
        let stride = banks.len() / t;
        // Slice the HBM across tenants by share (then evenly across each
        // tenant's shards); each lane is still floored at one full set
        // inside `Lane::new`, so small shares bound, never zero.
        let total_shares = tenants.total_hbm_shares().max(1);
        let lanes: Vec<Lane> = banks
            .iter()
            .enumerate()
            .map(|(i, &(base, cap))| {
                let tenant = i / stride;
                let share = tenants.hbm_share(tenant) as u64;
                let slice = (config.hbm.capacity_bytes as u64 * share
                    / total_shares
                    / stride as u64) as usize;
                Lane::new(i, tenant, stride, config.hbm.with_capacity_bytes(slice), base, cap)
            })
            .collect();
        let mut metrics = MetricSet::new(COMPONENT);
        let ctr = DeviceCounters::register(&mut metrics);
        // The shard and tenant counts are telemetry dimensions: reports
        // can tell a partitioned device's numbers apart without
        // out-of-band context.
        let shards_gauge = metrics.counter("shards");
        metrics.add(shards_gauge, stride as u64);
        let tenants_gauge = metrics.counter("tenants");
        metrics.add(tenants_gauge, t as u64);
        // So is the persistency model: a report's persist counts mean
        // different things under different ordering contracts.
        for (name, value) in [
            ("persistency_model", config.persistency.code()),
            ("persistency_depth", config.persistency.max_open_epochs() as u64),
        ] {
            let gauge = metrics.counter(name);
            metrics.add(gauge, value);
        }
        Ok(PaxDevice {
            pool: PoolCell::new(pool),
            clock: CrashClock::new(),
            config,
            tenants,
            stride,
            sched: DeviceScheduler::new(lanes.len()),
            lanes,
            drain_depth: (0..t).map(|_| AtomicUsize::new(0)).collect(),
            epochs: epochs.into_iter().map(AtomicU64::new).collect(),
            draining: (0..t).map(|_| Mutex::new(VecDeque::new())).collect(),
            poll_skips: (0..t).map(|_| AtomicU64::new(0)).collect(),
            metrics,
            ctr,
            trace: TraceCell::new(trace),
            recovery,
        })
    }

    /// The recovery report from when this device was opened.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// The epoch currently being built (tenant 0's on a multi-tenant
    /// device; see [`PaxDevice::current_epoch_for`]).
    pub fn current_epoch(&self) -> u64 {
        self.epochs[0].load(Ordering::Acquire)
    }

    /// The epoch tenant `t` is currently building.
    pub fn current_epoch_for(&self, t: TenantId) -> u64 {
        self.epochs[t].load(Ordering::Acquire)
    }

    /// The committed (recovery-point) epoch (tenant 0's).
    pub fn committed_epoch(&self) -> Result<u64> {
        self.pool.lock().committed_epoch()
    }

    /// Tenant `t`'s committed (recovery-point) epoch.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Config`] for an out-of-range tenant and media
    /// errors.
    pub fn committed_epoch_for(&self, t: TenantId) -> Result<u64> {
        self.pool.lock().committed_epoch_for(t)
    }

    /// Physical shards each tenant's per-line state is interleaved
    /// across.
    pub fn shard_count(&self) -> usize {
        self.stride
    }

    /// Pool contexts this device hosts.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The validated tenant layout.
    pub fn tenants(&self) -> &TenantMap {
        &self.tenants
    }

    /// The tenant owning vPM line `addr`, if any region contains it.
    pub fn tenant_of(&self, addr: LineAddr) -> Option<TenantId> {
        self.tenants.tenant_of(addr)
    }

    /// The ordering/durability contract the device was opened with.
    pub fn persistency(&self) -> PersistencyModel {
        self.config.persistency
    }

    /// Cumulative event counters: the field-wise sum of every lane's
    /// typed view plus the device-level (scheduler) counters.
    pub fn metrics(&self) -> DeviceMetrics {
        self.lanes
            .iter()
            .map(Lane::view_metrics)
            .fold(self.ctr.view(&self.metrics), |acc, m| acc + m)
    }

    /// Snapshot of the device's metric registry, with every lane's
    /// registry merged in (counter-wise sums under one `device`
    /// component). A sharded device additionally rolls each physical
    /// shard up under a `shard{s}/` label, and a multi-tenant device each
    /// tenant under `tenant{t}/` — both rollups conserve: the labeled
    /// counters sum to the plain totals.
    pub fn metric_snapshot(&self) -> MetricSnapshot {
        let lanes: Vec<MetricSnapshot> = self.lanes.iter().map(Lane::snapshot).collect();
        let mut snap = lanes.iter().fold(self.metrics.snapshot(), |acc, s| acc.merge(s));
        if self.stride > 1 {
            for (i, lane) in lanes.iter().enumerate() {
                snap = snap.merge_labeled(&format!("shard{}", i % self.stride), lane);
            }
        }
        if self.tenants.len() > 1 {
            for (i, lane) in lanes.iter().enumerate() {
                snap = snap.merge_labeled(&format!("tenant{}", i / self.stride), lane);
            }
        }
        snap
    }

    /// The trace serialized as JSON lines (oldest first).
    pub fn trace_dump(&self) -> String {
        self.trace.lock().dump_json_lines()
    }

    /// Undo-log entries appended in the current epoch (all lanes).
    pub fn epoch_log_len(&self) -> usize {
        self.lanes.iter().map(|h| h.epoch_log.len()).sum()
    }

    /// Undo-log entries tenant `t` appended in its current epoch.
    pub fn epoch_log_len_for(&self, t: TenantId) -> usize {
        self.tenant_lanes(t).map(|l| self.lanes[l].epoch_log.len()).sum()
    }

    /// Total entries drained durably across all lane log banks.
    pub fn log_durable_offset(&self) -> u64 {
        self.lanes.iter().map(|h| h.log.durable_offset()).sum()
    }

    /// Undo-log entries tenant `t` has appended but not yet drained
    /// durably — the backlog the scheduler's weighted budgets work off.
    pub fn log_pending_for(&self, t: TenantId) -> usize {
        self.tenant_lanes(t).map(|l| self.lanes[l].log.pending_len()).sum()
    }

    /// A handle to the crash clock shared with this device; arm it to cut
    /// power at an exact durable-write step.
    pub fn crash_clock(&self) -> CrashClock {
        self.clock.clone()
    }

    /// HBM read hit rate so far (aggregated over lanes) — pure atomic
    /// reads, no lock taken.
    pub fn hbm_hit_rate(&self) -> f64 {
        let (mut hits, mut misses) = (0u64, 0u64);
        for h in &self.lanes {
            hits += h.hbm.hits();
            misses += h.hbm.misses();
        }
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Snapshot of the media's counter registry (reads, writes, drains)
    /// for the benchmark stack's cross-layer report.
    pub fn media_metrics(&self) -> MetricSnapshot {
        self.pool.lock().media_metrics()
    }

    /// Simulates device power loss and returns the pool in its
    /// post-crash durable state, consuming the device. Volatile device
    /// state (HBM, pending log appends, epoch tracking) is lost.
    pub fn crash_into_pool(self) -> PmPool {
        self.crash_into_parts().0
    }

    /// Like [`PaxDevice::crash_into_pool`], but also hands back the
    /// trace (with the injected [`TraceEvent::Crash`] appended) and the
    /// final metric snapshot — forensic state a real crash would leave in
    /// the debugger, which the pool layer stashes for post-mortems.
    pub fn crash_into_parts(self) -> (PmPool, TraceBuf, MetricSnapshot) {
        self.trace
            .record(COMPONENT, TraceEvent::Crash { epoch: self.epochs[0].load(Ordering::Acquire) });
        for lane in &self.lanes {
            lane.crash();
        }
        for d in &self.draining {
            lock(d).clear();
        }
        for d in &self.drain_depth {
            d.store(0, Ordering::Release);
        }
        self.pool.lock().crash();
        let snapshot = self.metric_snapshot();
        (self.pool.into_inner(), self.trace.into_inner(), snapshot)
    }

    /// Saves the pool's durable state to `path` (see
    /// [`PmPool::save`]); non-durable writes are excluded, so the file
    /// models what a reboot would find.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        self.pool.lock().save(path)
    }

    /// Gracefully detaches, returning the pool *without* simulating a
    /// crash (durable state only; equivalent to crash for PAX since
    /// consistency never depends on a clean shutdown).
    pub fn into_pool(self) -> PmPool {
        self.pool.into_inner()
    }

    /// The lanes belonging to tenant `t`, in phase order.
    fn tenant_lanes(&self, t: TenantId) -> std::ops::Range<usize> {
        t * self.stride..(t + 1) * self.stride
    }

    /// The lane owning `addr`: its tenant's slice, interleaved by plain
    /// modulo.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] when no tenant region contains
    /// `addr`.
    fn lane_of(&self, addr: LineAddr) -> Result<usize> {
        match self.tenants.tenant_of(addr) {
            Some(t) => Ok(t * self.stride + addr.0 as usize % self.stride),
            None => Err(PmError::OutOfBounds {
                addr,
                capacity_lines: self.pool.lock().layout().data_lines,
            }),
        }
    }

    /// The device's view of the current contents of the vPM line at
    /// `addr` (owned by `lane`): the lane's HBM first, then the owning
    /// tenant's draining-epoch captured value (the *newest* queued epoch
    /// holding one, since later epochs supersede earlier), then PM.
    ///
    /// Hot path: the ctl lock is skipped outright while the tenant's
    /// drain queue is empty (the atomic depth mirror), and only *tried*
    /// otherwise — a contended ctl means a concurrent persist, and drain
    /// states exist only in single-driver mode, so there is no captured
    /// value to miss.
    fn resolve(&self, lane: usize, addr: LineAddr) -> Result<CacheLine> {
        let t = lane / self.stride;
        let drain_value = if self.drain_depth[t].load(Ordering::Acquire) == 0 {
            None
        } else {
            try_lock(&self.draining[t])
                .and_then(|g| g.iter().rev().find_map(|d| d.values.get(&addr)).cloned())
        };
        self.lanes[lane].resolve(&self.pool, &self.clock, &self.trace, drain_value, addr)
    }

    /// One background step on the lane a request routed to: advance any
    /// draining persist, then let that lane's free-running engines pump
    /// the log and write back. Each lane earns pump credit from its *own*
    /// traffic (a skewed workload cannot eat another lane's budget), and
    /// every pump donates one round-robin step to a different lane with
    /// pending work — so a lane without traffic still drains instead of
    /// starving until the next `persist()`.
    fn background(&self, lane: usize) -> Result<()> {
        if !self.sched.charge(lane, self.config.log_pump_interval) {
            return Ok(());
        }
        self.persist_poll_try()?;
        self.lane_background(lane, self.config.log_pump_batch, self.config.writeback_batch)?;
        // The donated idle-lane step runs at unit rate, gated on the same
        // knobs (a device with pumping disabled stays fully quiescent).
        let idle_log = self.config.log_pump_batch.min(1);
        let idle_wb = self.config.writeback_batch.min(1);
        if self.lanes.len() > 1 && idle_log + idle_wb > 0 {
            let idle =
                self.sched.next_idle(self.lanes.len(), lane, |s| self.lane_has_background_work(s));
            if let Some(s) = idle {
                let before = self.clock.steps_taken();
                self.lane_background(s, idle_log, idle_wb)?;
                self.metrics.add(self.ctr.sched_idle_steps, self.clock.steps_taken() - before);
            }
        }
        Ok(())
    }

    /// One lane's background step: pump up to `log_batch` undo entries to
    /// media, then run the lane's write-back engine for `wb_batch` lines
    /// (see [`Lane::background`]).
    fn lane_background(&self, lane: usize, log_batch: usize, wb_batch: usize) -> Result<()> {
        self.lanes[lane].background(&self.pool, &self.clock, &self.trace, log_batch, wb_batch)
    }

    /// Advances the device's free-running engines by `n` **virtual
    /// ticks**, fully decoupled from foreground traffic: each tick first
    /// moves any draining non-blocking persist along (a fixed budget of
    /// write-back batches per tick), then runs every lane's
    /// log-drain and write-back engines, in lane-index order. Within each
    /// physical shard the tick budgets are divided across the tenants
    /// that have pending work by their scheduler weight, floored at one
    /// unit — a log-hammering tenant gets a proportional share, never the
    /// whole shard, and a light tenant always makes progress.
    ///
    /// Determinism contract: ticks are the device's only time source, so
    /// the same request sequence interleaved with the same tick schedule
    /// performs the identical sequence of durable-write steps — an armed
    /// [`CrashClock`] cuts power at the identical machine state on every
    /// replay.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] when the crash clock fires mid-tick,
    /// and media errors.
    pub fn tick(&self, n: u64) -> Result<u64> {
        let mut total = 0u64;
        for _ in 0..n {
            let before = self.clock.steps_taken();
            self.persist_poll()?;
            for s in 0..self.stride {
                let active: Vec<usize> = (0..self.tenants.len())
                    .map(|t| t * self.stride + s)
                    .filter(|&l| self.lane_has_background_work(l))
                    .collect();
                let active_weight: u64 =
                    active.iter().map(|&l| self.tenants.weight(l / self.stride) as u64).sum();
                for &l in &active {
                    let w = self.tenants.weight(l / self.stride) as u64;
                    let (log_budget, wb_budget) = tick_budgets(w, active_weight);
                    self.lane_background(l, log_budget, wb_budget)?;
                }
            }
            let now = self.sched.advance();
            self.metrics.inc(self.ctr.sched_ticks);
            let work = self.clock.steps_taken() - before;
            if work > 0 {
                self.trace.record(COMPONENT, TraceEvent::Tick { tick: now, work });
            }
            total += work;
        }
        Ok(total)
    }

    /// Virtual ticks the scheduler has executed ([`PaxDevice::tick`]).
    pub fn ticks_elapsed(&self) -> u64 {
        self.sched.ticks()
    }

    /// Whether lane `l` has background work pending (a whole undo-log
    /// block to drain, or queued write-backs). A partly filled block is
    /// not background work: only a persist or a forced drain writes it.
    fn lane_has_background_work(&self, l: usize) -> bool {
        !self.lanes[l].writeback_queue.is_empty() || self.lanes[l].log.has_whole_block()
    }

    /// Ends every tenant's current epoch in tenant order and returns
    /// tenant 0's committed epoch number — the single-tenant (and legacy)
    /// `persist()`. Multi-tenant callers wanting an independent barrier
    /// use [`PaxDevice::persist_tenant`].
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] when the crash clock fires mid-epoch
    /// — recovery will roll the epoch back — and media errors.
    pub fn persist(&self, cache: &mut impl HostSnoop) -> Result<u64> {
        let mut first = 0;
        for t in 0..self.tenants.len() {
            let committed = self.persist_tenant(t, cache)?;
            if t == 0 {
                first = committed;
            }
        }
        Ok(first)
    }

    /// Ends tenant `t`'s current epoch: makes a crash-consistent snapshot
    /// of `t`'s pool context durable and returns the committed epoch
    /// number (§3.3).
    ///
    /// This is a barrier across `t`'s own lanes only. Steps, in order:
    /// (1) drain `t`'s undo-log banks; (2) for every line `t` logged this
    /// epoch (lane by lane, in log order within each), send a `SnpData`
    /// snoop to the host cache, which downgrades the line and forwards
    /// its current value; (3) write every modified line back to PM;
    /// (4) drain PM; (5) atomically commit the epoch number in `t`'s
    /// header epoch slot. Other tenants' in-flight epochs are never
    /// flushed, stalled, or committed.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Config`] for an out-of-range tenant,
    /// [`PmError::Crashed`], and media errors.
    pub fn persist_tenant(&self, t: TenantId, cache: &mut impl HostSnoop) -> Result<u64> {
        self.check_tenant(t)?;
        // Buffered-epoch semantics: `persist()` is an epoch *close*, not
        // a barrier — capture the epoch, return immediately, and let it
        // retire in the background behind up to K-1 earlier closes.
        if self.config.persistency.closes_async() {
            return self.persist_async_tenant(t, cache);
        }
        // (0) Take the tenant's ctl lock for the whole barrier (the top
        // of the lock order — see the struct docs). Non-blocking persists
        // by this tenant may still be draining; their epochs commit in
        // order, completed through the held guard.
        let mut ctl = lock(&self.draining[t]);
        while !ctl.is_empty() {
            self.poll_drain(t, &mut ctl)?;
        }
        // (1) All of t's pre-images durable before any further write
        // back.
        for l in self.tenant_lanes(t) {
            self.flush_lane_log(l)?;
        }

        // (2)+(3) Gather and write back, lane by lane — the per-lane
        // interleave keeps the durable-step order identical to the
        // pre-refactor pipeline (see [`PaxDevice::sweep_lane`]).
        let mut entries = 0u64;
        for l in self.tenant_lanes(t) {
            let (logged, pending) = self.sweep_lane(l, cache, SweepMode::Snoop)?;
            entries += logged;
            self.write_back_batched(l, pending)?;
        }

        self.retire_epoch(t, entries)
    }

    /// Ends every tenant's epoch using **CLWB-style forced flushes**
    /// (see [`PaxDevice::persist_clwb_tenant`]); returns tenant 0's
    /// committed epoch.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] and media errors.
    pub fn persist_clwb(&self, cache: &mut impl HostSnoop) -> Result<u64> {
        let mut first = 0;
        for t in 0..self.tenants.len() {
            let committed = self.persist_clwb_tenant(t, cache)?;
            if t == 0 {
                first = committed;
            }
        }
        Ok(first)
    }

    /// Ends tenant `t`'s epoch using **CLWB-style forced flushes**
    /// instead of device snoops — the alternative §4 argues against:
    /// "this is more efficient than forcing CPUs to issue CLWBs which are
    /// serialized, consume cycles, and cause complete evictions of cache
    /// lines and future cache misses".
    ///
    /// For every logged line the host cache is made to *invalidate and
    /// write back* its copy (the classic CLWB-without-downgrade
    /// behaviour), so post-persist accesses miss — the `ablation_clwb`
    /// bench quantifies the cache-warmth difference against the
    /// snoop-based [`PaxDevice::persist_tenant`].
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Config`] for an out-of-range tenant,
    /// [`PmError::Crashed`], and media errors.
    pub fn persist_clwb_tenant(&self, t: TenantId, cache: &mut impl HostSnoop) -> Result<u64> {
        self.check_tenant(t)?;
        // Always a synchronous barrier, regardless of the configured
        // persistency model: this flavour exists as the §4 ablation
        // baseline, and buffering it would erase exactly the
        // serialized-eviction cost it measures.
        let mut ctl = lock(&self.draining[t]);
        while !ctl.is_empty() {
            self.poll_drain(t, &mut ctl)?;
        }
        for l in self.tenant_lanes(t) {
            self.flush_lane_log(l)?;
        }

        let mut entries = 0u64;
        for l in self.tenant_lanes(t) {
            let (logged, pending) = self.sweep_lane(l, cache, SweepMode::Clwb)?;
            entries += logged;
            self.write_back_batched(l, pending)?;
        }

        self.retire_epoch(t, entries)
    }

    /// The shared persist-time gather behind every persist flavour:
    /// iterates lane `l`'s logged lines in log order (§3.3 "iterating
    /// through each undo log entry as it persists"), snooping only the
    /// lines the ownership directory says the host may still hold
    /// modified, and returns the lane's epoch-log length plus the
    /// `(addr, value)` pairs that still need a PM write back. No lock is
    /// held across a snoop (host core locks order *before* every device
    /// lock but ctl). What varies per [`SweepMode`]:
    ///
    /// * `Snoop` — downgrade; returned host data refreshes the HBM copy
    ///   so post-persist reads stay warm.
    /// * `Clwb` — full eviction from host caches; dirty data comes back
    ///   to the device, the line does NOT stay host-cached. An unowned
    ///   line can hold at most a clean Shared copy whose value the
    ///   device already has, so the directory filter skips its
    ///   invalidate too (leaving it warm — strictly kinder than real
    ///   CLWB). Lines with no dirty copy anywhere are marked clean in
    ///   HBM.
    /// * `Capture` — downgrade for a deferred drain: dirty HBM copies
    ///   are captured *and marked clean now*, since the write back
    ///   happens later from the drain queue.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] and media errors.
    fn sweep_lane(
        &self,
        l: usize,
        cache: &mut impl HostSnoop,
        mode: SweepMode,
    ) -> Result<(u64, Vec<(LineAddr, CacheLine)>)> {
        let filter = self.config.directory.enabled;
        let h = &self.lanes[l];
        let logged = h.epoch_log.sorted();
        let entries = logged.len() as u64;
        let mut pending = Vec::with_capacity(logged.len());
        for (_offset, addr) in logged {
            let should_snoop = h.dir_should_snoop(addr, filter);
            // CLWB invalidates rather than snoops; only the downgrade
            // flavours count toward `snoops_sent`.
            if should_snoop && mode != SweepMode::Clwb {
                h.count_snoop_sent();
            }
            let host_data = if should_snoop {
                let op = if mode == SweepMode::Clwb { "snp_inv" } else { "snp_data" };
                self.trace.record(COMPONENT, TraceEvent::Coherence { op: op.into(), line: addr.0 });
                let d = match mode {
                    SweepMode::Clwb => cache.snoop_invalidate(addr),
                    _ => cache.snoop_shared(addr),
                };
                // The snoop itself is the host's give-up evidence.
                h.dir_clear(addr);
                d
            } else {
                None
            };
            let data = match (host_data, mode) {
                (Some(d), SweepMode::Clwb) => Some(d),
                (Some(d), _) => {
                    h.count_snoop_data_returned();
                    // Refresh the HBM copy so post-persist reads hit.
                    // Replace-mode: the host just returned the
                    // authoritative value, so any resident (possibly
                    // stale-dirty) copy must lose.
                    h.hbm_refresh_clean(
                        &self.pool,
                        &self.clock,
                        &self.trace,
                        addr,
                        d.clone(),
                        false,
                    )?;
                    Some(d)
                }
                (None, SweepMode::Capture) => match h.hbm_peek(addr) {
                    Some(line) if line.dirty => {
                        let d = line.data.clone();
                        h.hbm_mark_clean(addr);
                        Some(d)
                    }
                    // Already written back during the epoch; PM is
                    // current.
                    _ => None,
                },
                (None, _) => {
                    h.hbm_peek(addr).filter(|line| line.dirty).map(|line| line.data.clone())
                }
            };
            if data.is_none() && mode == SweepMode::Clwb {
                h.hbm_mark_clean(addr);
            }
            if let Some(d) = data {
                pending.push((addr, d));
            }
            // Lines with no host data and no dirty HBM copy were already
            // written back by the eviction/background paths.
        }
        Ok((entries, pending))
    }

    /// The back half of the batched persist pipeline: issues `lane`'s
    /// gathered write-backs as coalesced batches. Lines contiguous in
    /// lane-local address space (successive global addresses one shard
    /// stride apart) share a single durable-write step, up to
    /// [`DeviceConfig::persist_wb_batch`] lines per batch — the queue/row
    /// locality a contiguous burst enjoys on real media. Writes land in
    /// the identical order as unbatched issue; only the step count
    /// differs.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] (recovery rolls the epoch back) and
    /// media errors.
    fn write_back_batched(&self, lane: usize, pending: Vec<(LineAddr, CacheLine)>) -> Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let addrs: Vec<LineAddr> = pending.iter().map(|&(a, _)| a).collect();
        let h = &self.lanes[lane];
        // The gate keeps a concurrent background drain from landing a
        // stale HBM copy on top of these just-snooped values.
        let _gate = h.wb_gate.lock();
        for run in coalesce_runs(&addrs, self.stride as u64, self.config.persist_wb_batch) {
            h.count_wb_batch();
            tick(&self.clock, &mut self.pool.lock())?;
            for (addr, data) in &pending[run] {
                {
                    let mut pm = self.pool.lock();
                    let abs = pm.layout().vpm_to_pool(addr.0)?;
                    pm.write_line(abs, data.clone())?;
                }
                h.count_writeback();
                self.trace.record(COMPONENT, TraceEvent::WriteBack { line: addr.0 });
                h.hbm_mark_clean(*addr);
            }
        }
        Ok(())
    }

    /// The shared retirement epilogue of every synchronous persist
    /// flavour (the model-independent half of an epoch's life: buffered
    /// closes retire through `poll_drain`'s phase 3 instead): drain PM,
    /// atomically commit tenant `t`'s built epoch into its header slot,
    /// reset `t`'s lanes' per-epoch state (recycling their log banks),
    /// and advance `t`'s epoch counter.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] (the commit record never made it —
    /// recovery rolls the epoch back) and media errors.
    fn retire_epoch(&self, t: TenantId, entries: u64) -> Result<u64> {
        // (4) Everything reaches media before the commit record.
        self.pool.lock().drain();

        // (5) The atomic epoch commit — one record covers the tenant's
        // lanes, and only that tenant's header slot moves.
        tick(&self.clock, &mut self.pool.lock())?;
        let committed = self.epochs[t].load(Ordering::Acquire);
        self.pool.lock().commit_epoch_for(t, committed)?;

        for l in self.tenant_lanes(t) {
            self.lanes[l].reset_after_commit();
        }
        // Release pairs with the Acquire load in `home_read_own`: a store
        // thread that tags an undo entry with the new epoch number must
        // also observe the recycled banks and reset per-epoch state
        // published above.
        self.epochs[t].store(committed + 1, Ordering::Release);
        // Charged to the tenant's phase-0 lane so per-tenant rollups
        // conserve the persist count.
        self.lanes[t * self.stride].count_persist();
        self.trace.record(COMPONENT, TraceEvent::EpochCommit { epoch: committed, entries });
        Ok(committed)
    }

    /// Drains lane `l`'s undo bank to full durability, holding only the
    /// pool lock around each media step — appenders on the lane keep
    /// reserving and publishing concurrently.
    fn flush_lane_log(&self, l: usize) -> Result<()> {
        self.lanes[l].log.flush(&mut self.pool.lock(), &self.clock)
    }

    /// Typed guard for the tenant-indexed entry points.
    fn check_tenant(&self, t: TenantId) -> Result<()> {
        if t >= self.tenants.len() {
            return Err(PmError::Config(format!(
                "tenant {t} out of range for a {}-tenant device",
                self.tenants.len()
            )));
        }
        Ok(())
    }

    /// Begins a **non-blocking** persist of every tenant's epoch (§6),
    /// in tenant order, and returns tenant 0's draining epoch — the
    /// non-blocking twin of [`PaxDevice::persist`]; see
    /// [`PaxDevice::persist_async_tenant`].
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] and media errors.
    pub fn persist_async(&self, cache: &mut impl HostSnoop) -> Result<u64> {
        let mut first = 0;
        for t in 0..self.tenants.len() {
            let epoch = self.persist_async_tenant(t, cache)?;
            if t == 0 {
                first = epoch;
            }
        }
        Ok(first)
    }

    /// Begins a **non-blocking** persist of tenant `t`'s epoch (§6):
    /// captures `t`'s modified lines (snooping the host cache once, as
    /// the synchronous protocol does) and returns immediately with the
    /// epoch number now draining. The tenant continues in its next epoch
    /// while the device flushes the log, writes lines back, and commits
    /// in the background ([`PaxDevice::persist_poll`] advances it;
    /// ordinary host requests advance it too).
    ///
    /// Durability is only guaranteed once the epoch *commits* —
    /// [`PaxDevice::persist_poll`] returns it, or
    /// [`PaxDevice::persist_wait`] blocks for it. A crash before commit
    /// recovers to the tenant's previous epoch.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Config`] for an out-of-range tenant,
    /// [`PmError::Crashed`], and media errors. If an earlier non-blocking
    /// persist by the same tenant is still draining it is completed first
    /// (a tenant's epochs commit in order).
    pub fn persist_async_tenant(&self, t: TenantId, cache: &mut impl HostSnoop) -> Result<u64> {
        self.check_tenant(t)?;
        let mut ctl = lock(&self.draining[t]);
        // Admission: the model bounds how many closed-but-uncommitted
        // epochs may be in flight (1 under strict/epoch — the classic
        // non-blocking persist — K under buffered-epoch). At capacity
        // the *oldest* close is completed first: retirement is strictly
        // in order, so recovery always lands on a prefix-closed cut.
        let cap = self.config.persistency.max_open_epochs().max(1);
        while ctl.len() >= cap {
            self.poll_drain(t, &mut ctl)?;
        }

        let mut entries = 0u64;
        let mut queue = VecDeque::new();
        let mut values = HashMap::new();
        for l in self.tenant_lanes(t) {
            let (logged, captured) = self.sweep_lane(l, cache, SweepMode::Capture)?;
            entries += logged;
            for (addr, d) in captured {
                queue.push_back(addr);
                values.insert(addr, d);
            }
        }

        // Each of the tenant's banks must drain through the epoch's last
        // entry; commit will recycle exactly those slots.
        let flush_to: Vec<u64> =
            self.tenant_lanes(t).map(|l| self.lanes[l].log.appended()).collect();
        let epoch = self.epochs[t].load(Ordering::Acquire);
        ctl.push_back(DrainState { epoch, queue, values, flush_to, entries });
        // Mirror of the queue depth for the lock-free fast paths:
        // `resolve` / `drain_one_line_now` skip their ctl `try_lock`
        // entirely while this reads 0 (DESIGN.md §15).
        self.drain_depth[t].fetch_add(1, Ordering::Release);
        for l in self.tenant_lanes(t) {
            self.lanes[l].begin_next_epoch();
        }
        // Release pairs with the Acquire load in `home_read_own`: appends
        // tagged with the next epoch happen-after the lanes rolled their
        // per-epoch dedup maps above.
        self.epochs[t].store(epoch + 1, Ordering::Release);
        Ok(epoch)
    }

    /// Advances every tenant's in-flight non-blocking persist by a
    /// bounded amount. Returns `Some(epoch)` the moment an epoch durably
    /// commits (the last one, if several tenants commit in the same
    /// poll), `None` while still draining or when nothing is draining.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] and media errors.
    pub fn persist_poll(&self) -> Result<Option<u64>> {
        let mut committed = None;
        for t in 0..self.tenants.len() {
            if let Some(e) = self.persist_poll_tenant(t)? {
                committed = Some(e);
            }
        }
        Ok(committed)
    }

    /// Hot-path variant of [`PaxDevice::persist_poll`]: a tenant whose
    /// ctl lock is contended is skipped (the concurrent persist holding
    /// it is usually advancing that drain itself). In single-driver mode
    /// every `try_lock` succeeds, so the behaviour is identical. Each
    /// skip is counted (`persist_poll_skipped`), and a tenant skipped
    /// [`POLL_SKIP_LIMIT`] times in a row escalates to a
    /// bounded spin so a store-heavy thread mix cannot starve an async
    /// drain indefinitely — see [`PaxDevice::poll_one_tenant`].
    fn persist_poll_try(&self) -> Result<()> {
        for t in 0..self.tenants.len() {
            self.poll_one_tenant(t)?;
        }
        Ok(())
    }

    /// One tenant's non-blocking poll with starvation protection.
    ///
    /// On a successful `try_lock` the skip streak resets and the drain
    /// advances as usual. On contention the skip is counted and, once the
    /// streak reaches [`POLL_SKIP_LIMIT`], the poll retries
    /// a bounded number of times with [`std::thread::yield_now`] between
    /// attempts. It must **never** hard-`lock()` the ctl slot: this code
    /// runs from `SharedComplex::write` while a host core lock is held,
    /// and a persist barrier holds ctl while blocking on core locks for
    /// its snoops (ctl orders *before* cores in the lock hierarchy), so
    /// blocking here would deadlock. If the spin loses anyway, the ctl
    /// holder is itself a poll or persist advancing the same drain — its
    /// progress is the forward guarantee, and the streak stays armed so
    /// the very next poll spins again.
    fn poll_one_tenant(&self, t: TenantId) -> Result<()> {
        // Bounded spin length for the starvation fallback. Big enough to
        // outlast a poll-sized critical section on the other side, small
        // enough that a long persist barrier cannot capture hot paths.
        const BOUNDED_POLL_SPINS: usize = 128;
        if let Some(mut ctl) = try_lock(&self.draining[t]) {
            self.poll_skips[t].store(0, Ordering::Relaxed);
            self.poll_drain(t, &mut ctl)?;
            return Ok(());
        }
        self.metrics.inc(self.ctr.persist_poll_skipped);
        let streak = self.poll_skips[t].fetch_add(1, Ordering::Relaxed) + 1;
        if streak < POLL_SKIP_LIMIT {
            return Ok(());
        }
        for _ in 0..BOUNDED_POLL_SPINS {
            std::thread::yield_now();
            if let Some(mut ctl) = try_lock(&self.draining[t]) {
                self.poll_skips[t].store(0, Ordering::Relaxed);
                self.poll_drain(t, &mut ctl)?;
                return Ok(());
            }
        }
        Ok(())
    }

    /// Advances tenant `t`'s in-flight non-blocking persist by a bounded
    /// amount; `Some(epoch)` the moment it durably commits.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Config`] for an out-of-range tenant,
    /// [`PmError::Crashed`], and media errors.
    pub fn persist_poll_tenant(&self, t: TenantId) -> Result<Option<u64>> {
        self.check_tenant(t)?;
        let mut ctl = lock(&self.draining[t]);
        self.poll_drain(t, &mut ctl)
    }

    /// The drain engine behind every poll flavour, operating on the
    /// tenant's already-locked ctl slot (so persist barriers can complete
    /// an in-flight drain through the guard they hold, without reentrant
    /// locking).
    /// Retirement is strictly in order: only the *front* (oldest) queued
    /// epoch drains and commits, so under buffered-epoch the durable
    /// image always reflects a prefix-closed cut of epoch history.
    fn poll_drain(&self, t: TenantId, ctl: &mut VecDeque<DrainState>) -> Result<Option<u64>> {
        let Some(flush_to) = ctl.front().map(|d| d.flush_to.clone()) else {
            return Ok(None);
        };
        // Phase 1: the tenant's undo entries for the epoch must be
        // durable first. The atomic watermarks answer the common
        // already-durable case, and the pump's media handoff serializes
        // on the pool lock alone.
        let batch = self.config.log_pump_batch.max(1);
        let mut lagging = false;
        for (i, &target) in flush_to.iter().enumerate() {
            let log = &self.lanes[t * self.stride + i].log;
            if log.durable_offset() >= target {
                continue;
            }
            log.pump_to(&mut self.pool.lock(), &self.clock, target, batch)?;
            if log.durable_offset() < target {
                lagging = true;
            }
        }
        if lagging {
            return Ok(None);
        }
        // Phase 2: write back the scheduler's persist-drain budget of
        // *batches* per poll. Each batch greedily extends along the queue while
        // the lines stay contiguous in lane-local space, sharing one
        // durable-write step like the synchronous pipeline.
        let stride = self.stride;
        let max_batch = self.config.persist_wb_batch.max(1);
        // The budget scales with queue depth so a buffered device drains
        // K epochs as fast as a synchronous one drains one; with ≤ 1
        // queued epoch (strict/epoch) it is the plain per-poll budget.
        for _ in 0..persist_drain_budget(ctl.len()) {
            let Some(ds) = ctl.front_mut() else { break };
            let Some(addr) = ds.queue.pop_front() else { break };
            // Lines resolved early (dirty_evict ordering) have no value.
            let Some(data) = ds.values.remove(&addr) else { continue };
            let mut batch = vec![(addr, data)];
            while batch.len() < max_batch {
                let Some(&next) = ds.queue.front() else { break };
                let last = batch.last().expect("nonempty").0;
                if next.0 != last.0.wrapping_add(stride as u64) {
                    break;
                }
                let Some(d) = ds.values.remove(&next) else { break };
                ds.queue.pop_front();
                batch.push((next, d));
            }
            let lane = t * stride + addr.0 as usize % stride;
            let h = &self.lanes[lane];
            // The gate serializes this drain's PM writes against the
            // lane's background write-back consumer.
            let _gate = h.wb_gate.lock();
            h.count_wb_batch();
            tick(&self.clock, &mut self.pool.lock())?;
            for (a, d) in batch {
                {
                    let mut pm = self.pool.lock();
                    let abs = pm.layout().vpm_to_pool(a.0)?;
                    pm.write_line(abs, d)?;
                }
                h.count_writeback();
                self.trace.record(COMPONENT, TraceEvent::WriteBack { line: a.0 });
            }
        }
        // Phase 3: commit once everything landed.
        let done = ctl.front().is_some_and(|d| d.queue.is_empty());
        if done {
            let ds = ctl.pop_front().expect("checked");
            self.drain_depth[t].fetch_sub(1, Ordering::Release);
            self.pool.lock().drain();
            tick(&self.clock, &mut self.pool.lock())?;
            self.pool.lock().commit_epoch_for(t, ds.epoch)?;
            self.lanes[t * self.stride].count_persist();
            self.trace.record(
                COMPONENT,
                TraceEvent::EpochCommit { epoch: ds.epoch, entries: ds.entries },
            );
            // The committed epoch's log slots are free *now*, even while
            // the next epoch is already appending: recycle each bank up to
            // the drained watermark. (Recycling used to wait for the whole
            // log to go idle — under continuous overlapped traffic that
            // never happens, and the region filled up with committed
            // entries until spurious `LogFull`.)
            for (i, &target) in ds.flush_to.iter().enumerate() {
                self.lanes[t * self.stride + i].log.recycle_to(target);
            }
            return Ok(Some(ds.epoch));
        }
        Ok(None)
    }

    /// Completes every tenant's in-flight non-blocking persist.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] and media errors.
    pub fn persist_wait(&self) -> Result<()> {
        for t in 0..self.tenants.len() {
            self.persist_wait_tenant(t)?;
        }
        Ok(())
    }

    /// Completes tenant `t`'s in-flight non-blocking persist, if any.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Config`] for an out-of-range tenant,
    /// [`PmError::Crashed`], and media errors.
    pub fn persist_wait_tenant(&self, t: TenantId) -> Result<()> {
        self.check_tenant(t)?;
        let mut ctl = lock(&self.draining[t]);
        while !ctl.is_empty() {
            self.poll_drain(t, &mut ctl)?;
        }
        Ok(())
    }

    /// The epoch currently draining from a non-blocking persist, if any
    /// tenant has one (the first, scanning in tenant order; under
    /// buffered-epoch, the oldest queued epoch — the next to retire).
    pub fn persist_pending(&self) -> Option<u64> {
        self.draining.iter().find_map(|d| lock(d).front().map(|ds| ds.epoch))
    }

    /// The epoch tenant `t` will retire next, if any are draining.
    pub fn persist_pending_tenant(&self, t: TenantId) -> Option<u64> {
        lock(self.draining.get(t)?).front().map(|d| d.epoch)
    }

    /// Writes the owning tenant's draining-epoch value for `addr` to PM
    /// immediately, if one is pending — called before a newer value for
    /// the same line can be buffered, preserving write-back order across
    /// epochs. Hot path: the ctl lock is only tried (drain states are
    /// single-driver-only; see [`PaxDevice::resolve`]).
    fn drain_one_line_now(&self, addr: LineAddr) -> Result<()> {
        let Some(t) = self.tenants.tenant_of(addr) else {
            return Ok(());
        };
        let s = addr.0 as usize % self.stride;
        // Lock-free fast path: no drain in flight for this tenant means
        // nothing to order against (the depth mirror is bumped under ctl
        // before any value is queued, so a racing close is observed).
        if self.drain_depth[t].load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let Some(mut ctl) = try_lock(&self.draining[t]) else {
            return Ok(());
        };
        // Oldest epoch first: every queued epoch's buffered value for the
        // line must reach PM in close order before any newer value can be
        // captured, or a crash could leave a newer value under an older
        // committed epoch.
        for ds in ctl.iter_mut() {
            let Some(data) = ds.values.remove(&addr) else {
                continue;
            };
            let flush_to = ds.flush_to[s];
            let lane = t * self.stride + s;
            let h = &self.lanes[lane];
            let _gate = h.wb_gate.lock();
            while h.log.durable_offset() < flush_to {
                h.count_forced_flush();
                if h.log.pump_to(&mut self.pool.lock(), &self.clock, flush_to, usize::MAX)? == 0 {
                    return Err(PmError::ProtocolViolation {
                        invariant: "draining epoch's undo entries are neither durable nor pending",
                    });
                }
            }
            tick(&self.clock, &mut self.pool.lock())?;
            {
                let mut pm = self.pool.lock();
                let abs = pm.layout().vpm_to_pool(addr.0)?;
                pm.write_line(abs, data)?;
            }
            h.count_writeback();
            self.trace.record(COMPONENT, TraceEvent::WriteBack { line: addr.0 });
        }
        Ok(())
    }
}

impl PaxDevice {
    /// `RdShared` service, shared by both [`HomeAgent`] impls.
    fn home_read_shared(&self, addr: LineAddr) -> Result<CacheLine> {
        let l = self.lane_of(addr)?;
        self.lanes[l].count_rd_shared();
        self.trace
            .record(COMPONENT, TraceEvent::Coherence { op: "rd_shared".into(), line: addr.0 });
        self.background(l)?;
        self.resolve(l, addr)
    }

    /// `RdOwn` service, shared by both [`HomeAgent`] impls.
    fn home_read_own(&self, addr: LineAddr) -> Result<CacheLine> {
        let l = self.lane_of(addr)?;
        self.lanes[l].count_rd_own();
        self.trace.record(COMPONENT, TraceEvent::Coherence { op: "rd_own".into(), line: addr.0 });
        self.background(l)?;
        let old = self.resolve(l, addr)?;
        // The paper's key move: log asynchronously and acknowledge the
        // host immediately — no stall for durability here. Acquire pairs
        // with the Release stores in `retire_epoch` /
        // `persist_async_tenant`: reading epoch N+1 guarantees this
        // thread also sees the lane state those commits published before
        // bumping the counter.
        let epoch = self.epochs[l / self.stride].load(Ordering::Acquire);
        let h = &self.lanes[l];
        h.log_if_first(&self.trace, epoch, addr, &old)?;
        // The ownership grant is the directory's set point: from here the
        // host plausibly holds the line modified. Gated so the disabled
        // ablation leaves the directory (and its gauges) untouched.
        if self.config.directory.enabled {
            h.dir_note_owned(addr);
        }
        Ok(old)
    }

    /// Clean-eviction service, shared by both [`HomeAgent`] impls.
    fn home_clean_evict(&self, addr: LineAddr) {
        if let Ok(l) = self.lane_of(addr) {
            self.lanes[l].count_clean_evict();
            // Safe to untrack: Shared and Modified copies never coexist,
            // so a clean eviction means no core holds the line modified.
            self.lanes[l].dir_clear(addr);
        }
        self.trace
            .record(COMPONENT, TraceEvent::Coherence { op: "clean_evict".into(), line: addr.0 });
    }

    /// Dirty-eviction service, shared by both [`HomeAgent`] impls.
    fn home_dirty_evict(&self, addr: LineAddr, data: CacheLine) -> Result<()> {
        let l = self.lane_of(addr)?;
        self.lanes[l].count_dirty_evict();
        // The host just handed its modified copy back: the line needs no
        // persist-time snoop until the next `RdOwn`.
        self.lanes[l].dir_clear(addr);
        self.trace
            .record(COMPONENT, TraceEvent::Coherence { op: "dirty_evict".into(), line: addr.0 });
        self.background(l)?;
        // Ordering with a draining epoch: the previous epoch's value for
        // this line must reach PM before any newer value can (otherwise a
        // stale drain write could land on top of this epoch's write back).
        self.drain_one_line_now(addr)?;
        let epoch = self.epochs[l / self.stride].load(Ordering::Acquire);
        let h = &self.lanes[l];
        let offset = match h.epoch_offset_of(addr) {
            Some(o) => o,
            None => {
                // Protocol anomaly: an eviction for a line we never saw an
                // ownership request for this epoch. The PM copy is still
                // the epoch-start value (write back is log-gated), so log
                // it now.
                h.count_unlogged_dirty_evict();
                let old = {
                    let mut pm = self.pool.lock();
                    let abs = pm.layout().vpm_to_pool(addr.0)?;
                    pm.read_line(abs)?
                };
                h.log_if_first(&self.trace, epoch, addr, &old)?
            }
        };
        // Insert-then-dispose keeps a dirty victim indexed until its PM
        // write retires (the victim closure runs under the set lock);
        // the queue push happens-after the insert, matching the
        // consumer's pop-then-peek protocol.
        h.hbm_insert_disposing(
            &self.pool,
            &self.clock,
            &self.trace,
            addr,
            HbmLine { data, dirty: true, log_offset: Some(offset) },
        )?;
        h.writeback_queue.push_back(addr);
        Ok(())
    }
}

impl HomeAgent for PaxDevice {
    fn read_shared(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.home_read_shared(addr)
    }

    fn read_own(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.home_read_own(addr)
    }

    fn clean_evict(&mut self, addr: LineAddr) {
        self.home_clean_evict(addr);
    }

    fn dirty_evict(&mut self, addr: LineAddr, data: CacheLine) -> Result<()> {
        self.home_dirty_evict(addr, data)
    }
}

/// The concurrent-engine entry point: every thread holds its own
/// `&PaxDevice` and serves coherence requests against the shared device
/// (the device is `Sync`; interior locks do the serializing).
impl HomeAgent for &PaxDevice {
    fn read_shared(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.home_read_shared(addr)
    }

    fn read_own(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.home_read_own(addr)
    }

    fn clean_evict(&mut self, addr: LineAddr) {
        self.home_clean_evict(addr);
    }

    fn dirty_evict(&mut self, addr: LineAddr, data: CacheLine) -> Result<()> {
        self.home_dirty_evict(addr, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbm::EvictionPolicy;
    use crate::tenant::even_split;
    use crate::undo_log::BLOCK_ENTRIES;
    use pax_cache::{CacheConfig, CoherentCache};
    use pax_pm::PoolConfig;

    fn setup() -> (PaxDevice, CoherentCache) {
        setup_sharded(1)
    }

    fn setup_sharded(shards: usize) -> (PaxDevice, CoherentCache) {
        setup_cfg(DeviceConfig::default(), shards)
    }

    fn setup_cfg(config: DeviceConfig, shards: usize) -> (PaxDevice, CoherentCache) {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let device = PaxDevice::open(pool, config.with_shards(shards)).unwrap();
        let cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        (device, cache)
    }

    fn setup_tenants(tenants: usize, shards: usize) -> (PaxDevice, CoherentCache) {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let regions = even_split(pool.layout().data_lines, tenants);
        let device =
            PaxDevice::open_multi(pool, DeviceConfig::default().with_shards(shards), regions)
                .unwrap();
        let cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        (device, cache)
    }

    #[test]
    fn device_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PaxDevice>();
    }

    #[test]
    fn open_fresh_pool_starts_epoch_one() {
        let (device, _) = setup();
        assert_eq!(device.current_epoch(), 1);
        assert_eq!(device.committed_epoch().unwrap(), 0);
        assert_eq!(device.recovery_report().rolled_back, 0);
    }

    #[test]
    fn store_triggers_exactly_one_undo_entry_per_epoch() {
        let (mut device, mut cache) = setup();
        let a = LineAddr(3);
        cache.write(a, CacheLine::filled(1), &mut device).unwrap();
        cache.write(a, CacheLine::filled(2), &mut device).unwrap(); // silent (M)
        assert_eq!(device.metrics().rd_own, 1);
        assert_eq!(device.metrics().undo_entries, 1);

        device.persist(&mut cache).unwrap();
        // Snoop downgraded the line; the next store re-announces.
        cache.write(a, CacheLine::filled(3), &mut device).unwrap();
        assert_eq!(device.metrics().rd_own, 2);
        assert_eq!(device.metrics().undo_entries, 2);
    }

    #[test]
    fn persist_commits_host_cached_values() {
        let (mut device, mut cache) = setup();
        let a = LineAddr(0);
        cache.write(a, CacheLine::filled(0x77), &mut device).unwrap();
        // Value only lives in the host cache; PM is still zero.
        let epoch = device.persist(&mut cache).unwrap();
        assert_eq!(epoch, 1);
        let mut pool = device.crash_into_pool();
        let abs = pool.layout().vpm_to_pool(0).unwrap();
        assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(0x77));
        assert_eq!(pool.committed_epoch().unwrap(), 1);
    }

    #[test]
    fn crash_before_persist_rolls_back_to_prior_epoch() {
        let (mut device, mut cache) = setup();
        let a = LineAddr(5);
        cache.write(a, CacheLine::filled(1), &mut device).unwrap();
        device.persist(&mut cache).unwrap(); // epoch 1: value 1

        // Epoch 2 fills one log block, so the background pump may drain
        // it (a partly filled block waits for persist).
        for i in 0..BLOCK_ENTRIES {
            cache.write(LineAddr(a.0 + 1 + i), CacheLine::filled(2), &mut device).unwrap();
        }
        cache.write(a, CacheLine::filled(2), &mut device).unwrap();
        // Force the new value to PM without persisting: evict the dirty
        // host line, then drain background write back.
        let evicted = cache.snoop_invalidate(a).unwrap();
        device.dirty_evict(a, evicted).unwrap();
        for _ in 0..64 {
            device.read_shared(LineAddr(40)).unwrap(); // pump background
        }
        // Crash. Recovery must restore value 1 (the epoch-1 snapshot).
        let pool = device.crash_into_pool();
        let mut device = PaxDevice::open(pool, DeviceConfig::default()).unwrap();
        assert!(device.recovery_report().rolled_back >= 1);
        let mut cache2 = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        assert_eq!(cache2.read(a, &mut device).unwrap(), CacheLine::filled(1));
    }

    #[test]
    fn reads_hit_hbm_after_first_touch() {
        let (mut device, mut cache) = setup();
        cache.read(LineAddr(9), &mut device).unwrap();
        cache.snoop_invalidate(LineAddr(9)); // force the host copy out
        cache.read(LineAddr(9), &mut device).unwrap();
        assert_eq!(device.metrics().rd_shared, 2);
        assert!(device.metrics().hbm_read_hits >= 1);
    }

    #[test]
    fn multiple_epochs_round_trip() {
        let (mut device, mut cache) = setup();
        for epoch in 1..=5u64 {
            cache.write(LineAddr(epoch), CacheLine::filled(epoch as u8), &mut device).unwrap();
            assert_eq!(device.persist(&mut cache).unwrap(), epoch);
        }
        assert_eq!(device.committed_epoch().unwrap(), 5);
        for epoch in 1..=5u64 {
            assert_eq!(
                cache.read(LineAddr(epoch), &mut device).unwrap(),
                CacheLine::filled(epoch as u8)
            );
        }
    }

    #[test]
    fn working_set_larger_than_hbm_still_persists() {
        // §3.3 "No Working Set Size Limits": HBM of 8 lines, epoch touches
        // 64 lines. Evictions must proactively write back without
        // breaking the snapshot.
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let config = DeviceConfig::default().with_hbm(HbmConfig {
            capacity_bytes: 8 * 64,
            ways: 2,
            policy: EvictionPolicy::PreferDurable,
        });
        let mut device = PaxDevice::open(pool, config).unwrap();
        let mut cache = CoherentCache::new(CacheConfig::tiny(4 * 64, 2)); // tiny host cache too
        for i in 0..64u64 {
            cache.write(LineAddr(i), CacheLine::filled(i as u8), &mut device).unwrap();
        }
        device.persist(&mut cache).unwrap();
        let mut pool = device.crash_into_pool();
        for i in 0..64u64 {
            let abs = pool.layout().vpm_to_pool(i).unwrap();
            assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(i as u8), "line {i}");
        }
    }

    #[test]
    fn unpersisted_epoch_is_invisible_after_crash() {
        let (mut device, mut cache) = setup();
        cache.write(LineAddr(1), CacheLine::filled(9), &mut device).unwrap();
        // No persist: crash loses the host-cached value AND any partial
        // device state; recovery sees epoch 0 (empty pool).
        let pool = device.crash_into_pool();
        let mut device = PaxDevice::open(pool, DeviceConfig::default()).unwrap();
        let mut cache2 = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        assert_eq!(cache2.read(LineAddr(1), &mut device).unwrap(), CacheLine::zeroed());
    }

    #[test]
    fn crash_clock_mid_persist_keeps_old_snapshot() {
        let (mut device, mut cache) = setup();
        cache.write(LineAddr(2), CacheLine::filled(1), &mut device).unwrap();
        device.persist(&mut cache).unwrap(); // epoch 1

        for i in 0..8u64 {
            cache.write(LineAddr(i), CacheLine::filled(0xEE), &mut device).unwrap();
        }
        // Arm the clock so persist crashes partway through (the batched
        // pipeline covers the 8-line epoch in very few durable steps).
        device.crash_clock().arm(device.crash_clock().steps_taken() + 1);
        let err = device.persist(&mut cache).unwrap_err();
        assert!(matches!(err, PmError::Crashed));

        let pool = device.crash_into_pool();
        let mut device = PaxDevice::open(pool, DeviceConfig::default()).unwrap();
        assert_eq!(device.committed_epoch().unwrap(), 1);
        let mut cache2 = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        // Epoch-1 state: line 2 == 1, everything else zero.
        assert_eq!(cache2.read(LineAddr(2), &mut device).unwrap(), CacheLine::filled(1));
        for i in [0u64, 1, 3, 4, 5, 6, 7] {
            assert_eq!(
                cache2.read(LineAddr(i), &mut device).unwrap(),
                CacheLine::zeroed(),
                "line {i}"
            );
        }
    }

    #[test]
    fn persist_clwb_is_crash_consistent_but_cold() {
        let (mut device, mut cache) = setup();
        for i in 0..8u64 {
            cache.write(LineAddr(i), CacheLine::filled(1), &mut device).unwrap();
        }
        let epoch = device.persist_clwb(&mut cache).unwrap();
        assert_eq!(epoch, 1);
        // CLWB evicted the working set from the host cache.
        for i in 0..8u64 {
            assert_eq!(cache.state_of(LineAddr(i)), None, "line {i} must be evicted");
        }
        // Durability matches the snoop-based protocol exactly.
        let mut pool = device.crash_into_pool();
        assert_eq!(pool.committed_epoch().unwrap(), 1);
        for i in 0..8u64 {
            let abs = pool.layout().vpm_to_pool(i).unwrap();
            assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(1));
        }
    }

    #[test]
    fn rdown_never_stalls_for_log_durability() {
        let (mut device, mut cache) = setup();
        // With pumping disabled, stores must still complete immediately.
        device.config.log_pump_batch = 0;
        device.config.writeback_batch = 0;
        for i in 0..16u64 {
            cache.write(LineAddr(i), CacheLine::filled(1), &mut device).unwrap();
        }
        assert_eq!(device.metrics().undo_entries, 16);
        assert_eq!(device.log_durable_offset(), 0, "nothing drained, yet no store stalled");
    }

    #[test]
    fn ticks_drain_the_log_without_foreground_traffic() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        // Pump interval so large the request path never pumps: background
        // progress can only come from explicit virtual ticks.
        let config = DeviceConfig::default().with_log_pump_interval(usize::MAX);
        let mut device = PaxDevice::open(pool, config).unwrap();
        let mut cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        for i in 0..8u64 {
            cache.write(LineAddr(i), CacheLine::filled(1), &mut device).unwrap();
        }
        assert_eq!(device.log_durable_offset(), 0, "request path must not have pumped");

        let work = device.tick(16).unwrap();
        assert!(work > 0, "ticks must perform durable-write steps");
        assert_eq!(device.log_durable_offset(), 8, "16 ticks x 2 entries covers 8 appends");
        assert_eq!(device.ticks_elapsed(), 16);
        assert_eq!(device.metrics().sched_ticks, 16);
        // Working ticks leave trace evidence.
        assert!(device.trace_dump().contains("\"type\":\"tick\""));
    }

    #[test]
    fn device_write_back_keeps_a_reowned_line_tracked() {
        // The host evicts line `a` dirty, then re-acquires and modifies
        // it; only afterwards does a tick write the evicted value back.
        // That write back must not clear the directory, or persist skips
        // the snoop and commits the evicted value instead of the host's.
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let config = DeviceConfig::default().with_log_pump_interval(usize::MAX);
        let mut device = PaxDevice::open(pool, config).unwrap();
        let mut cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        let a = LineAddr(3);
        for i in 0..BLOCK_ENTRIES {
            cache.write(LineAddr(a.0 + i), CacheLine::filled(1), &mut device).unwrap();
        }
        let line = cache.snoop_invalidate(a).unwrap();
        device.dirty_evict(a, line).unwrap();
        cache.write(a, CacheLine::filled(2), &mut device).unwrap();
        device.tick(8).unwrap();
        assert!(device.metrics().background_writebacks >= 1, "the evicted value was written back");
        device.persist(&mut cache).unwrap();
        let mut device =
            PaxDevice::open(device.crash_into_pool(), DeviceConfig::default()).unwrap();
        let mut cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        assert_eq!(cache.read(a, &mut device).unwrap(), CacheLine::filled(2));
    }

    #[test]
    fn tick_advances_a_draining_persist_to_commit() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let config = DeviceConfig::default().with_log_pump_interval(usize::MAX);
        let mut device = PaxDevice::open(pool, config).unwrap();
        let mut cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        for i in 0..8u64 {
            cache.write(LineAddr(i), CacheLine::filled(7), &mut device).unwrap();
        }
        let epoch = device.persist_async(&mut cache).unwrap();
        assert_eq!(device.persist_pending(), Some(epoch));
        // Only virtual time moves the drain forward.
        for _ in 0..256 {
            if device.persist_pending().is_none() {
                break;
            }
            device.tick(1).unwrap();
        }
        assert_eq!(device.persist_pending(), None, "ticks alone must commit the epoch");
        assert_eq!(device.committed_epoch().unwrap(), epoch);
    }

    #[test]
    fn identical_tick_schedules_replay_identical_crash_states() {
        let run = |crash_at: u64| -> (u64, Vec<CacheLine>) {
            let pool = PmPool::create(PoolConfig::small()).unwrap();
            let mut device = PaxDevice::open(pool, DeviceConfig::default().with_shards(4)).unwrap();
            let mut cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
            device.crash_clock().arm(crash_at);
            let mut interleave = || -> Result<()> {
                for i in 0..64u64 {
                    cache.write(LineAddr(i), CacheLine::filled(i as u8 + 1), &mut device)?;
                    device.tick(2)?;
                }
                device.persist(&mut cache)?;
                Ok(())
            };
            assert!(matches!(interleave(), Err(PmError::Crashed)));
            let pool = device.crash_into_pool();
            let mut device = PaxDevice::open(pool, DeviceConfig::default()).unwrap();
            let committed = device.committed_epoch().unwrap();
            let mut cache2 = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
            let state = (0..16u64)
                .map(|i| cache2.read(LineAddr(i), &mut device).unwrap())
                .collect::<Vec<_>>();
            (committed, state)
        };
        for crash_at in [3, 9, 17] {
            assert_eq!(run(crash_at), run(crash_at), "crash step {crash_at} must replay");
        }
    }

    #[test]
    fn skewed_traffic_no_longer_starves_other_shards() {
        let (mut device, mut cache) = setup_sharded(4);
        // Seed shard 1 with pending background work: a full log block of
        // stores, one of whose dirty lines the host evicts back to the
        // device.
        for i in 0..BLOCK_ENTRIES {
            cache.write(LineAddr(1 + 4 * i), CacheLine::filled(0xAB), &mut device).unwrap();
        }
        let line = cache.snoop_invalidate(LineAddr(1)).unwrap();
        device.dirty_evict(LineAddr(1), line).unwrap();
        // Then hammer shard 0 only.
        for _ in 0..64 {
            device.read_shared(LineAddr(0)).unwrap();
        }
        let m = device.metrics();
        assert!(
            m.background_writebacks >= 1,
            "shard 1's dirty line must drain from donated idle steps, got {m:?}"
        );
        assert!(m.sched_idle_steps >= 1, "donated steps must be accounted");
    }

    #[test]
    fn sharded_device_routes_lines_by_modulo() {
        let (device, _) = setup_sharded(4);
        assert_eq!(device.shard_count(), 4);
        for i in 0..16u64 {
            assert_eq!(device.lane_of(LineAddr(i)).unwrap(), (i % 4) as usize);
        }
    }

    #[test]
    fn shard_count_is_a_telemetry_dimension() {
        let (device, _) = setup_sharded(4);
        assert_eq!(device.metric_snapshot().counter("shards"), 4);
        let (device1, _) = setup();
        assert_eq!(device1.metric_snapshot().counter("shards"), 1);
    }

    #[test]
    fn sharded_persist_commits_all_shards_atomically() {
        let (mut device, mut cache) = setup_sharded(4);
        // Touch lines landing in every shard.
        for i in 0..16u64 {
            cache.write(LineAddr(i), CacheLine::filled(i as u8 + 1), &mut device).unwrap();
        }
        assert_eq!(device.persist(&mut cache).unwrap(), 1);
        let mut pool = device.crash_into_pool();
        assert_eq!(pool.committed_epoch().unwrap(), 1);
        for i in 0..16u64 {
            let abs = pool.layout().vpm_to_pool(i).unwrap();
            assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(i as u8 + 1), "line {i}");
        }
    }

    #[test]
    fn sharded_metrics_merge_across_shards() {
        let (mut device, mut cache) = setup_sharded(4);
        for i in 0..12u64 {
            cache.write(LineAddr(i), CacheLine::filled(1), &mut device).unwrap();
        }
        // Typed view and merged snapshot agree, summed over shards.
        assert_eq!(device.metrics().rd_own, 12);
        assert_eq!(device.metrics().undo_entries, 12);
        assert_eq!(device.metric_snapshot().counter("rd_own"), 12);
        assert_eq!(device.metric_snapshot().counter("undo_entries"), 12);
    }

    #[test]
    fn sharded_crash_recovers_to_committed_snapshot() {
        let (mut device, mut cache) = setup_sharded(8);
        for i in 0..8u64 {
            cache.write(LineAddr(i), CacheLine::filled(0x11), &mut device).unwrap();
        }
        device.persist(&mut cache).unwrap(); // epoch 1
        for i in 0..8u64 {
            cache.write(LineAddr(i), CacheLine::filled(0x22), &mut device).unwrap();
        }
        // Unpersisted epoch 2 must vanish.
        let pool = device.crash_into_pool();
        let mut device = PaxDevice::open(pool, DeviceConfig::default().with_shards(8)).unwrap();
        let mut cache2 = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        for i in 0..8u64 {
            assert_eq!(
                cache2.read(LineAddr(i), &mut device).unwrap(),
                CacheLine::filled(0x11),
                "line {i}"
            );
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_geometry() {
        let mk = || PmPool::create(PoolConfig::small()).unwrap();
        let err = PaxDevice::open(mk(), DeviceConfig::default().with_shards(0)).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        let err =
            PaxDevice::open(mk(), DeviceConfig::default().with_log_pump_interval(0)).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        // HBM too small to give each of the 4 lanes one 8-way set.
        let tiny = DeviceConfig::default().with_shards(4).with_hbm(HbmConfig {
            capacity_bytes: 2 * 64 * 8,
            ways: 8,
            policy: EvictionPolicy::Lru,
        });
        let err = PaxDevice::open(mk(), tiny).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        // Overlapping tenant regions are rejected before any state is
        // built.
        let regions = vec![TenantRegion::new(0, 64), TenantRegion::new(32, 64)];
        let err = PaxDevice::open_multi(mk(), DeviceConfig::default(), regions).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
    }

    #[test]
    fn tenant_persist_does_not_drain_the_other_tenants_epoch() {
        let (mut device, mut cache) = setup_tenants(2, 2);
        let b = device.tenants().region(1).vpm_base;
        cache.write(LineAddr(0), CacheLine::filled(0xA1), &mut device).unwrap();
        cache.write(LineAddr(b), CacheLine::filled(0xB1), &mut device).unwrap();
        assert_eq!(device.epoch_log_len_for(0), 1);
        assert_eq!(device.epoch_log_len_for(1), 1);

        // Tenant 0 persists; tenant 1's epoch stays open and uncommitted.
        assert_eq!(device.persist_tenant(0, &mut cache).unwrap(), 1);
        assert_eq!(device.committed_epoch_for(0).unwrap(), 1);
        assert_eq!(device.committed_epoch_for(1).unwrap(), 0);
        assert_eq!(device.epoch_log_len_for(1), 1, "tenant 1's epoch log must be untouched");
        assert_eq!(device.current_epoch_for(0), 2);
        assert_eq!(device.current_epoch_for(1), 1);
        // Tenant 1's line is still only host-cached: its epoch was not
        // flushed by tenant 0's barrier.
        assert!(cache.state_of(LineAddr(b)).is_some(), "tenant 1's line must stay cached");
    }

    #[test]
    fn tenant_async_persist_drains_independently() {
        let (mut device, mut cache) = setup_tenants(2, 2);
        let b = device.tenants().region(1).vpm_base;
        for i in 0..4u64 {
            cache.write(LineAddr(i), CacheLine::filled(0xA0 + i as u8), &mut device).unwrap();
            cache.write(LineAddr(b + i), CacheLine::filled(0xB0 + i as u8), &mut device).unwrap();
        }
        let ea = device.persist_async_tenant(0, &mut cache).unwrap();
        assert_eq!(device.persist_pending_tenant(0), Some(ea));
        assert_eq!(device.persist_pending_tenant(1), None);
        // Tenant 1 commits synchronously while tenant 0 is still
        // draining; the barrier must not complete tenant 0's drain.
        device.persist_tenant(1, &mut cache).unwrap();
        assert_eq!(device.committed_epoch_for(1).unwrap(), 1);
        device.persist_wait_tenant(0).unwrap();
        assert_eq!(device.committed_epoch_for(0).unwrap(), ea);
    }

    #[test]
    fn crash_mid_tenant_epoch_recovers_each_pool_independently() {
        let (mut device, mut cache) = setup_tenants(2, 2);
        let b = device.tenants().region(1).vpm_base;
        cache.write(LineAddr(0), CacheLine::filled(0xA1), &mut device).unwrap();
        cache.write(LineAddr(b), CacheLine::filled(0xB1), &mut device).unwrap();
        device.persist_tenant(0, &mut cache).unwrap();
        device.persist_tenant(1, &mut cache).unwrap();
        // Next epoch: both tenants write again, only tenant 1 persists.
        cache.write(LineAddr(0), CacheLine::filled(0xA2), &mut device).unwrap();
        cache.write(LineAddr(b), CacheLine::filled(0xB2), &mut device).unwrap();
        device.persist_tenant(1, &mut cache).unwrap();

        let pool = device.crash_into_pool();
        let regions = even_split(pool.layout().data_lines, 2);
        let mut device =
            PaxDevice::open_multi(pool, DeviceConfig::default().with_shards(2), regions).unwrap();
        assert_eq!(device.committed_epoch_for(0).unwrap(), 1);
        assert_eq!(device.committed_epoch_for(1).unwrap(), 2);
        let mut cache2 = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        // Tenant 0 rolls back to its epoch-1 snapshot; tenant 1 keeps its
        // epoch-2 data — no cross-contamination either way.
        assert_eq!(cache2.read(LineAddr(0), &mut device).unwrap(), CacheLine::filled(0xA1));
        assert_eq!(cache2.read(LineAddr(b), &mut device).unwrap(), CacheLine::filled(0xB2));
    }

    #[test]
    fn tenant_labels_conserve_counter_totals() {
        let (mut device, mut cache) = setup_tenants(2, 2);
        let b = device.tenants().region(1).vpm_base;
        for i in 0..4u64 {
            cache.write(LineAddr(i), CacheLine::filled(1), &mut device).unwrap();
        }
        for i in 0..2u64 {
            cache.write(LineAddr(b + i), CacheLine::filled(2), &mut device).unwrap();
        }
        device.persist_tenant(0, &mut cache).unwrap();
        let snap = device.metric_snapshot();
        assert_eq!(snap.counter("tenants"), 2);
        for name in ["rd_own", "undo_entries", "persists", "device_writebacks"] {
            assert_eq!(
                snap.counter(&format!("tenant0/{name}")) + snap.counter(&format!("tenant1/{name}")),
                snap.counter(name),
                "{name} must conserve across tenant labels"
            );
        }
        assert_eq!(snap.counter("tenant0/undo_entries"), 4);
        assert_eq!(snap.counter("tenant1/undo_entries"), 2);
        assert_eq!(snap.counter("tenant0/persists"), 1);
        assert_eq!(snap.counter("tenant1/persists"), 0);
    }

    /// Feeds a platform-native message stream, translated by `translate`,
    /// into a fresh device through its `HomeAgent` interface.
    fn feed_native(
        stream: &[pax_cxl::EciMsg],
        mut translate: impl FnMut(pax_cxl::EciMsg) -> Option<pax_cxl::H2DReq>,
    ) -> DeviceMetrics {
        use pax_cxl::H2DReq;
        let (mut device, _) = setup();
        for msg in stream {
            match translate(msg.clone()) {
                None => {}
                Some(H2DReq::RdShared { addr }) => {
                    device.read_shared(addr).unwrap();
                }
                Some(H2DReq::RdOwn { addr }) => {
                    device.read_own(addr).unwrap();
                }
                Some(H2DReq::CleanEvict { addr }) => device.clean_evict(addr),
                Some(H2DReq::DirtyEvict { addr, data }) => device.dirty_evict(addr, data).unwrap(),
                Some(other) => panic!("untranslated request {other:?}"),
            }
        }
        device.metrics()
    }

    /// The §4 adapter layer: a raw Enzian bus stream, noise included,
    /// drives the device exactly as the same events do on native CXL.
    #[test]
    fn enzian_stream_filters_noise_but_matches_cxl_semantics() {
        use pax_cxl::{CoherenceAdapter, CxlNative, EciMsg, EnzianAdapter};
        let stream = [
            EciMsg::PrefetchProbe { addr: LineAddr(0) },
            EciMsg::StoreMiss { addr: LineAddr(0) },
            EciMsg::DvmOp,
            EciMsg::VictimDirty { addr: LineAddr(0), data: CacheLine::filled(9) },
        ];
        let mut enzian = EnzianAdapter::new();
        let m = feed_native(&stream, |msg| enzian.translate_counted(msg));
        assert_eq!(enzian.filtered(), 2);
        // The store intent was undo-logged exactly as on CXL.
        assert_eq!(m.undo_entries, 1);
        assert_eq!(m.dirty_evicts, 1);
        assert_eq!(m, feed_native(&stream, |msg| CxlNative.translate(msg)));
    }

    /// Host writes `n` lines, then gives every copy back via dirty
    /// eviction — the directory's filtered case.
    fn write_then_evict_all(device: &mut PaxDevice, cache: &mut CoherentCache, n: u64) {
        for i in 0..n {
            cache.write(LineAddr(i), CacheLine::filled(0x40 + i as u8), device).unwrap();
        }
        for i in 0..n {
            let data = cache.snoop_invalidate(LineAddr(i)).unwrap();
            device.dirty_evict(LineAddr(i), data).unwrap();
        }
    }

    #[test]
    fn directory_filters_snoops_for_lines_the_host_gave_up() {
        let (mut device, mut cache) = setup();
        write_then_evict_all(&mut device, &mut cache, 4);
        let before = device.metrics().snoops_sent;
        device.persist(&mut cache).unwrap();
        let m = device.metrics();
        assert_eq!(m.snoops_sent, before, "no snoops for lines the host handed back");
        assert_eq!(m.dir_filtered_snoops, 4);
        assert_eq!(m.dir_hits, 0);
        // The filtered persist still commits the evicted values.
        let mut pool = device.crash_into_pool();
        for i in 0..4u64 {
            let abs = pool.layout().vpm_to_pool(i).unwrap();
            assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(0x40 + i as u8));
        }
    }

    #[test]
    fn directory_snoops_lines_the_host_still_owns() {
        let (mut device, mut cache) = setup();
        for i in 0..4u64 {
            cache.write(LineAddr(i), CacheLine::filled(9), &mut device).unwrap();
        }
        device.persist(&mut cache).unwrap();
        let m = device.metrics();
        assert_eq!(m.snoops_sent, 4, "host-cached lines must still be snooped");
        assert_eq!(m.dir_hits, 4);
        assert_eq!(m.dir_filtered_snoops, 0);
    }

    #[test]
    fn disabled_directory_snoops_every_logged_line() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let config = DeviceConfig::default().with_directory(DirectoryConfig::disabled());
        let mut device = PaxDevice::open(pool, config).unwrap();
        let mut cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        write_then_evict_all(&mut device, &mut cache, 4);
        device.persist(&mut cache).unwrap();
        let m = device.metrics();
        assert_eq!(m.snoops_sent, 4, "ablation mode snoops unconditionally");
        assert_eq!(m.dir_filtered_snoops, 0);
        assert_eq!(m.dir_hits, 0);
        assert_eq!(m.dir_resident, 0, "disabled directory tracks nothing");
    }

    #[test]
    fn dir_resident_gauge_tracks_ownership_lifecycle() {
        let (mut device, mut cache) = setup();
        for i in 0..3u64 {
            cache.write(LineAddr(i), CacheLine::filled(1), &mut device).unwrap();
        }
        assert_eq!(device.metrics().dir_resident, 3);
        // A dirty eviction is give-up evidence.
        let data = cache.snoop_invalidate(LineAddr(0)).unwrap();
        device.dirty_evict(LineAddr(0), data).unwrap();
        assert_eq!(device.metrics().dir_resident, 2);
        // Persist snoops (and clears) the rest.
        device.persist(&mut cache).unwrap();
        assert_eq!(device.metrics().dir_resident, 0);
        // Crash empties the volatile directory and its gauge.
        for i in 0..3u64 {
            cache.write(LineAddr(i), CacheLine::filled(2), &mut device).unwrap();
        }
        assert_eq!(device.metrics().dir_resident, 3);
        let (_pool, _trace, snap) = device.crash_into_parts();
        assert_eq!(snap.counter("dir_resident"), 0);
    }

    #[test]
    fn persist_batches_contiguous_writebacks() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let config = DeviceConfig::default().with_persist_wb_batch(4);
        let mut device = PaxDevice::open(pool, config).unwrap();
        let mut cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
        for i in 0..8u64 {
            cache.write(LineAddr(i), CacheLine::filled(i as u8), &mut device).unwrap();
        }
        device.persist(&mut cache).unwrap();
        let m = device.metrics();
        assert_eq!(m.device_writebacks, 8, "every line still written");
        assert_eq!(m.wb_batches, 2, "8 contiguous lines at cap 4 = 2 batches");
    }

    #[test]
    fn batched_persist_takes_fewer_durable_steps() {
        let run = |batch: usize| -> u64 {
            let pool = PmPool::create(PoolConfig::small()).unwrap();
            let config = DeviceConfig::default().with_persist_wb_batch(batch);
            let mut device = PaxDevice::open(pool, config).unwrap();
            let mut cache = CoherentCache::new(CacheConfig::tiny(16 << 10, 8));
            for i in 0..16u64 {
                cache.write(LineAddr(i), CacheLine::filled(1), &mut device).unwrap();
            }
            let before = device.crash_clock().steps_taken();
            device.persist(&mut cache).unwrap();
            device.crash_clock().steps_taken() - before
        };
        assert!(
            run(8) < run(1),
            "coalesced batches must persist the same epoch in fewer durable-write steps"
        );
    }

    #[test]
    fn tenant_hbm_shares_slice_lane_capacity() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let mut regions = even_split(pool.layout().data_lines, 2);
        regions[0] = regions[0].with_hbm_share(3);
        // Tenant 1 keeps the default share of 1.
        let config = DeviceConfig::default().with_hbm(HbmConfig {
            capacity_bytes: 64 * pax_pm::LINE_SIZE,
            ways: 2,
            policy: EvictionPolicy::Lru,
        });
        let device = PaxDevice::open_multi(pool, config, regions).unwrap();
        // 64 lines split 3:1 across tenants, one lane each.
        assert_eq!(device.lanes[0].hbm.capacity_lines(), 48);
        assert_eq!(device.lanes[1].hbm.capacity_lines(), 16);
    }

    #[test]
    fn small_hbm_share_is_floored_at_one_set() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let mut regions = even_split(pool.layout().data_lines, 2);
        regions[0] = regions[0].with_hbm_share(63);
        let config = DeviceConfig::default().with_hbm(HbmConfig {
            capacity_bytes: 64 * pax_pm::LINE_SIZE,
            ways: 8,
            policy: EvictionPolicy::Lru,
        });
        let device = PaxDevice::open_multi(pool, config, regions).unwrap();
        // Tenant 1's 1/64 share is one line — rounded up to a full 8-way
        // set so the lane still functions.
        assert_eq!(device.lanes[1].hbm.capacity_lines(), 8);
    }

    #[test]
    fn config_validation_rejects_zero_batch_and_zero_share() {
        let mk = || PmPool::create(PoolConfig::small()).unwrap();
        let err =
            PaxDevice::open(mk(), DeviceConfig::default().with_persist_wb_batch(0)).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        let regions = vec![TenantRegion::new(0, 64).with_hbm_share(0)];
        let err = PaxDevice::open_multi(mk(), DeviceConfig::default(), regions).unwrap_err();
        assert!(matches!(err, PmError::Config(_)), "got {err}");
        assert!(err.to_string().contains("HBM share"));
    }

    #[test]
    fn dir_counters_conserve_across_tenant_labels() {
        let (mut device, mut cache) = setup_tenants(2, 2);
        let b = device.tenants().region(1).vpm_base;
        write_then_evict_all(&mut device, &mut cache, 4);
        for i in 0..2u64 {
            cache.write(LineAddr(b + i), CacheLine::filled(2), &mut device).unwrap();
        }
        device.persist(&mut cache).unwrap();
        let snap = device.metric_snapshot();
        for name in ["dir_hits", "dir_filtered_snoops", "wb_batches", "snoops_sent"] {
            assert_eq!(
                snap.counter(&format!("tenant0/{name}")) + snap.counter(&format!("tenant1/{name}")),
                snap.counter(name),
                "{name} must conserve across tenant labels"
            );
        }
        assert_eq!(snap.counter("dir_filtered_snoops"), 4, "tenant 0's evicted lines");
        assert_eq!(snap.counter("dir_hits"), 2, "tenant 1's still-cached lines");
    }

    /// Regression for the `persist_poll_try` starvation bug: a contended
    /// ctl lock used to be skipped silently and forever. Now every skip
    /// is counted, and once the streak passes `POLL_SKIP_LIMIT` the poll
    /// escalates to the bounded spin — which wins as soon as the holder
    /// lets go, so the async drain commits instead of starving.
    #[test]
    fn contended_poll_counts_skips_and_drains_after_release() {
        let (mut device, mut cache) = setup_cfg(DeviceConfig::default(), 1);
        for i in 0..6u64 {
            cache.write(LineAddr(i), CacheLine::filled(i as u8), &mut device).unwrap();
        }
        let epoch = device.persist_async(&mut cache).unwrap();
        {
            // A persist barrier on another thread, frozen mid-flight.
            let _ctl = lock(&device.draining[0]);
            // Past the limit, each poll also runs (and loses) the
            // bounded spin.
            let polls = POLL_SKIP_LIMIT + 2;
            for _ in 0..polls {
                device.persist_poll_try().unwrap();
            }
            let m = device.metrics();
            assert_eq!(m.persist_poll_skipped, polls, "every contended poll must be counted");
            assert_eq!(device.poll_skips[0].load(Ordering::Relaxed), polls, "streak armed");
        }
        // Holder gone: the next poll takes the fast path, resets the
        // streak, and the drain advances to commit.
        while device.persist_pending().is_some() {
            device.persist_poll_try().unwrap();
        }
        assert_eq!(device.poll_skips[0].load(Ordering::Relaxed), 0, "streak reset");
        assert_eq!(device.committed_epoch().unwrap(), epoch);
    }

    /// Four real threads hammering one lane: the atomic counters must
    /// conserve exactly (no lost increments) and the epoch-log dedup
    /// must admit each line once.
    #[test]
    fn concurrent_same_lane_stores_preserve_telemetry_conservation() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let device = PaxDevice::open(pool, DeviceConfig::default()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut home = &device;
                    for i in 0..200u64 {
                        home.read_own(LineAddr(i % 16)).unwrap();
                    }
                });
            }
        });
        let m = device.metrics();
        assert_eq!(m.rd_own, 800, "every RdOwn counted");
        assert_eq!(m.undo_entries, 16, "epoch-log dedup admits each line once");
        assert_eq!(m.hbm_hits + m.hbm_misses, 800, "every resolve classified");
    }

    /// Every tenant-indexed persist entry point rejects an out-of-range
    /// tenant with a typed config error instead of panicking.
    #[test]
    fn tenant_persist_entry_points_reject_out_of_range_tenants() {
        let (device, mut cache) = setup_tenants(2, 1);
        assert!(matches!(device.persist_wait_tenant(2), Err(PmError::Config(_))));
        assert!(matches!(device.persist_poll_tenant(2), Err(PmError::Config(_))));
        assert!(matches!(device.persist_tenant(2, &mut cache), Err(PmError::Config(_))));
        assert!(matches!(device.persist_async_tenant(2, &mut cache), Err(PmError::Config(_))));
    }
}
