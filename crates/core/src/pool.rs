//! Pool orchestration: host cache + PAX device + vPM mapping.
//!
//! [`PaxPool`] owns the simulated machine for one pool: the
//! [`PmPool`] media, the [`PaxDevice`](pax_device)
//! fronting it, and the host's per-core caches (one [`SharedComplex`],
//! one core by default) through which every application access flows.
//! [`VPm`] is the cheap, cloneable [`MemSpace`] handle structures hold —
//! the analogue of the mapped vPM virtual address range in §3.1.
//!
//! Every `VPm` access walks the full interposition path: its core's
//! cache → (on a miss no peer core can serve) CXL request → device →
//! HBM/undo log/PM. A crash at any point
//! loses exactly what real hardware would lose; recovery restores the
//! last `persist()` snapshot.
//!
//! # Concurrency
//!
//! `PaxPool`, [`PaxTenant`], and [`VPm`] are `Send + Sync`: N OS threads
//! may issue stores concurrently, each through its own core's cache
//! (§3.5). There is no global pool lock on the hot path — the engine
//! sits behind an [`RwLock`] taken in *read* mode by every access and
//! persist, so threads contend only on the fine-grained locks inside the
//! host and the device (per-core caches, per-lane device shards,
//! the media). Only [`PaxPool::crash`] takes the write lock: power loss
//! is the one event that stops the machine. See `DESIGN.md` §11 for the
//! full lock hierarchy.

use std::path::Path;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use pax_cache::{
    CacheConfig, CacheStats, ComplexStats, Hierarchy, HierarchyConfig, HierarchyStats,
    SharedComplex,
};
use pax_device::{even_split, DeviceConfig, DeviceMetrics, PaxDevice, RecoveryReport, TenantId};
use pax_pm::{CrashClock, LineAddr, PersistencyModel, PmError, PmPool, PoolConfig, LINE_SIZE};
use pax_telemetry::{MetricSet, MetricSnapshot, TelemetrySnapshot, TraceBuf};

use crate::error::PaxError;
use crate::space::MemSpace;
use crate::Result;

/// Everything needed to build a PAX-backed pool.
#[derive(Debug, Clone, Copy)]
pub struct PaxConfig {
    /// PM pool sizing and persistence domain.
    pub pool: PoolConfig,
    /// PAX device tuning.
    pub device: DeviceConfig,
    /// Geometry of each host core's private cache.
    pub cache: CacheConfig,
    /// Attach a tag-only L1/L2/LLC instrument for miss-rate measurement
    /// (Fig. 2a methodology); `None` skips the overhead.
    pub instrument: Option<HierarchyConfig>,
    /// Host cores, each with a private cache kept coherent with its
    /// peers by core-to-core transfers (§3.5) — access them through
    /// [`PaxPool::vpm_for_core`].
    pub cores: usize,
    /// When the undo-log region fills mid-epoch, transparently `persist()`
    /// and retry instead of surfacing `LogFull` — the paper's "libpax can
    /// issue persist() periodically to limit undo log growth" (§3.2).
    pub auto_persist_on_log_full: bool,
    /// Pool contexts (tenants) the device hosts. 1 is the classic
    /// single-pool device; more splits the vPM range evenly into
    /// independent tenant extents, each with its own epoch counter and
    /// recovery state — attach to one with [`PaxPool::attach`].
    pub tenants: usize,
}

impl PaxConfig {
    /// Returns the config with a different pool configuration.
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Returns the config with a different device configuration.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Returns the config with a different host-cache geometry.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Returns the config with miss-rate instrumentation enabled.
    pub fn with_instrumentation(mut self, h: HierarchyConfig) -> Self {
        self.instrument = Some(h);
        self
    }

    /// Returns the config with an `n`-core host. A zero count is
    /// rejected when the pool opens.
    pub fn with_cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Returns the config with automatic persist-on-log-full enabled.
    pub fn with_auto_persist_on_log_full(mut self) -> Self {
        self.auto_persist_on_log_full = true;
        self
    }

    /// Returns the config hosting `n` tenant pool contexts (even vPM
    /// split, equal scheduler weights). A zero count is rejected when the
    /// pool opens.
    pub fn with_tenants(mut self, n: usize) -> Self {
        self.tenants = n;
        self
    }

    /// Returns the config with a different persistency model (see
    /// [`PersistencyModel`]): the ordering/durability contract the pool
    /// layer, device drain engine, scheduler, and recovery all enforce.
    /// The default, [`PersistencyModel::Epoch`], is the engine's
    /// historical behavior. Shorthand for setting
    /// [`DeviceConfig::persistency`] on [`PaxConfig::device`].
    pub fn with_persistency(mut self, model: PersistencyModel) -> Self {
        self.device.persistency = model;
        self
    }
}

impl Default for PaxConfig {
    fn default() -> Self {
        PaxConfig {
            pool: PoolConfig::small(),
            device: DeviceConfig::default(),
            cache: CacheConfig::tiny(64 << 10, 8),
            instrument: None,
            cores: 1,
            auto_persist_on_log_full: false,
            tenants: 1,
        }
    }
}

/// Forensic state preserved across a simulated power loss: the trace,
/// final metric snapshots, and final stats views a debugger attached to
/// the dead machine would still hold.
#[derive(Debug)]
struct PostCrash {
    trace: TraceBuf,
    /// Final snapshots in full stack order: `host_cache`,
    /// `core_complex`, instrumentation, `cxl`, `device`, `media`.
    components: Vec<MetricSnapshot>,
    cache_stats: CacheStats,
    complex_stats: ComplexStats,
    hier_stats: Option<HierarchyStats>,
}

/// The running machine: everything that dies at power loss.
#[derive(Debug)]
struct Engine {
    device: PaxDevice,
    host: SharedComplex,
    /// Tag-only miss-rate instrument; its own lock because it is pure
    /// telemetry — it must not serialize the access path it measures
    /// beyond its own bookkeeping.
    hier: Option<Mutex<Hierarchy>>,
}

#[derive(Debug)]
struct Inner {
    /// `None` after a simulated power loss: subsequent accesses fail with
    /// the crash error, like a real process whose mapping died. Accesses
    /// and persists share the read side; only `crash` writes.
    engine: RwLock<Option<Engine>>,
    /// Populated by [`PaxPool::crash`] so telemetry and the trace dump
    /// stay readable post-mortem.
    post_crash: Mutex<Option<PostCrash>>,
    auto_persist_on_log_full: bool,
}

/// Live-engine projection of the read guard, or the crash error.
fn live(engine: &Option<Engine>) -> Result<&Engine> {
    engine.as_ref().ok_or(PaxError::Pm(PmError::Crashed))
}

/// Sink for cache state discarded at a crash (nothing survives).
struct NullHome;

impl pax_cache::HomeAgent for NullHome {
    fn read_shared(&mut self, addr: LineAddr) -> pax_pm::Result<pax_pm::CacheLine> {
        Err(PmError::OutOfBounds { addr, capacity_lines: 0 })
    }

    fn read_own(&mut self, addr: LineAddr) -> pax_pm::Result<pax_pm::CacheLine> {
        Err(PmError::OutOfBounds { addr, capacity_lines: 0 })
    }

    fn clean_evict(&mut self, _addr: LineAddr) {}

    fn dirty_evict(&mut self, _addr: LineAddr, _data: pax_pm::CacheLine) -> pax_pm::Result<()> {
        Ok(())
    }
}

/// Rejects a cache geometry with no ways or too small for one full set
/// (the set-associative array would divide by zero or assert).
fn check_geometry(what: &str, c: CacheConfig) -> Result<()> {
    if c.ways == 0 || c.capacity_bytes / LINE_SIZE < c.ways {
        return Err(PaxError::Pm(PmError::Config(format!(
            "{what} of {} bytes and {} ways holds no full set",
            c.capacity_bytes, c.ways
        ))));
    }
    Ok(())
}

/// A live PAX-backed pool (see module docs).
#[derive(Debug, Clone)]
pub struct PaxPool {
    inner: Arc<Inner>,
    vpm_bytes: u64,
}

impl PaxPool {
    /// Creates a fresh pool with zeroed vPM.
    ///
    /// # Errors
    ///
    /// Propagates pool-layout and media errors.
    pub fn create(config: PaxConfig) -> Result<Self> {
        let pool = PmPool::create(config.pool)?;
        Self::open(pool, config)
    }

    /// Opens an existing [`PmPool`], running §3.4 recovery. Constructing a
    /// new pool and recovering one are the same operation.
    ///
    /// # Errors
    ///
    /// Returns a config error for a host of zero cores, a host cache or
    /// instrument level that cannot hold one full set, or a device of
    /// zero tenants, and propagates recovery/media errors.
    pub fn open(pool: PmPool, config: PaxConfig) -> Result<Self> {
        if config.cores == 0 {
            return Err(PaxError::Pm(PmError::Config("a host needs at least one core".into())));
        }
        check_geometry("host cache", config.cache)?;
        if let Some(h) = config.instrument {
            check_geometry("instrument L1", h.l1)?;
            check_geometry("instrument L2", h.l2)?;
            check_geometry("instrument LLC", h.llc)?;
        }
        let vpm_bytes = pool.layout().data_lines * LINE_SIZE as u64;
        let regions = even_split(pool.layout().data_lines, config.tenants);
        let device = PaxDevice::open_multi(pool, config.device, regions)?;
        Ok(PaxPool {
            inner: Arc::new(Inner {
                engine: RwLock::new(Some(Engine {
                    device,
                    host: SharedComplex::new(config.cores, config.cache),
                    hier: config.instrument.map(|h| Mutex::new(Hierarchy::new(h))),
                })),
                post_crash: Mutex::new(None),
                auto_persist_on_log_full: config.auto_persist_on_log_full,
            }),
            vpm_bytes,
        })
    }

    /// Maps a pool file: loads it if `path` exists, creates it otherwise
    /// (the `map_pool("./ht.pool")` of Listing 1).
    ///
    /// # Errors
    ///
    /// Propagates file I/O and pool-format errors.
    pub fn map_file(path: impl AsRef<Path>, config: PaxConfig) -> Result<Self> {
        let path = path.as_ref();
        let pool = if path.exists() { PmPool::load(path)? } else { PmPool::create(config.pool)? };
        Self::open(pool, config)
    }

    /// The vPM handle applications and structures use (core 0's
    /// mapping).
    pub fn vpm(&self) -> VPm {
        self.vpm_for_core(0)
    }

    /// A vPM handle whose accesses run through `core`'s private cache —
    /// hand one to each application thread for the §3.5 concurrency model.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the configured host.
    pub fn vpm_for_core(&self, core: usize) -> VPm {
        if let Some(e) = self.inner.engine.read().as_ref() {
            let cores = e.host.cores();
            assert!(core < cores, "core {core} out of range for {cores}-core host");
        }
        VPm { inner: Arc::clone(&self.inner), base_bytes: 0, vpm_bytes: self.vpm_bytes, core }
    }

    /// Attaches to tenant `t`'s pool context, returning a handle whose
    /// vPM window and persist operations cover only that tenant's extent
    /// — the multi-pool analogue of mapping one pool among many hosted by
    /// the same device.
    ///
    /// # Errors
    ///
    /// Fails with a config error for an out-of-range tenant, or if power
    /// was already lost.
    pub fn attach(&self, t: TenantId) -> Result<PaxTenant> {
        let engine = self.inner.engine.read();
        let e = live(&engine)?;
        if t >= e.device.tenant_count() {
            return Err(PaxError::Pm(PmError::Config(format!(
                "tenant {t} out of range for a {}-tenant pool",
                e.device.tenant_count()
            ))));
        }
        let region = e.device.tenants().region(t);
        Ok(PaxTenant {
            inner: Arc::clone(&self.inner),
            tenant: t,
            base_bytes: region.vpm_base * LINE_SIZE as u64,
            vpm_bytes: region.vpm_lines * LINE_SIZE as u64,
        })
    }

    /// Tenant pool contexts hosted by the device.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn tenant_count(&self) -> Result<usize> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.tenant_count())
    }

    /// Cross-core transfer statistics (all zero on a one-core host).
    pub fn complex_stats(&self) -> ComplexStats {
        match self.inner.engine.read().as_ref() {
            Some(e) => e.host.stats(),
            None => {
                self.inner.post_crash.lock().as_ref().map(|pc| pc.complex_stats).unwrap_or_default()
            }
        }
    }

    /// Shards the device's per-line state is interleaved across.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn shard_count(&self) -> Result<usize> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.shard_count())
    }

    /// Ends the current epoch: durably commits a crash-consistent
    /// snapshot and returns its epoch number (§3.3).
    ///
    /// Per §3.5, the caller must ensure no thread is mid-operation;
    /// `PaxPool` serializes against *individual* accesses internally, but
    /// compound structure operations need application-level quiescence.
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist(&self) -> Result<u64> {
        let engine = self.inner.engine.read();
        let e = live(&engine)?;
        Ok(e.device.persist(&mut &e.host)?)
    }

    /// Begins a **non-blocking** persist (the paper's §6 extension) of
    /// every tenant's epoch, in tenant order: captures each epoch's
    /// modified lines and returns tenant 0's epoch number immediately;
    /// the device drains them in the background while the application
    /// works in the next epoch. Durability holds only once
    /// an epoch commits — [`PaxPool::persist_poll`] reports it, or
    /// [`PaxPool::persist_wait`] blocks for every tenant's.
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist_async(&self) -> Result<u64> {
        let engine = self.inner.engine.read();
        let e = live(&engine)?;
        Ok(e.device.persist_async(&mut &e.host)?)
    }

    /// Advances a non-blocking persist; `Some(epoch)` when it commits.
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist_poll(&self) -> Result<Option<u64>> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.persist_poll()?)
    }

    /// Blocks until any non-blocking persist has committed.
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist_wait(&self) -> Result<()> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.persist_wait()?)
    }

    /// The epoch currently draining from a non-blocking persist, if any.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn persist_pending(&self) -> Result<Option<u64>> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.persist_pending())
    }

    /// Advances the device's virtual-time scheduler by `ticks`: every
    /// shard's background engines (and any draining non-blocking persist)
    /// make their per-tick budget of progress, independent of foreground
    /// traffic. Returns the durable-write steps performed — the
    /// application-level handle on §3.2's "the device may write back a
    /// dirty line at any time once its undo entry is durable".
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn run_device(&self, ticks: u64) -> Result<u64> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.tick(ticks)?)
    }

    /// Virtual ticks the device scheduler has executed
    /// ([`PaxPool::run_device`]).
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn device_ticks(&self) -> Result<u64> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.ticks_elapsed())
    }

    /// Simulates power loss, returning the pool's durable remains for a
    /// later [`PaxPool::open`]. All live handles to this pool start
    /// failing with a crash error.
    ///
    /// This is the only operation that takes the engine lock in write
    /// mode: it waits out every in-flight access, then stops the machine.
    ///
    /// # Errors
    ///
    /// Returns the crash error if power was already lost.
    pub fn crash(&self) -> Result<PmPool> {
        let mut engine = self.inner.engine.write();
        let Engine { device, host, hier } = engine.take().ok_or(PaxError::Pm(PmError::Crashed))?;
        // Host-cache contents die with power. Note that eADR would flush
        // dirty lines *to the device* — whose buffers are equally volatile
        // — so under PAX even eADR does not move the recovery point: it is
        // always the last committed epoch.
        host.crash(pax_pm::PersistenceDomain::Adr, &mut NullHome)
            .expect("discarding cache state cannot fail");
        let mut components = vec![host.cache_metrics(), host.metrics()];
        if let Some(h) = &hier {
            components.push(h.lock().metrics());
        }
        components.push(Self::link_snapshot(&device.metrics()));
        let cache_stats = host.core_stats(0);
        let complex_stats = host.stats();
        let hier_stats = hier.as_ref().map(|h| h.lock().stats());
        let (pm, trace, device_snapshot) = device.crash_into_parts();
        components.push(device_snapshot);
        components.push(pm.media_metrics());
        *self.inner.post_crash.lock() =
            Some(PostCrash { trace, components, cache_stats, complex_stats, hier_stats });
        Ok(pm)
    }

    /// Saves the pool's durable state to a file (reboot-to-file analogue
    /// of [`PaxPool::crash`], leaving this pool usable).
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; fails after a crash.
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<()> {
        let engine = self.inner.engine.read();
        live(&engine)?.device.save(path)?;
        Ok(())
    }

    /// The crash clock shared with the device; arm it to cut power at an
    /// exact durable-write step.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn crash_clock(&self) -> Result<CrashClock> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.crash_clock())
    }

    /// The device's event counters.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn device_metrics(&self) -> Result<DeviceMetrics> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.metrics())
    }

    /// Core 0's host-cache event counters.
    pub fn cache_stats(&self) -> CacheStats {
        match self.inner.engine.read().as_ref() {
            Some(e) => e.host.core_stats(0),
            None => {
                self.inner.post_crash.lock().as_ref().map(|pc| pc.cache_stats).unwrap_or_default()
            }
        }
    }

    /// Miss-rate instrumentation counters, if enabled.
    pub fn hierarchy_stats(&self) -> Option<HierarchyStats> {
        match self.inner.engine.read().as_ref() {
            Some(e) => e.hier.as_ref().map(|h| h.lock().stats()),
            None => self.inner.post_crash.lock().as_ref().and_then(|pc| pc.hier_stats),
        }
    }

    /// The implied CXL link traffic of the host↔device path, derived from
    /// the device's request counters — the only record of link traffic
    /// (`messages`, `data_bytes`): every request earns a response, and
    /// data crosses on read responses, dirty-evict payloads, and snoop
    /// data returns.
    fn link_snapshot(m: &DeviceMetrics) -> MetricSnapshot {
        let mut set = MetricSet::new("cxl");
        let messages = set.counter("messages");
        let data_bytes = set.counter("data_bytes");
        set.add(messages, 2 * m.total_messages());
        set.add(
            data_bytes,
            (m.rd_shared + m.rd_own + m.dirty_evicts + m.snoop_data_returned) * LINE_SIZE as u64,
        );
        set.snapshot()
    }

    /// One cross-layer snapshot of every component's metric registry, in
    /// stack order: `host_cache` (every core's caches summed),
    /// `core_complex`, `cache_hierarchy` when configured, `cxl`, `device`,
    /// `media`.
    ///
    /// Works after a crash too: [`PaxPool::crash`] stashes every
    /// component's final snapshot, so post-mortem accounting (e.g. "how
    /// many undo entries had been appended when power died?") keeps
    /// working while accesses fail.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        match self.inner.engine.read().as_ref() {
            Some(e) => {
                let mut components = vec![e.host.cache_metrics(), e.host.metrics()];
                if let Some(h) = &e.hier {
                    components.push(h.lock().metrics());
                }
                components.push(Self::link_snapshot(&e.device.metrics()));
                components.push(e.device.metric_snapshot());
                components.push(e.device.media_metrics());
                TelemetrySnapshot::new(components)
            }
            None => TelemetrySnapshot::new(
                self.inner
                    .post_crash
                    .lock()
                    .as_ref()
                    .map(|pc| pc.components.clone())
                    .unwrap_or_default(),
            ),
        }
    }

    /// The device's structured trace as JSON lines (oldest first).
    ///
    /// Live pools dump the device's current buffer; crashed pools dump
    /// the stashed final trace, whose last events are the log appends and
    /// the injected crash — the forensic record replay tooling consumes.
    pub fn trace_dump(&self) -> String {
        match self.inner.engine.read().as_ref() {
            Some(e) => e.device.trace_dump(),
            None => self
                .inner
                .post_crash
                .lock()
                .as_ref()
                .map(|pc| pc.trace.dump_json_lines())
                .unwrap_or_default(),
        }
    }

    /// The recovery report from when this pool was opened.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn recovery_report(&self) -> Result<RecoveryReport> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.recovery_report())
    }

    /// The committed (recovery-point) epoch.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn committed_epoch(&self) -> Result<u64> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.committed_epoch()?)
    }

    /// Bytes of vPM exposed to the application.
    pub fn vpm_bytes(&self) -> u64 {
        self.vpm_bytes
    }
}

/// A handle onto one tenant's pool context of a multi-tenant
/// [`PaxPool`]: its vPM window and its independent persist/epoch
/// operations. Cheap to clone; all handles share the one simulated
/// machine.
#[derive(Debug, Clone)]
pub struct PaxTenant {
    inner: Arc<Inner>,
    tenant: TenantId,
    base_bytes: u64,
    vpm_bytes: u64,
}

impl PaxTenant {
    /// This handle's tenant index.
    pub fn tenant_id(&self) -> TenantId {
        self.tenant
    }

    /// Bytes of vPM in this tenant's window.
    pub fn vpm_bytes(&self) -> u64 {
        self.vpm_bytes
    }

    /// The tenant's vPM mapping: address 0 is the tenant extent's base,
    /// and accesses past the extent fail the bounds check — one tenant
    /// cannot name another's lines through its own window.
    pub fn vpm(&self) -> VPm {
        self.vpm_for_core(0)
    }

    /// A vPM handle for this tenant running through `core`'s cache.
    pub fn vpm_for_core(&self, core: usize) -> VPm {
        VPm {
            inner: Arc::clone(&self.inner),
            base_bytes: self.base_bytes,
            vpm_bytes: self.vpm_bytes,
            core,
        }
    }

    /// Ends this tenant's epoch: a barrier over the tenant's own lanes
    /// only, ending in an atomic commit of its header epoch slot. Other
    /// tenants' in-flight epochs are never flushed or stalled.
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist(&self) -> Result<u64> {
        let engine = self.inner.engine.read();
        let e = live(&engine)?;
        Ok(e.device.persist_tenant(self.tenant, &mut &e.host)?)
    }

    /// Begins a non-blocking persist of this tenant's epoch (§6).
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist_async(&self) -> Result<u64> {
        let engine = self.inner.engine.read();
        let e = live(&engine)?;
        Ok(e.device.persist_async_tenant(self.tenant, &mut &e.host)?)
    }

    /// Advances this tenant's non-blocking persist; `Some(epoch)` when it
    /// commits.
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist_poll(&self) -> Result<Option<u64>> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.persist_poll_tenant(self.tenant)?)
    }

    /// Completes this tenant's non-blocking persist, if one is draining.
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist_wait(&self) -> Result<()> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.persist_wait_tenant(self.tenant)?)
    }

    /// The epoch this tenant is currently draining, if any.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn persist_pending(&self) -> Result<Option<u64>> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.persist_pending_tenant(self.tenant))
    }

    /// This tenant's committed (recovery-point) epoch.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn committed_epoch(&self) -> Result<u64> {
        let engine = self.inner.engine.read();
        Ok(live(&engine)?.device.committed_epoch_for(self.tenant)?)
    }
}

/// The mapped vPM range: a [`MemSpace`] whose every access runs the full
/// host-cache → CXL → device path (see module docs).
#[derive(Debug, Clone)]
pub struct VPm {
    inner: Arc<Inner>,
    /// First byte of the mapped window in device vPM space (non-zero for
    /// a tenant's mapping, whose address 0 is its extent's base).
    base_bytes: u64,
    /// Bytes in the window; the bounds check is against this extent.
    vpm_bytes: u64,
    /// Which core's cache this mapping's accesses run through.
    core: usize,
}

impl VPm {
    fn check(&self, addr: u64, len: usize) -> Result<()> {
        if addr.checked_add(len as u64).is_none_or(|end| end > self.vpm_bytes) {
            return Err(PaxError::Pm(PmError::OutOfBounds {
                addr: LineAddr::from_byte_addr(addr),
                capacity_lines: self.vpm_bytes / LINE_SIZE as u64,
            }));
        }
        Ok(())
    }

    /// Splits `[addr, addr+len)` into per-line `(line, offset, len)`
    /// pieces.
    fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (LineAddr, usize, usize)> {
        let mut cur = addr;
        let end = addr + len as u64;
        std::iter::from_fn(move || {
            if cur >= end {
                return None;
            }
            let line = LineAddr::from_byte_addr(cur);
            let off = (cur - line.byte_addr()) as usize;
            let n = ((LINE_SIZE - off) as u64).min(end - cur) as usize;
            cur += n as u64;
            Some((line, off, n))
        })
    }
}

impl MemSpace for VPm {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len())?;
        let engine = self.inner.engine.read();
        let e = live(&engine)?;
        let mut done = 0;
        for (line, off, n) in Self::pieces(self.base_bytes + addr, buf.len()) {
            if let Some(h) = &e.hier {
                h.lock().access(line);
            }
            let data = e.host.read(self.core, line, &mut &e.device)?;
            buf[done..done + n].copy_from_slice(data.read_at(off, n));
            done += n;
        }
        Ok(())
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> Result<()> {
        self.check(addr, data.len())?;
        let engine = self.inner.engine.read();
        let e = live(&engine)?;
        let mut done = 0;
        for (line, off, n) in Self::pieces(self.base_bytes + addr, data.len()) {
            if let Some(h) = &e.hier {
                h.lock().access(line);
            }
            let store_line = || {
                let mut home = &e.device;
                let bytes = &data[done..done + n];
                let new = if n == LINE_SIZE {
                    pax_pm::CacheLine::from_bytes(bytes)
                } else {
                    // A read-modify-write. Per §3.5 the structure layer
                    // serializes its own conflicting same-line accesses,
                    // so the load and the store are two ordinary protocol
                    // operations, not an atomic pair.
                    let mut l = e.host.read(self.core, line, &mut home)?;
                    l.write_at(off, bytes);
                    l
                };
                e.host.write(self.core, line, new, &mut home)
            };
            match store_line() {
                Ok(()) => {
                    // Strict persistency: every completed line store is
                    // its own durable epoch. The barrier must run here,
                    // at the pool layer — the device acknowledges RdOwn
                    // before the host writes the new data, so only the
                    // store's completion point sees the value that has to
                    // become durable.
                    if e.device.persistency().persist_per_store() {
                        match e.device.tenant_of(line) {
                            Some(t) => e.device.persist_tenant(t, &mut &e.host)?,
                            None => e.device.persist(&mut &e.host)?,
                        };
                    }
                }
                Err(PmError::LogFull { .. }) if self.inner.auto_persist_on_log_full => {
                    // §3.2: persist periodically to limit undo log growth
                    // — here, exactly when growth hits the limit, and only
                    // for the tenant whose bank filled: another tenant's
                    // open epoch must not be committed on its behalf.
                    match e.device.tenant_of(line) {
                        Some(t) => e.device.persist_tenant(t, &mut &e.host)?,
                        None => e.device.persist(&mut &e.host)?,
                    };
                    store_line()?;
                }
                Err(err) => return Err(err.into()),
            }
            done += n;
        }
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.vpm_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_round_trip() {
        let pool = PaxPool::create(PaxConfig::default()).unwrap();
        let vpm = pool.vpm();
        vpm.write_u64(128, 0xABCD).unwrap();
        assert_eq!(vpm.read_u64(128).unwrap(), 0xABCD);
    }

    #[test]
    fn unaligned_multi_line_access() {
        let pool = PaxPool::create(PaxConfig::default()).unwrap();
        let vpm = pool.vpm();
        // A write straddling three lines, at an odd offset.
        let data: Vec<u8> = (0..150u8).collect();
        vpm.write_bytes(61, &data).unwrap();
        let mut buf = vec![0u8; 150];
        vpm.read_bytes(61, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Neighbouring bytes untouched.
        assert_eq!(vpm.read_u32(56).unwrap(), 0);
    }

    #[test]
    fn bounds_checked() {
        let pool = PaxPool::create(PaxConfig::default()).unwrap();
        let vpm = pool.vpm();
        let cap = vpm.capacity_bytes();
        assert!(vpm.write_u64(cap - 8, 1).is_ok());
        assert!(vpm.write_u64(cap - 7, 1).is_err());
        assert!(vpm.read_u64(u64::MAX - 2).is_err());
    }

    #[test]
    fn persist_then_crash_then_reopen_preserves_data() {
        let pool = PaxPool::create(PaxConfig::default()).unwrap();
        let vpm = pool.vpm();
        vpm.write_u64(0, 11).unwrap();
        vpm.write_u64(4096, 22).unwrap();
        pool.persist().unwrap();
        vpm.write_u64(0, 99).unwrap(); // unpersisted

        let pm = pool.crash().unwrap();
        // Live handles now fail.
        assert!(vpm.read_u64(0).is_err());

        let reopened = PaxPool::open(pm, PaxConfig::default()).unwrap();
        let vpm2 = reopened.vpm();
        assert_eq!(vpm2.read_u64(0).unwrap(), 11, "rolled back to snapshot");
        assert_eq!(vpm2.read_u64(4096).unwrap(), 22);
    }

    #[test]
    fn instrumentation_counts_accesses() {
        let config = PaxConfig::default().with_instrumentation(HierarchyConfig::c6420());
        let pool = PaxPool::create(config).unwrap();
        let vpm = pool.vpm();
        vpm.write_u64(0, 1).unwrap();
        vpm.read_u64(0).unwrap();
        let stats = pool.hierarchy_stats().unwrap();
        assert!(stats.total_accesses() >= 2);
        assert!(PaxPool::create(PaxConfig::default()).unwrap().hierarchy_stats().is_none());
    }

    #[test]
    fn map_file_round_trip() {
        let dir = std::env::temp_dir().join("libpax-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map_file.pool");
        let _ = std::fs::remove_file(&path);

        let pool = PaxPool::map_file(&path, PaxConfig::default()).unwrap();
        pool.vpm().write_u64(8, 77).unwrap();
        pool.persist().unwrap();
        pool.save_file(&path).unwrap();
        drop(pool);

        let pool2 = PaxPool::map_file(&path, PaxConfig::default()).unwrap();
        assert_eq!(pool2.vpm().read_u64(8).unwrap(), 77);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn map_file_rejects_a_version_1_pool() {
        let dir = std::env::temp_dir().join("libpax-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("version1.pool");
        let pool = PaxPool::create(PaxConfig::default()).unwrap();
        pool.vpm().write_u64(8, 77).unwrap();
        pool.persist().unwrap();
        pool.save_file(&path).unwrap();
        drop(pool);
        // Stamp the file as the 2-line-entry format: its log must not be
        // recovered as blocks.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let got = PaxPool::map_file(&path, PaxConfig::default());
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(got, Err(PaxError::Pm(PmError::BadPool(_)))),
            "expected BadPool, got {:?}",
            got.err()
        );
    }

    #[test]
    fn sharded_multicore_pool_accounts_shard_traffic() {
        let config =
            PaxConfig::default().with_cores(4).with_device(DeviceConfig::default().with_shards(4));
        let pool = PaxPool::create(config).unwrap();
        assert_eq!(pool.shard_count().unwrap(), 4);
        // Each core writes its own stripe of lines; the interleave spreads
        // the accesses across all four shards.
        for core in 0..4usize {
            let vpm = pool.vpm_for_core(core);
            for i in 0..8u64 {
                vpm.write_u64((core as u64 * 8 + i) * LINE_SIZE as u64, i).unwrap();
            }
        }
        // The shard dimension shows up in cross-layer telemetry: every
        // shard took ownership requests, and the merged device counters
        // still reflect all shards.
        let t = pool.telemetry();
        for shard in 0..4 {
            let rd_own = t.counter("device", &format!("shard{shard}/rd_own"));
            assert!(rd_own > 0, "shard {shard} saw no traffic");
        }
        assert_eq!(t.counter("device", "shards"), 4);
        assert_eq!(t.counter("device", "rd_own"), 32);
        pool.persist().unwrap();
        assert_eq!(pool.committed_epoch().unwrap(), 1);
    }

    #[test]
    fn run_device_commits_an_async_persist_without_traffic() {
        // Pump interval so large that foreground requests never pump:
        // only explicit virtual ticks can drain the epoch.
        let config = PaxConfig::default()
            .with_device(DeviceConfig::default().with_log_pump_interval(usize::MAX));
        let pool = PaxPool::create(config).unwrap();
        let vpm = pool.vpm();
        for i in 0..8u64 {
            vpm.write_u64(i * LINE_SIZE as u64, i + 1).unwrap();
        }
        let epoch = pool.persist_async().unwrap();
        assert_eq!(pool.persist_pending().unwrap(), Some(epoch));
        let mut worked = 0;
        while pool.persist_pending().unwrap().is_some() {
            worked += pool.run_device(1).unwrap();
        }
        assert!(worked > 0);
        assert!(pool.device_ticks().unwrap() > 0);
        assert_eq!(pool.committed_epoch().unwrap(), epoch);
    }

    #[test]
    fn double_crash_is_an_error() {
        let pool = PaxPool::create(PaxConfig::default()).unwrap();
        pool.crash().unwrap();
        assert!(pool.crash().is_err());
        assert!(pool.persist().is_err());
    }

    /// A zero-core host, or a host cache or instrument level with no ways
    /// or too small for one full set, is a typed config error, whether it
    /// comes from the builder or a struct literal — never a panic, never
    /// a silent single core.
    #[test]
    fn bad_host_config_is_a_config_error() {
        for config in [
            PaxConfig::default().with_cores(0),
            PaxConfig { cores: 0, ..Default::default() },
            PaxConfig::default().with_cache(CacheConfig::tiny(4 << 10, 0)),
            PaxConfig::default().with_cache(CacheConfig::tiny(0, 8)),
            PaxConfig::default().with_cores(3).with_cache(CacheConfig::tiny(7 * 64, 8)),
            PaxConfig::default().with_instrumentation(HierarchyConfig {
                l2: CacheConfig::tiny(4 << 10, 0),
                ..HierarchyConfig::c6420()
            }),
            PaxConfig::default().with_instrumentation(HierarchyConfig {
                l1: CacheConfig::tiny(0, 8),
                ..HierarchyConfig::c6420()
            }),
        ] {
            let err = PaxPool::create(config).unwrap_err();
            assert!(matches!(err, PaxError::Pm(PmError::Config(_))), "{err}");
        }
    }

    #[test]
    fn tenants_have_windowed_vpm_and_independent_persist() {
        let pool = PaxPool::create(PaxConfig::default().with_tenants(2)).unwrap();
        assert_eq!(pool.tenant_count().unwrap(), 2);
        let a = pool.attach(0).unwrap();
        let b = pool.attach(1).unwrap();
        assert!(pool.attach(2).is_err());
        // Both tenants write at *their own* address 0 — distinct lines.
        a.vpm().write_u64(0, 0xA).unwrap();
        b.vpm().write_u64(0, 0xB).unwrap();
        assert_eq!(a.vpm().read_u64(0).unwrap(), 0xA);
        assert_eq!(b.vpm().read_u64(0).unwrap(), 0xB);
        // A window cannot reach past its extent.
        assert!(a.vpm().write_u64(a.vpm_bytes(), 1).is_err());
        // A's persist commits A's epoch only.
        assert_eq!(a.persist().unwrap(), 1);
        assert_eq!(a.committed_epoch().unwrap(), 1);
        assert_eq!(b.committed_epoch().unwrap(), 0);
    }

    #[test]
    fn tenant_crash_recovers_each_window_independently() {
        let config = PaxConfig::default().with_tenants(2);
        let pool = PaxPool::create(config).unwrap();
        let a = pool.attach(0).unwrap();
        let b = pool.attach(1).unwrap();
        a.vpm().write_u64(0, 1).unwrap();
        b.vpm().write_u64(0, 1).unwrap();
        a.persist().unwrap();
        b.persist().unwrap();
        a.vpm().write_u64(0, 2).unwrap();
        b.vpm().write_u64(0, 2).unwrap();
        b.persist().unwrap(); // only B's second epoch commits

        let pm = pool.crash().unwrap();
        let reopened = PaxPool::open(pm, config).unwrap();
        let a2 = reopened.attach(0).unwrap();
        let b2 = reopened.attach(1).unwrap();
        assert_eq!(a2.vpm().read_u64(0).unwrap(), 1, "A rolls back to its epoch 1");
        assert_eq!(b2.vpm().read_u64(0).unwrap(), 2, "B keeps its epoch 2");
        assert_eq!(a2.committed_epoch().unwrap(), 1);
        assert_eq!(b2.committed_epoch().unwrap(), 2);

        // The pool-wide non-blocking persist closes every tenant, as the
        // synchronous one does.
        a2.vpm().write_u64(0, 3).unwrap();
        b2.vpm().write_u64(0, 9).unwrap();
        assert_eq!(reopened.persist_async().unwrap(), 2, "tenant 0's epoch is returned");
        reopened.persist_wait().unwrap();
        assert_eq!(a2.committed_epoch().unwrap(), 2);
        assert_eq!(b2.committed_epoch().unwrap(), 3);
        let pm = reopened.crash().unwrap();
        let again = PaxPool::open(pm, config).unwrap();
        assert_eq!(again.attach(0).unwrap().vpm().read_u64(0).unwrap(), 3);
        assert_eq!(again.attach(1).unwrap().vpm().read_u64(0).unwrap(), 9);
    }

    #[test]
    fn log_full_auto_persist_commits_only_the_filling_tenant() {
        let mut cfg = PoolConfig::small();
        // A log region small enough to fill quickly once split across the
        // tenants' banks.
        cfg.log_bytes = 64 * LINE_SIZE;
        let config =
            PaxConfig::default().with_pool(cfg).with_tenants(2).with_auto_persist_on_log_full();
        let pool = PaxPool::create(config).unwrap();
        let a = pool.attach(0).unwrap();
        let b = pool.attach(1).unwrap();
        b.vpm().write_u64(0, 7).unwrap();
        // Hammer distinct lines through A until its bank must recycle.
        for i in 0..256u64 {
            a.vpm().write_u64((i % 128) * LINE_SIZE as u64, i).unwrap();
        }
        assert!(a.committed_epoch().unwrap() >= 1, "A auto-persisted on log full");
        assert_eq!(b.committed_epoch().unwrap(), 0, "B's open epoch was not committed for it");
    }

    #[test]
    fn pool_handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PaxPool>();
        assert_send_sync::<PaxTenant>();
        assert_send_sync::<VPm>();
    }

    #[test]
    fn concurrent_tenant_threads_store_and_persist() {
        let config = PaxConfig::default()
            .with_cores(4)
            .with_tenants(4)
            .with_device(DeviceConfig::default().with_shards(4));
        let pool = PaxPool::create(config).unwrap();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let tenant = pool.attach(t).unwrap();
                s.spawn(move || {
                    let vpm = tenant.vpm_for_core(t);
                    let lines = tenant.vpm_bytes() / LINE_SIZE as u64;
                    for i in 0..64u64 {
                        vpm.write_u64((i % lines) * LINE_SIZE as u64, i + 1).unwrap();
                    }
                    tenant.persist().unwrap();
                });
            }
        });
        for t in 0..4 {
            let tenant = pool.attach(t).unwrap();
            assert_eq!(tenant.committed_epoch().unwrap(), 1);
            // Line 0's last writer is the largest i ≡ 0 (mod lines).
            let lines = tenant.vpm_bytes() / LINE_SIZE as u64;
            let expected = (63 / lines) * lines + 1;
            assert_eq!(tenant.vpm().read_u64(0).unwrap(), expected);
        }
    }

    #[test]
    fn telemetry_and_stats_survive_a_crash() {
        let config =
            PaxConfig::default().with_cores(2).with_device(DeviceConfig::default().with_shards(2));
        let pool = PaxPool::create(config).unwrap();
        pool.vpm().write_u64(0, 1).unwrap();
        pool.vpm_for_core(1).read_u64(0).unwrap();
        let live = pool.complex_stats();
        assert_eq!(live.cache_to_cache_transfers, 1);
        pool.crash().unwrap();
        assert_eq!(pool.complex_stats(), live);
        assert!(pool.telemetry().counter("device", "rd_own") >= 1);
        assert!(pool.trace_dump().contains("crash"));
    }
}
