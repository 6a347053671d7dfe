//! Address-interleaved device shards and their shared lane state.
//!
//! The paper's home agent pipelines independent lines; a monolithic
//! [`PaxDevice`](crate::PaxDevice) cannot express that — every request
//! serializes on one HBM array, one undo-log append port, and one
//! write-back queue. A [`Lane`] is the per-line-address slice of
//! that state: lines are interleaved across `S` shards by
//! `addr % S` (the mandatory banking of a CXL home agent), and each lane
//! owns
//!
//! * its own HBM sets (a `1/S` slice of the buffer, indexed in
//!   shard-local address space so interleaving cannot alias sets),
//! * its own undo-log **bank** — a `capacity/S` slice of the pool's log
//!   region with an independent monotonic watermark, so appends on
//!   different shards never contend on one append port,
//! * its own write-back queue and epoch table ([`EpochLog`]: each line
//!   logged this epoch, its undo offset, and whether the host may still
//!   hold it modified — the persist-time snoop filter),
//! * its own [`MetricSet`] (all stamped with the `device` component, so
//!   cross-layer telemetry merges them back into one view), and
//! * its own trace ring, which dumps merge back into one trace.
//!
//! What stays *global* is the epoch: `persist()` is a cross-shard barrier
//! — flush every bank, snoop, write back, then one atomic `commit_epoch`
//! — so sharding changes concurrency, never crash-consistency semantics.
//!
//! # Lanes hold no lock of their own
//!
//! Every piece of a lane's state is reachable through `&self` and safe
//! to share across threads: the concurrent HBM set index, the striped
//! epoch table, the write-back queue, the atomic counter registry, the
//! lock-free undo bank, and the trace ring. `RdShared` / `RdOwn` /
//! eviction traffic and the persist sweep on the same lane therefore
//! proceed without any lane-wide mutex. The only lane-local
//! serialization left is the [`WbGate`](crate::cell::WbGate), which
//! orders the lane's write-back *drains* against each other. See
//! DESIGN.md §15–§16 for the full protocol and ordering invariants.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use pax_pm::{CacheLine, CrashClock, LineAddr, PmError, PmPool, Result};
use pax_telemetry::{MetricSet, MetricSnapshot};

use crate::cell::{PoolCell, RingEvent, TraceRing, WbGate};

use crate::hbm::{HbmCache, HbmConfig, HbmLine};
use crate::metrics::{DeviceCounters, DeviceMetrics};
use crate::undo_log::{UndoEntry, UndoLog, BLOCK_LINES};

/// Component name stamped on every shard's metrics and trace records —
/// identical to the device's, so merged snapshots stay one `device` row.
pub(crate) const COMPONENT: &str = "device";

/// Number of independently locked stripes in the per-epoch line table,
/// so concurrent first-writes on one lane rarely contend.
const EPOCH_LOG_STRIPES: usize = 16;

/// The lane's per-epoch line table, striped for concurrency: each line
/// undo-logged this epoch → `(offset, owned)`, its log offset and
/// whether the host may still hold it modified (the persist-time snoop
/// filter; DESIGN.md §10 says why one bit here is exact). `try_insert`
/// holds one stripe lock across the dedup-check, the caller's log
/// append *and* the ownership grant, making "log exactly once per line
/// per epoch" atomic under concurrent `RdOwn`s to the same line.
#[derive(Debug, Default)]
pub(crate) struct EpochLog {
    stripes: Vec<Mutex<HashMap<LineAddr, (u64, bool)>>>,
    len: AtomicUsize,
}

impl EpochLog {
    pub(crate) fn new() -> Self {
        EpochLog {
            stripes: (0..EPOCH_LOG_STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
            len: AtomicUsize::new(0),
        }
    }

    fn stripe(&self, addr: LineAddr) -> &Mutex<HashMap<LineAddr, (u64, bool)>> {
        let i = (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize;
        &self.stripes[i % EPOCH_LOG_STRIPES]
    }

    /// Returns `addr`'s existing offset, or runs `make` (the log append)
    /// under the stripe lock and records its result; with `own`, also
    /// marks the line host-owned. The flag says whether that mark is
    /// new. `make` must not acquire any lock that can wait on an
    /// `EpochLog` stripe — the lock-free undo-bank append qualifies.
    pub(crate) fn try_insert(
        &self,
        addr: LineAddr,
        own: bool,
        make: impl FnOnce() -> Result<u64>,
    ) -> Result<(u64, bool)> {
        let mut map = self.stripe(addr).lock();
        if let Some((offset, owned)) = map.get_mut(&addr) {
            let newly_owned = own && !*owned;
            *owned |= own;
            return Ok((*offset, newly_owned));
        }
        let offset = make()?;
        map.insert(addr, (offset, own));
        self.len.fetch_add(1, Ordering::Relaxed);
        Ok((offset, own))
    }

    /// Clears `addr`'s ownership mark. Returns its offset if it was
    /// logged this epoch, and whether the mark was set; an unlogged line
    /// is left alone.
    pub(crate) fn disown(&self, addr: LineAddr) -> Option<(u64, bool)> {
        let mut map = self.stripe(addr).lock();
        let (offset, owned) = map.get_mut(&addr)?;
        Some((*offset, std::mem::take(owned)))
    }

    /// Number of lines logged this epoch.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// The epoch's logged lines in log-offset order (§3.3 "iterating
    /// through each undo log entry as it persists"), each with its
    /// ownership mark. Locks stripes one at a time in index order; the
    /// sort makes the result independent of stripe assignment, so it is
    /// deterministic.
    pub(crate) fn sorted(&self) -> Vec<(u64, LineAddr, bool)> {
        let mut logged = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            logged.extend(stripe.lock().iter().map(|(a, &(o, owned))| (o, *a, owned)));
        }
        logged.sort_unstable();
        logged
    }

    /// Forgets every logged line (epoch boundary), returning how many of
    /// them were still marked host-owned.
    pub(crate) fn clear(&self) -> usize {
        let mut owned = 0;
        for stripe in &self.stripes {
            let mut map = stripe.lock();
            self.len.fetch_sub(map.len(), Ordering::Relaxed);
            owned += map.drain().filter(|&(_, (_, owned))| owned).count();
        }
        owned
    }
}

/// The lane's dirty-line write-back queue, shareable across threads.
/// Producers (`home_dirty_evict`) only push; consumers (background
/// steps, forced drains) additionally serialize on the lane's
/// [`WbGate`](crate::cell::WbGate) so pops pair with their PM writes.
#[derive(Debug, Default)]
pub(crate) struct WbQueue {
    queue: Mutex<VecDeque<LineAddr>>,
    len: AtomicUsize,
}

impl WbQueue {
    pub(crate) fn push_back(&self, addr: LineAddr) {
        self.queue.lock().push_back(addr);
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// The oldest queued line, without popping it.
    pub(crate) fn front(&self) -> Option<LineAddr> {
        self.queue.lock().front().copied()
    }

    pub(crate) fn pop_front(&self) -> Option<LineAddr> {
        let popped = self.queue.lock().pop_front();
        if popped.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        popped
    }

    pub(crate) fn clear(&self) {
        let mut q = self.queue.lock();
        let n = q.len();
        q.clear();
        self.len.fetch_sub(n, Ordering::Relaxed);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::Relaxed) == 0
    }
}

/// One lane: the slice of the device's per-line state owned by a single
/// `(tenant, interleave-phase)` pair (see module docs).
///
/// Tenant `t`'s traffic on physical shard `s = addr % S` lands in lane
/// `t*S + s`, so each lane's undo-log bank, epoch-log map, and write-back
/// queue belong to exactly one tenant — which is what lets one tenant's
/// epoch flush, commit, and recycle without touching another's. A
/// single-tenant device's lanes are exactly its shards.
#[derive(Debug)]
pub(crate) struct Lane {
    /// The tenant (pool context) this lane belongs to.
    pub(crate) tenant: usize,
    /// This lane's interleave phase: it owns lines with `addr % stride
    /// == phase` (within its tenant's region).
    pub(crate) phase: u64,
    /// Physical address-interleave stride (the device's shard count `S`,
    /// *not* its lane count).
    pub(crate) stride: u64,
    /// This lane's slice of the HBM buffer, keyed by lane-local line.
    pub(crate) hbm: HbmCache,
    /// vPM lines undo-logged this epoch → their log entry offset and
    /// host-ownership mark. Volatile; emptied at every epoch boundary
    /// and on crash.
    pub(crate) epoch_log: EpochLog,
    /// Dirty lines awaiting opportunistic write back, oldest first.
    pub(crate) writeback_queue: WbQueue,
    /// The lane's counter registry (recording is `&self`/atomic).
    pub(crate) metrics: MetricSet,
    /// Counter handles into `metrics` (same registration order as the
    /// device's, so typed views compose by field-wise addition).
    pub(crate) ctr: DeviceCounters,
    /// Serializes this lane's write-back drains (see module docs).
    pub(crate) wb_gate: WbGate,
    /// This lane's bank of the undo-log region.
    pub(crate) log: UndoLog,
    /// This lane's trace ring: its coherence messages, log appends and
    /// write-backs.
    pub(crate) trace: TraceRing,
    /// The tenant's epoch as this lane last saw it open — every record's
    /// merge stamp.
    trace_epoch: AtomicU64,
}

impl Lane {
    /// Builds lane `index` for `tenant` at interleave phase `index %
    /// stride`, owning the (already per-lane-sized) HBM geometry in
    /// `hbm` and the log bank of `log_blocks` blocks at pool line
    /// `log_base` of the pool's log region. The caller —
    /// [`PaxDevice::open_multi`](crate::PaxDevice::open_multi) — slices
    /// the device's total HBM capacity across lanes (weighted by each
    /// tenant's HBM share) before construction; this floors every lane
    /// at one full associativity set. The lane's trace ring keeps
    /// `trace_capacity` records, stamped from `epoch` on (the tenant's
    /// open epoch).
    pub(crate) fn new(
        index: usize,
        tenant: usize,
        stride: usize,
        hbm: HbmConfig,
        (log_base, log_blocks): (u64, u64),
        trace_capacity: usize,
        epoch: u64,
    ) -> Self {
        let per_lane = HbmConfig {
            capacity_bytes: hbm.capacity_bytes.max(hbm.ways * pax_pm::LINE_SIZE),
            ..hbm
        };
        let mut metrics = MetricSet::new(COMPONENT);
        let ctr = DeviceCounters::register(&mut metrics);
        Lane {
            tenant,
            phase: (index % stride.max(1)) as u64,
            stride: stride as u64,
            hbm: HbmCache::new(per_lane),
            epoch_log: EpochLog::new(),
            writeback_queue: WbQueue::default(),
            metrics,
            ctr,
            wb_gate: WbGate::default(),
            log: UndoLog::with_region(log_base, log_blocks),
            trace: TraceRing::new(trace_capacity),
            trace_epoch: AtomicU64::new(epoch),
        }
    }

    /// Records `event` in this lane's ring, stamped with the tenant's
    /// current epoch.
    pub(crate) fn trace_event(&self, event: RingEvent) {
        self.trace.record(self.trace_epoch.load(Ordering::Relaxed), event);
    }

    /// Counts a `RdShared` routed to this lane.
    pub(crate) fn count_rd_shared(&self) {
        self.metrics.inc(self.ctr.rd_shared);
    }

    /// Counts a `RdOwn` routed to this lane.
    pub(crate) fn count_rd_own(&self) {
        self.metrics.inc(self.ctr.rd_own);
    }

    /// Counts a clean eviction routed to this lane.
    pub(crate) fn count_clean_evict(&self) {
        self.metrics.inc(self.ctr.clean_evicts);
    }

    /// Counts a dirty eviction routed to this lane.
    pub(crate) fn count_dirty_evict(&self) {
        self.metrics.inc(self.ctr.dirty_evicts);
    }

    /// Counts a dirty eviction for a line this lane never logged.
    pub(crate) fn count_unlogged_dirty_evict(&self) {
        self.metrics.inc(self.ctr.unlogged_dirty_evicts);
    }

    /// Counts a stall that forced a synchronous log flush on this lane.
    pub(crate) fn count_forced_flush(&self) {
        self.metrics.inc(self.ctr.forced_log_flushes);
    }

    /// Counts a persist-path snoop sent for a line this lane logged.
    pub(crate) fn count_snoop_sent(&self) {
        self.metrics.inc(self.ctr.snoops_sent);
    }

    /// Counts a snoop that returned host data.
    pub(crate) fn count_snoop_data_returned(&self) {
        self.metrics.inc(self.ctr.snoop_data_returned);
    }

    /// Counts an epoch commit against this lane's tenant (charged to the
    /// tenant's phase-0 lane so per-tenant rollups conserve `persists`).
    pub(crate) fn count_persist(&self) {
        self.metrics.inc(self.ctr.persists);
    }

    /// Counts a coalesced persist write-back batch issued by this lane.
    pub(crate) fn count_wb_batch(&self) {
        self.metrics.inc(self.ctr.wb_batches);
    }

    /// Records evidence the host gave `addr` up (dirty eviction, snoop
    /// response, CLWB invalidate) by clearing its ownership mark, and
    /// returns the log offset covering it this epoch, if it was logged
    /// here. A device write-back is no such evidence: it says nothing
    /// about the host's copy. `dir_resident` is an occupancy gauge, so
    /// it moves only when a mark is cleared.
    pub(crate) fn disown(&self, addr: LineAddr) -> Option<u64> {
        let (offset, was_owned) = self.epoch_log.disown(addr)?;
        if was_owned {
            self.metrics.sub(self.ctr.dir_resident, 1);
        }
        Some(offset)
    }

    /// Whether a persist must snoop the host for a logged line whose
    /// ownership mark reads `owned`. With filtering off this is
    /// unconditionally `true` (and uncounted — the exact pre-filter
    /// behaviour); with it on, an owned line counts a directory hit and
    /// snoops, an unowned one counts a filtered snoop and skips the
    /// round-trip.
    pub(crate) fn dir_should_snoop(&self, owned: bool, filter: bool) -> bool {
        if !filter {
            return true;
        }
        if owned {
            self.metrics.inc(self.ctr.dir_hits);
        } else {
            self.metrics.inc(self.ctr.dir_filtered_snoops);
        }
        owned
    }

    /// Maps a global vPM line (which satisfies `addr % stride == phase`)
    /// to the lane-local key the HBM slice is indexed by. Interleaved
    /// addresses stride by `stride`; dividing it out keeps the slice's
    /// sets uniformly used (a power-of-two stride would otherwise alias
    /// every lane-resident line into `sets/stride` sets). Two tenants'
    /// lanes at the same phase key identically but into disjoint
    /// [`HbmCache`] instances, so no disambiguation is needed.
    pub(crate) fn hbm_key(&self, addr: LineAddr) -> LineAddr {
        debug_assert_eq!(addr.0 % self.stride, self.phase, "line routed to wrong lane");
        LineAddr(addr.0 / self.stride)
    }

    /// Inverse of [`Lane::hbm_key`].
    pub(crate) fn hbm_unkey(&self, local: LineAddr) -> LineAddr {
        LineAddr(local.0 * self.stride + self.phase)
    }

    /// HBM lookup counting hit/miss, in global address space.
    pub(crate) fn hbm_lookup(&self, addr: LineAddr) -> Option<HbmLine> {
        self.hbm.lookup(self.hbm_key(addr))
    }

    /// HBM peek (no hit/miss accounting), in global address space.
    pub(crate) fn hbm_peek(&self, addr: LineAddr) -> Option<HbmLine> {
        self.hbm.peek(self.hbm_key(addr))
    }

    /// Marks any resident HBM copy of `addr` clean (its value just
    /// reached PM through a persist-path write back) — in place, so
    /// persist housekeeping does not disturb LRU recency.
    pub(crate) fn hbm_mark_clean(&self, addr: LineAddr) {
        self.hbm.mark_clean(self.hbm_key(addr));
    }

    /// Inserts `addr` into HBM, disposing of any evicted victim *inside
    /// the set's critical section* — the victim is never absent from the
    /// index while its dirty data is still in flight to PM.
    pub(crate) fn hbm_insert_disposing(
        &self,
        pool: &PoolCell,
        clock: &CrashClock,
        addr: LineAddr,
        line: HbmLine,
    ) -> Result<()> {
        let durable = self.log.durable_offset();
        let key = self.hbm_key(addr);
        match self.hbm.insert_then(key, line, durable, |vlocal, vline| {
            self.dispose_victim(pool, clock, self.hbm_unkey(vlocal), vline)
        }) {
            Some(res) => res,
            None => Ok(()),
        }
    }

    /// Re-inserts `addr` as a clean copy of `data`. Two call sites with
    /// different race disciplines:
    ///
    /// * persist sweep / snoop refresh (`if_absent = false`): the host
    ///   just returned the authoritative value — replace whatever HBM
    ///   holds;
    /// * miss-path read refresh (`if_absent = true`): the PM copy the
    ///   reader fetched is *stale* relative to any concurrently inserted
    ///   dirty line, so an existing entry must win.
    pub(crate) fn hbm_refresh_clean(
        &self,
        pool: &PoolCell,
        clock: &CrashClock,
        addr: LineAddr,
        data: CacheLine,
        if_absent: bool,
    ) -> Result<()> {
        let durable = self.log.durable_offset();
        let key = self.hbm_key(addr);
        let line = HbmLine { data, dirty: false, log_offset: None };
        let dispose = |vlocal: LineAddr, vline: HbmLine| {
            self.dispose_victim(pool, clock, self.hbm_unkey(vlocal), vline)
        };
        let disposed = if if_absent {
            self.hbm.insert_clean_if_absent_then(key, line, durable, dispose)
        } else {
            self.hbm.insert_then(key, line, durable, dispose)
        };
        match disposed {
            Some(res) => res,
            None => Ok(()),
        }
    }

    /// The lane's view of the current contents of `addr`: HBM first,
    /// then a draining epoch's captured value, then PM.
    pub(crate) fn resolve(
        &self,
        pool: &PoolCell,
        clock: &CrashClock,
        drain_value: Option<CacheLine>,
        addr: LineAddr,
    ) -> Result<CacheLine> {
        if let Some(l) = self.hbm_lookup(addr) {
            return Ok(l.data);
        }
        // A draining epoch's final values are newer than PM until their
        // write back lands.
        if let Some(data) = drain_value {
            return Ok(data);
        }
        let data = {
            let mut pm = pool.lock();
            let abs = pm.layout().vpm_to_pool(addr.0)?;
            self.metrics.inc(self.ctr.pm_reads);
            pm.read_line(abs)?
        };
        // if_absent: a concurrent RdOwn may have inserted a dirty line for
        // this address since the PM read above — the stale clean copy must
        // not clobber it.
        self.hbm_refresh_clean(pool, clock, addr, data.clone(), true)?;
        Ok(data)
    }

    /// Undo-logs `addr` if this is its first modification of the epoch,
    /// returning the covering log offset; with `own` (an `RdOwn` under
    /// the snoop filter), also marks the line host-owned, moving the
    /// `dir_resident` gauge if the mark is new. The epoch-table stripe
    /// lock is held across the append and the mark, so concurrent
    /// first-writes to one line append exactly once.
    pub(crate) fn log_if_first(
        &self,
        epoch: u64,
        addr: LineAddr,
        old: &CacheLine,
        own: bool,
    ) -> Result<u64> {
        let (offset, newly_owned) = self.epoch_log.try_insert(addr, own, || {
            let entry =
                UndoEntry { epoch, vpm_line: addr, tenant: self.tenant as u32, old: old.clone() };
            let offset = self.log.append(entry)?;
            self.metrics.inc(self.ctr.undo_entries);
            self.trace_event(RingEvent::LogAppend { epoch, line: addr.0 });
            Ok(offset)
        })?;
        if newly_owned {
            self.metrics.inc(self.ctr.dir_resident);
        }
        Ok(offset)
    }

    /// Writes an HBM eviction victim back to PM if dirty, stalling for a
    /// log flush when its undo entry is not yet durable. `addr` is the
    /// victim's *global* address.
    ///
    /// The stall is bounded: every iteration must drain an entry from the
    /// lane's pending buffer. A victim whose covering offset is neither
    /// durable nor pending cannot exist (offsets are monotonic and
    /// assigned by this lane's own appends) — if it does, the state is
    /// corrupt and the loop surfaces [`PmError::ProtocolViolation`]
    /// instead of spinning.
    pub(crate) fn dispose_victim(
        &self,
        pool: &PoolCell,
        clock: &CrashClock,
        addr: LineAddr,
        line: HbmLine,
    ) -> Result<()> {
        if !line.dirty {
            return Ok(());
        }
        if let Some(offset) = line.log_offset {
            if offset >= self.log.durable_offset() {
                // §3.3: the victim's pre-image must be durable before the
                // new value may reach PM. This is the stall PreferDurable
                // eviction avoids.
                self.metrics.inc(self.ctr.forced_log_flushes);
                while self.log.durable_offset() <= offset {
                    if self.log.pump_to(&mut pool.lock(), clock, offset + 1, 1)? == 0 {
                        return Err(PmError::ProtocolViolation {
                            invariant: "HBM victim's undo entry is neither durable nor pending",
                        });
                    }
                }
            }
        }
        self.write_back(pool, clock, &[(addr, line.data)])
    }

    /// The one data-line write-back step, behind every path that moves a
    /// data line to PM (persist runs, a draining epoch's runs and forced
    /// lines, HBM victims, background write back): one durable-write step
    /// (a crash-clock tick), then `run`'s 1..n lines written in order,
    /// each counted and traced. Callers serialize it per lane — under the
    /// lane's [`WbGate`], or for an HBM victim under its set's lock — and
    /// do their own HBM housekeeping.
    pub(crate) fn write_back(
        &self,
        pool: &PoolCell,
        clock: &CrashClock,
        run: &[(LineAddr, CacheLine)],
    ) -> Result<()> {
        {
            let mut pm = pool.lock();
            tick(clock, &mut pm)?;
            for (addr, data) in run {
                let abs = pm.layout().vpm_to_pool(addr.0)?;
                pm.write_line(abs, data.clone())?;
            }
        }
        self.metrics.add(self.ctr.device_writebacks, run.len() as u64);
        for (addr, _) in run {
            self.trace_event(RingEvent::WriteBack { line: addr.0 });
        }
        Ok(())
    }

    /// Snapshot of this lane's counter registry (component `device`),
    /// with the undo bank's `log_block_entries` histogram.
    pub(crate) fn snapshot(&self) -> MetricSnapshot {
        self.sync_metrics();
        self.metrics.snapshot().merge(&self.log.fill_snapshot())
    }

    /// Typed view over this lane's counters.
    pub(crate) fn view_metrics(&self) -> DeviceMetrics {
        self.sync_metrics();
        self.ctr.view(&self.metrics)
    }

    /// Mirrors the counters the HBM index and the undo bank keep
    /// internally into the lane's registry: `hbm_read_hits`,
    /// `hbm_misses`, `log_cas_retries`, `log_blocks` and
    /// `log_lines_written` are monotone, `hbm_resident` and
    /// `log_reserved` are occupancy gauges. The HBM index is probed only
    /// by [`Lane::resolve`], so its hit count is the read-hit count.
    fn sync_metrics(&self) {
        for (counter, value) in [
            (self.ctr.hbm_read_hits, self.hbm.hits()),
            (self.ctr.hbm_misses, self.hbm.misses()),
            (self.ctr.hbm_resident, self.hbm.resident() as u64),
            (self.ctr.log_cas_retries, self.log.cas_retries()),
            (self.ctr.log_reserved, self.log.in_flight()),
            (self.ctr.log_blocks, self.log.blocks_written()),
            (self.ctr.log_lines_written, self.log.lines_written()),
        ] {
            self.metrics.set(counter, value);
        }
    }

    /// One background step for this lane's free-running engines: drain
    /// up to `log_pump_batch` log entries, then opportunistically write
    /// back up to `writeback_batch` dirty lines whose entries are
    /// durable. The write-back loop holds the lane's
    /// [`WbGate`](crate::cell::WbGate) so persist-path drains never
    /// interleave with it.
    pub(crate) fn background(
        &self,
        pool: &PoolCell,
        clock: &CrashClock,
        log_pump_batch: usize,
        writeback_batch: usize,
    ) -> Result<()> {
        if log_pump_batch > 0 && self.log.has_whole_block() {
            self.log.pump(&mut pool.lock(), clock, log_pump_batch)?;
        }
        if writeback_batch == 0 || self.writeback_queue.is_empty() {
            return Ok(());
        }
        let _gate = self.wb_gate.lock();
        let mut budget = writeback_batch;
        while budget > 0 {
            let Some(addr) = self.writeback_queue.front() else { break };
            let durable = self.log.durable_offset();
            let ready = match self.hbm_peek(addr) {
                Some(l) if l.dirty => l.log_offset.is_none_or(|o| o < durable),
                // Cleaned or evicted through another path; just drop it.
                _ => {
                    self.writeback_queue.pop_front();
                    continue;
                }
            };
            if !ready {
                break; // queue is in log order; later entries aren't durable either
            }
            self.writeback_queue.pop_front();
            if let Some(data) = self.hbm_peek(addr).map(|l| l.data) {
                // Clean in place: background write-back must not promote
                // the line to MRU and erase real-access recency.
                self.hbm_mark_clean(addr);
                self.write_back(pool, clock, &[(addr, data)])?;
                self.metrics.inc(self.ctr.background_writebacks);
                // The ownership mark stays as it is: a device write back
                // says nothing about the host, which may have re-acquired
                // the line since it evicted the value written here.
            }
            budget -= 1;
        }
        Ok(())
    }

    /// Starts the next epoch once this one is closed: per-epoch state
    /// resets, ownership marks included (a close has snooped every owned
    /// line, so any mark left is one a concurrent `RdOwn` set after the
    /// sweep passed it); the log bank is recycled by the commit epilogue.
    pub(crate) fn begin_next_epoch(&self) {
        let owned = self.epoch_log.clear();
        self.metrics.sub(self.ctr.dir_resident, owned as u64);
        self.writeback_queue.clear();
        self.trace_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops all volatile state (power loss). The ownership marks go
    /// with the epoch table — correctness never depended on them.
    pub(crate) fn crash(&self) {
        self.hbm.crash();
        self.log.crash();
        self.begin_next_epoch();
    }
}

/// Advances the crash clock one durable-write step; crashing the pool and
/// unwinding if it fires.
pub(crate) fn tick(clock: &CrashClock, pool: &mut PmPool) -> Result<()> {
    if clock.tick() == pax_pm::CrashOutcome::Crashed {
        pool.crash();
        return Err(PmError::Crashed);
    }
    Ok(())
}

/// Splits a pool's log region into `shards` equal banks of whole blocks,
/// returning each bank's `(base_line, blocks)`. Banks start at block
/// boundaries of the region, so every block sits at a fixed offset from
/// the log start whatever the bank geometry. The shard count is clamped
/// so every bank holds at least one block; a region smaller than one
/// block yields no banks.
pub(crate) fn split_log_region(pool: &PmPool, shards: usize) -> Vec<(u64, u64)> {
    let layout = pool.layout();
    let blocks = layout.log_lines / BLOCK_LINES;
    let shards = (shards.max(1) as u64).min(blocks);
    let per_shard = blocks / shards.max(1);
    (0..shards).map(|s| (layout.log_start().0 + s * per_shard * BLOCK_LINES, per_shard)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbm::EvictionPolicy;
    use pax_pm::{PoolConfig, LINE_SIZE};

    fn shard_pair() -> (PmPool, Lane, Lane) {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let banks = split_log_region(&pool, 2);
        let hbm = HbmConfig::default_config();
        let a = Lane::new(0, 0, 2, hbm, banks[0], 0, 1);
        let b = Lane::new(1, 0, 2, hbm, banks[1], 0, 1);
        (pool, a, b)
    }

    #[test]
    fn split_covers_region_without_overlap() {
        let pool = PmPool::create(PoolConfig::small()).unwrap();
        let banks = split_log_region(&pool, 4);
        assert_eq!(banks.len(), 4);
        for w in banks.windows(2) {
            assert_eq!(w[0].0 + w[0].1 * BLOCK_LINES, w[1].0, "banks must be adjacent");
        }
        let start = pool.layout().log_start().0;
        assert!(banks.iter().all(|(base, _)| (base - start).is_multiple_of(BLOCK_LINES)));
        let total: u64 = banks.iter().map(|(_, c)| c).sum();
        assert!(total <= pool.layout().log_lines / BLOCK_LINES);
    }

    #[test]
    fn shard_count_is_clamped_to_log_capacity() {
        let mut cfg = PoolConfig::small();
        cfg.log_bytes = 2 * BLOCK_LINES as usize * LINE_SIZE + LINE_SIZE; // 2 blocks
        let pool = PmPool::create(cfg).unwrap();
        assert_eq!(split_log_region(&pool, 8).len(), 2);
        cfg.log_bytes = (BLOCK_LINES as usize - 1) * LINE_SIZE; // no whole block
        assert!(split_log_region(&PmPool::create(cfg).unwrap(), 1).is_empty());
    }

    #[test]
    fn hbm_keys_round_trip_and_stay_disjoint() {
        let (_pool, a, b) = shard_pair();
        for addr in [0u64, 2, 4, 100] {
            assert_eq!(a.hbm_unkey(a.hbm_key(LineAddr(addr))), LineAddr(addr));
        }
        for addr in [1u64, 3, 5, 101] {
            assert_eq!(b.hbm_unkey(b.hbm_key(LineAddr(addr))), LineAddr(addr));
        }
    }

    #[test]
    fn interleaved_lines_use_all_hbm_sets() {
        // With a power-of-two stride, raw global addresses would alias
        // into half the sets; the shard-local key must spread them.
        let shard = Lane::new(
            0,
            0,
            2,
            HbmConfig { capacity_bytes: 2 * 128, ways: 2, policy: EvictionPolicy::Lru },
            (0, 64),
            0,
            1,
        );
        // Shard capacity: 4 lines (2 sets × 2 ways) — the per-lane slice
        // the device would hand this lane of a 4-line-per-lane buffer.
        // Insert 4 shard-0 lines (global addresses 0,2,4,6): all resident
        // only if both sets are used.
        for g in [0u64, 2, 4, 6] {
            let line = HbmLine { data: CacheLine::filled(g as u8), dirty: false, log_offset: None };
            let v = shard.hbm.insert_then(shard.hbm_key(LineAddr(g)), line, 0, |_, _| ());
            assert!(v.is_none(), "line {g} must not evict");
        }
        assert_eq!(shard.hbm.resident(), 4);
    }

    #[test]
    fn dispose_victim_with_unsatisfiable_offset_errors_instead_of_spinning() {
        // The pinned invariant: a dirty victim whose covering log offset
        // is neither durable nor pending is corrupt state. The drain loop
        // must surface it, not spin forever pumping an empty buffer.
        let (pool, a, _b) = shard_pair();
        let pool = PoolCell::new(pool);
        let clock = CrashClock::new();
        let line = HbmLine { data: CacheLine::filled(1), dirty: true, log_offset: Some(99) };
        let err = a.dispose_victim(&pool, &clock, LineAddr(0), line).unwrap_err();
        assert!(
            matches!(err, PmError::ProtocolViolation { .. }),
            "expected a protocol-invariant error, got {err}"
        );
    }

    #[test]
    fn dispose_victim_drains_pending_entry_then_writes_back() {
        let (pool, a, _b) = shard_pair();
        let pool = PoolCell::new(pool);
        let clock = CrashClock::new();
        let off = a.log_if_first(1, LineAddr(0), &CacheLine::zeroed(), false).unwrap();
        let line = HbmLine { data: CacheLine::filled(7), dirty: true, log_offset: Some(off) };
        a.dispose_victim(&pool, &clock, LineAddr(0), line).unwrap();
        assert!(a.log.durable_offset() > off, "covering entry was drained first");
        let mut pool = pool.into_inner();
        let abs = pool.layout().vpm_to_pool(0).unwrap();
        assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(7));
    }

    #[test]
    fn shard_banks_append_independently() {
        let (mut pool, a, b) = shard_pair();
        let clock = CrashClock::new();
        a.log_if_first(1, LineAddr(0), &CacheLine::filled(1), false).unwrap();
        b.log_if_first(1, LineAddr(1), &CacheLine::filled(2), false).unwrap();
        b.log_if_first(1, LineAddr(3), &CacheLine::filled(3), false).unwrap();
        a.log.flush(&mut pool, &clock).unwrap();
        b.log.flush(&mut pool, &clock).unwrap();
        assert_eq!(a.log.durable_offset(), 1);
        assert_eq!(b.log.durable_offset(), 2);
        // Every entry is visible to the (global) recovery scan.
        assert_eq!(UndoLog::scan(&mut pool).unwrap().len(), 3);
    }

    #[test]
    fn epoch_log_dedupes_and_sorts_deterministically() {
        let log = EpochLog::new();
        for (addr, off) in [(7u64, 2u64), (1, 0), (4, 1)] {
            assert_eq!(log.try_insert(LineAddr(addr), false, || Ok(off)).unwrap(), (off, false));
        }
        // Re-insert must return the recorded offset without calling make.
        let again = log.try_insert(LineAddr(7), false, || panic!("dedup must skip make"));
        assert_eq!(again.unwrap(), (2, false));
        assert_eq!(log.len(), 3);
        let unowned =
            vec![(0, LineAddr(1), false), (1, LineAddr(4), false), (2, LineAddr(7), false)];
        assert_eq!(log.sorted(), unowned);
        assert_eq!(log.clear(), 0);
        assert_eq!(log.len(), 0);
        assert!(log.sorted().is_empty());
    }

    #[test]
    fn epoch_log_tracks_host_ownership_per_entry() {
        let log = EpochLog::new();
        assert_eq!(log.disown(LineAddr(3)), None, "an unlogged line is left alone");
        assert_eq!(log.try_insert(LineAddr(3), true, || Ok(5)).unwrap(), (5, true));
        let reown = log.try_insert(LineAddr(3), true, || panic!("dedup must skip make"));
        assert_eq!(reown.unwrap(), (5, false), "re-own of an owned line is not new");
        assert_eq!(log.sorted(), vec![(5, LineAddr(3), true)]);
        assert_eq!(log.disown(LineAddr(3)), Some((5, true)));
        assert_eq!(log.disown(LineAddr(3)), Some((5, false)), "double disown finds it unowned");
        // An unowned logged line is owned again by the next RdOwn.
        assert_eq!(log.try_insert(LineAddr(3), true, || unreachable!()).unwrap(), (5, true));
        log.try_insert(LineAddr(9), false, || Ok(6)).unwrap();
        assert_eq!(log.clear(), 1, "clear reports the marks it dropped");
        assert_eq!(log.try_insert(LineAddr(3), false, || Ok(0)).unwrap(), (0, false));
        assert_eq!(log.sorted(), vec![(0, LineAddr(3), false)], "clear dropped the mark");
    }

    #[test]
    fn wb_queue_is_fifo_and_tracks_len() {
        let q = WbQueue::default();
        assert!(q.is_empty());
        q.push_back(LineAddr(1));
        q.push_back(LineAddr(2));
        assert_eq!(q.front(), Some(LineAddr(1)));
        assert_eq!(q.pop_front(), Some(LineAddr(1)));
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop_front(), None);
    }
}
