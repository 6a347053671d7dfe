//! Device event counters.
//!
//! Every quantitative claim in the paper's §5 reduces to counts of these
//! events multiplied by latency/bandwidth constants; the bench harness
//! reads them from [`PaxDevice::metrics`](crate::PaxDevice::metrics).
//!
//! The counters themselves live in the device's
//! [`MetricSet`] registry; [`DeviceMetrics`] is a point-in-time typed
//! view built by `DeviceCounters::view`.

use pax_telemetry::{Counter, MetricSet};

/// Cumulative counters for one [`PaxDevice`](crate::PaxDevice).
///
/// A point-in-time view over the device's [`MetricSet`] registry, which
/// owns the counter state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceMetrics {
    /// `RdShared` requests received (host read misses).
    pub rd_shared: u64,
    /// `RdOwn` requests received (host store intents) — each is a
    /// potential undo-log append.
    pub rd_own: u64,
    /// Clean evictions received.
    pub clean_evicts: u64,
    /// Dirty evictions (host write backs) received.
    pub dirty_evicts: u64,
    /// Undo entries appended.
    pub undo_entries: u64,
    /// Dirty evictions that arrived for a line the device had not logged
    /// this epoch (protocol anomaly handled defensively).
    pub unlogged_dirty_evicts: u64,
    /// `SnpData` snoops sent to the host during `persist()`.
    pub snoops_sent: u64,
    /// Snoops that returned data from the host cache.
    pub snoop_data_returned: u64,
    /// Lines the device wrote back to PM.
    pub device_writebacks: u64,
    /// Times an HBM eviction had to stall for a synchronous log flush
    /// (the cost [`EvictionPolicy::PreferDurable`](crate::EvictionPolicy)
    /// minimises).
    pub forced_log_flushes: u64,
    /// Lines written back opportunistically before `persist()` (§3.3's
    /// proactive write back).
    pub background_writebacks: u64,
    /// `persist()` calls completed.
    pub persists: u64,
    /// Reads served from device HBM instead of PM (the HBM set index's
    /// own atomic hit counter, synced into the registry at snapshot
    /// time: every lookup is a resolve-path read).
    pub hbm_read_hits: u64,
    /// Reads that had to touch PM.
    pub pm_reads: u64,
    /// HBM set-index lookups that missed (atomic, synced at snapshot).
    pub hbm_misses: u64,
    /// Lines currently resident in the lane's HBM slice (an occupancy
    /// gauge like `dir_resident`, conserving across tenant×shard labels).
    pub hbm_resident: u64,
    /// Virtual ticks executed by the device scheduler
    /// ([`PaxDevice::tick`](crate::PaxDevice::tick)).
    pub sched_ticks: u64,
    /// Durable-write steps donated round-robin to shards with pending
    /// work but no traffic of their own (the pump-starvation fix).
    pub sched_idle_steps: u64,
    /// Persist-time snoop-filter checks that found the line's ownership
    /// mark set: the host still plausibly owns it (snoop required).
    pub dir_hits: u64,
    /// Persist-time snoops skipped because the line's ownership mark
    /// showed the host no longer holds it modified.
    pub dir_filtered_snoops: u64,
    /// Logged lines currently marked host-owned (an occupancy gauge,
    /// not a monotone counter).
    pub dir_resident: u64,
    /// Coalesced write-back batches issued by the persist pipeline.
    pub wb_batches: u64,
    /// Failed reservation CAS attempts in the lock-free undo bank
    /// (contention on the packed tail word; zero under a single
    /// driver).
    pub log_cas_retries: u64,
    /// Undo-bank slots currently reserved but not yet published (an
    /// occupancy gauge over the reserve→fill window, not a monotone
    /// counter; zero at every quiescent point).
    pub log_reserved: u64,
    /// Undo-log block headers written: one per block drain, whole or
    /// partial.
    pub log_blocks: u64,
    /// Undo-log lines written to PM: block headers plus pre-images.
    pub log_lines_written: u64,
    /// Non-blocking persist polls skipped because a tenant's drain
    /// control lock was contended (see
    /// [`PaxDevice::persist_poll`](crate::PaxDevice::persist_poll)'s
    /// starvation fallback).
    pub persist_poll_skipped: u64,
}

impl DeviceMetrics {
    /// Total coherence messages the device has handled (its §5.1
    /// message-rate bottleneck input).
    pub fn total_messages(&self) -> u64 {
        self.rd_shared + self.rd_own + self.clean_evicts + self.dirty_evicts + self.snoops_sent
    }

    /// Bytes of undo-log traffic to PM: the header and pre-image lines
    /// actually written.
    pub fn log_bytes(&self) -> u64 {
        self.log_lines_written * pax_pm::LINE_SIZE as u64
    }

    /// Bytes of data write back traffic to PM.
    pub fn writeback_bytes(&self) -> u64 {
        self.device_writebacks * pax_pm::LINE_SIZE as u64
    }
}

impl std::ops::Add for DeviceMetrics {
    type Output = DeviceMetrics;

    /// Field-wise sum — how a sharded device composes its per-shard views
    /// into one device-level [`DeviceMetrics`].
    fn add(self, rhs: DeviceMetrics) -> DeviceMetrics {
        DeviceMetrics {
            rd_shared: self.rd_shared + rhs.rd_shared,
            rd_own: self.rd_own + rhs.rd_own,
            clean_evicts: self.clean_evicts + rhs.clean_evicts,
            dirty_evicts: self.dirty_evicts + rhs.dirty_evicts,
            undo_entries: self.undo_entries + rhs.undo_entries,
            unlogged_dirty_evicts: self.unlogged_dirty_evicts + rhs.unlogged_dirty_evicts,
            snoops_sent: self.snoops_sent + rhs.snoops_sent,
            snoop_data_returned: self.snoop_data_returned + rhs.snoop_data_returned,
            device_writebacks: self.device_writebacks + rhs.device_writebacks,
            forced_log_flushes: self.forced_log_flushes + rhs.forced_log_flushes,
            background_writebacks: self.background_writebacks + rhs.background_writebacks,
            persists: self.persists + rhs.persists,
            hbm_read_hits: self.hbm_read_hits + rhs.hbm_read_hits,
            pm_reads: self.pm_reads + rhs.pm_reads,
            hbm_misses: self.hbm_misses + rhs.hbm_misses,
            hbm_resident: self.hbm_resident + rhs.hbm_resident,
            sched_ticks: self.sched_ticks + rhs.sched_ticks,
            sched_idle_steps: self.sched_idle_steps + rhs.sched_idle_steps,
            dir_hits: self.dir_hits + rhs.dir_hits,
            dir_filtered_snoops: self.dir_filtered_snoops + rhs.dir_filtered_snoops,
            dir_resident: self.dir_resident + rhs.dir_resident,
            wb_batches: self.wb_batches + rhs.wb_batches,
            log_cas_retries: self.log_cas_retries + rhs.log_cas_retries,
            log_reserved: self.log_reserved + rhs.log_reserved,
            log_blocks: self.log_blocks + rhs.log_blocks,
            log_lines_written: self.log_lines_written + rhs.log_lines_written,
            persist_poll_skipped: self.persist_poll_skipped + rhs.persist_poll_skipped,
        }
    }
}

/// Counter handles into the device's [`MetricSet`] registry — one per
/// [`DeviceMetrics`] field.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeviceCounters {
    pub(crate) rd_shared: Counter,
    pub(crate) rd_own: Counter,
    pub(crate) clean_evicts: Counter,
    pub(crate) dirty_evicts: Counter,
    pub(crate) undo_entries: Counter,
    pub(crate) unlogged_dirty_evicts: Counter,
    pub(crate) snoops_sent: Counter,
    pub(crate) snoop_data_returned: Counter,
    pub(crate) device_writebacks: Counter,
    pub(crate) forced_log_flushes: Counter,
    pub(crate) background_writebacks: Counter,
    pub(crate) persists: Counter,
    pub(crate) hbm_read_hits: Counter,
    pub(crate) pm_reads: Counter,
    pub(crate) hbm_misses: Counter,
    pub(crate) hbm_resident: Counter,
    pub(crate) sched_ticks: Counter,
    pub(crate) sched_idle_steps: Counter,
    pub(crate) dir_hits: Counter,
    pub(crate) dir_filtered_snoops: Counter,
    pub(crate) dir_resident: Counter,
    pub(crate) wb_batches: Counter,
    pub(crate) log_cas_retries: Counter,
    pub(crate) log_reserved: Counter,
    pub(crate) log_blocks: Counter,
    pub(crate) log_lines_written: Counter,
    pub(crate) persist_poll_skipped: Counter,
}

impl DeviceCounters {
    pub(crate) fn register(metrics: &mut MetricSet) -> Self {
        DeviceCounters {
            rd_shared: metrics.counter("rd_shared"),
            rd_own: metrics.counter("rd_own"),
            clean_evicts: metrics.counter("clean_evicts"),
            dirty_evicts: metrics.counter("dirty_evicts"),
            undo_entries: metrics.counter("undo_entries"),
            unlogged_dirty_evicts: metrics.counter("unlogged_dirty_evicts"),
            snoops_sent: metrics.counter("snoops_sent"),
            snoop_data_returned: metrics.counter("snoop_data_returned"),
            device_writebacks: metrics.counter("device_writebacks"),
            forced_log_flushes: metrics.counter("forced_log_flushes"),
            background_writebacks: metrics.counter("background_writebacks"),
            persists: metrics.counter("persists"),
            hbm_read_hits: metrics.counter("hbm_read_hits"),
            pm_reads: metrics.counter("pm_reads"),
            hbm_misses: metrics.counter("hbm_misses"),
            hbm_resident: metrics.counter("hbm_resident"),
            sched_ticks: metrics.counter("sched_ticks"),
            sched_idle_steps: metrics.counter("sched_idle_steps"),
            dir_hits: metrics.counter("dir_hits"),
            dir_filtered_snoops: metrics.counter("dir_filtered_snoops"),
            dir_resident: metrics.counter("dir_resident"),
            wb_batches: metrics.counter("wb_batches"),
            log_cas_retries: metrics.counter("log_cas_retries"),
            log_reserved: metrics.counter("log_reserved"),
            log_blocks: metrics.counter("log_blocks"),
            log_lines_written: metrics.counter("log_lines_written"),
            persist_poll_skipped: metrics.counter("persist_poll_skipped"),
        }
    }

    pub(crate) fn view(&self, metrics: &MetricSet) -> DeviceMetrics {
        DeviceMetrics {
            rd_shared: metrics.get(self.rd_shared),
            rd_own: metrics.get(self.rd_own),
            clean_evicts: metrics.get(self.clean_evicts),
            dirty_evicts: metrics.get(self.dirty_evicts),
            undo_entries: metrics.get(self.undo_entries),
            unlogged_dirty_evicts: metrics.get(self.unlogged_dirty_evicts),
            snoops_sent: metrics.get(self.snoops_sent),
            snoop_data_returned: metrics.get(self.snoop_data_returned),
            device_writebacks: metrics.get(self.device_writebacks),
            forced_log_flushes: metrics.get(self.forced_log_flushes),
            background_writebacks: metrics.get(self.background_writebacks),
            persists: metrics.get(self.persists),
            hbm_read_hits: metrics.get(self.hbm_read_hits),
            pm_reads: metrics.get(self.pm_reads),
            hbm_misses: metrics.get(self.hbm_misses),
            hbm_resident: metrics.get(self.hbm_resident),
            sched_ticks: metrics.get(self.sched_ticks),
            sched_idle_steps: metrics.get(self.sched_idle_steps),
            dir_hits: metrics.get(self.dir_hits),
            dir_filtered_snoops: metrics.get(self.dir_filtered_snoops),
            dir_resident: metrics.get(self.dir_resident),
            wb_batches: metrics.get(self.wb_batches),
            log_cas_retries: metrics.get(self.log_cas_retries),
            log_reserved: metrics.get(self.log_reserved),
            log_blocks: metrics.get(self.log_blocks),
            log_lines_written: metrics.get(self.log_lines_written),
            persist_poll_skipped: metrics.get(self.persist_poll_skipped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_compose() {
        let m = DeviceMetrics {
            rd_shared: 1,
            rd_own: 2,
            clean_evicts: 3,
            dirty_evicts: 4,
            snoops_sent: 5,
            undo_entries: 2,
            log_lines_written: 4,
            device_writebacks: 3,
            ..DeviceMetrics::default()
        };
        assert_eq!(m.total_messages(), 15);
        assert_eq!(m.log_bytes(), 256);
        assert_eq!(m.writeback_bytes(), 192);
    }
}
