//! The §5.1 "combining with paging" hybrid.
//!
//! "The application could directly map PM pages as read-only; on a write
//! page fault, the page could (be) remapped at read/write through
//! addresses assigned to vPM, letting PAX track changes to the page at
//! cache line granularity."
//!
//! [`HybridSpace`] models that deployment: the *first* store to a page per
//! epoch pays one trap (the remap) but logs **nothing** at page
//! granularity; thereafter the page's modifications are undo-logged per
//! 64 B line, PAX-style. Compared in the `write_amp` bench against pure
//! paging (amortizes traps, huge log) and pure PAX (no traps, line log).

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use libpax::{MemSpace, PaxError};
use pax_device::{UndoEntry, UndoLog};
use pax_pm::{CrashClock, LineAddr, PmError, PmPool, PoolConfig, LINE_SIZE};

use crate::costs::{CostReport, Costed};

#[derive(Debug)]
struct State {
    pool: PmPool,
    log: UndoLog,
    clock: CrashClock,
    epoch: u64,
    touched_pages: HashSet<u64>,
    logged_lines: HashSet<LineAddr>,
}

#[derive(Debug)]
struct Inner {
    state: Option<State>,
    costs: CostReport,
    /// Undo entries the background engine drains per store burst; 0
    /// disables draining outside `persist()`.
    background_pump_batch: usize,
}

/// A [`MemSpace`] combining page-fault mapping with line-granularity
/// PAX tracking (see module docs).
#[derive(Debug, Clone)]
pub struct HybridSpace {
    inner: Arc<Mutex<Inner>>,
    capacity: u64,
}

impl HybridSpace {
    /// Creates a hybrid space over a fresh pool.
    ///
    /// # Errors
    ///
    /// Propagates pool-layout errors.
    pub fn create(config: PoolConfig) -> libpax::Result<Self> {
        Self::open(PmPool::create(config)?)
    }

    /// Opens an existing pool, rolling back any uncommitted epoch.
    ///
    /// # Errors
    ///
    /// Propagates media errors from recovery.
    pub fn open(mut pool: PmPool) -> libpax::Result<Self> {
        let report = pax_device::recover(&mut pool)?;
        let capacity = pool.layout().data_lines * LINE_SIZE as u64;
        let log = UndoLog::new(&pool);
        Ok(HybridSpace {
            inner: Arc::new(Mutex::new(Inner {
                state: Some(State {
                    pool,
                    log,
                    clock: CrashClock::new(),
                    epoch: report.committed_epoch + 1,
                    touched_pages: HashSet::new(),
                    logged_lines: HashSet::new(),
                }),
                costs: CostReport::default(),
                background_pump_batch: 2,
            })),
            capacity,
        })
    }

    /// Returns the space with a different background pump batch — the
    /// undo entries drained per store burst (the analogue of the PAX
    /// device's per-tick log-drain budget; 0 defers all draining to
    /// [`HybridSpace::persist`]).
    pub fn with_background_pump_batch(self, n: usize) -> Self {
        self.inner.lock().background_pump_batch = n;
        self
    }

    /// Undo entries drained durably to PM so far.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn log_durable_entries(&self) -> libpax::Result<u64> {
        let inner = self.inner.lock();
        let state = inner.state.as_ref().ok_or(PaxError::Pm(PmError::Crashed))?;
        Ok(state.log.durable_offset())
    }

    /// Ends the epoch: drain, commit, re-protect pages.
    ///
    /// # Errors
    ///
    /// Fails after a simulated crash; propagates media errors.
    pub fn persist(&self) -> libpax::Result<u64> {
        let mut inner = self.inner.lock();
        let Inner { state, costs, .. } = &mut *inner;
        let state = state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
        state.log.flush(&mut state.pool, &state.clock)?;
        state.pool.drain();
        costs.sfences += 1;
        let committed = state.epoch;
        state.pool.commit_epoch(committed)?;
        costs.sfences += 1;
        state.epoch += 1;
        state.touched_pages.clear();
        state.logged_lines.clear();
        state.log.reset_after_commit(&mut state.pool, state.log.appended());
        Ok(committed)
    }

    /// Simulates power loss, returning the durable pool.
    ///
    /// # Errors
    ///
    /// Fails if power was already lost.
    pub fn crash(&self) -> libpax::Result<PmPool> {
        let mut inner = self.inner.lock();
        let mut state = inner.state.take().ok_or(PaxError::Pm(PmError::Crashed))?;
        state.pool.crash();
        Ok(state.pool)
    }

    fn check(&self, addr: u64, len: usize) -> libpax::Result<()> {
        if addr.checked_add(len as u64).is_none_or(|e| e > self.capacity) {
            return Err(PaxError::OutOfMemory {
                requested: addr.saturating_add(len as u64),
                capacity: self.capacity,
            });
        }
        Ok(())
    }
}

impl MemSpace for HybridSpace {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
        self.check(addr, buf.len())?;
        let mut inner = self.inner.lock();
        let Inner { state, costs, .. } = &mut *inner;
        let state = state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
        let mut done = 0;
        let mut cur = addr;
        while done < buf.len() {
            let vline = LineAddr::from_byte_addr(cur);
            let off = (cur - vline.byte_addr()) as usize;
            let n = (LINE_SIZE - off).min(buf.len() - done);
            let abs = state.pool.layout().vpm_to_pool(vline.0)?;
            costs.pm_reads += 1;
            let line = state.pool.read_line(abs)?;
            buf[done..done + n].copy_from_slice(line.read_at(off, n));
            done += n;
            cur += n as u64;
        }
        Ok(())
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
        self.check(addr, data.len())?;
        let mut inner = self.inner.lock();
        let Inner { state, costs, .. } = &mut *inner;
        let state = state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
        let mut done = 0;
        let mut cur = addr;
        while done < data.len() {
            let vline = LineAddr::from_byte_addr(cur);
            let page = vline.page();

            // First touch per page: one remap trap, no page-sized logging.
            if state.touched_pages.insert(page) {
                costs.traps += 1;
            }
            // First touch per line: PAX-style 64 B undo entry, logged
            // asynchronously (no SFENCE charged to the application).
            if state.logged_lines.insert(vline) {
                let abs = state.pool.layout().vpm_to_pool(vline.0)?;
                let old = state.pool.read_line(abs)?;
                costs.pm_reads += 1;
                state.log.append(UndoEntry::single(state.epoch, vline, old))?;
                costs.log_bytes += 128;
                costs.pm_write_bytes += 128;
            }

            let off = (cur - vline.byte_addr()) as usize;
            let n = (LINE_SIZE - off).min(data.len() - done);
            let abs = state.pool.layout().vpm_to_pool(vline.0)?;
            let mut line = state.pool.read_line(abs)?;
            costs.pm_reads += 1;
            line.write_at(off, &data[done..done + n]);
            state.pool.write_line(abs, line)?;
            costs.pm_write_bytes += LINE_SIZE as u64;
            costs.app_write_bytes += n as u64;
            done += n;
            cur += n as u64;
        }
        // Model asynchronous draining: a bounded pump after each store,
        // which may write a partly filled block so the entries it covers
        // become durable without waiting for the block to fill.
        let Inner { state, background_pump_batch, .. } = &mut *inner;
        if *background_pump_batch > 0 {
            if let Some(state) = state.as_mut() {
                let target = state.log.appended();
                state
                    .log
                    .pump_to(&mut state.pool, &state.clock, target, *background_pump_batch)
                    .map_err(PaxError::from)?;
            }
        }
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }
}

impl Costed for HybridSpace {
    fn costs(&self) -> CostReport {
        self.inner.lock().costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_per_page_log_per_line() {
        let s = HybridSpace::create(PoolConfig::small()).unwrap();
        s.write_u64(0, 1).unwrap(); // page 0, line 0: trap + line log
        s.write_u64(8, 2).unwrap(); // same line: nothing new
        s.write_u64(64, 3).unwrap(); // page 0, line 1: line log only
        s.write_u64(4096, 4).unwrap(); // page 1: trap + line log
        let c = s.costs();
        assert_eq!(c.traps, 2);
        assert_eq!(c.log_bytes, 3 * 128);
        assert_eq!(c.sfences, 0, "logging is asynchronous");
    }

    #[test]
    fn far_lower_amplification_than_paging() {
        let s = HybridSpace::create(PoolConfig::small()).unwrap();
        s.write_u64(0, 1).unwrap();
        // 128 B log + 64 B data for 8 app bytes = 24×, vs paging's >500×.
        let amp = s.costs().write_amplification();
        assert!(amp < 30.0, "amp = {amp}");
    }

    #[test]
    fn pump_batch_is_configurable() {
        // Default batch drains incrementally as stores arrive.
        let s = HybridSpace::create(PoolConfig::small()).unwrap();
        for i in 0..8u64 {
            s.write_u64(i * LINE_SIZE as u64, i).unwrap();
        }
        assert!(s.log_durable_entries().unwrap() > 0, "default batch drains in the background");

        // Batch 0 defers every entry to persist().
        let deferred =
            HybridSpace::create(PoolConfig::small()).unwrap().with_background_pump_batch(0);
        for i in 0..8u64 {
            deferred.write_u64(i * LINE_SIZE as u64, i).unwrap();
        }
        assert_eq!(deferred.log_durable_entries().unwrap(), 0, "batch 0 must not drain");
        deferred.persist().unwrap();
        assert_eq!(deferred.log_durable_entries().unwrap(), 8, "persist flushes everything");
    }

    #[test]
    fn crash_recovery_matches_pax_semantics() {
        let s = HybridSpace::create(PoolConfig::small()).unwrap();
        s.write_u64(0, 1).unwrap();
        s.persist().unwrap();
        s.write_u64(0, 2).unwrap();
        // Make sure the epoch-2 log entry is durable, then crash: the
        // rollback path must restore the persisted value.
        for _ in 0..64 {
            let mut b = [0u8; 8];
            s.read_bytes(512, &mut b).unwrap();
        }
        let pool = s.crash().unwrap();
        let s2 = HybridSpace::open(pool).unwrap();
        assert_eq!(s2.read_u64(0).unwrap(), 1);
    }
}
