//! Page-protection-based change tracking [12, 15, 20].
//!
//! The black-box approach the paper positions PAX against (§1): map the
//! pool read-only; the first store to each page takes a write
//! page fault (>1 µs on modern x86), the handler logs the whole 4 KiB
//! page pre-image, remaps the page writable, and the epoch continues.
//! `persist()` write-protects everything again and commits.
//!
//! Costs reproduced here: one [`trap`](crate::CostReport::traps) and
//! 4 KiB of log traffic per touched page per epoch — a 64× write
//! amplification over PAX's 64 B line granularity when writes are sparse.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use libpax::{MemSpace, PaxError};
use pax_device::{UndoEntry, UndoLog};
use pax_pm::{CrashClock, LineAddr, PmError, PmPool, PoolConfig, LINE_SIZE, PAGE_SIZE};

use crate::costs::{CostReport, Costed};

const LINES_PER_PAGE: u64 = (PAGE_SIZE / LINE_SIZE) as u64;

#[derive(Debug)]
struct State {
    pool: PmPool,
    log: UndoLog,
    clock: CrashClock,
    epoch: u64,
    /// Pages already faulted (and logged) this epoch.
    touched_pages: HashSet<u64>,
}

#[derive(Debug)]
struct Inner {
    state: Option<State>,
    costs: CostReport,
}

/// A [`MemSpace`] tracked at page granularity via write faults (see
/// module docs).
#[derive(Debug, Clone)]
pub struct PageFaultSpace {
    inner: Arc<Mutex<Inner>>,
    capacity: u64,
}

impl PageFaultSpace {
    /// Creates a page-fault-tracked space over a fresh pool.
    ///
    /// The pool's log region must hold a page image (64 undo entries) per
    /// page the workload touches per epoch; size generously.
    ///
    /// # Errors
    ///
    /// Propagates pool-layout errors.
    pub fn create(config: PoolConfig) -> libpax::Result<Self> {
        Self::open(PmPool::create(config)?)
    }

    /// Opens an existing pool, rolling back pages of any uncommitted
    /// epoch (same undo recovery as PAX, at page granularity).
    ///
    /// # Errors
    ///
    /// Propagates media errors from recovery.
    pub fn open(mut pool: PmPool) -> libpax::Result<Self> {
        let report = pax_device::recover(&mut pool)?;
        let capacity = pool.layout().data_lines * LINE_SIZE as u64;
        let log = UndoLog::new(&pool);
        Ok(PageFaultSpace {
            inner: Arc::new(Mutex::new(Inner {
                state: Some(State {
                    pool,
                    log,
                    clock: CrashClock::new(),
                    epoch: report.committed_epoch + 1,
                    touched_pages: HashSet::new(),
                }),
                costs: CostReport::default(),
            })),
            capacity,
        })
    }

    /// Ends the epoch: drains everything, commits, and re-protects all
    /// pages so the next epoch faults afresh.
    ///
    /// # Errors
    ///
    /// Fails after a simulated crash; propagates media errors.
    pub fn persist(&self) -> libpax::Result<u64> {
        let mut inner = self.inner.lock();
        let Inner { state, costs } = &mut *inner;
        let state = state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
        state.log.flush(&mut state.pool, &state.clock)?;
        state.pool.drain();
        costs.sfences += 1;
        let committed = state.epoch;
        state.pool.commit_epoch(committed)?;
        costs.sfences += 1;
        state.epoch += 1;
        state.touched_pages.clear();
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

impl MemSpace for PageFaultSpace {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
        self.check(addr, buf.len())?;
        let mut inner = self.inner.lock();
        let Inner { state, costs } = &mut *inner;
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
        let Inner { state, costs } = &mut *inner;
        let state = state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
        let mut done = 0;
        let mut cur = addr;
        while done < data.len() {
            let vline = LineAddr::from_byte_addr(cur);
            let page = vline.page();

            // The write fault: first store to this page this epoch.
            if !state.touched_pages.contains(&page) {
                costs.traps += 1;
                // Log the entire 4 KiB pre-image, line by line.
                for i in 0..LINES_PER_PAGE {
                    let pline = LineAddr(page * LINES_PER_PAGE + i);
                    let abs = state.pool.layout().vpm_to_pool(pline.0)?;
                    let old = state.pool.read_line(abs)?;
                    costs.pm_reads += 1;
                    state.log.append(UndoEntry::single(state.epoch, pline, old))?;
                    costs.log_bytes += 128;
                    costs.pm_write_bytes += 128;
                }
                // The handler flushes the page image before remapping.
                state.log.flush(&mut state.pool, &state.clock)?;
                costs.sfences += 1;
                state.touched_pages.insert(page);
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
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }
}

impl Costed for PageFaultSpace {
    fn costs(&self) -> CostReport {
        self.inner.lock().costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> PageFaultSpace {
        // Log must hold several page images: 16 pages × 64 entries × 128 B.
        PageFaultSpace::create(PoolConfig::small().with_log_bytes(16 * 64 * 128)).unwrap()
    }

    #[test]
    fn one_trap_per_page_per_epoch() {
        let s = space();
        s.write_u64(0, 1).unwrap(); // page 0: trap
        s.write_u64(8, 2).unwrap(); // page 0: no trap
        s.write_u64(4096, 3).unwrap(); // page 1: trap
        assert_eq!(s.costs().traps, 2);
        s.persist().unwrap();
        s.write_u64(0, 4).unwrap(); // page 0 again, new epoch: trap
        assert_eq!(s.costs().traps, 3);
    }

    #[test]
    fn page_granularity_write_amplification() {
        let s = space();
        s.write_u64(0, 1).unwrap(); // 8 app bytes
        let c = s.costs();
        // One page image (64 entries × 128 B) + one 64 B data line.
        assert_eq!(c.log_bytes, 64 * 128);
        assert!(c.write_amplification() > 500.0, "amp = {}", c.write_amplification());
    }

    #[test]
    fn crash_rolls_back_to_last_persist() {
        let s = space();
        s.write_u64(0, 1).unwrap();
        s.persist().unwrap();
        s.write_u64(0, 2).unwrap();
        s.write_u64(4096, 3).unwrap();
        let pool = s.crash().unwrap();
        let s2 = PageFaultSpace::open(pool).unwrap();
        assert_eq!(s2.read_u64(0).unwrap(), 1, "page rolled back");
        assert_eq!(s2.read_u64(4096).unwrap(), 0);
    }

    #[test]
    fn persisted_state_survives() {
        let s = space();
        s.write_u64(100, 42).unwrap();
        s.persist().unwrap();
        let pool = s.crash().unwrap();
        let s2 = PageFaultSpace::open(pool).unwrap();
        assert_eq!(s2.read_u64(100).unwrap(), 42);
    }
}
