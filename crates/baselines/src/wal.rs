//! PMDK-style synchronous undo-log write-ahead logging (§2).
//!
//! "In undo logging, the existing value stored in a persistent structure
//! is logged for each location that must be modified. After a log entry
//! recording the prior value persists, modifications are applied directly
//! to the structure." The key cost: *after ... persists* — every first
//! store to a line inside a transaction stalls on an SFENCE before the
//! data write may proceed, and the commit adds two more ordering points.
//!
//! [`WalSpace`] reuses the device crate's log format and recovery routine
//! — the mechanism is identical to PAX's; only the synchrony differs,
//! which is exactly the paper's comparison.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use libpax::{MemSpace, PaxError};
use pax_device::{recover, UndoEntry, UndoLog};
use pax_pm::{CrashClock, LineAddr, PmError, PmPool, PoolConfig, LINE_SIZE};

use crate::costs::{CostReport, Costed};

#[derive(Debug)]
struct State {
    pool: PmPool,
    log: UndoLog,
    clock: CrashClock,
    /// Transaction being built (= committed txid + 1).
    txid: u64,
    /// Whether an explicit transaction is open.
    tx_open: bool,
    /// vPM lines already logged in the current transaction.
    logged: HashSet<LineAddr>,
}

#[derive(Debug)]
struct Inner {
    state: Option<State>,
    costs: CostReport,
}

/// A [`MemSpace`] with PMDK-style synchronous undo WAL (see module docs).
#[derive(Debug, Clone)]
pub struct WalSpace {
    inner: Arc<Mutex<Inner>>,
    capacity: u64,
}

impl WalSpace {
    /// Creates a WAL space over a fresh pool.
    ///
    /// # Errors
    ///
    /// Propagates pool-layout errors.
    pub fn create(config: PoolConfig) -> libpax::Result<Self> {
        let pool = PmPool::create(config)?;
        Self::open(pool)
    }

    /// Opens (and recovers, exactly like libpax §3.4) an existing pool.
    ///
    /// # Errors
    ///
    /// Propagates media errors from recovery.
    pub fn open(mut pool: PmPool) -> libpax::Result<Self> {
        let report = recover(&mut pool)?;
        let capacity = pool.layout().data_lines * LINE_SIZE as u64;
        let log = UndoLog::new(&pool);
        Ok(WalSpace {
            inner: Arc::new(Mutex::new(Inner {
                state: Some(State {
                    pool,
                    log,
                    clock: CrashClock::new(),
                    txid: report.committed_epoch + 1,
                    tx_open: false,
                    logged: HashSet::new(),
                }),
                costs: CostReport::default(),
            })),
            capacity,
        })
    }

    /// Opens an explicit transaction; subsequent writes log-then-store
    /// until [`WalSpace::commit_tx`].
    ///
    /// # Errors
    ///
    /// Fails after a simulated crash.
    pub fn begin_tx(&self) -> libpax::Result<()> {
        let mut inner = self.inner.lock();
        let state = inner.state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
        state.tx_open = true;
        Ok(())
    }

    /// Commits the open transaction: drains data writes (SFENCE), writes
    /// the commit record, drains again (SFENCE).
    ///
    /// # Errors
    ///
    /// Fails after a simulated crash.
    pub fn commit_tx(&self) -> libpax::Result<()> {
        let mut inner = self.inner.lock();
        let Inner { state, costs } = &mut *inner;
        let state = state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
        state.pool.drain();
        costs.sfences += 1;
        let txid = state.txid;
        state.pool.commit_epoch(txid)?;
        costs.sfences += 1;
        state.txid += 1;
        state.tx_open = false;
        state.logged.clear();
        state.log.reset_after_commit(&mut state.pool, state.log.appended());
        Ok(())
    }

    /// Runs `f` inside a transaction (begin, run, commit).
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error without committing.
    pub fn tx<R>(&self, f: impl FnOnce() -> libpax::Result<R>) -> libpax::Result<R> {
        self.begin_tx()?;
        let r = f()?;
        self.commit_tx()?;
        Ok(r)
    }

    /// Simulates power loss, returning the durable pool for reopening.
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

    /// The committed transaction id (recovery point).
    ///
    /// # Errors
    ///
    /// Fails after a simulated crash.
    pub fn committed_txid(&self) -> libpax::Result<u64> {
        let mut inner = self.inner.lock();
        let state = inner.state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
        Ok(state.pool.committed_epoch()?)
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

impl MemSpace for WalSpace {
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
            let line = state.pool.read_line(abs)?;
            costs.pm_reads += 1;
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
        // Writes outside an explicit tx behave as singleton transactions;
        // PMDK would abort, we stay permissive but still log.
        let implicit = !state.tx_open;
        let mut done = 0;
        let mut cur = addr;
        while done < data.len() {
            let vline = LineAddr::from_byte_addr(cur);
            let off = (cur - vline.byte_addr()) as usize;
            let n = (LINE_SIZE - off).min(data.len() - done);
            let abs = state.pool.layout().vpm_to_pool(vline.0)?;

            // Log-then-store: first touch per tx logs the pre-image and
            // STALLS until it is durable (the §2 SFENCE).
            if !state.logged.contains(&vline) {
                let old = state.pool.read_line(abs)?;
                costs.pm_reads += 1;
                state.log.append(UndoEntry::single(state.txid, vline, old))?;
                state.log.flush(&mut state.pool, &state.clock)?;
                costs.sfences += 1;
                costs.log_bytes += 128;
                costs.pm_write_bytes += 128;
                state.logged.insert(vline);
            }

            let mut line = state.pool.read_line(abs)?;
            costs.pm_reads += 1;
            line.write_at(off, &data[done..done + n]);
            state.pool.write_line(abs, line)?;
            costs.pm_write_bytes += LINE_SIZE as u64;
            costs.app_write_bytes += n as u64;
            done += n;
            cur += n as u64;
        }
        drop(inner);
        if implicit {
            self.commit_tx()?;
        }
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }
}

impl Costed for WalSpace {
    fn costs(&self) -> CostReport {
        self.inner.lock().costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libpax::{BitmapAlloc, PHashMap};

    #[test]
    fn committed_tx_survives_crash() {
        let space = WalSpace::create(PoolConfig::small()).unwrap();
        space
            .tx(|| {
                space.write_u64(0, 11)?;
                space.write_u64(4096, 22)
            })
            .unwrap();
        let pool = space.crash().unwrap();
        let space2 = WalSpace::open(pool).unwrap();
        assert_eq!(space2.read_u64(0).unwrap(), 11);
        assert_eq!(space2.read_u64(4096).unwrap(), 22);
    }

    #[test]
    fn uncommitted_tx_rolls_back() {
        let space = WalSpace::create(PoolConfig::small()).unwrap();
        space.tx(|| space.write_u64(0, 1)).unwrap();
        space.begin_tx().unwrap();
        space.write_u64(0, 99).unwrap();
        space.write_u64(128, 77).unwrap();
        // No commit: crash.
        let pool = space.crash().unwrap();
        let space2 = WalSpace::open(pool).unwrap();
        assert_eq!(space2.read_u64(0).unwrap(), 1, "rolled back to committed value");
        assert_eq!(space2.read_u64(128).unwrap(), 0);
    }

    #[test]
    fn every_first_touch_pays_an_sfence() {
        let space = WalSpace::create(PoolConfig::small()).unwrap();
        space.begin_tx().unwrap();
        space.write_u64(0, 1).unwrap(); // line 0: log + sfence
        space.write_u64(8, 2).unwrap(); // line 0 again: no new log
        space.write_u64(64, 3).unwrap(); // line 1: log + sfence
        space.commit_tx().unwrap(); // 2 more sfences
        let c = space.costs();
        assert_eq!(c.sfences, 2 + 2);
        assert_eq!(c.log_bytes, 2 * 128);
    }

    #[test]
    fn unmodified_structure_code_is_crash_safe_under_wal() {
        let space = WalSpace::create(PoolConfig::small().with_data_bytes(4 << 20)).unwrap();
        {
            let alloc = BitmapAlloc::attach(space.clone()).unwrap();
            let m: PHashMap<u64, u64, _> = PHashMap::attach(alloc).unwrap();
            space
                .tx(|| {
                    m.insert(1, 100)?;
                    m.insert(2, 200)?;
                    Ok(())
                })
                .unwrap();
        }
        let pool = space.crash().unwrap();
        let space2 = WalSpace::open(pool).unwrap();
        let m2: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(space2).unwrap()).unwrap();
        assert_eq!(m2.get(1).unwrap(), Some(100));
        assert_eq!(m2.get(2).unwrap(), Some(200));
    }

    #[test]
    fn implicit_writes_are_singleton_txs() {
        let space = WalSpace::create(PoolConfig::small()).unwrap();
        space.write_u64(0, 5).unwrap();
        assert_eq!(space.committed_txid().unwrap(), 1);
        let pool = space.crash().unwrap();
        let space2 = WalSpace::open(pool).unwrap();
        assert_eq!(space2.read_u64(0).unwrap(), 5);
    }

    #[test]
    fn accesses_fail_after_crash() {
        let space = WalSpace::create(PoolConfig::small()).unwrap();
        space.crash().unwrap();
        assert!(space.read_u64(0).is_err());
        assert!(space.crash().is_err());
    }
}
