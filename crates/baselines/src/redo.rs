//! Redo-log write-ahead logging (§2).
//!
//! "In redo logging, structure operations log all locations and values to
//! be updated; once the log entries persist, updates to the structure are
//! applied. On a crash, missing updates are applied from the log."
//!
//! [`RedoSpace`] buffers a transaction's writes (read-your-writes) and
//! logs the *new* values; commit drains the log (SFENCE), writes the
//! commit record (SFENCE), then applies the buffered writes to the
//! structure. Recovery re-applies the last committed transaction's
//! entries — idempotent, so a crash between commit and apply is safe.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use libpax::{MemSpace, PaxError};
use pax_device::{UndoEntry, UndoLog};
use pax_pm::{CacheLine, CrashClock, LineAddr, PmError, PmPool, PoolConfig, LINE_SIZE};

use crate::costs::{CostReport, Costed};

#[derive(Debug)]
struct State {
    pool: PmPool,
    /// Same on-media entry format as the undo log; here `old` carries the
    /// *new* value (redo semantics are in the recovery direction).
    log: UndoLog,
    clock: CrashClock,
    txid: u64,
    tx_open: bool,
    /// The transaction's pending writes (redo buffer).
    buffer: HashMap<LineAddr, CacheLine>,
}

#[derive(Debug)]
struct Inner {
    state: Option<State>,
    costs: CostReport,
}

/// A [`MemSpace`] with redo-log WAL (see module docs).
#[derive(Debug, Clone)]
pub struct RedoSpace {
    inner: Arc<Mutex<Inner>>,
    capacity: u64,
}

impl RedoSpace {
    /// Creates a redo space over a fresh pool.
    ///
    /// # Errors
    ///
    /// Propagates pool-layout errors.
    pub fn create(config: PoolConfig) -> libpax::Result<Self> {
        Self::open(PmPool::create(config)?)
    }

    /// Opens an existing pool, re-applying the last committed
    /// transaction's logged writes (redo recovery).
    ///
    /// # Errors
    ///
    /// Propagates media errors.
    pub fn open(mut pool: PmPool) -> libpax::Result<Self> {
        let committed = pool.committed_epoch()?;
        for (_, entry) in UndoLog::scan(&mut pool)? {
            if entry.epoch == committed {
                let abs = pool.layout().vpm_to_pool(entry.vpm_line.0)?;
                pool.write_line(abs, entry.old)?; // `old` holds the new value
            }
            // epoch > committed: uncommitted, discard; < committed: stale.
        }
        pool.drain();
        let capacity = pool.layout().data_lines * LINE_SIZE as u64;
        let log = UndoLog::new(&pool);
        Ok(RedoSpace {
            inner: Arc::new(Mutex::new(Inner {
                state: Some(State {
                    pool,
                    log,
                    clock: CrashClock::new(),
                    txid: committed + 1,
                    tx_open: false,
                    buffer: HashMap::new(),
                }),
                costs: CostReport::default(),
            })),
            capacity,
        })
    }

    /// Opens an explicit transaction.
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

    /// Commits: log new values (durable, SFENCE), commit record (SFENCE),
    /// then apply the buffered writes to the structure.
    ///
    /// # Errors
    ///
    /// Fails after a simulated crash; propagates media errors.
    pub fn commit_tx(&self) -> libpax::Result<()> {
        let mut inner = self.inner.lock();
        let Inner { state, costs } = &mut *inner;
        let state = state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;

        // Log every buffered line's new value.
        let mut lines: Vec<(LineAddr, CacheLine)> =
            state.buffer.iter().map(|(a, l)| (*a, l.clone())).collect();
        lines.sort_by_key(|(a, _)| a.0);
        for (addr, data) in &lines {
            state.log.append(UndoEntry::single(state.txid, *addr, data.clone()))?;
            costs.log_bytes += 128;
            costs.pm_write_bytes += 128;
        }
        state.log.flush(&mut state.pool, &state.clock)?;
        costs.sfences += 1;

        // Commit record.
        state.pool.commit_epoch(state.txid)?;
        costs.sfences += 1;

        // Apply to the structure (may be interrupted; recovery re-applies).
        for (addr, data) in lines {
            let abs = state.pool.layout().vpm_to_pool(addr.0)?;
            state.pool.write_line(abs, data)?;
            costs.pm_write_bytes += LINE_SIZE as u64;
        }
        state.pool.drain();
        costs.sfences += 1;

        state.txid += 1;
        state.tx_open = false;
        state.buffer.clear();
        state.log.reset_after_commit(&mut state.pool, state.log.appended());
        Ok(())
    }

    /// Runs `f` inside a transaction.
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

impl MemSpace for RedoSpace {
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
            // Read-your-writes: buffered lines win.
            let line = match state.buffer.get(&vline) {
                Some(l) => l.clone(),
                None => {
                    let abs = state.pool.layout().vpm_to_pool(vline.0)?;
                    costs.pm_reads += 1;
                    state.pool.read_line(abs)?
                }
            };
            buf[done..done + n].copy_from_slice(line.read_at(off, n));
            done += n;
            cur += n as u64;
        }
        Ok(())
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
        self.check(addr, data.len())?;
        let implicit;
        {
            let mut inner = self.inner.lock();
            let Inner { state, costs } = &mut *inner;
            let state = state.as_mut().ok_or(PaxError::Pm(PmError::Crashed))?;
            implicit = !state.tx_open;
            let mut done = 0;
            let mut cur = addr;
            while done < data.len() {
                let vline = LineAddr::from_byte_addr(cur);
                let off = (cur - vline.byte_addr()) as usize;
                let n = (LINE_SIZE - off).min(data.len() - done);
                let mut line = match state.buffer.get(&vline) {
                    Some(l) => l.clone(),
                    None => {
                        let abs = state.pool.layout().vpm_to_pool(vline.0)?;
                        costs.pm_reads += 1;
                        state.pool.read_line(abs)?
                    }
                };
                line.write_at(off, &data[done..done + n]);
                state.buffer.insert(vline, line);
                costs.app_write_bytes += n as u64;
                done += n;
                cur += n as u64;
            }
        }
        if implicit {
            self.commit_tx()?;
        }
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }
}

impl Costed for RedoSpace {
    fn costs(&self) -> CostReport {
        self.inner.lock().costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_writes_survive_crash() {
        let space = RedoSpace::create(PoolConfig::small()).unwrap();
        space
            .tx(|| {
                space.write_u64(0, 7)?;
                space.write_u64(100, 8)
            })
            .unwrap();
        let pool = space.crash().unwrap();
        let space2 = RedoSpace::open(pool).unwrap();
        assert_eq!(space2.read_u64(0).unwrap(), 7);
        assert_eq!(space2.read_u64(100).unwrap(), 8);
    }

    #[test]
    fn uncommitted_writes_vanish() {
        let space = RedoSpace::create(PoolConfig::small()).unwrap();
        space.begin_tx().unwrap();
        space.write_u64(0, 99).unwrap();
        // Read-your-writes inside the tx:
        assert_eq!(space.read_u64(0).unwrap(), 99);
        let pool = space.crash().unwrap();
        let space2 = RedoSpace::open(pool).unwrap();
        assert_eq!(space2.read_u64(0).unwrap(), 0, "uncommitted redo entries discarded");
    }

    #[test]
    fn redo_recovery_reapplies_committed_tx() {
        // Simulate crash *between* commit record and apply: build the
        // state by hand — commit record present, structure not updated.
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let clock = CrashClock::new();
        let log = UndoLog::new(&pool);
        log.append(UndoEntry::single(
            1,
            LineAddr(3),
            CacheLine::filled(0x44), // redo: the NEW value
        ))
        .unwrap();
        log.flush(&mut pool, &clock).unwrap();
        pool.commit_epoch(1).unwrap();
        // Structure line still zero: apply never ran.

        let space = RedoSpace::open(pool).unwrap();
        let mut buf = [0u8; 8];
        space.read_bytes(3 * 64, &mut buf).unwrap();
        assert_eq!(buf, [0x44; 8]);
    }

    #[test]
    fn commit_pays_bounded_sfences() {
        let space = RedoSpace::create(PoolConfig::small()).unwrap();
        space
            .tx(|| {
                for i in 0..10u64 {
                    space.write_u64(i * 64, i)?;
                }
                Ok(())
            })
            .unwrap();
        // Redo needs only 3 ordering points per tx regardless of size —
        // versus one per touched line for undo WAL.
        assert_eq!(space.costs().sfences, 3);
    }
}
