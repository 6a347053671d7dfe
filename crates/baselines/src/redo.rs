//! Redo-log write-ahead logging (§2).
//!
//! "In redo logging, structure operations log all locations and values to
//! be updated; once the log entries persist, updates to the structure are
//! applied. On a crash, missing updates are applied from the log."
//!
//! [`RedoSpace`] buffers a transaction's writes (read-your-writes) and
//! logs the *new* values; commit drains the log (SFENCE), writes the
//! commit record (SFENCE), then applies the buffered writes to the
//! structure (SFENCE). Recovery re-applies the last committed
//! transaction's entries — idempotent, so a crash between commit and
//! apply is safe.

use std::collections::BTreeMap;

use pax_pm::{CacheLine, LineAddr};

use crate::engine::{logging_space, Pm, Policy};

/// The open transaction's pending writes (the redo buffer), in line
/// order.
#[derive(Debug, Clone, Default)]
struct Redo(BTreeMap<LineAddr, CacheLine>);

impl Policy for Redo {
    const TRANSACTIONAL: bool = true;
    const REDO: bool = true;

    fn store(
        &mut self,
        pm: &mut Pm,
        line: LineAddr,
        off: usize,
        data: &[u8],
    ) -> libpax::Result<()> {
        let mut l = match self.0.get(&line) {
            Some(l) => l.clone(),
            None => pm.read(line)?,
        };
        l.write_at(off, data);
        self.0.insert(line, l);
        Ok(())
    }

    fn buffered(&self, line: LineAddr) -> Option<&CacheLine> {
        self.0.get(&line)
    }

    /// Logs every buffered line's new value (same on-media entry format
    /// as the undo log; the `old` field carries the new value).
    fn before_commit(&mut self, pm: &mut Pm) -> libpax::Result<()> {
        for (line, data) in &self.0 {
            pm.log(*line, data.clone())?;
        }
        Ok(())
    }

    /// Applies the buffer to the structure (may be interrupted; recovery
    /// re-applies), then drains it.
    fn after_commit(&mut self, pm: &mut Pm) -> libpax::Result<()> {
        for (line, data) in std::mem::take(&mut self.0) {
            pm.write(line, data)?;
        }
        pm.fence();
        Ok(())
    }
}

logging_space! {
    /// A [`MemSpace`](libpax::MemSpace) with redo-log WAL (see module
    /// docs). Opening a pool re-applies the last committed transaction's
    /// logged writes (redo recovery).
    RedoSpace(Redo), transactions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Costed;
    use libpax::MemSpace;
    use pax_device::{UndoEntry, UndoLog};
    use pax_pm::{CrashClock, PmPool, PoolConfig};

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

    #[test]
    fn commit_charges_the_log_lines_written() {
        let space = RedoSpace::create(PoolConfig::small()).unwrap();
        space
            .tx(|| {
                for i in 0..4u64 {
                    space.write_u64(i * 64, i)?;
                }
                Ok(())
            })
            .unwrap();
        let c = space.costs();
        assert_eq!(c.log_bytes, 320, "one 5-line block, not 4 entries x 128 B");
        // The log, four applied lines and the commit record.
        assert_eq!(c.pm_write_bytes, 320 + 4 * 64 + 64);
    }
}
