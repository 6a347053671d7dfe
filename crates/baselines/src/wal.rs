//! PMDK-style synchronous undo-log write-ahead logging (§2).
//!
//! "In undo logging, the existing value stored in a persistent structure
//! is logged for each location that must be modified. After a log entry
//! recording the prior value persists, modifications are applied directly
//! to the structure." The key cost: *after ... persists* — every first
//! store to a line inside a transaction stalls on an SFENCE before the
//! data write may proceed, and the commit adds two more ordering points
//! (drain the data writes, then the commit record).
//!
//! [`WalSpace`] reuses the device crate's log format and recovery routine
//! — the mechanism is identical to PAX's; only the synchrony differs,
//! which is exactly the paper's comparison.

use std::collections::HashSet;

use pax_pm::LineAddr;

use crate::engine::{logging_space, Pm, Policy};

/// Lines already logged in the open transaction.
#[derive(Debug, Clone, Default)]
struct Wal(HashSet<LineAddr>);

impl Policy for Wal {
    const TRANSACTIONAL: bool = true;

    fn store(
        &mut self,
        pm: &mut Pm,
        line: LineAddr,
        off: usize,
        data: &[u8],
    ) -> libpax::Result<()> {
        // Log-then-store: first touch per tx logs the pre-image and
        // STALLS until it is durable (the §2 SFENCE).
        if self.0.insert(line) {
            let old = pm.read(line)?;
            pm.log(line, old)?;
            pm.flush()?;
            pm.fence();
        }
        pm.store(line, off, data)
    }
}

logging_space! {
    /// A [`MemSpace`](libpax::MemSpace) with PMDK-style synchronous undo
    /// WAL (see module docs). Opening a pool rolls back any uncommitted
    /// transaction, exactly like libpax §3.4.
    WalSpace(Wal), transactions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Costed;
    use libpax::{BitmapAlloc, MemSpace, PHashMap};
    use pax_pm::PoolConfig;

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
        let mut pool = space.crash().unwrap();
        assert_eq!(pool.committed_epoch().unwrap(), 1);
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
