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
//! 64 B line, PAX-style, and drained in the background. Compared in the
//! `write_amp` bench against pure paging (amortizes traps, huge log) and
//! pure PAX (no traps, line log).

use std::collections::HashSet;

use pax_pm::LineAddr;

use crate::engine::{logging_space, Pm, Policy};

/// Undo entries the background engine drains after each store burst
/// (the analogue of the PAX device's per-tick log-drain budget).
const PUMP_BATCH: usize = 2;

/// Pages remapped and lines logged this epoch.
#[derive(Debug, Clone, Default)]
struct Hybrid {
    pages: HashSet<u64>,
    lines: HashSet<LineAddr>,
}

impl Policy for Hybrid {
    const TRANSACTIONAL: bool = false;

    fn store(
        &mut self,
        pm: &mut Pm,
        line: LineAddr,
        off: usize,
        data: &[u8],
    ) -> libpax::Result<()> {
        // First touch per page: one remap trap, no page-sized logging.
        if self.pages.insert(line.page()) {
            pm.costs.traps += 1;
        }
        // First touch per line: PAX-style 64 B undo entry, logged
        // asynchronously (no SFENCE charged to the application).
        if self.lines.insert(line) {
            let old = pm.read(line)?;
            pm.log(line, old)?;
        }
        pm.store(line, off, data)
    }

    /// Models asynchronous draining: a bounded pump after each store,
    /// which may write a partly filled block so the entries it covers
    /// become durable without waiting for the block to fill.
    fn after_write(&mut self, pm: &mut Pm) -> libpax::Result<()> {
        pm.pump(PUMP_BATCH)
    }
}

logging_space! {
    /// A [`MemSpace`](libpax::MemSpace) combining page-fault mapping with
    /// line-granularity PAX tracking (see module docs). Opening a pool
    /// rolls back any uncommitted epoch.
    HybridSpace(Hybrid), epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Costed;
    use libpax::MemSpace;
    use pax_device::UndoLog;
    use pax_pm::{PoolConfig, LINE_SIZE};

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
    fn the_log_drains_in_the_background() {
        let s = HybridSpace::create(PoolConfig::small()).unwrap();
        for i in 0..8u64 {
            s.write_u64(i * LINE_SIZE as u64, i).unwrap();
        }
        // No persist: whatever is on media was pumped after a store.
        let mut pool = s.crash().unwrap();
        let durable = UndoLog::scan(&mut pool).unwrap();
        assert!(!durable.is_empty(), "stores drain the log in the background");
        assert!(durable.iter().all(|(_, e)| e.epoch == 1));
        assert_eq!(pool.committed_epoch().unwrap(), 0);
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
