//! Page-protection-based change tracking [12, 15, 20].
//!
//! The black-box approach the paper positions PAX against (§1): map the
//! pool read-only; the first store to each page takes a write
//! page fault (>1 µs on modern x86), the handler logs the whole 4 KiB
//! page pre-image, remaps the page writable, and the epoch continues.
//! `persist()` write-protects everything again and commits.
//!
//! Costs reproduced here: one [`trap`](crate::CostReport::traps) and a
//! 4 KiB page image per touched page per epoch — 64 pre-images in 16 log
//! blocks, 5 KiB with their headers — a 64× amplification of the log
//! over PAX's 64 B line granularity when writes are sparse.

use std::collections::HashSet;

use pax_pm::{LineAddr, LINE_SIZE, PAGE_SIZE};

use crate::engine::{logging_space, Pm, Policy};

const LINES_PER_PAGE: u64 = (PAGE_SIZE / LINE_SIZE) as u64;

/// Pages already faulted (and logged) this epoch.
#[derive(Debug, Clone, Default)]
struct PageFault(HashSet<u64>);

impl Policy for PageFault {
    const TRANSACTIONAL: bool = false;

    fn store(
        &mut self,
        pm: &mut Pm,
        line: LineAddr,
        off: usize,
        data: &[u8],
    ) -> libpax::Result<()> {
        // The write fault: first store to this page this epoch.
        let page = line.page();
        if self.0.insert(page) {
            pm.costs.traps += 1;
            // Log the entire 4 KiB pre-image, line by line; the handler
            // flushes the page image before remapping.
            for pline in (page * LINES_PER_PAGE..(page + 1) * LINES_PER_PAGE).map(LineAddr) {
                let old = pm.read(pline)?;
                pm.log(pline, old)?;
            }
            pm.flush()?;
            pm.fence();
        }
        pm.store(line, off, data)
    }
}

logging_space! {
    /// A [`MemSpace`](libpax::MemSpace) tracked at page granularity via
    /// write faults (see module docs). Opening a pool rolls back the
    /// pages of any uncommitted epoch (same undo recovery as PAX, at page
    /// granularity). The pool's log region must hold a page image (64
    /// undo entries) per page the workload touches per epoch; size
    /// generously.
    PageFaultSpace(PageFault), epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Costed;
    use libpax::MemSpace;
    use pax_pm::PoolConfig;

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
        // One page image: 64 entries in 16 blocks of a header and 4
        // pre-images, 64 B a line; plus one 64 B data line.
        assert_eq!(c.log_bytes, 16 * 5 * 64);
        assert!(c.write_amplification() > 500.0, "amp = {}", c.write_amplification());
    }

    #[test]
    fn persist_charges_the_log_lines_written() {
        let s = space();
        s.write_u64(0, 1).unwrap();
        s.persist().unwrap();
        let c = s.costs();
        assert_eq!(c.log_bytes, 5120, "16 blocks x 5 lines, not 64 entries x 128 B");
        // The log, one data line and the commit record.
        assert_eq!(c.pm_write_bytes, 5120 + 64 + 64);
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
