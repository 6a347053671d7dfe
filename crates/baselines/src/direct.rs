//! Direct PM access with no crash-consistency mechanism ("PM Direct").
//!
//! Every store goes straight to the PM medium. This is the fast-but-unsafe
//! upper bound of Fig. 2b: after a crash, partially applied operations are
//! simply visible — the `baseline_equivalence` integration test
//! demonstrates the resulting inconsistency that PAX prevents.

use std::sync::Arc;

use parking_lot::Mutex;

use libpax::{MemSpace, PaxError};
use pax_pm::{CacheLine, PmMedia, LINE_SIZE};

use crate::costs::{CostReport, Costed};
use crate::engine::{check, lines};

#[derive(Debug)]
struct Inner {
    media: PmMedia,
    costs: CostReport,
}

/// A [`MemSpace`] writing through to raw PM (see module docs).
#[derive(Debug, Clone)]
pub struct DirectPmSpace {
    inner: Arc<Mutex<Inner>>,
    capacity: u64,
}

impl DirectPmSpace {
    /// A direct-PM space of `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        DirectPmSpace {
            inner: Arc::new(Mutex::new(Inner {
                media: PmMedia::new(capacity_bytes),
                costs: CostReport::default(),
            })),
            capacity: capacity_bytes as u64,
        }
    }

    /// Simulates power loss (every write already reached media; there
    /// is no recovery mechanism to run).
    pub fn crash(&self) {
        self.inner.lock().media.crash();
    }
}

impl MemSpace for DirectPmSpace {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
        check(addr, buf.len(), self.capacity)?;
        let mut inner = self.inner.lock();
        for (line, off, span) in lines(addr, buf.len()) {
            let n = span.len();
            let data = inner.media.read_line(line).map_err(PaxError::from)?;
            inner.costs.pm_reads += 1;
            buf[span].copy_from_slice(data.read_at(off, n));
        }
        Ok(())
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
        check(addr, data.len(), self.capacity)?;
        let mut inner = self.inner.lock();
        for (line, off, span) in lines(addr, data.len()) {
            let n = span.len();
            let mut l: CacheLine = if n == LINE_SIZE {
                CacheLine::zeroed()
            } else {
                inner.media.read_line(line).map_err(PaxError::from)?
            };
            l.write_at(off, &data[span]);
            inner.media.write_line(line, l).map_err(PaxError::from)?;
            inner.costs.pm_write_bytes += LINE_SIZE as u64;
            inner.costs.app_write_bytes += n as u64;
        }
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }
}

impl Costed for DirectPmSpace {
    fn costs(&self) -> CostReport {
        self.inner.lock().costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libpax::{BitmapAlloc, PHashMap};

    #[test]
    fn structures_run_unmodified() {
        let space = DirectPmSpace::new(1 << 20);
        let alloc = BitmapAlloc::attach(space.clone()).unwrap();
        let m: PHashMap<u64, u64, _> = PHashMap::attach(alloc).unwrap();
        m.insert(1, 10).unwrap();
        assert_eq!(m.get(1).unwrap(), Some(10));
    }

    #[test]
    fn no_logging_means_amplification_near_line_ratio() {
        let space = DirectPmSpace::new(1 << 20);
        space.write_u64(0, 7).unwrap();
        let c = space.costs();
        assert_eq!(c.log_bytes, 0);
        assert_eq!(c.sfences, 0);
        assert_eq!(c.traps, 0);
        assert_eq!(c.app_write_bytes, 8);
        assert_eq!(c.pm_write_bytes, 64);
    }

    #[test]
    fn data_survives_adr_crash_without_consistency() {
        let space = DirectPmSpace::new(1 << 20);
        space.write_u64(128, 42).unwrap();
        space.crash();
        // The raw bytes survive — but nothing guarantees they form a
        // consistent structure state; that is the point of this baseline.
        assert_eq!(space.read_u64(128).unwrap(), 42);
    }

    #[test]
    fn bounds_checked() {
        let space = DirectPmSpace::new(128);
        assert!(space.write_u64(121, 1).is_err());
        assert!(space.read_u64(u64::MAX - 1).is_err());
    }
}
