//! Persistent memory media.
//!
//! [`PmMedia`] models the persistent DIMMs below the accelerator: Optane
//! under ADR, whose memory controller flushes every write it accepted on
//! power loss (DESIGN.md §2). So a line the medium accepts is durable,
//! and a crash loses nothing written to it. What crash consistency has to
//! get right is everything that never reached it: dirty lines in the
//! simulated host caches (see `pax-cache`) and the device's volatile
//! state — exactly the hazard the paper addresses.
//!
//! The lines live in one flat, zero-allocated byte buffer, so a medium
//! costs host memory for the pages a run writes, not for its configured
//! capacity (where the platform allocator maps zeroed memory lazily, as
//! glibc does for large requests; the contents are the same either way).

use pax_telemetry::{Counter, MetricSet, MetricSnapshot};

use crate::error::PmError;
use crate::line::{CacheLine, LineAddr, LINE_SIZE};
use crate::Result;

/// Access statistics for a medium; inputs to the timing models.
///
/// This is a point-in-time *view* built from the medium's
/// [`MetricSet`] registry — the registry is the single owner of the
/// counters; this struct just gives call sites typed field access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaStats {
    /// Number of line reads served.
    pub line_reads: u64,
    /// Number of line writes accepted.
    pub line_writes: u64,
    /// Number of crashes this medium has survived.
    pub crashes: u64,
}

/// Counter handles for one medium's [`MetricSet`].
#[derive(Debug, Clone, Copy)]
struct MediaCounters {
    line_reads: Counter,
    line_writes: Counter,
    crashes: Counter,
}

impl MediaCounters {
    fn register(metrics: &mut MetricSet) -> Self {
        MediaCounters {
            line_reads: metrics.counter("line_reads"),
            line_writes: metrics.counter("line_writes"),
            crashes: metrics.counter("crashes"),
        }
    }

    fn view(&self, metrics: &MetricSet) -> MediaStats {
        MediaStats {
            line_reads: metrics.get(self.line_reads),
            line_writes: metrics.get(self.line_writes),
            crashes: metrics.get(self.crashes),
        }
    }
}

/// Simulated persistent memory: line-granularity, and every accepted
/// write is durable.
///
/// # Example
///
/// ```
/// use pax_pm::{PmMedia, LineAddr, CacheLine};
///
/// let mut pm = PmMedia::new(4096);
/// pm.write_line(LineAddr(0), CacheLine::filled(9)).unwrap();
/// pm.crash();
/// assert_eq!(pm.read_line(LineAddr(0)).unwrap(), CacheLine::filled(9));
/// ```
pub struct PmMedia {
    /// Line `i` is bytes `[i * LINE_SIZE, (i + 1) * LINE_SIZE)`. The
    /// buffer comes from `vec![0u8; n]`, which std allocates zeroed
    /// (`calloc`), so pages no line was ever written to stay unmapped. An
    /// array of lines would not: `vec![CacheLine::zeroed(); n]` writes
    /// every byte, because std zero-allocates only primitive element
    /// types.
    bytes: Vec<u8>,
    metrics: MetricSet,
    ctr: MediaCounters,
}

impl std::fmt::Debug for PmMedia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The contents can be gigabytes; show the size and counters only.
        f.debug_struct("PmMedia")
            .field("lines", &self.capacity_lines())
            .field("stats", &self.stats())
            .finish()
    }
}

impl PmMedia {
    /// Creates a zero-filled persistent medium of `capacity_bytes`
    /// (rounded up to whole lines).
    pub fn new(capacity_bytes: usize) -> Self {
        let mut metrics = MetricSet::new("media");
        let ctr = MediaCounters::register(&mut metrics);
        let bytes = vec![0u8; capacity_bytes.div_ceil(LINE_SIZE) * LINE_SIZE];
        PmMedia { bytes, metrics, ctr }
    }

    /// The byte range of the line at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is past the end.
    fn span(&self, addr: LineAddr) -> Result<std::ops::Range<usize>> {
        let capacity_lines = self.capacity_lines();
        if addr.0 >= capacity_lines {
            return Err(PmError::OutOfBounds { addr, capacity_lines });
        }
        let at = addr.0 as usize * LINE_SIZE;
        Ok(at..at + LINE_SIZE)
    }

    /// Reads the line at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is past the end.
    pub fn read_line(&mut self, addr: LineAddr) -> Result<CacheLine> {
        let span = self.span(addr)?;
        self.metrics.inc(self.ctr.line_reads);
        Ok(CacheLine::from_bytes(&self.bytes[span]))
    }

    /// Writes the line at `addr`. Once this returns, the line is durable.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is past the end.
    pub fn write_line(&mut self, addr: LineAddr, line: CacheLine) -> Result<()> {
        let span = self.span(addr)?;
        self.metrics.inc(self.ctr.line_writes);
        self.bytes[span].copy_from_slice(line.as_bytes());
        Ok(())
    }

    /// Simulates power loss. Every accepted write is already durable, so
    /// this only counts the crash.
    pub fn crash(&mut self) {
        self.metrics.inc(self.ctr.crashes);
    }

    /// Every line's contents, in address order (what a saved pool file
    /// holds), without counting reads.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Capacity in lines.
    pub fn capacity_lines(&self) -> u64 {
        (self.bytes.len() / LINE_SIZE) as u64
    }

    /// Cumulative access statistics (a typed view of
    /// [`PmMedia::metrics`]).
    pub fn stats(&self) -> MediaStats {
        self.ctr.view(&self.metrics)
    }

    /// Snapshot of the medium's metric registry.
    pub fn metrics(&self) -> MetricSnapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(b: u8) -> CacheLine {
        CacheLine::filled(b)
    }

    /// Under ADR a write the controller accepted survives power loss
    /// (real controllers queue it in a WPQ that ADR flushes), so it reads
    /// back after the crash with nothing in between.
    #[test]
    fn adr_crash_preserves_queued_writes() {
        let mut pm = PmMedia::new(1 << 16);
        pm.write_line(LineAddr(0), fill(7)).unwrap();
        assert_eq!(pm.read_line(LineAddr(0)).unwrap(), fill(7));
        pm.crash();
        assert_eq!(pm.read_line(LineAddr(0)).unwrap(), fill(7));
        assert_eq!(pm.read_line(LineAddr(1)).unwrap(), CacheLine::zeroed());
        assert_eq!(pm.stats().crashes, 1);
    }

    #[test]
    fn newest_write_wins() {
        let mut pm = PmMedia::new(1 << 16);
        pm.write_line(LineAddr(5), fill(1)).unwrap();
        pm.write_line(LineAddr(5), fill(2)).unwrap();
        assert_eq!(pm.read_line(LineAddr(5)).unwrap(), fill(2));
        pm.crash();
        assert_eq!(pm.read_line(LineAddr(5)).unwrap(), fill(2));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut m = PmMedia::new(1 << 12);
        let cap = m.capacity_lines();
        assert_eq!(cap, 64);
        m.write_line(LineAddr(cap - 1), fill(4)).unwrap();
        assert_eq!(m.read_line(LineAddr(cap - 1)).unwrap(), fill(4));
        let end = LineAddr(cap);
        let oob = |e| matches!(e, PmError::OutOfBounds { addr, capacity_lines: 64 } if addr == end);
        assert!(m.read_line(end).is_err_and(oob));
        assert!(m.write_line(end, fill(4)).is_err_and(oob));
        assert!(m.write_line(LineAddr(99), fill(0)).is_err());
    }

    #[test]
    fn stats_count_bytes() {
        let mut pm = PmMedia::new(1 << 12);
        pm.write_line(LineAddr(0), fill(1)).unwrap();
        pm.read_line(LineAddr(0)).unwrap();
        assert_eq!((pm.stats().line_writes, pm.stats().line_reads), (1, 1));
    }

    #[test]
    fn capacity_rounds_up_to_lines() {
        let pm = PmMedia::new(65);
        assert_eq!(pm.capacity_lines(), 2);
    }
}
