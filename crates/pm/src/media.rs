//! Memory media with an explicit durability boundary.
//!
//! The whole point of crash-consistency work is the gap between *written*
//! and *durable*. This module makes that gap explicit:
//!
//! * [`PmMedia`] models a persistent DIMM plus the memory controller's
//!   write-pending queue (WPQ). A written line sits in the WPQ until it
//!   drains to the durable array. The configured [`PersistenceDomain`]
//!   decides what happens to the WPQ at a crash: under **ADR** (and eADR)
//!   the WPQ is inside the persistence domain and drains on power loss;
//!   with [`PersistenceDomain::None`] queued writes are lost.
//! * [`DramMedia`] models volatile memory: a crash clears everything.
//!
//! Both store their lines in one flat, zero-allocated byte buffer, so a
//! medium costs host memory for the pages a run writes, not for its
//! configured capacity (where the platform allocator maps zeroed memory
//! lazily, as glibc does for large requests; the contents are the same
//! either way).
//!
//! Host-CPU caches are *not* part of any medium — dirty lines living in the
//! simulated CPU cache (see `pax-cache`) are simply absent from the medium
//! and therefore lost on crash, exactly the hazard the paper addresses.

use std::collections::VecDeque;

use pax_telemetry::{Counter, MetricSet, MetricSnapshot};

use crate::error::PmError;
use crate::line::{CacheLine, LineAddr, LINE_SIZE};
use crate::Result;

/// Which part of the write path survives power loss (§1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PersistenceDomain {
    /// Nothing queued survives; only lines already on media do.
    None,
    /// Asynchronous DRAM Refresh: writes accepted by the memory
    /// controller's WPQ are flushed on power loss and survive.
    Adr,
    /// Extended ADR: CPU caches are also flushed on power loss. The cache
    /// simulator consults this to decide whether dirty CPU lines survive;
    /// at the media level it behaves like [`PersistenceDomain::Adr`].
    Eadr,
}

impl PersistenceDomain {
    /// Whether writes sitting in the WPQ survive a crash.
    pub fn wpq_survives(self) -> bool {
        !matches!(self, PersistenceDomain::None)
    }

    /// Whether dirty lines in CPU caches survive a crash.
    pub fn cpu_caches_survive(self) -> bool {
        matches!(self, PersistenceDomain::Eadr)
    }
}

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
    /// Number of lines dropped from the WPQ by a crash.
    pub lines_lost_in_wpq: u64,
    /// Number of crashes this medium has survived.
    pub crashes: u64,
}

/// Counter handles for one medium's [`MetricSet`].
#[derive(Debug, Clone, Copy)]
struct MediaCounters {
    line_reads: Counter,
    line_writes: Counter,
    lines_lost_in_wpq: Counter,
    crashes: Counter,
}

impl MediaCounters {
    fn register(metrics: &mut MetricSet) -> Self {
        MediaCounters {
            line_reads: metrics.counter("line_reads"),
            line_writes: metrics.counter("line_writes"),
            lines_lost_in_wpq: metrics.counter("lines_lost_in_wpq"),
            crashes: metrics.counter("crashes"),
        }
    }

    fn view(&self, metrics: &MetricSet) -> MediaStats {
        MediaStats {
            line_reads: metrics.get(self.line_reads),
            line_writes: metrics.get(self.line_writes),
            lines_lost_in_wpq: metrics.get(self.lines_lost_in_wpq),
            crashes: metrics.get(self.crashes),
        }
    }
}

/// Line-granularity memory with crash semantics.
///
/// Implemented by [`PmMedia`] and [`DramMedia`]. All PAX components are
/// written against this trait so tests can swap media freely.
pub trait Memory {
    /// Reads the line at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is past the end.
    fn read_line(&mut self, addr: LineAddr) -> Result<CacheLine>;

    /// Writes the line at `addr`.
    ///
    /// For persistent media the write is only *queued*; call
    /// [`Memory::drain`] (or rely on the persistence domain at crash time)
    /// for durability.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if `addr` is past the end.
    fn write_line(&mut self, addr: LineAddr, line: CacheLine) -> Result<()>;

    /// Forces all queued writes to the durable array (an `SFENCE` +
    /// queue-drain on real hardware).
    fn drain(&mut self);

    /// Simulates power loss, applying the medium's persistence semantics.
    fn crash(&mut self);

    /// Capacity in lines.
    fn capacity_lines(&self) -> u64;

    /// Cumulative access statistics (a typed view of [`Memory::metrics`]).
    fn stats(&self) -> MediaStats;

    /// Snapshot of the medium's metric registry.
    fn metrics(&self) -> MetricSnapshot;
}

/// The lines of one medium, stored flat: line `i` is bytes
/// `[i * LINE_SIZE, (i + 1) * LINE_SIZE)` of one buffer.
///
/// The buffer comes from `vec![0u8; n]`, which std allocates zeroed
/// (`calloc`), so pages no line was ever written to stay unmapped. An
/// array of lines would not: `vec![CacheLine::zeroed(); n]` writes every
/// byte, because std zero-allocates only primitive element types.
struct LineStore(Vec<u8>);

impl LineStore {
    fn zeroed(lines: usize) -> Self {
        LineStore(vec![0u8; lines * LINE_SIZE])
    }

    fn lines(&self) -> u64 {
        (self.0.len() / LINE_SIZE) as u64
    }

    fn check(&self, addr: LineAddr) -> Result<()> {
        if addr.0 >= self.lines() {
            return Err(PmError::OutOfBounds { addr, capacity_lines: self.lines() });
        }
        Ok(())
    }

    /// The byte range of the line at `addr`, which [`LineStore::check`]
    /// has bounded.
    fn span(addr: LineAddr) -> std::ops::Range<usize> {
        let at = addr.0 as usize * LINE_SIZE;
        at..at + LINE_SIZE
    }

    fn get(&self, addr: LineAddr) -> CacheLine {
        CacheLine::from_bytes(&self.0[Self::span(addr)])
    }

    fn set(&mut self, addr: LineAddr, line: &CacheLine) {
        self.0[Self::span(addr)].copy_from_slice(line.as_bytes());
    }
}

impl std::fmt::Debug for LineStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The contents can be gigabytes; show the size only.
        write!(f, "LineStore({} lines)", self.lines())
    }
}

/// Simulated persistent memory: durable array + write-pending queue.
///
/// # Example
///
/// ```
/// use pax_pm::{PmMedia, Memory, PersistenceDomain, LineAddr, CacheLine};
///
/// // Without ADR, a crash loses writes still sitting in the WPQ.
/// let mut pm = PmMedia::new(4096, PersistenceDomain::None);
/// pm.write_line(LineAddr(0), CacheLine::filled(9)).unwrap();
/// pm.crash();
/// assert_eq!(pm.read_line(LineAddr(0)).unwrap(), CacheLine::zeroed());
/// ```
#[derive(Debug)]
pub struct PmMedia {
    durable: LineStore,
    wpq: VecDeque<(LineAddr, CacheLine)>,
    wpq_capacity: usize,
    /// Queued WPQ entries per address bucket (see [`wpq_bucket`]), so a
    /// read scans the queue only when its bucket holds something.
    wpq_index: [u16; WPQ_INDEX_BUCKETS],
    domain: PersistenceDomain,
    metrics: MetricSet,
    ctr: MediaCounters,
}

/// Default depth of the write-pending queue (tens of entries on real iMCs).
pub const DEFAULT_WPQ_DEPTH: usize = 64;

/// Buckets in [`PmMedia`]'s WPQ address index: four per queue entry, so
/// a full queue leaves most reads with an empty bucket.
const WPQ_INDEX_BUCKETS: usize = 256;

/// `addr`'s bucket in the WPQ address index (a multiplicative hash, so
/// strided write streams still spread).
fn wpq_bucket(addr: LineAddr) -> usize {
    (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize
}

impl PmMedia {
    /// Creates a zero-filled persistent medium of `capacity_bytes`
    /// (rounded up to whole lines) with the given persistence domain.
    pub fn new(capacity_bytes: usize, domain: PersistenceDomain) -> Self {
        let mut metrics = MetricSet::new("media");
        let ctr = MediaCounters::register(&mut metrics);
        PmMedia {
            durable: LineStore::zeroed(capacity_bytes.div_ceil(LINE_SIZE)),
            wpq: VecDeque::new(),
            wpq_capacity: DEFAULT_WPQ_DEPTH,
            wpq_index: [0; WPQ_INDEX_BUCKETS],
            domain,
            metrics,
            ctr,
        }
    }

    /// The configured persistence domain.
    pub fn domain(&self) -> PersistenceDomain {
        self.domain
    }

    /// Reads the *durable* contents at `addr`, ignoring the WPQ.
    ///
    /// This is what a post-crash reader would see if the WPQ were lost;
    /// recovery tests use it to assert on-media state.
    pub fn read_durable(&self, addr: LineAddr) -> Result<CacheLine> {
        self.durable.check(addr)?;
        Ok(self.durable.get(addr))
    }

    fn drain_one(&mut self) {
        if let Some((addr, line)) = self.wpq.pop_front() {
            self.wpq_index[wpq_bucket(addr)] -= 1;
            self.durable.set(addr, &line);
        }
    }
}

impl Memory for PmMedia {
    fn read_line(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.durable.check(addr)?;
        self.metrics.inc(self.ctr.line_reads);
        // Reads must observe queued writes (store-to-load forwarding at
        // the controller); scan the WPQ newest-first when the index says
        // the line may be queued.
        if self.wpq_index[wpq_bucket(addr)] > 0 {
            if let Some((_, l)) = self.wpq.iter().rev().find(|(a, _)| *a == addr) {
                return Ok(l.clone());
            }
        }
        Ok(self.durable.get(addr))
    }

    fn write_line(&mut self, addr: LineAddr, line: CacheLine) -> Result<()> {
        self.durable.check(addr)?;
        self.metrics.inc(self.ctr.line_writes);
        if self.wpq.len() >= self.wpq_capacity {
            // A full WPQ forces the oldest entry to media, like real iMCs.
            self.drain_one();
        }
        self.wpq.push_back((addr, line));
        self.wpq_index[wpq_bucket(addr)] += 1;
        Ok(())
    }

    fn drain(&mut self) {
        while !self.wpq.is_empty() {
            self.drain_one();
        }
    }

    fn crash(&mut self) {
        self.metrics.inc(self.ctr.crashes);
        if self.domain.wpq_survives() {
            self.drain();
        } else {
            self.metrics.add(self.ctr.lines_lost_in_wpq, self.wpq.len() as u64);
            self.wpq.clear();
            self.wpq_index = [0; WPQ_INDEX_BUCKETS];
        }
    }

    fn capacity_lines(&self) -> u64 {
        self.durable.lines()
    }

    fn stats(&self) -> MediaStats {
        self.ctr.view(&self.metrics)
    }

    fn metrics(&self) -> MetricSnapshot {
        self.metrics.snapshot()
    }
}

/// Volatile memory: contents are cleared by a crash.
#[derive(Debug)]
pub struct DramMedia {
    lines: LineStore,
    metrics: MetricSet,
    ctr: MediaCounters,
}

impl DramMedia {
    /// Creates a zero-filled volatile medium of `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        let mut metrics = MetricSet::new("dram_media");
        let ctr = MediaCounters::register(&mut metrics);
        DramMedia { lines: LineStore::zeroed(capacity_bytes.div_ceil(LINE_SIZE)), metrics, ctr }
    }
}

impl Memory for DramMedia {
    fn read_line(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.lines.check(addr)?;
        self.metrics.inc(self.ctr.line_reads);
        Ok(self.lines.get(addr))
    }

    fn write_line(&mut self, addr: LineAddr, line: CacheLine) -> Result<()> {
        self.lines.check(addr)?;
        self.metrics.inc(self.ctr.line_writes);
        self.lines.set(addr, &line);
        Ok(())
    }

    fn drain(&mut self) {}

    fn crash(&mut self) {
        self.metrics.inc(self.ctr.crashes);
        // A fresh zeroed buffer, not a zeroing pass: the old pages go
        // back to the allocator instead of being written.
        self.lines = LineStore::zeroed(self.lines.lines() as usize);
    }

    fn capacity_lines(&self) -> u64 {
        self.lines.lines()
    }

    fn stats(&self) -> MediaStats {
        self.ctr.view(&self.metrics)
    }

    fn metrics(&self) -> MetricSnapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(b: u8) -> CacheLine {
        CacheLine::filled(b)
    }

    #[test]
    fn write_then_read_sees_wpq_contents() {
        let mut pm = PmMedia::new(1 << 16, PersistenceDomain::None);
        pm.write_line(LineAddr(3), fill(1)).unwrap();
        assert_eq!(pm.read_line(LineAddr(3)).unwrap(), fill(1));
        // Durable view still zero until drained.
        assert_eq!(pm.read_durable(LineAddr(3)).unwrap(), CacheLine::zeroed());
        pm.drain();
        assert_eq!(pm.read_durable(LineAddr(3)).unwrap(), fill(1));
    }

    #[test]
    fn newest_wpq_write_wins() {
        let mut pm = PmMedia::new(1 << 16, PersistenceDomain::Adr);
        pm.write_line(LineAddr(5), fill(1)).unwrap();
        pm.write_line(LineAddr(5), fill(2)).unwrap();
        assert_eq!(pm.read_line(LineAddr(5)).unwrap(), fill(2));
        pm.drain();
        assert_eq!(pm.read_durable(LineAddr(5)).unwrap(), fill(2));
        // Drained entries leave the index: the line reads from media, and
        // a later write is forwarded again.
        assert_eq!(pm.read_line(LineAddr(5)).unwrap(), fill(2));
        pm.write_line(LineAddr(5), fill(3)).unwrap();
        assert_eq!(pm.read_line(LineAddr(5)).unwrap(), fill(3));
        assert_eq!(pm.read_durable(LineAddr(5)).unwrap(), fill(2));
    }

    #[test]
    fn adr_crash_preserves_queued_writes() {
        let mut pm = PmMedia::new(1 << 16, PersistenceDomain::Adr);
        pm.write_line(LineAddr(0), fill(7)).unwrap();
        pm.crash();
        assert_eq!(pm.read_line(LineAddr(0)).unwrap(), fill(7));
        assert_eq!(pm.stats().lines_lost_in_wpq, 0);
    }

    #[test]
    fn no_adr_crash_drops_queued_writes() {
        let mut pm = PmMedia::new(1 << 16, PersistenceDomain::None);
        pm.write_line(LineAddr(0), fill(7)).unwrap();
        pm.crash();
        assert_eq!(pm.read_line(LineAddr(0)).unwrap(), CacheLine::zeroed());
        assert_eq!(pm.stats().lines_lost_in_wpq, 1);
    }

    #[test]
    fn wpq_overflow_spills_oldest_to_media() {
        let mut pm = PmMedia::new(1 << 20, PersistenceDomain::None);
        for i in 0..(DEFAULT_WPQ_DEPTH as u64 + 8) {
            pm.write_line(LineAddr(i), fill(i as u8)).unwrap();
        }
        // The first 8 writes were forced out and are durable even after a
        // non-ADR crash, which loses a full WPQ.
        // Spilled lines read their (durable) value while the rest are
        // still forwarded from the queue.
        for i in 0..(DEFAULT_WPQ_DEPTH as u64 + 8) {
            assert_eq!(pm.read_line(LineAddr(i)).unwrap(), fill(i as u8));
        }
        pm.crash();
        assert_eq!(pm.stats().lines_lost_in_wpq, DEFAULT_WPQ_DEPTH as u64);
        for i in 0..8u64 {
            assert_eq!(pm.read_durable(LineAddr(i)).unwrap(), fill(i as u8));
            assert_eq!(pm.read_line(LineAddr(i)).unwrap(), fill(i as u8));
        }
        // Lines lost in the crash read media again, and a line written
        // after it is forwarded.
        for i in 8..(DEFAULT_WPQ_DEPTH as u64 + 8) {
            assert_eq!(pm.read_line(LineAddr(i)).unwrap(), CacheLine::zeroed());
        }
        pm.write_line(LineAddr(9), fill(0xee)).unwrap();
        assert_eq!(pm.read_line(LineAddr(9)).unwrap(), fill(0xee));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut pm = PmMedia::new(1 << 12, PersistenceDomain::Adr);
        let mut dram = DramMedia::new(1 << 12);
        let media: [&mut dyn Memory; 2] = [&mut pm, &mut dram];
        for m in media {
            let cap = m.capacity_lines();
            assert_eq!(cap, 64);
            m.write_line(LineAddr(cap - 1), fill(4)).unwrap();
            assert_eq!(m.read_line(LineAddr(cap - 1)).unwrap(), fill(4));
            let end = LineAddr(cap);
            let oob =
                |e| matches!(e, PmError::OutOfBounds { addr, capacity_lines: 64 } if addr == end);
            assert!(m.read_line(end).is_err_and(oob));
            assert!(m.write_line(end, fill(4)).is_err_and(oob));
            assert!(m.write_line(LineAddr(99), fill(0)).is_err());
        }
    }

    #[test]
    fn dram_crash_clears_contents() {
        let mut d = DramMedia::new(1 << 12);
        for i in [0, 1, 63] {
            d.write_line(LineAddr(i), fill(3)).unwrap();
        }
        assert_eq!(d.read_line(LineAddr(1)).unwrap(), fill(3));
        d.crash();
        assert_eq!(d.capacity_lines(), 64);
        for i in 0..64 {
            assert_eq!(d.read_line(LineAddr(i)).unwrap(), CacheLine::zeroed());
        }
        // The fresh buffer takes writes like the old one.
        d.write_line(LineAddr(63), fill(5)).unwrap();
        assert_eq!(d.read_line(LineAddr(63)).unwrap(), fill(5));
    }

    #[test]
    fn stats_count_bytes() {
        let mut pm = PmMedia::new(1 << 12, PersistenceDomain::Adr);
        pm.write_line(LineAddr(0), fill(1)).unwrap();
        pm.read_line(LineAddr(0)).unwrap();
        assert_eq!((pm.stats().line_writes, pm.stats().line_reads), (1, 1));
    }

    #[test]
    fn domain_predicates() {
        assert!(!PersistenceDomain::None.wpq_survives());
        assert!(PersistenceDomain::Adr.wpq_survives());
        assert!(!PersistenceDomain::Adr.cpu_caches_survive());
        assert!(PersistenceDomain::Eadr.cpu_caches_survive());
    }

    #[test]
    fn capacity_rounds_up_to_lines() {
        let pm = PmMedia::new(65, PersistenceDomain::Adr);
        assert_eq!(pm.capacity_lines(), 2);
    }
}
