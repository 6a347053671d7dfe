//! Three-level miss-rate instrumentation.
//!
//! Fig. 2a of the paper is built by *measuring* L1/L2/LLC miss rates for a
//! hash-table workload and *composing* them with per-level latencies. The
//! [`Hierarchy`] reproduces the measurement half: it is a tag-only,
//! inclusive L1/L2/LLC stack that classifies each access by the level that
//! serves it. It deliberately carries no data — the functional side lives
//! in [`CoherentCache`](crate::CoherentCache) — so the same access stream
//! can drive both without the instrument perturbing correctness.

use pax_pm::LineAddr;
use pax_telemetry::{Counter, MetricSet};

use crate::cache::CacheConfig;
use crate::set::SetAssoc;

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the private L2.
    L2,
    /// Hit in the shared last-level cache.
    Llc,
    /// Miss everywhere; served by memory (DRAM, PM, or the PAX device).
    Memory,
}

/// Geometry of the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
}

impl HierarchyConfig {
    /// The Cloudlab c6420 (Xeon Gold 6142) hierarchy used in Fig. 2a.
    pub const fn c6420() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1_c6420(),
            l2: CacheConfig::l2_c6420(),
            llc: CacheConfig::llc_c6420(),
        }
    }

    /// A scaled-down hierarchy (1⁄64 of each level) so simulations whose
    /// working sets are scaled down by the same factor see realistic miss
    /// rates without gigabyte-sized tag arrays.
    pub const fn c6420_scaled() -> Self {
        HierarchyConfig {
            l1: CacheConfig::tiny((32 << 10) / 64, 8),
            l2: CacheConfig::tiny((1 << 20) / 64, 16),
            llc: CacheConfig::tiny((22 << 20) / 64, 11),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::c6420()
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that probed this level.
    pub accesses: u64,
    /// Accesses served by this level.
    pub hits: u64,
}

impl LevelStats {
    /// Misses at this level (continue downward).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Local miss ratio (misses / accesses); zero when never accessed.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// Per-level statistics for the whole hierarchy.
///
/// A point-in-time view over the hierarchy's [`MetricSet`] registry,
/// which owns the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: LevelStats,
    /// L2 counters.
    pub l2: LevelStats,
    /// LLC counters.
    pub llc: LevelStats,
}

impl HierarchyStats {
    /// Total accesses issued to the hierarchy.
    pub fn total_accesses(&self) -> u64 {
        self.l1.accesses
    }

    /// Accesses that fell through to memory.
    pub fn memory_accesses(&self) -> u64 {
        self.llc.misses()
    }
}

/// Counter handles for the hierarchy's [`MetricSet`]: an
/// `(accesses, hits)` pair per level.
#[derive(Debug, Clone, Copy)]
struct HierarchyCounters {
    l1_accesses: Counter,
    l1_hits: Counter,
    l2_accesses: Counter,
    l2_hits: Counter,
    llc_accesses: Counter,
    llc_hits: Counter,
}

impl HierarchyCounters {
    fn register(metrics: &mut MetricSet) -> Self {
        HierarchyCounters {
            l1_accesses: metrics.counter("l1_accesses"),
            l1_hits: metrics.counter("l1_hits"),
            l2_accesses: metrics.counter("l2_accesses"),
            l2_hits: metrics.counter("l2_hits"),
            llc_accesses: metrics.counter("llc_accesses"),
            llc_hits: metrics.counter("llc_hits"),
        }
    }

    fn view(&self, metrics: &MetricSet) -> HierarchyStats {
        HierarchyStats {
            l1: LevelStats {
                accesses: metrics.get(self.l1_accesses),
                hits: metrics.get(self.l1_hits),
            },
            l2: LevelStats {
                accesses: metrics.get(self.l2_accesses),
                hits: metrics.get(self.l2_hits),
            },
            llc: LevelStats {
                accesses: metrics.get(self.llc_accesses),
                hits: metrics.get(self.llc_hits),
            },
        }
    }
}

/// Tag-only inclusive L1/L2/LLC stack (see module docs).
#[derive(Debug)]
pub struct Hierarchy {
    l1: SetAssoc<()>,
    l2: SetAssoc<()>,
    llc: SetAssoc<()>,
    metrics: MetricSet,
    ctr: HierarchyCounters,
}

impl Hierarchy {
    /// Creates an empty hierarchy with the given geometry.
    pub fn new(config: HierarchyConfig) -> Self {
        let mut metrics = MetricSet::new("cache_hierarchy");
        let ctr = HierarchyCounters::register(&mut metrics);
        Hierarchy {
            l1: SetAssoc::with_capacity_bytes(config.l1.capacity_bytes, config.l1.ways),
            l2: SetAssoc::with_capacity_bytes(config.l2.capacity_bytes, config.l2.ways),
            llc: SetAssoc::with_capacity_bytes(config.llc.capacity_bytes, config.llc.ways),
            metrics,
            ctr,
        }
    }

    /// Cumulative per-level statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.ctr.view(&self.metrics)
    }

    /// Classifies one access to `addr` and updates tag state.
    pub fn access(&mut self, addr: LineAddr) -> ServedBy {
        self.metrics.inc(self.ctr.l1_accesses);
        if self.l1.get_mut(addr).is_some() {
            self.metrics.inc(self.ctr.l1_hits);
            return ServedBy::L1;
        }
        self.metrics.inc(self.ctr.l2_accesses);
        if self.l2.get_mut(addr).is_some() {
            self.metrics.inc(self.ctr.l2_hits);
            self.fill_l1(addr);
            return ServedBy::L2;
        }
        self.metrics.inc(self.ctr.llc_accesses);
        if self.llc.get_mut(addr).is_some() {
            self.metrics.inc(self.ctr.llc_hits);
            self.fill_l2(addr);
            self.fill_l1(addr);
            return ServedBy::Llc;
        }
        // Miss everywhere: fill all levels (inclusive hierarchy).
        if let Some((victim, ())) = self.llc.insert(addr, ()) {
            // Back-invalidate to preserve inclusion.
            self.l1.remove(victim);
            self.l2.remove(victim);
        }
        self.fill_l2(addr);
        self.fill_l1(addr);
        ServedBy::Memory
    }

    fn fill_l1(&mut self, addr: LineAddr) {
        self.l1.insert(addr, ());
    }

    fn fill_l2(&mut self, addr: LineAddr) {
        self.l2.insert(addr, ());
    }

    /// Invalidates `addr` everywhere (device snoop or eviction elsewhere).
    pub fn invalidate(&mut self, addr: LineAddr) {
        self.l1.remove(addr);
        self.l2.remove(addr);
        self.llc.remove(addr);
    }

    /// Empties all tag state (context switch / crash).
    pub fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.llc.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l1: CacheConfig::tiny(4 * 64, 2),
            l2: CacheConfig::tiny(16 * 64, 4),
            llc: CacheConfig::tiny(64 * 64, 8),
        })
    }

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let mut h = tiny();
        assert_eq!(h.access(LineAddr(0)), ServedBy::Memory);
        assert_eq!(h.access(LineAddr(0)), ServedBy::L1);
        assert_eq!(h.stats().l1.hits, 1);
        assert_eq!(h.stats().memory_accesses(), 1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = tiny();
        // L1 has 2 sets × 2 ways; lines 0,2,4,6 all map to set 0.
        for a in [0u64, 2, 4] {
            h.access(LineAddr(a));
        }
        // Line 0 was evicted from L1 (LRU) but still resides in L2.
        assert_eq!(h.access(LineAddr(0)), ServedBy::L2);
    }

    #[test]
    fn inclusion_is_preserved_on_llc_eviction() {
        let mut h = Hierarchy::new(HierarchyConfig {
            l1: CacheConfig::tiny(2 * 64, 2),
            l2: CacheConfig::tiny(2 * 64, 2),
            llc: CacheConfig::tiny(2 * 64, 2),
        });
        h.access(LineAddr(0));
        h.access(LineAddr(1));
        h.access(LineAddr(2)); // evicts 0 or 1 from LLC and back-invalidates
        let evicted = if h.llc.peek(LineAddr(0)).is_some() { LineAddr(1) } else { LineAddr(0) };
        assert!(h.l1.peek(evicted).is_none());
        assert!(h.l2.peek(evicted).is_none());
        assert_eq!(h.access(evicted), ServedBy::Memory);
    }

    #[test]
    fn miss_ratio_math() {
        let s = LevelStats { accesses: 10, hits: 4 };
        assert_eq!(s.misses(), 6);
        assert!((s.miss_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(LevelStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn uniform_scan_larger_than_llc_mostly_misses() {
        let mut h = tiny(); // LLC: 64 lines
                            // Two sequential sweeps over 256 lines: every access misses LLC
                            // because LRU evicts lines long before they are revisited.
        let mut memory = 0;
        for _ in 0..2 {
            for a in 0..256u64 {
                if h.access(LineAddr(a)) == ServedBy::Memory {
                    memory += 1;
                }
            }
        }
        assert!(memory >= 500, "expected thrashing, got {memory} memory accesses");
    }

    #[test]
    fn invalidate_forces_refetch() {
        let mut h = tiny();
        h.access(LineAddr(9));
        h.invalidate(LineAddr(9));
        assert_eq!(h.access(LineAddr(9)), ServedBy::Memory);
    }
}
