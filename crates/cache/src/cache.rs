//! The functional, data-carrying coherent CPU cache.
//!
//! [`CoherentCache`] models one host core's cache; the
//! [`SharedComplex`](crate::SharedComplex) keeps one per core coherent.
//! It holds real line data in MESI states and talks to
//! a [`HomeAgent`] — the memory controller for ordinary addresses, or the
//! PAX device for vPM addresses — exactly at the points real hardware
//! would:
//!
//! * **read miss** → [`HomeAgent::read_shared`], line installed in `S`
//!   (the home keeps visibility so it can snoop later; this matches the
//!   device-as-home behaviour PAX relies on);
//! * **write to non-exclusive line** → [`HomeAgent::read_own`]; the home
//!   learns the line is about to be modified *before* the new value exists
//!   — the hook PAX undo-logging hangs on (§3.1 "Stores");
//! * **eviction** → [`HomeAgent::dirty_evict`] with data for `M` lines,
//!   [`HomeAgent::clean_evict`] otherwise;
//! * **snoops** — [`CoherentCache::snoop_shared`] downgrades and returns
//!   the current value, which is how `persist()` collects lines the CPU
//!   modified but never evicted (§3.3).
//!
//! A crash ([`CoherentCache::crash`]) discards all dirty lines — the
//! precise hazard the paper's §1 sets up.

use pax_pm::{CacheLine, LineAddr, PmMedia, Result};
use pax_telemetry::{Counter, MetricSet, MetricSnapshot};

use crate::mesi::MesiState;
use crate::set::SetAssoc;

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// L1D of the Cloudlab c6420's Xeon Gold 6142: 32 KiB, 8-way.
    pub const fn l1_c6420() -> Self {
        CacheConfig { capacity_bytes: 32 << 10, ways: 8 }
    }

    /// L2 of the c6420: 1 MiB, 16-way.
    pub const fn l2_c6420() -> Self {
        CacheConfig { capacity_bytes: 1 << 20, ways: 16 }
    }

    /// LLC of the c6420: 22 MiB, 11-way (shared).
    pub const fn llc_c6420() -> Self {
        CacheConfig { capacity_bytes: 22 << 20, ways: 11 }
    }

    /// A tiny cache that forces frequent evictions; used by tests that
    /// need to exercise the write-back paths quickly.
    pub const fn tiny(capacity_bytes: usize, ways: usize) -> Self {
        CacheConfig { capacity_bytes, ways }
    }
}

/// Event counts for one [`CoherentCache`].
///
/// A point-in-time view over the cache's [`MetricSet`] registry, which
/// owns the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads served without contacting the home agent.
    pub read_hits: u64,
    /// Loads that required a `read_shared` to the home agent.
    pub read_misses: u64,
    /// Stores to lines already held in `M`/`E` (silent).
    pub write_hits: u64,
    /// Stores that required a `read_own` (miss or `S`→`M` upgrade).
    pub write_upgrades: u64,
    /// Dirty lines written back on eviction.
    pub dirty_evictions: u64,
    /// Clean lines dropped on eviction.
    pub clean_evictions: u64,
    /// Snoops that found the line present.
    pub snoop_hits: u64,
    /// Snoops that found nothing.
    pub snoop_misses: u64,
    /// Dirty lines lost to a crash.
    pub dirty_lines_lost: u64,
}

/// Counter handles for one cache's [`MetricSet`].
#[derive(Debug, Clone, Copy)]
struct CacheCounters {
    read_hits: Counter,
    read_misses: Counter,
    write_hits: Counter,
    write_upgrades: Counter,
    dirty_evictions: Counter,
    clean_evictions: Counter,
    snoop_hits: Counter,
    snoop_misses: Counter,
    dirty_lines_lost: Counter,
}

impl CacheCounters {
    fn register(metrics: &mut MetricSet) -> Self {
        CacheCounters {
            read_hits: metrics.counter("read_hits"),
            read_misses: metrics.counter("read_misses"),
            write_hits: metrics.counter("write_hits"),
            write_upgrades: metrics.counter("write_upgrades"),
            dirty_evictions: metrics.counter("dirty_evictions"),
            clean_evictions: metrics.counter("clean_evictions"),
            snoop_hits: metrics.counter("snoop_hits"),
            snoop_misses: metrics.counter("snoop_misses"),
            dirty_lines_lost: metrics.counter("dirty_lines_lost"),
        }
    }

    fn view(&self, metrics: &MetricSet) -> CacheStats {
        CacheStats {
            read_hits: metrics.get(self.read_hits),
            read_misses: metrics.get(self.read_misses),
            write_hits: metrics.get(self.write_hits),
            write_upgrades: metrics.get(self.write_upgrades),
            dirty_evictions: metrics.get(self.dirty_evictions),
            clean_evictions: metrics.get(self.clean_evictions),
            snoop_hits: metrics.get(self.snoop_hits),
            snoop_misses: metrics.get(self.snoop_misses),
            dirty_lines_lost: metrics.get(self.dirty_lines_lost),
        }
    }
}

/// The home side of the coherence protocol for some address range.
///
/// Implemented by [`MemoryHome`] (plain memory controller) here and by the
/// the PAX device in `pax-device`.
pub trait HomeAgent {
    /// The CPU requests `addr` in shared state (read miss).
    ///
    /// # Errors
    ///
    /// Out-of-bounds addresses and simulated crashes are surfaced as
    /// [`pax_pm::PmError`].
    fn read_shared(&mut self, addr: LineAddr) -> Result<CacheLine>;

    /// The CPU requests `addr` for ownership: it is about to modify the
    /// line. Returns the current contents. This is the message PAX's undo
    /// logging interposes on.
    ///
    /// # Errors
    ///
    /// See [`HomeAgent::read_shared`].
    fn read_own(&mut self, addr: LineAddr) -> Result<CacheLine>;

    /// The CPU drops a clean copy of `addr`.
    fn clean_evict(&mut self, addr: LineAddr);

    /// The CPU writes back the modified contents of `addr`.
    ///
    /// # Errors
    ///
    /// See [`HomeAgent::read_shared`].
    fn dirty_evict(&mut self, addr: LineAddr, data: CacheLine) -> Result<()>;
}

/// A plain memory controller fronting a [`PmMedia`] — the home agent for
/// PM accessed directly, without PAX.
#[derive(Debug)]
pub struct MemoryHome {
    memory: PmMedia,
}

impl MemoryHome {
    /// Wraps a medium in a pass-through home agent.
    pub fn new(memory: PmMedia) -> Self {
        MemoryHome { memory }
    }

    /// Shared access to the underlying medium.
    pub fn memory(&self) -> &PmMedia {
        &self.memory
    }

    /// Mutable access to the underlying medium (tests crash it, etc.).
    pub fn memory_mut(&mut self) -> &mut PmMedia {
        &mut self.memory
    }

    /// Unwraps the home agent.
    pub fn into_inner(self) -> PmMedia {
        self.memory
    }
}

impl HomeAgent for MemoryHome {
    fn read_shared(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.memory.read_line(addr)
    }

    fn read_own(&mut self, addr: LineAddr) -> Result<CacheLine> {
        self.memory.read_line(addr)
    }

    fn clean_evict(&mut self, _addr: LineAddr) {}

    fn dirty_evict(&mut self, addr: LineAddr, data: CacheLine) -> Result<()> {
        self.memory.write_line(addr, data)
    }
}

#[derive(Debug, Clone)]
struct CachedLine {
    state: MesiState,
    data: CacheLine,
}

/// The host CPU's coherent cache (see module docs).
#[derive(Debug)]
pub struct CoherentCache {
    lines: SetAssoc<CachedLine>,
    metrics: MetricSet,
    ctr: CacheCounters,
}

impl CoherentCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let mut metrics = MetricSet::new("host_cache");
        let ctr = CacheCounters::register(&mut metrics);
        CoherentCache {
            lines: SetAssoc::with_capacity_bytes(config.capacity_bytes, config.ways),
            metrics,
            ctr,
        }
    }

    /// Cumulative event counts.
    pub fn stats(&self) -> CacheStats {
        self.ctr.view(&self.metrics)
    }

    /// Snapshot of the cache's metric registry.
    pub fn metrics(&self) -> MetricSnapshot {
        self.metrics.snapshot()
    }

    /// The MESI state of `addr`, if resident (for tests and assertions).
    pub fn state_of(&self, addr: LineAddr) -> Option<MesiState> {
        self.lines.peek(addr).map(|l| l.state)
    }

    fn install(
        &mut self,
        addr: LineAddr,
        line: CachedLine,
        home: &mut impl HomeAgent,
    ) -> Result<()> {
        if let Some((vaddr, victim)) = self.lines.insert(addr, line) {
            if victim.state.is_dirty() {
                self.metrics.inc(self.ctr.dirty_evictions);
                home.dirty_evict(vaddr, victim.data)?;
            } else {
                self.metrics.inc(self.ctr.clean_evictions);
                home.clean_evict(vaddr);
            }
        }
        Ok(())
    }

    /// Loads the line at `addr`, fetching it from `home` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates home-agent failures (bounds, simulated crash).
    pub fn read(&mut self, addr: LineAddr, home: &mut impl HomeAgent) -> Result<CacheLine> {
        if let Some(l) = self.lines.get_mut(addr) {
            self.metrics.inc(self.ctr.read_hits);
            return Ok(l.data.clone());
        }
        self.metrics.inc(self.ctr.read_misses);
        let data = home.read_shared(addr)?;
        self.install(addr, CachedLine { state: MesiState::Shared, data: data.clone() }, home)?;
        Ok(data)
    }

    /// Stores `data` to the line at `addr`.
    ///
    /// If the line is held in `M`/`E` the store is silent; otherwise the
    /// cache first issues [`HomeAgent::read_own`] — informing the device —
    /// and only then modifies the line.
    ///
    /// # Errors
    ///
    /// Propagates home-agent failures (bounds, simulated crash).
    pub fn write(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        home: &mut impl HomeAgent,
    ) -> Result<()> {
        if let Some(l) = self.lines.get_mut(addr) {
            if l.state.can_write_silently() {
                self.metrics.inc(self.ctr.write_hits);
                l.state = l.state.after_write();
                l.data = data;
                return Ok(());
            }
        }
        // Miss, or resident in S: request ownership (the PAX hook).
        self.metrics.inc(self.ctr.write_upgrades);
        home.read_own(addr)?;
        self.install(addr, CachedLine { state: MesiState::Modified, data }, home)
    }

    /// Installs a line received from a *peer cache* in shared state —
    /// no home-agent request is issued for the data (core-to-core
    /// transfer); `home` only receives a potential eviction victim.
    ///
    /// # Errors
    ///
    /// Propagates home-agent failures from victim write back.
    pub fn install_shared(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        home: &mut impl HomeAgent,
    ) -> Result<()> {
        self.install(addr, CachedLine { state: MesiState::Shared, data }, home)
    }

    /// Installs a line whose *modified ownership* migrated from a peer
    /// cache (silent M-to-M transfer; the home was informed when the
    /// original owner gained exclusivity).
    ///
    /// # Errors
    ///
    /// Propagates home-agent failures from victim write back.
    pub fn install_modified(
        &mut self,
        addr: LineAddr,
        data: CacheLine,
        home: &mut impl HomeAgent,
    ) -> Result<()> {
        self.install(addr, CachedLine { state: MesiState::Modified, data }, home)
    }

    /// Handles a device→host `SnpData` snoop: downgrades `addr` to `S` and
    /// returns the current contents if resident. A dirty line stays
    /// resident (now clean+shared) — the home receives the data in the
    /// return value, matching CXL's snoop-with-data response.
    pub fn snoop_shared(&mut self, addr: LineAddr) -> Option<CacheLine> {
        self.snoop_shared_dirty(addr).map(|(_, data)| data)
    }

    /// [`CoherentCache::snoop_shared`] that also reports whether the copy
    /// was dirty before the downgrade, in the same single lookup.
    pub(crate) fn snoop_shared_dirty(&mut self, addr: LineAddr) -> Option<(bool, CacheLine)> {
        match self.lines.get_mut(addr) {
            Some(l) => {
                self.metrics.inc(self.ctr.snoop_hits);
                let was_dirty = l.state.is_dirty();
                l.state = l.state.after_snoop_shared();
                Some((was_dirty, l.data.clone()))
            }
            None => {
                self.metrics.inc(self.ctr.snoop_misses);
                None
            }
        }
    }

    /// Handles a device→host `SnpInv` snoop: invalidates `addr`, returning
    /// the data if the copy was dirty.
    pub fn snoop_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        match self.lines.remove(addr) {
            Some(l) => {
                self.metrics.inc(self.ctr.snoop_hits);
                l.state.is_dirty().then_some(l.data)
            }
            None => {
                self.metrics.inc(self.ctr.snoop_misses);
                None
            }
        }
    }

    /// Simulates power loss: every line is dropped, and the dirty ones
    /// (never written back) are lost.
    pub fn crash(&mut self) {
        let lost = self.lines.iter().filter(|(_, l)| l.state.is_dirty()).count();
        self.metrics.add(self.ctr.dirty_lines_lost, lost as u64);
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm_home(bytes: usize) -> MemoryHome {
        MemoryHome::new(PmMedia::new(bytes))
    }

    #[test]
    fn read_miss_then_hit() {
        let mut home = pm_home(1 << 16);
        let mut c = CoherentCache::new(CacheConfig::tiny(4096, 4));
        c.read(LineAddr(1), &mut home).unwrap();
        c.read(LineAddr(1), &mut home).unwrap();
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.state_of(LineAddr(1)), Some(MesiState::Shared));
    }

    #[test]
    fn write_to_shared_upgrades_once() {
        let mut home = pm_home(1 << 16);
        let mut c = CoherentCache::new(CacheConfig::tiny(4096, 4));
        c.read(LineAddr(2), &mut home).unwrap(); // install in S
        c.write(LineAddr(2), CacheLine::filled(1), &mut home).unwrap(); // upgrade
        c.write(LineAddr(2), CacheLine::filled(2), &mut home).unwrap(); // silent
        assert_eq!(c.stats().write_upgrades, 1);
        assert_eq!(c.stats().write_hits, 1);
        assert_eq!(c.state_of(LineAddr(2)), Some(MesiState::Modified));
    }

    #[test]
    fn dirty_eviction_reaches_memory() {
        let mut home = pm_home(1 << 20);
        // 1 set × 1 way: any second line evicts the first.
        let mut c = CoherentCache::new(CacheConfig::tiny(64, 1));
        c.write(LineAddr(0), CacheLine::filled(9), &mut home).unwrap();
        c.write(LineAddr(1), CacheLine::filled(8), &mut home).unwrap();
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(home.memory_mut().read_line(LineAddr(0)).unwrap(), CacheLine::filled(9));
    }

    #[test]
    fn snoop_shared_returns_data_and_downgrades() {
        let mut home = pm_home(1 << 16);
        let mut c = CoherentCache::new(CacheConfig::tiny(4096, 4));
        c.write(LineAddr(3), CacheLine::filled(5), &mut home).unwrap();
        let data = c.snoop_shared(LineAddr(3)).unwrap();
        assert_eq!(data, CacheLine::filled(5));
        assert_eq!(c.state_of(LineAddr(3)), Some(MesiState::Shared));
        // A store after the snoop must upgrade again — this is what makes
        // per-epoch logging sound (§3.3).
        c.write(LineAddr(3), CacheLine::filled(6), &mut home).unwrap();
        assert_eq!(c.stats().write_upgrades, 2);
    }

    #[test]
    fn snoop_invalidate_returns_dirty_data_only() {
        let mut home = pm_home(1 << 16);
        let mut c = CoherentCache::new(CacheConfig::tiny(4096, 4));
        c.write(LineAddr(1), CacheLine::filled(1), &mut home).unwrap();
        assert_eq!(c.snoop_invalidate(LineAddr(1)), Some(CacheLine::filled(1)));
        assert_eq!(c.state_of(LineAddr(1)), None);

        c.read(LineAddr(2), &mut home).unwrap();
        assert_eq!(c.snoop_invalidate(LineAddr(2)), None); // clean: no data
        assert_eq!(c.snoop_invalidate(LineAddr(2)), None); // absent: miss
        assert_eq!(c.stats().snoop_misses, 1);
    }

    #[test]
    fn crash_without_eadr_loses_dirty_lines() {
        let mut pm = pm_home(1 << 16);
        let mut c = CoherentCache::new(CacheConfig::tiny(4096, 4));
        c.write(LineAddr(0), CacheLine::filled(7), &mut pm).unwrap();
        c.crash();
        assert_eq!(c.stats().dirty_lines_lost, 1);
        pm.memory_mut().crash();
        // The store never reached PM: this is the §1 inconsistency hazard.
        assert_eq!(pm.memory_mut().read_line(LineAddr(0)).unwrap(), CacheLine::zeroed());
    }
}
