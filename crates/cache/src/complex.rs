//! The host: per-core coherent caches over one home agent.
//!
//! [`SharedComplex`] models §3.5's host for every core count: N private
//! [`CoherentCache`]s, MESI kept coherent among them with *core-to-core*
//! line transfers that resolve inside the socket without informing the
//! device, and only socket-leaving traffic (true misses, write backs)
//! reaching the [`HomeAgent`]. A one-core complex has no peer to probe,
//! so it makes exactly the home-agent calls its one cache makes, at the
//! cost of one lock per access.
//!
//! The PAX-relevant consequence, preserved here exactly: when a modified
//! line migrates from core A to core B, the device is *not* informed — it
//! already undo-logged the line at A's original `RdOwn`, and `persist()`
//! recollects the final value by snooping every core (§3.3), so coverage
//! is unaffected. The tests pin this down.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use pax_pm::{CacheLine, LineAddr, Result};
use pax_telemetry::{Counter, MetricSet, MetricSnapshot};

use crate::cache::{CacheConfig, CacheStats, CoherentCache, HomeAgent};

/// The host-side snoop surface `persist()` needs: downgrade or invalidate
/// a line across *all* host caches, returning the freshest data.
///
/// Implemented by one [`CoherentCache`] and by [`SharedComplex`] (also
/// through `&SharedComplex`), so the device's epoch protocol is agnostic
/// to the host's core count.
pub trait HostSnoop {
    /// Downgrades every copy of `addr` to shared; returns the data if any
    /// cache held the line.
    fn snoop_shared(&mut self, addr: LineAddr) -> Option<CacheLine>;

    /// Invalidates every copy of `addr`; returns the data only if a cache
    /// held it modified.
    fn snoop_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine>;
}

impl HostSnoop for CoherentCache {
    fn snoop_shared(&mut self, addr: LineAddr) -> Option<CacheLine> {
        CoherentCache::snoop_shared(self, addr)
    }

    fn snoop_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        CoherentCache::snoop_invalidate(self, addr)
    }
}

/// Cross-core traffic counters.
///
/// A point-in-time view over the complex's [`MetricSet`] registry,
/// which owns the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComplexStats {
    /// Lines served core-to-core without a home-agent request.
    pub cache_to_cache_transfers: u64,
    /// Copies invalidated in peer cores on a store.
    pub peer_invalidations: u64,
}

/// Number of presence-filter slots (hash buckets over line addresses).
const PRESENCE_SLOTS: usize = 1024;

/// N per-core caches kept coherent over one home agent (see module
/// docs), usable from real OS threads: per-core caches behind their own
/// locks, cross-core coherence kept with a one-lock-at-a-time probe
/// protocol, and a conservative presence filter that skips peer probes
/// for lines no peer can hold.
///
/// The coherence *protocol* is MESI across the cores: own-hit → peer
/// transfer (dirty copies return ownership to the home) → home agent.
/// Each core's cache sits behind its own `Mutex`, and no operation ever
/// holds two core locks at once — a probe locks the peer, extracts the
/// line, unlocks, and only then locks the requesting core to install.
/// That makes the lock order trivially acyclic (core locks are leaves of
/// the device's `ctl → core → wb-gate → pool` hierarchy) at the cost of
/// a window in which a line migrates between probe and install. The
/// contract, inherited from the paper's §3.5, absorbs that window:
/// structure code over vPM must serialize its own conflicting same-line
/// accesses (thread-safe structures), and any access pattern so
/// serialized observes exactly the single-driver protocol. Under one
/// driving thread every lock is uncontended and the call sequence is
/// fully determined.
///
/// The presence filter is a never-cleared bitmap: slot = hash of the
/// line address, bits = cores that ever installed a line hashing there.
/// A probe consults it before touching any peer lock; absent bits prove
/// the peer never held the line (installs set the bit first), so the
/// probe — which would miss in every peer without a single home call or
/// metric increment — is skipped without taking the locks. False
/// positives (hash aliasing, evicted lines) only cost a redundant probe.
/// With more than 64 cores the bit encoding would alias, so the filter
/// disables itself and every probe runs. A one-core complex has no peer:
/// it keeps no filter, never probes, and takes its core lock once per
/// access.
#[derive(Debug)]
pub struct SharedComplex {
    cores: Vec<Mutex<CoherentCache>>,
    metrics: MetricSet,
    cache_to_cache_transfers: Counter,
    peer_invalidations: Counter,
    /// Per-slot core-presence bitmaps (see type docs). Empty when there
    /// is no peer to filter (one core) or the filter is disabled
    /// (`cores > 64`).
    presence: Vec<AtomicU64>,
}

impl SharedComplex {
    /// A complex of `n` cores, each with a private cache of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, config: CacheConfig) -> Self {
        assert!(n > 0, "need at least one core");
        let mut metrics = MetricSet::new("core_complex");
        let cache_to_cache_transfers = metrics.counter("cache_to_cache_transfers");
        let peer_invalidations = metrics.counter("peer_invalidations");
        let presence = if (2..=64).contains(&n) {
            (0..PRESENCE_SLOTS).map(|_| AtomicU64::new(0)).collect()
        } else {
            Vec::new()
        };
        SharedComplex {
            cores: (0..n).map(|_| Mutex::new(CoherentCache::new(config))).collect(),
            metrics,
            cache_to_cache_transfers,
            peer_invalidations,
            presence,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    fn slot(addr: LineAddr) -> usize {
        (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % PRESENCE_SLOTS
    }

    /// Records that `core` is installing a line at `addr`. Must happen
    /// before the install is visible so absent bits stay proof of
    /// absence.
    ///
    /// Ordering: `Release`, pairing with the `Acquire` load in
    /// [`SharedComplex::peer_may_hold`]. The bit is set *before* the
    /// core's install is published (the install happens under the core
    /// lock taken after this call); a relaxed store here could let
    /// another thread observe the installed line through the core lock
    /// while still reading a stale zero bit — and a zero bit licenses
    /// skipping that core's probe entirely.
    fn note_present(&self, core: usize, addr: LineAddr) {
        if !self.presence.is_empty() {
            self.presence[Self::slot(addr)].fetch_or(1 << core, Ordering::Release);
        }
    }

    /// `false` only when no peer of `core` can possibly hold `addr` —
    /// always, on a one-core complex.
    ///
    /// Ordering: `Acquire`, pairing with [`SharedComplex::note_present`]'s
    /// `Release` `fetch_or` — a set bit happens-after the installer
    /// announced itself, so a `false` here is real proof of absence, not
    /// a stale read racing an in-flight install.
    fn peer_may_hold(&self, core: usize, addr: LineAddr) -> bool {
        if self.presence.is_empty() {
            return self.cores.len() > 1;
        }
        self.presence[Self::slot(addr)].load(Ordering::Acquire) & !(1u64 << core) != 0
    }

    /// Cross-core traffic counters.
    pub fn stats(&self) -> ComplexStats {
        ComplexStats {
            cache_to_cache_transfers: self.metrics.get(self.cache_to_cache_transfers),
            peer_invalidations: self.metrics.get(self.peer_invalidations),
        }
    }

    /// Snapshot of the complex's own registry (cross-core traffic only;
    /// per-core cache counters come via [`SharedComplex::cache_metrics`]).
    pub fn metrics(&self) -> MetricSnapshot {
        self.metrics.snapshot()
    }

    /// One `"host_cache"` snapshot summing every core's cache registry.
    pub fn cache_metrics(&self) -> MetricSnapshot {
        self.cores
            .iter()
            .fold(MetricSnapshot::empty("host_cache"), |acc, c| acc.merge(&c.lock().metrics()))
    }

    /// Per-core cache statistics.
    pub fn core_stats(&self, core: usize) -> CacheStats {
        self.cores[core].lock().stats()
    }

    /// A load by `core`.
    ///
    /// Served in priority order: own cache → a peer's copy (core-to-core
    /// transfer; a peer's modified copy is written back to the home to
    /// keep it the owner of dirty data) → the home agent.
    ///
    /// # Errors
    ///
    /// Propagates home-agent failures.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn read(
        &self,
        core: usize,
        addr: LineAddr,
        home: &mut impl HomeAgent,
    ) -> Result<CacheLine> {
        {
            let mut own = self.cores[core].lock();
            // Without a peer, every access is the one cache's own.
            if self.cores.len() == 1 || own.state_of(addr).is_some() {
                return own.read(addr, home);
            }
            // A miss no peer can serve goes home under this same lock.
            if !self.peer_may_hold(core, addr) {
                self.note_present(core, addr);
                return own.read(addr, home);
            }
        }
        // Probe peers before leaving the socket — one lock at a time.
        for peer in 0..self.cores.len() {
            if peer == core {
                continue;
            }
            let transfer = {
                let mut p = self.cores[peer].lock();
                if p.state_of(addr).is_some() {
                    p.snoop_shared_dirty(addr)
                } else {
                    None
                }
            };
            if let Some((was_dirty, data)) = transfer {
                if was_dirty {
                    // Ownership of dirty data returns to the home when the
                    // line becomes shared (MESI has no shared-dirty state).
                    home.dirty_evict(addr, data.clone())?;
                }
                self.metrics.inc(self.cache_to_cache_transfers);
                self.note_present(core, addr);
                self.cores[core].lock().install_shared(addr, data.clone(), home)?;
                return Ok(data);
            }
        }
        self.note_present(core, addr);
        self.cores[core].lock().read(addr, home)
    }

    /// A store by `core`: peers' copies are invalidated; a peer's
    /// modified copy migrates directly (no home message — the line was
    /// already logged when that peer gained ownership).
    ///
    /// # Errors
    ///
    /// Propagates home-agent failures.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn write(
        &self,
        core: usize,
        addr: LineAddr,
        data: CacheLine,
        home: &mut impl HomeAgent,
    ) -> Result<()> {
        // Invalidate every peer copy; capture migrating dirty ownership.
        let mut migrated_dirty = false;
        if self.peer_may_hold(core, addr) {
            for peer in 0..self.cores.len() {
                if peer == core {
                    continue;
                }
                let mut p = self.cores[peer].lock();
                if p.state_of(addr).is_some() {
                    let dirty = p.snoop_invalidate(addr);
                    self.metrics.inc(self.peer_invalidations);
                    if dirty.is_some() {
                        migrated_dirty = true;
                    }
                }
            }
        }
        self.note_present(core, addr);
        if migrated_dirty {
            // Silent M-to-M migration: install directly as modified.
            self.metrics.inc(self.cache_to_cache_transfers);
            return self.cores[core].lock().install_modified(addr, data, home);
        }
        self.cores[core].lock().write(addr, data, home)
    }

    /// Simulates power loss across all cores: every core's dirty lines
    /// are lost.
    pub fn crash(&self) {
        for c in &self.cores {
            c.lock().crash();
        }
    }

    /// Downgrades every copy of `addr` to shared, one core lock at a
    /// time; returns the freshest data ([`HostSnoop::snoop_shared`]
    /// through `&self`).
    pub fn snoop_shared_all(&self, addr: LineAddr) -> Option<CacheLine> {
        let mut best: Option<CacheLine> = None;
        for c in &self.cores {
            if let Some((was_dirty, data)) = c.lock().snoop_shared_dirty(addr) {
                if was_dirty || best.is_none() {
                    best = Some(data);
                }
            }
        }
        best
    }

    /// Invalidates every copy of `addr`, one core lock at a time; returns
    /// the data only if a copy was dirty.
    pub fn snoop_invalidate_all(&self, addr: LineAddr) -> Option<CacheLine> {
        let mut dirty = None;
        for c in &self.cores {
            if let Some(d) = c.lock().snoop_invalidate(addr) {
                dirty = Some(d);
            }
        }
        dirty
    }
}

impl HostSnoop for SharedComplex {
    fn snoop_shared(&mut self, addr: LineAddr) -> Option<CacheLine> {
        self.snoop_shared_all(addr)
    }

    fn snoop_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        self.snoop_invalidate_all(addr)
    }
}

/// Persist paths snoop the host through `&SharedComplex`: the device
/// calls back into the host while holding no host lock itself, and each
/// snoop locks one core at a time.
impl HostSnoop for &SharedComplex {
    fn snoop_shared(&mut self, addr: LineAddr) -> Option<CacheLine> {
        self.snoop_shared_all(addr)
    }

    fn snoop_invalidate(&mut self, addr: LineAddr) -> Option<CacheLine> {
        self.snoop_invalidate_all(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MemoryHome;
    use pax_pm::PmMedia;

    fn setup(cores: usize) -> (SharedComplex, MemoryHome) {
        (
            SharedComplex::new(cores, CacheConfig::tiny(4 << 10, 4)),
            MemoryHome::new(PmMedia::new(1 << 20)),
        )
    }

    #[test]
    fn cores_share_clean_lines_without_home_traffic() {
        let (cx, mut home) = setup(4);
        cx.read(0, LineAddr(1), &mut home).unwrap();
        let misses_after_first = home.memory().stats().line_reads;
        for core in 1..4 {
            cx.read(core, LineAddr(1), &mut home).unwrap();
        }
        assert_eq!(
            home.memory().stats().line_reads,
            misses_after_first,
            "peer copies must be served core-to-core"
        );
        assert_eq!(cx.stats().cache_to_cache_transfers, 3);
    }

    #[test]
    fn store_invalidates_peer_copies() {
        let (cx, mut home) = setup(2);
        cx.read(0, LineAddr(0), &mut home).unwrap();
        cx.read(1, LineAddr(0), &mut home).unwrap();
        cx.write(0, LineAddr(0), CacheLine::filled(9), &mut home).unwrap();
        assert!(cx.stats().peer_invalidations >= 1);
        // Core 1 re-reads and must see the new value (via transfer).
        assert_eq!(cx.read(1, LineAddr(0), &mut home).unwrap(), CacheLine::filled(9));
    }

    #[test]
    fn dirty_migration_is_silent_to_the_home() {
        let (cx, mut home) = setup(2);
        cx.write(0, LineAddr(3), CacheLine::filled(1), &mut home).unwrap();
        let writes_before = home.memory().stats().line_writes;
        // Core 1 takes over the modified line.
        cx.write(1, LineAddr(3), CacheLine::filled(2), &mut home).unwrap();
        // Migration itself produced no home write (PAX already logged the
        // line at core 0's RdOwn).
        assert_eq!(home.memory().stats().line_writes, writes_before);
        assert_eq!(cx.read(1, LineAddr(3), &mut home).unwrap(), CacheLine::filled(2));
    }

    #[test]
    fn reading_a_peers_dirty_line_returns_ownership_to_home() {
        let (cx, mut home) = setup(2);
        cx.write(0, LineAddr(5), CacheLine::filled(7), &mut home).unwrap();
        let v = cx.read(1, LineAddr(5), &mut home).unwrap();
        assert_eq!(v, CacheLine::filled(7));
        // The dirty data reached the home (write back on downgrade).
        assert_eq!(home.memory_mut().read_line(LineAddr(5)).unwrap(), CacheLine::filled(7));
    }

    #[test]
    fn complex_snoop_finds_the_modified_copy() {
        let (mut cx, mut home) = setup(4);
        cx.read(0, LineAddr(2), &mut home).unwrap();
        cx.write(3, LineAddr(2), CacheLine::filled(4), &mut home).unwrap();
        assert_eq!(HostSnoop::snoop_shared(&mut cx, LineAddr(2)), Some(CacheLine::filled(4)));
        // All cores are now shared; a store must upgrade again.
        cx.write(1, LineAddr(2), CacheLine::filled(5), &mut home).unwrap();
        assert_eq!(HostSnoop::snoop_invalidate(&mut cx, LineAddr(2)), Some(CacheLine::filled(5)));
        assert_eq!(HostSnoop::snoop_invalidate(&mut cx, LineAddr(2)), None);
    }

    #[test]
    fn shared_complex_snoops_match() {
        let sx = SharedComplex::new(4, CacheConfig::tiny(4 << 10, 4));
        let mut home = MemoryHome::new(PmMedia::new(1 << 20));
        sx.read(0, LineAddr(2), &mut home).unwrap();
        sx.write(3, LineAddr(2), CacheLine::filled(4), &mut home).unwrap();
        assert_eq!(sx.snoop_shared_all(LineAddr(2)), Some(CacheLine::filled(4)));
        sx.write(1, LineAddr(2), CacheLine::filled(5), &mut home).unwrap();
        assert_eq!(sx.snoop_invalidate_all(LineAddr(2)), Some(CacheLine::filled(5)));
        assert_eq!(sx.snoop_invalidate_all(LineAddr(2)), None);
    }

    #[test]
    fn shared_complex_threads_on_disjoint_lines() {
        use std::sync::Arc;
        // 4 real threads, each its own core and a disjoint line range over
        // a shared PM home behind a mutex. Every thread's final stores
        // must be visible afterwards and no cross-core traffic may appear.
        let sx = Arc::new(SharedComplex::new(4, CacheConfig::tiny(16 << 10, 4)));
        let home = Arc::new(Mutex::new(MemoryHome::new(PmMedia::new(1 << 20))));
        let mut handles = Vec::new();
        for core in 0..4usize {
            let sx = Arc::clone(&sx);
            let home = Arc::clone(&home);
            handles.push(std::thread::spawn(move || {
                struct LockedHome(Arc<Mutex<MemoryHome>>);
                impl HomeAgent for LockedHome {
                    fn read_shared(&mut self, addr: LineAddr) -> Result<CacheLine> {
                        self.0.lock().read_shared(addr)
                    }
                    fn read_own(&mut self, addr: LineAddr) -> Result<CacheLine> {
                        self.0.lock().read_own(addr)
                    }
                    fn clean_evict(&mut self, addr: LineAddr) {
                        self.0.lock().clean_evict(addr)
                    }
                    fn dirty_evict(&mut self, addr: LineAddr, data: CacheLine) -> Result<()> {
                        self.0.lock().dirty_evict(addr, data)
                    }
                }
                let mut h = LockedHome(home);
                let base = core as u64 * 1000;
                for round in 0..50u8 {
                    for i in 0..32u64 {
                        sx.write(core, LineAddr(base + i), CacheLine::filled(round), &mut h)
                            .unwrap();
                    }
                }
                for i in 0..32u64 {
                    assert_eq!(
                        sx.read(core, LineAddr(base + i), &mut h).unwrap(),
                        CacheLine::filled(49)
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sx.stats(), ComplexStats::default(), "disjoint lines: no peer traffic");
    }

    /// The one-core contract: a one-core complex is its one cache behind
    /// a lock. A seeded mix of reads, writes, snoops and a final crash,
    /// over a cache small enough to evict, returns the same values and
    /// counters and leaves the same home media as a bare cache.
    #[test]
    fn one_core_complex_matches_a_bare_cache() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const LINES: u64 = 64;
        let cfg = CacheConfig::tiny(1 << 10, 2);
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cx = SharedComplex::new(1, cfg);
            let mut bare = CoherentCache::new(cfg);
            let mut cx_home = MemoryHome::new(PmMedia::new(LINES as usize * 64));
            let mut bare_home = MemoryHome::new(PmMedia::new(LINES as usize * 64));
            for step in 0..400 {
                let addr = LineAddr(rng.gen_range(0..LINES));
                let at = format!("seed {seed}, step {step}");
                match rng.gen_range(0..10u32) {
                    0..=3 => assert_eq!(
                        cx.read(0, addr, &mut cx_home).unwrap(),
                        bare.read(addr, &mut bare_home).unwrap(),
                        "{at}"
                    ),
                    4..=7 => {
                        let data = CacheLine::filled(rng.gen());
                        cx.write(0, addr, data.clone(), &mut cx_home).unwrap();
                        bare.write(addr, data, &mut bare_home).unwrap();
                    }
                    8 => assert_eq!(
                        HostSnoop::snoop_shared(&mut &cx, addr),
                        bare.snoop_shared(addr),
                        "{at}"
                    ),
                    _ => assert_eq!(
                        HostSnoop::snoop_invalidate(&mut &cx, addr),
                        bare.snoop_invalidate(addr),
                        "{at}"
                    ),
                }
            }
            cx.crash();
            bare.crash();
            assert_eq!(cx.core_stats(0), bare.stats(), "seed {seed}");
            assert_eq!(cx.stats(), ComplexStats::default(), "seed {seed}");
            assert_eq!(cx_home.memory().stats(), bare_home.memory().stats(), "seed {seed}");
            for line in 0..LINES {
                assert_eq!(
                    cx_home.memory_mut().read_line(LineAddr(line)).unwrap(),
                    bare_home.memory_mut().read_line(LineAddr(line)).unwrap(),
                    "seed {seed}, line {line}"
                );
            }
        }
    }

    #[test]
    fn crash_loses_all_cores_dirty_lines() {
        let (cx, mut home) = setup(3);
        for core in 0..3 {
            cx.write(core, LineAddr(core as u64 + 10), CacheLine::filled(1), &mut home).unwrap();
        }
        cx.crash();
        for core in 0..3 {
            assert_eq!(cx.core_stats(core).dirty_lines_lost, 1);
        }
    }
}
