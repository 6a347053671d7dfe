//! The device's HBM buffer of cached/modified lines (§3.3).
//!
//! The device buffers two kinds of lines in its high-bandwidth memory:
//! clean copies that act as a read cache of PM, and modified lines
//! received from the host (dirty evictions, or values collected by
//! `persist()` snoops) waiting for write back. A modified line carries the
//! offset of the undo-log entry covering it; it may only be written back
//! to PM once that entry is durable.
//!
//! When the buffer fills, a victim must be chosen. [`EvictionPolicy::Lru`]
//! ignores durability and may force a synchronous log flush (a stall);
//! [`EvictionPolicy::PreferDurable`] implements §3.3's optimisation —
//! "the device buffer's eviction policy can try to minimize stalls by
//! preferring to evict cache lines whose undo log entries are already
//! durable". The `ablation_eviction` bench quantifies the difference.
//!
//! The buffer is a *concurrent* index ([`ConcurrentSetAssoc`]): every
//! method takes `&self`, hit/miss counters are atomics, and same-lane
//! stores probe and update the set index concurrently, each touching one
//! set lock (DESIGN.md §15). A set's ways are allocated on its first
//! insert, so an open buffer costs host memory only for the sets a run
//! touches. Eviction disposal runs inside the per-set critical section
//! via [`HbmCache::insert_then`], so a dirty victim is never invisible
//! while its data is still in flight to PM.

use std::sync::atomic::{AtomicU64, Ordering};

use pax_cache::ConcurrentSetAssoc;
use pax_pm::{CacheLine, LineAddr};

/// A line resident in device HBM.
#[derive(Debug, Clone)]
pub struct HbmLine {
    /// Current contents as known to the device.
    pub data: CacheLine,
    /// Whether the contents differ from PM (needs write back).
    pub dirty: bool,
    /// Undo-log entry offset covering this modification; write back is
    /// legal only once the log watermark passes it. `None` for clean
    /// lines.
    pub log_offset: Option<u64>,
}

/// Victim-selection policy for a full HBM set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Plain least-recently-used.
    Lru,
    /// LRU among lines that are clean or already durably logged; falls
    /// back to plain LRU when no such line exists (§3.3).
    #[default]
    PreferDurable,
}

/// Geometry and policy of the HBM buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmConfig {
    /// Capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Victim-selection policy.
    pub policy: EvictionPolicy,
}

impl HbmConfig {
    /// A few-MiB device buffer; HBM stacks are GiB-scale but the hot set
    /// per epoch is what matters, and tests want pressure.
    pub const fn default_config() -> Self {
        HbmConfig { capacity_bytes: 4 << 20, ways: 8, policy: EvictionPolicy::PreferDurable }
    }

    /// Returns the config with a different capacity.
    pub fn with_capacity_bytes(mut self, bytes: usize) -> Self {
        self.capacity_bytes = bytes;
        self
    }
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// The HBM buffer (see module docs). All methods take `&self`; share it
/// across threads behind an `Arc`.
#[derive(Debug)]
pub struct HbmCache {
    lines: ConcurrentSetAssoc<HbmLine>,
    policy: EvictionPolicy,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl HbmCache {
    /// An empty buffer with the given geometry.
    pub fn new(config: HbmConfig) -> Self {
        HbmCache {
            lines: ConcurrentSetAssoc::with_capacity_bytes(config.capacity_bytes, config.ways),
            policy: config.policy,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Read hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Read misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lines currently resident.
    pub fn resident(&self) -> usize {
        self.lines.len()
    }

    /// Total line capacity (sets × ways) — what the configured byte
    /// budget rounded to.
    pub fn capacity_lines(&self) -> usize {
        self.lines.capacity()
    }

    /// Looks up `addr` for a device-side read, counting hit/miss. The
    /// line is cloned out so no set lock is held by the caller.
    pub fn lookup(&self, addr: LineAddr) -> Option<HbmLine> {
        match self.lines.get(addr, |l| l.clone()) {
            Some(line) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(line)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up without counting (internal state checks).
    pub fn peek(&self, addr: LineAddr) -> Option<HbmLine> {
        self.lines.peek(addr, |l| l.clone())
    }

    fn prefer(&self, durable_offset: u64) -> impl Fn(&HbmLine) -> bool {
        let policy = self.policy;
        move |l: &HbmLine| match policy {
            EvictionPolicy::Lru => true,
            EvictionPolicy::PreferDurable => {
                !l.dirty || l.log_offset.is_none_or(|o| o < durable_offset)
            }
        }
    }

    /// Inserts or replaces `addr`; if a victim is evicted, `dispose`
    /// runs on it *while the set lock is still held* and its result is
    /// returned. `durable_offset` is the log watermark, consulted by
    /// [`EvictionPolicy::PreferDurable`]. See
    /// [`ConcurrentSetAssoc::insert_with`] for the visibility guarantee
    /// this provides.
    pub fn insert_then<R>(
        &self,
        addr: LineAddr,
        line: HbmLine,
        durable_offset: u64,
        dispose: impl FnOnce(LineAddr, HbmLine) -> R,
    ) -> Option<R> {
        self.lines.insert_with(addr, line, self.prefer(durable_offset), dispose)
    }

    /// Inserts a line at `addr` only if absent (miss-path read refresh):
    /// a concurrent dirty insert must not be overwritten by the stale
    /// clean copy the reader fetched from PM. Victim disposal as in
    /// [`insert_then`](Self::insert_then).
    pub fn insert_clean_if_absent_then<R>(
        &self,
        addr: LineAddr,
        line: HbmLine,
        durable_offset: u64,
        dispose: impl FnOnce(LineAddr, HbmLine) -> R,
    ) -> Option<R> {
        self.lines.insert_if_absent_with(addr, line, self.prefer(durable_offset), dispose)
    }

    /// Removes `addr` from the buffer.
    pub fn remove(&self, addr: LineAddr) -> Option<HbmLine> {
        self.lines.remove(addr)
    }

    /// Marks `addr` clean in place (post-write-back), without disturbing
    /// LRU order. Returns whether the line was resident.
    pub fn mark_clean(&self, addr: LineAddr) -> bool {
        self.lines
            .peek_mut(addr, |line| {
                line.dirty = false;
                line.log_offset = None;
            })
            .is_some()
    }

    /// Clears everything (power loss: HBM contents are volatile from the
    /// crash-consistency standpoint — the log already captured pre-images).
    pub fn crash(&self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(b: u8) -> HbmLine {
        HbmLine { data: CacheLine::filled(b), dirty: false, log_offset: None }
    }

    fn dirty(b: u8, off: u64) -> HbmLine {
        HbmLine { data: CacheLine::filled(b), dirty: true, log_offset: Some(off) }
    }

    fn tiny(policy: EvictionPolicy) -> HbmCache {
        // 2 lines total: 1 set × 2 ways.
        HbmCache::new(HbmConfig { capacity_bytes: 128, ways: 2, policy })
    }

    /// Inserts through `insert_then`, handing the victim back.
    fn insert(h: &HbmCache, addr: u64, line: HbmLine, durable: u64) -> Option<LineAddr> {
        h.insert_then(LineAddr(addr), line, durable, |a, _| a)
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let h = tiny(EvictionPolicy::Lru);
        insert(&h, 0, clean(1), 0);
        assert!(h.lookup(LineAddr(0)).is_some());
        assert!(h.lookup(LineAddr(1)).is_none());
        assert_eq!(h.hits(), 1);
        assert_eq!(h.misses(), 1);
    }

    #[test]
    fn prefer_durable_evicts_logged_line_first() {
        let h = tiny(EvictionPolicy::PreferDurable);
        // Two dirty lines: offset 0 (durable: watermark 1) and offset 5
        // (not durable). LRU order would evict addr 0 first either way,
        // so make the non-durable line the LRU one.
        insert(&h, 1, dirty(2, 5), 1); // not durable, inserted first (LRU)
        insert(&h, 0, dirty(1, 0), 1); // durable, MRU
        let victim = insert(&h, 2, clean(3), 1);
        assert_eq!(victim, Some(LineAddr(0)), "durable line evicted despite being MRU");
    }

    #[test]
    fn prefer_durable_falls_back_to_lru() {
        let h = tiny(EvictionPolicy::PreferDurable);
        insert(&h, 0, dirty(1, 7), 0); // not durable
        insert(&h, 1, dirty(2, 8), 0); // not durable
        let victim = insert(&h, 2, clean(3), 0);
        assert_eq!(victim, Some(LineAddr(0)), "plain LRU fallback");
    }

    #[test]
    fn lru_policy_ignores_durability() {
        let h = tiny(EvictionPolicy::Lru);
        insert(&h, 0, dirty(1, 99), 0); // not durable, LRU
        insert(&h, 1, clean(2), 0);
        let victim = insert(&h, 2, clean(3), 0);
        assert_eq!(victim, Some(LineAddr(0)), "LRU evicts not-durable dirty line");
    }

    #[test]
    fn mark_clean_cleans_in_place_without_promoting() {
        let h = tiny(EvictionPolicy::Lru);
        insert(&h, 0, dirty(1, 3), 0); // LRU
        insert(&h, 1, clean(2), 0); // MRU
        assert!(h.mark_clean(LineAddr(0)));
        assert!(!h.mark_clean(LineAddr(7)));
        let line = h.peek(LineAddr(0)).unwrap();
        assert!(!line.dirty);
        assert_eq!(line.log_offset, None);
        let victim = insert(&h, 2, clean(3), 0);
        assert_eq!(victim, Some(LineAddr(0)), "cleaned line must stay LRU");
    }

    #[test]
    fn insert_if_absent_keeps_resident_line() {
        let h = tiny(EvictionPolicy::Lru);
        insert(&h, 0, dirty(1, 3), 5);
        assert!(h.insert_clean_if_absent_then(LineAddr(0), clean(9), 5, |a, l| (a, l)).is_none());
        let line = h.peek(LineAddr(0)).unwrap();
        assert!(line.dirty, "refresh must not clobber a resident dirty line");
        assert_eq!(line.data, CacheLine::filled(1));
    }

    #[test]
    fn crash_clears_buffer() {
        let h = HbmCache::new(HbmConfig::default_config());
        insert(&h, 0, dirty(1, 0), 0);
        h.crash();
        assert_eq!(h.resident(), 0);
    }
}
