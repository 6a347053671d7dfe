//! Concurrent set-associative index: the crate's one set policy behind
//! per-set locks plus a lock-free presence probe.
//!
//! `ConcurrentSetAssoc<T>` drives the same set type as the single-owner
//! `SetAssoc` (the crate-private `Ways` of `set.rs`): tag lookup, LRU
//! stamps and victim choice live there, once. This wrapper adds only
//! what sharing needs, so every operation takes `&self` and many threads
//! can drive disjoint sets (and, with short critical sections, even the
//! same set) without an exclusive borrow of the whole index.
//!
//! Concurrency design:
//!
//! - Each set is a [`parking_lot::Mutex`] over its ways. Critical sections
//!   are tiny (scan ≤ `ways` entries, mutate one), so a plain mutex is a
//!   spinlock in practice and keeps the crate `forbid(unsafe_code)`. A
//!   set allocates its ways on its first insert, so an index costs host
//!   memory only for the sets a run touches.
//! - Each set also carries a 64-bit *presence signature* (a one-word
//!   Bloom filter over the addresses resident in the set). A reader
//!   probes the signature with an `Acquire` load before locking; a clear
//!   bit proves a definite miss and the probe returns without touching
//!   the lock at all. Set bits may be stale (false positives after
//!   eviction are allowed until the next rebuild), which only costs a
//!   lock acquisition — never a wrong answer.
//! - The LRU clock is one global `AtomicU64` bumped with `fetch_add`, so
//!   a single-threaded driver observes exactly the same stamp sequence
//!   as `SetAssoc`'s plain `u64` clock (deterministic replay holds).
//! - `insert_with` runs the caller's eviction `dispose` closure while
//!   *still holding the set lock*: a victim is never invisible (absent
//!   from the index) before its disposal side effects complete, closing
//!   the stale-read window a drop-lock-then-dispose scheme would open.
//!
//! Lock ordering: callers may acquire downstream locks (pool, trace)
//! inside `dispose`/`get` closures; `ConcurrentSetAssoc` itself never
//! takes more than one set lock at a time except in `clear`, which locks
//! sets strictly in index order.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use pax_pm::LineAddr;

use crate::set::{sets_for, Ways};

/// One set: locked ways plus the lock-free presence signature.
#[derive(Debug)]
struct SetSlot<T> {
    ways: Mutex<Ways<T>>,
    /// One-word Bloom filter over resident addresses; bit index =
    /// [`sig_bit`]. Cleared bits prove absence; set bits may be stale.
    /// Written only under `ways`' lock; read lock-free.
    sig: AtomicU64,
}

/// Hash an address to its presence-signature bit (0..64).
fn sig_bit(addr: LineAddr) -> u64 {
    1u64 << (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// Rebuild a set's signature from its resident ways (after a removal).
fn rebuild_sig<T>(ways: &Ways<T>) -> u64 {
    ways.iter().fold(0u64, |sig, (addr, _)| sig | sig_bit(addr))
}

/// A set-associative index shared across threads.
///
/// See the module docs for the concurrency design. It runs the same set
/// policy as the crate's single-owner array, so a single driver sees the
/// same hit/miss outcomes, victims and LRU stamps.
#[derive(Debug)]
pub struct ConcurrentSetAssoc<T> {
    sets: Vec<SetSlot<T>>,
    ways: usize,
    clock: AtomicU64,
    resident: AtomicUsize,
}

impl<T> ConcurrentSetAssoc<T> {
    /// Build an index with `num_sets` sets of `ways` ways each. No set
    /// allocates its ways until its first insert.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0, "need at least one set");
        assert!(ways > 0, "need at least one way");
        let sets = (0..num_sets)
            .map(|_| SetSlot { ways: Mutex::new(Ways::new()), sig: AtomicU64::new(0) })
            .collect();
        Self { sets, ways, clock: AtomicU64::new(0), resident: AtomicUsize::new(0) }
    }

    /// Build an index sized to `bytes` of 64-byte lines with the given
    /// associativity.
    ///
    /// # Panics
    /// Panics if `bytes` holds fewer lines than one full set.
    pub fn with_capacity_bytes(bytes: usize, ways: usize) -> Self {
        Self::new(sets_for(bytes, ways), ways)
    }

    fn set_of(&self, addr: LineAddr) -> &SetSlot<T> {
        &self.sets[(addr.0 as usize) % self.sets.len()]
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total line capacity (`sets × ways`).
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Look up `addr`, running `f` on the payload under the set lock.
    ///
    /// Advances the LRU clock even on a miss (as the single-owner array
    /// does) and freshens the line's stamp on a hit. A clear
    /// presence-signature bit short-circuits to `None` without locking
    /// the set.
    pub fn get<R>(&self, addr: LineAddr, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let stamp = self.stamp();
        let set = self.set_of(addr);
        if set.sig.load(Ordering::Acquire) & sig_bit(addr) == 0 {
            return None;
        }
        set.ways.lock().touch(addr, stamp).map(f)
    }

    /// Run `f` on `addr`'s payload without disturbing LRU state.
    pub fn peek<R>(&self, addr: LineAddr, f: impl FnOnce(&T) -> R) -> Option<R> {
        let set = self.set_of(addr);
        if set.sig.load(Ordering::Acquire) & sig_bit(addr) == 0 {
            return None;
        }
        set.ways.lock().find(addr).map(f)
    }

    /// Run `f` mutably on `addr`'s payload without disturbing LRU state.
    pub fn peek_mut<R>(&self, addr: LineAddr, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let set = self.set_of(addr);
        if set.sig.load(Ordering::Acquire) & sig_bit(addr) == 0 {
            return None;
        }
        set.ways.lock().find_mut(addr).map(f)
    }

    /// Insert `payload` at `addr`, evicting a victim if the set is full.
    ///
    /// Among ways for which `prefer` returns true the least-recently-used
    /// one is the victim; if none is preferred, the overall LRU way is.
    /// On a hit the payload is replaced in place (and its stamp
    /// freshened) with no eviction.
    ///
    /// `dispose` runs on the victim *while the set lock is held*, so the
    /// victim stays invisible-atomically: no other thread can observe
    /// the index without the victim before disposal completes. Returns
    /// `dispose`'s result when a victim was evicted, `None` otherwise.
    pub fn insert_with<R>(
        &self,
        addr: LineAddr,
        payload: T,
        prefer: impl Fn(&T) -> bool,
        dispose: impl FnOnce(LineAddr, T) -> R,
    ) -> Option<R> {
        let stamp = self.stamp();
        let set = self.set_of(addr);
        let mut ways = set.ways.lock();
        if let Some(resident) = ways.touch(addr, stamp) {
            *resident = payload;
            return None;
        }
        self.admit_locked(&mut ways, addr, payload, stamp, prefer, dispose)
    }

    /// Insert only if `addr` is absent; an existing line (and its LRU
    /// stamp) is left untouched. Otherwise identical to [`insert_with`].
    ///
    /// [`insert_with`]: Self::insert_with
    pub fn insert_if_absent_with<R>(
        &self,
        addr: LineAddr,
        payload: T,
        prefer: impl Fn(&T) -> bool,
        dispose: impl FnOnce(LineAddr, T) -> R,
    ) -> Option<R> {
        let stamp = self.stamp();
        let set = self.set_of(addr);
        let mut ways = set.ways.lock();
        if ways.find(addr).is_some() {
            return None;
        }
        self.admit_locked(&mut ways, addr, payload, stamp, prefer, dispose)
    }

    /// The tail both inserts share once `addr` is known to be absent:
    /// admit it into `ways` (the locked contents of its set), update the
    /// signature and the resident count, and dispose of a victim while
    /// the caller still holds the set lock.
    fn admit_locked<R>(
        &self,
        ways: &mut Ways<T>,
        addr: LineAddr,
        payload: T,
        stamp: u64,
        prefer: impl Fn(&T) -> bool,
        dispose: impl FnOnce(LineAddr, T) -> R,
    ) -> Option<R> {
        let set = self.set_of(addr);
        match ways.admit(addr, payload, stamp, self.ways, prefer) {
            Some((victim_addr, victim)) => {
                set.sig.store(rebuild_sig(ways), Ordering::Release);
                // Dispose under the set lock: the victim must not be
                // missing from the index while its data is still in
                // flight to its home location.
                Some(dispose(victim_addr, victim))
            }
            None => {
                // A plain load and store, not a locked `fetch_or`: every
                // writer of `sig` holds this set's lock (held here), so
                // no update can land in between. The `Release` store
                // still pairs with the probes' `Acquire` loads.
                let sig = set.sig.load(Ordering::Relaxed);
                set.sig.store(sig | sig_bit(addr), Ordering::Release);
                // `resident` is shared by every set, so it keeps its RMW.
                self.resident.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Remove and return `addr`'s payload, if resident.
    pub fn remove(&self, addr: LineAddr) -> Option<T> {
        let set = self.set_of(addr);
        if set.sig.load(Ordering::Acquire) & sig_bit(addr) == 0 {
            return None;
        }
        let mut ways = set.ways.lock();
        let payload = ways.remove(addr)?;
        set.sig.store(rebuild_sig(&ways), Ordering::Release);
        self.resident.fetch_sub(1, Ordering::Relaxed);
        Some(payload)
    }

    /// Drop every resident line.
    pub fn clear(&self) {
        for set in &self.sets {
            let mut ways = set.ways.lock();
            let n = ways.len();
            ways.clear();
            set.sig.store(0, Ordering::Release);
            self.resident.fetch_sub(n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> ConcurrentSetAssoc<u64> {
        // 2 sets x 2 ways.
        ConcurrentSetAssoc::new(2, 2)
    }

    #[test]
    fn get_hits_and_misses_like_setassoc() {
        let c = idx();
        assert!(c.get(LineAddr(0), |_| ()).is_none());
        assert!(c.insert_with(LineAddr(0), 7, |_| true, |_, _| ()).is_none());
        assert_eq!(c.get(LineAddr(0), |v| *v), Some(7));
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 4);
    }

    #[test]
    fn full_set_evicts_lru_and_disposes_under_lock() {
        let c = idx();
        // Addresses 0, 2, 4 all land in set 0.
        c.insert_with(LineAddr(0), 10, |_| true, |_, _| ());
        c.insert_with(LineAddr(2), 20, |_| true, |_, _| ());
        // Touch 0 so 2 becomes LRU.
        c.get(LineAddr(0), |_| ());
        let evicted = c.insert_with(LineAddr(4), 40, |_| true, |a, v| (a, v));
        assert_eq!(evicted, Some((LineAddr(2), 20)));
        assert_eq!(c.len(), 2);
        assert!(c.peek(LineAddr(2), |_| ()).is_none());
        assert_eq!(c.peek(LineAddr(0), |v| *v), Some(10));
        assert_eq!(c.peek(LineAddr(4), |v| *v), Some(40));
    }

    #[test]
    fn preferred_victim_wins_over_lru() {
        let c = idx();
        c.insert_with(LineAddr(0), 1, |_| true, |_, _| ());
        c.insert_with(LineAddr(2), 2, |_| true, |_, _| ());
        // Prefer even payloads: 2 is evicted even though 0 is LRU.
        let evicted = c.insert_with(LineAddr(4), 5, |v| *v % 2 == 0, |a, v| (a, v));
        assert_eq!(evicted, Some((LineAddr(2), 2)));
    }

    #[test]
    fn replace_in_place_on_hit_evicts_nothing() {
        let c = idx();
        c.insert_with(LineAddr(0), 1, |_| true, |_, _| ());
        c.insert_with(LineAddr(2), 2, |_| true, |_, _| ());
        assert!(c.insert_with(LineAddr(0), 9, |_| true, |_, _| ()).is_none());
        assert_eq!(c.peek(LineAddr(0), |v| *v), Some(9));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn insert_if_absent_keeps_existing_payload() {
        let c = idx();
        c.insert_with(LineAddr(0), 1, |_| true, |_, _| ());
        assert!(c.insert_if_absent_with(LineAddr(0), 9, |_| true, |_, _| ()).is_none());
        assert_eq!(c.peek(LineAddr(0), |v| *v), Some(1));
        assert!(c.insert_if_absent_with(LineAddr(2), 2, |_| true, |_, _| ()).is_none());
        assert_eq!(c.peek(LineAddr(2), |v| *v), Some(2));
    }

    #[test]
    fn remove_and_clear_track_residency() {
        let c = idx();
        c.insert_with(LineAddr(0), 1, |_| true, |_, _| ());
        c.insert_with(LineAddr(1), 2, |_| true, |_, _| ());
        assert_eq!(c.remove(LineAddr(0)), Some(1));
        assert_eq!(c.remove(LineAddr(0)), None);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert!(c.peek(LineAddr(1), |_| ()).is_none());
    }

    #[test]
    fn a_set_allocates_its_ways_on_first_insert() {
        let c: ConcurrentSetAssoc<u64> = ConcurrentSetAssoc::new(2, 4);
        assert!(c.sets.iter().all(|s| s.ways.lock().allocated() == 0), "open allocates no ways");
        c.insert_with(LineAddr(0), 1, |_| true, |_, _| ());
        assert_eq!(c.sets[0].ways.lock().allocated(), 4);
        assert_eq!(c.sets[1].ways.lock().allocated(), 0, "an untouched set stays unbuilt");
    }

    #[test]
    fn stale_signature_bits_never_produce_false_hits() {
        let c = ConcurrentSetAssoc::new(1, 1);
        c.insert_with(LineAddr(0), 1, |_| true, |_, _| ());
        // Evict 0 by inserting 1 (same single set).
        c.insert_with(LineAddr(1), 2, |_| true, |_, _| ());
        assert!(c.get(LineAddr(0), |_| ()).is_none());
        assert_eq!(c.get(LineAddr(1), |v| *v), Some(2));
    }

    #[test]
    fn concurrent_inserts_keep_residency_consistent() {
        let c = std::sync::Arc::new(ConcurrentSetAssoc::new(64, 4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..256u64 {
                        c.insert_with(LineAddr(t * 256 + i), i, |_| true, |_, _| ());
                    }
                });
            }
        });
        assert_eq!(c.len(), c.capacity());
        let count: usize = c.sets.iter().map(|s| s.ways.lock().len()).sum();
        assert_eq!(count, c.len());
    }
}
