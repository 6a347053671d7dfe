//! The set-associative engine: one set type that owns the set policy.
//!
//! Both the host caches and the PAX device's HBM cache are set-associative
//! structures that differ only in what they store per line and in how many
//! threads drive them. [`Ways<T>`] is one set and holds the whole set
//! policy: tag lookup, LRU stamps, and admission, which evicts the
//! least-recently-used way among those a `prefer` predicate accepts and
//! falls back to plain LRU when none qualifies. A set allocates its ways
//! on its first insert, so an index costs host memory only for the sets a
//! run touches.
//!
//! Two containers drive an array of these sets. [`SetAssoc<T>`] has one
//! owner, a plain `u64` clock and plain LRU; it backs the host caches and
//! the Fig. 2a hierarchy. [`ConcurrentSetAssoc`](crate::ConcurrentSetAssoc)
//! puts each set behind its own lock with an atomic clock and backs the
//! device's HBM buffer.

use pax_pm::{LineAddr, LINE_SIZE};

/// One occupied way of a set.
#[derive(Debug, Clone)]
struct Way<T> {
    addr: LineAddr,
    payload: T,
    /// Clock value at last touch; smallest = LRU victim.
    last_use: u64,
}

/// One set: its resident ways and the set policy (see module docs).
#[derive(Debug, Clone)]
pub(crate) struct Ways<T>(Vec<Way<T>>);

impl<T> Ways<T> {
    /// An empty set; it allocates nothing until its first insert.
    pub(crate) const fn new() -> Self {
        Ways(Vec::new())
    }

    /// Number of resident ways.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Way slots allocated so far: zero before the first insert.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.0.capacity()
    }

    /// `addr`'s payload, without disturbing LRU order.
    pub(crate) fn find(&self, addr: LineAddr) -> Option<&T> {
        self.0.iter().find(|w| w.addr == addr).map(|w| &w.payload)
    }

    /// `addr`'s payload, mutably, without disturbing LRU order.
    ///
    /// Background maintenance (device write-back) flips payload flags
    /// through this: promoting the line would let housekeeping traffic
    /// overwrite the recency signal left by real accesses.
    pub(crate) fn find_mut(&mut self, addr: LineAddr) -> Option<&mut T> {
        self.0.iter_mut().find(|w| w.addr == addr).map(|w| &mut w.payload)
    }

    /// `addr`'s payload, stamped most recently used at `stamp`.
    pub(crate) fn touch(&mut self, addr: LineAddr, stamp: u64) -> Option<&mut T> {
        let way = self.0.iter_mut().find(|w| w.addr == addr)?;
        way.last_use = stamp;
        Some(&mut way.payload)
    }

    /// Removes `addr`, returning its payload.
    pub(crate) fn remove(&mut self, addr: LineAddr) -> Option<T> {
        let pos = self.0.iter().position(|w| w.addr == addr)?;
        Some(self.0.swap_remove(pos).payload)
    }

    /// Admits `addr`, which must not be resident, stamped at `stamp` in a
    /// set of `ways` ways. If the set is full, the victim is the
    /// least-recently-used way whose payload `prefer` accepts, or the
    /// least-recently-used way if `prefer` accepts none; it is removed
    /// and returned.
    pub(crate) fn admit(
        &mut self,
        addr: LineAddr,
        payload: T,
        stamp: u64,
        ways: usize,
        prefer: impl Fn(&T) -> bool,
    ) -> Option<(LineAddr, T)> {
        debug_assert!(self.find(addr).is_none(), "admit takes a missing tag");
        if self.0.capacity() == 0 {
            // First insert: build the set's ways now, not when the index opens.
            self.0.reserve_exact(ways);
        }
        let victim = if self.0.len() >= ways {
            // `false` sorts first, so a preferred way beats any other. A
            // plain loop, not `min_by_key`: the iterator form spilled the
            // running minimum to the stack through overlapping partial
            // stores, a store-forwarding stall on every way.
            let key = |w: &Way<T>| (!prefer(&w.payload), w.last_use);
            let (mut idx, mut best) = (0, key(&self.0[0]));
            for (i, w) in self.0.iter().enumerate().skip(1) {
                let k = key(w);
                if k < best {
                    (idx, best) = (i, k);
                }
            }
            let w = self.0.swap_remove(idx);
            Some((w.addr, w.payload))
        } else {
            None
        };
        self.0.push(Way { addr, payload, last_use: stamp });
        victim
    }

    /// Every resident `(addr, payload)` pair, in way order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.0.iter().map(|w| (w.addr, &w.payload))
    }

    /// Removes every resident way, keeping the allocated slots.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Number of `ways`-way sets that `capacity_bytes` of 64-byte lines fill.
///
/// # Panics
///
/// Panics if the capacity holds fewer lines than `ways`.
pub(crate) fn sets_for(capacity_bytes: usize, ways: usize) -> usize {
    let lines = capacity_bytes / LINE_SIZE;
    assert!(
        lines >= ways,
        "capacity {capacity_bytes} bytes holds {lines} lines, fewer than {ways} ways"
    );
    lines / ways
}

/// A set-associative map from line addresses to payloads with LRU
/// eviction, driven by one owner.
#[derive(Debug, Clone)]
pub(crate) struct SetAssoc<T> {
    sets: Vec<Ways<T>>,
    ways: usize,
    clock: u64,
}

impl<T> SetAssoc<T> {
    /// Creates an array with `num_sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `ways` is zero.
    pub(crate) fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0, "cache must have at least one set");
        assert!(ways > 0, "cache must have at least one way");
        SetAssoc { sets: (0..num_sets).map(|_| Ways::new()).collect(), ways, clock: 0 }
    }

    /// Builds an array sized for `capacity_bytes` of 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer lines than `ways`.
    pub(crate) fn with_capacity_bytes(capacity_bytes: usize, ways: usize) -> Self {
        Self::new(sets_for(capacity_bytes, ways), ways)
    }

    fn set_index(&self, addr: LineAddr) -> usize {
        (addr.0 % self.sets.len() as u64) as usize
    }

    /// Looks up `addr`, updating LRU order on hit.
    pub(crate) fn get_mut(&mut self, addr: LineAddr) -> Option<&mut T> {
        self.clock += 1;
        let (clock, set) = (self.clock, self.set_index(addr));
        self.sets[set].touch(addr, clock)
    }

    /// Looks up `addr` without disturbing LRU order (for assertions).
    pub(crate) fn peek(&self, addr: LineAddr) -> Option<&T> {
        self.sets[self.set_index(addr)].find(addr)
    }

    /// Inserts (or replaces) `addr`'s payload, returning an LRU victim if a
    /// set overflowed — the caller decides what an eviction means (write
    /// back, drop, stall…).
    pub(crate) fn insert(&mut self, addr: LineAddr, payload: T) -> Option<(LineAddr, T)> {
        self.clock += 1;
        let (clock, ways, set) = (self.clock, self.ways, self.set_index(addr));
        let set = &mut self.sets[set];
        if let Some(resident) = set.touch(addr, clock) {
            *resident = payload;
            return None;
        }
        set.admit(addr, payload, clock, ways, |_| false)
    }

    /// Removes `addr`, returning its payload.
    pub(crate) fn remove(&mut self, addr: LineAddr) -> Option<T> {
        let set = self.set_index(addr);
        self.sets[set].remove(addr)
    }

    /// Iterates over all resident `(addr, payload)` pairs in no particular
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.sets.iter().flat_map(Ways::iter)
    }

    /// Removes every resident line without returning them.
    pub(crate) fn clear(&mut self) {
        self.sets.iter_mut().for_each(Ways::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_updates_payload_access() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(4, 2);
        sa.insert(LineAddr(1), 11);
        assert_eq!(sa.get_mut(LineAddr(1)), Some(&mut 11));
        *sa.get_mut(LineAddr(1)).unwrap() = 12;
        assert_eq!(sa.peek(LineAddr(1)), Some(&12));
        assert_eq!(sa.get_mut(LineAddr(2)), None);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        // One set, two ways: 0 and 4 and 8 all collide (mod 4 = 0).
        let mut sa: SetAssoc<&str> = SetAssoc::new(4, 2);
        sa.insert(LineAddr(0), "a");
        sa.insert(LineAddr(4), "b");
        sa.get_mut(LineAddr(0)); // touch "a"; "b" is now LRU
        let victim = sa.insert(LineAddr(8), "c");
        assert_eq!(victim, Some((LineAddr(4), "b")));
        assert!(sa.peek(LineAddr(0)).is_some());
        assert!(sa.peek(LineAddr(8)).is_some());
    }

    #[test]
    fn peek_mut_mutates_without_promoting() {
        // `find_mut` (behind `ConcurrentSetAssoc::peek_mut`) on the LRU
        // way must leave it LRU.
        let mut set: Ways<u32> = Ways::new();
        set.admit(LineAddr(0), 1, 1, 2, |_| false);
        set.admit(LineAddr(4), 2, 2, 2, |_| false);
        *set.find_mut(LineAddr(0)).unwrap() = 10;
        assert_eq!(set.admit(LineAddr(8), 3, 3, 2, |_| false), Some((LineAddr(0), 10)));
        assert_eq!(set.find_mut(LineAddr(12)), None);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(1, 1);
        sa.insert(LineAddr(0), 1);
        assert_eq!(sa.insert(LineAddr(0), 2), None);
        assert_eq!(sa.peek(LineAddr(0)), Some(&2));
    }

    #[test]
    fn policy_eviction_prefers_matching_ways() {
        // One set, two ways; payload bool = "cheap to evict".
        let mut set: Ways<bool> = Ways::new();
        set.admit(LineAddr(0), false, 1, 2, |_| false);
        set.admit(LineAddr(1), true, 2, 2, |_| false);
        set.touch(LineAddr(1), 3); // make the preferred line also the MRU line
        let victim = set.admit(LineAddr(2), false, 4, 2, |cheap| *cheap);
        // LRU alone would pick LineAddr(0); the policy overrides to pick 1.
        assert_eq!(victim, Some((LineAddr(1), true)));
    }

    #[test]
    fn policy_falls_back_to_lru() {
        let mut set: Ways<bool> = Ways::new();
        set.admit(LineAddr(0), false, 1, 2, |_| false);
        set.admit(LineAddr(1), false, 2, 2, |_| false);
        let victim = set.admit(LineAddr(2), false, 3, 2, |cheap| *cheap);
        assert_eq!(victim, Some((LineAddr(0), false)));
    }

    #[test]
    fn capacity_bytes_constructor() {
        let sa: SetAssoc<()> = SetAssoc::with_capacity_bytes(32 << 10, 8);
        assert_eq!(sa.sets.len() * sa.ways, 512); // 32 KiB / 64 B
    }

    #[test]
    fn remove_and_drain() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(4, 2);
        sa.insert(LineAddr(1), 1);
        sa.insert(LineAddr(2), 2);
        assert_eq!(sa.remove(LineAddr(1)), Some(1));
        assert_eq!(sa.remove(LineAddr(1)), None);
        assert_eq!(sa.iter().collect::<Vec<_>>(), vec![(LineAddr(2), &2)]);
        sa.clear();
        assert_eq!((sa.iter().count(), sa.peek(LineAddr(2))), (0, None));
    }

    #[test]
    fn iter_sees_all_lines() {
        let mut sa: SetAssoc<u32> = SetAssoc::new(8, 2);
        for i in 0..10u64 {
            sa.insert(LineAddr(i), i as u32);
        }
        assert_eq!(sa.iter().count(), 10);
    }
}
