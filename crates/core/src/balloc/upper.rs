//! The upper allocator: a volatile hierarchical index over the trees.
//!
//! One entry per tree packs a claim flag and the tree's free-frame count
//! into a single `AtomicU64`, beside a longest-free-run hint, so cores
//! can pick trees that can hold a request without taking any lock —
//! only the chosen tree's mutex is taken, and only to mutate its bitmap
//! words. This state is *never persisted*: a crash discards it and
//! [`rebuild`](crate::recover::rebuild) reconstructs it from the bitmap
//! (llfree's "crash consistency for free" design).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use super::layout::Geometry;

const CLAIMED: u64 = 1 << 63;
const COUNT_MASK: u64 = u32::MAX as u64;

/// Per-tree volatile state: `lock` serializes bitmap mutation inside the
/// tree; `state` packs `CLAIMED | free_count` for lock-free selection;
/// `run_hint` is never below the tree's longest free run.
#[derive(Debug)]
pub(crate) struct TreeEntry {
    pub lock: Mutex<()>,
    state: AtomicU64,
    /// Written only under `lock`; read lock-free by selection, where a
    /// stale value misplaces a request but never loses a frame.
    run_hint: AtomicU64,
}

impl TreeEntry {
    fn new(free: u32, run: u32) -> Self {
        TreeEntry {
            lock: Mutex::new(()),
            state: AtomicU64::new(free as u64),
            run_hint: AtomicU64::new(run as u64),
        }
    }

    /// An upper bound on the tree's longest free run (exact after
    /// attach and after a failed scan; allocations may leave it high).
    pub fn run_hint(&self) -> u64 {
        self.run_hint.load(Ordering::Relaxed)
    }

    /// Whether the tree may hold a run of `need` frames: both its free
    /// count and its run hint admit it.
    pub fn admits(&self, need: u64) -> bool {
        self.free() >= need && self.run_hint() >= need
    }

    /// Sets the hint; the caller holds the lock and keeps it at or
    /// above the tree's longest free run.
    pub fn set_run_hint(&self, run: u64) {
        self.run_hint.store(run, Ordering::Relaxed);
    }

    /// Free frames in this tree (advisory: exact only under the tree
    /// lock, since counts are updated while holding it).
    pub fn free(&self) -> u64 {
        self.state.load(Ordering::Relaxed) & COUNT_MASK
    }

    pub fn is_claimed(&self) -> bool {
        self.state.load(Ordering::Relaxed) & CLAIMED != 0
    }

    /// Claims an unclaimed tree; fails if someone beat us to it.
    pub fn try_claim(&self) -> bool {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            if cur & CLAIMED != 0 {
                return false;
            }
            match self.state.compare_exchange_weak(
                cur,
                cur | CLAIMED,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Drops the claim flag (idempotent; safe to call on a stolen tree —
    /// the claim is a placement hint, the bits under the lock are the
    /// truth).
    pub fn release(&self) {
        self.state.fetch_and(!CLAIMED, Ordering::AcqRel);
    }

    /// Adjusts the free count; callers hold the tree lock, so the count
    /// cannot be driven below zero or above the tree size.
    pub fn add_free(&self, n: u64) {
        self.state.fetch_add(n, Ordering::AcqRel);
    }

    /// See [`TreeEntry::add_free`].
    pub fn sub_free(&self, n: u64) {
        debug_assert!(self.free() >= n);
        self.state.fetch_sub(n, Ordering::AcqRel);
    }
}

/// How a tree was obtained by [`TreeIndex::reserve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reserved {
    /// An unclaimed tree was claimed.
    Fresh(u64),
    /// Every suitable tree was already claimed by some core; this one is
    /// now shared (the `alloc_tree_steals` metric).
    Stolen(u64),
}

impl Reserved {
    pub fn tree(self) -> u64 {
        match self {
            Reserved::Fresh(t) | Reserved::Stolen(t) => t,
        }
    }
}

/// The tree index (see module docs).
#[derive(Debug)]
pub(crate) struct TreeIndex {
    pub trees: Vec<TreeEntry>,
}

impl TreeIndex {
    /// One entry per `(free frames, longest free run)` pair.
    pub fn new(trees: &[(u32, u32)]) -> Self {
        TreeIndex { trees: trees.iter().map(|&(free, run)| TreeEntry::new(free, run)).collect() }
    }

    /// Picks and claims a tree that [admits](TreeEntry::admits) `need`
    /// frames for `core` (of `cores`). Preference order mirrors llfree:
    /// partially used trees first (densify, keep empty trees for span
    /// allocations), then empty trees, then stealing a claimed tree.
    ///
    /// Each core starts its search at its own region of the index so
    /// cores spread over the space instead of contending for tree 0.
    pub fn reserve(
        &self,
        geom: &Geometry,
        core: usize,
        cores: usize,
        need: u64,
    ) -> Option<Reserved> {
        let n = self.trees.len() as u64;
        let start = (core as u64 * n) / cores.max(1) as u64;
        let at = |i: u64| (start + i) % n;

        // Pass 1: unclaimed, partially used.
        for i in 0..n {
            let t = at(i);
            let e = &self.trees[t as usize];
            let partial = e.admits(need) && e.free() < geom.frames_in_tree(t);
            if partial && !e.is_claimed() && e.try_claim() {
                return Some(Reserved::Fresh(t));
            }
        }
        // Pass 2: unclaimed with room (covers fully-empty trees).
        for i in 0..n {
            let t = at(i);
            let e = &self.trees[t as usize];
            if e.admits(need) && !e.is_claimed() && e.try_claim() {
                return Some(Reserved::Fresh(t));
            }
        }
        // Pass 3: steal. No CAS needed — we simply start using the tree;
        // the per-tree lock keeps sharing safe.
        for i in 0..n {
            let t = at(i);
            if self.trees[t as usize].admits(need) {
                return Some(Reserved::Stolen(t));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balloc::layout::Geometry;

    fn geom() -> Geometry {
        // Big enough for several full trees.
        Geometry::for_capacity(1 << 20).unwrap()
    }

    #[test]
    fn claim_is_exclusive_and_releasable() {
        let e = TreeEntry::new(512, 512);
        assert!(e.try_claim());
        assert!(!e.try_claim());
        e.release();
        assert!(e.try_claim());
        assert_eq!(e.free(), 512);
    }

    #[test]
    fn counts_survive_claim_bits() {
        let e = TreeEntry::new(10, 10);
        e.try_claim();
        e.sub_free(4);
        e.add_free(1);
        assert_eq!(e.free(), 7);
        assert!(e.is_claimed());
    }

    #[test]
    fn reserve_prefers_partial_then_empty_then_steals() {
        let g = geom();
        let full = g.frames_in_tree(0) as u32;
        let idx = TreeIndex::new(&[(full, full), (40, 40), (full, full), (0, 0)]);
        // Partial tree 1 wins over the empty trees.
        assert_eq!(idx.reserve(&g, 0, 1, 8), Some(Reserved::Fresh(1)));
        // Next reservation: no partial left → an empty tree.
        let r = idx.reserve(&g, 0, 1, 8).unwrap();
        assert!(matches!(r, Reserved::Fresh(t) if t == 0 || t == 2));
        let r2 = idx.reserve(&g, 0, 1, 8).unwrap();
        assert!(matches!(r2, Reserved::Fresh(_)));
        // Everything claimed → steal.
        assert!(matches!(idx.reserve(&g, 0, 1, 8), Some(Reserved::Stolen(_))));
        // Nothing big enough → None.
        assert_eq!(idx.reserve(&g, 0, 1, 1 << 20), None);
    }

    #[test]
    fn reserve_skips_trees_whose_run_hint_is_short() {
        let g = geom();
        let full = g.frames_in_tree(0) as u32;
        // Tree 0 has 200 free frames but no run longer than 4.
        let idx = TreeIndex::new(&[(200, 4), (full, full)]);
        assert_eq!(idx.reserve(&g, 0, 1, 8), Some(Reserved::Fresh(1)));
        assert_eq!(idx.reserve(&g, 0, 1, 8), Some(Reserved::Stolen(1)));
        assert_eq!(idx.reserve(&g, 0, 1, 4), Some(Reserved::Fresh(0)));
        // Admission needs both the free count and the hint.
        let e = &idx.trees[0];
        e.set_run_hint(300);
        assert!(e.admits(200) && !e.admits(201));
        e.set_run_hint(2);
        assert!(e.admits(2) && !e.admits(3));
    }

    #[test]
    fn cores_start_in_distinct_regions() {
        let g = geom();
        let full = g.frames_in_tree(0) as u32;
        let idx = TreeIndex::new(&[(full, full); 8]);
        let a = idx.reserve(&g, 0, 4, 1).unwrap().tree();
        let b = idx.reserve(&g, 1, 4, 1).unwrap().tree();
        assert_ne!(a, b);
    }
}
