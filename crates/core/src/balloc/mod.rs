//! A scalable crash-consistent vPM allocator in the style of llfree:
//! per-core tree claims over a hierarchical persistent bitmap.
//!
//! The first-fit [`Heap`](crate::Heap) is correct but serial: one free
//! list, one lock, O(list) frees. This module provides [`BitmapAlloc`],
//! a drop-in [`PmAllocator`] with the same §3.4 crash-consistency story
//! and a multicore-friendly design — and, since PR 10, the **default**
//! pool allocator behind [`Persistent::new`](crate::Persistent::new)
//! (`Heap` stays available through `new_in` as the differential
//! baseline):
//!
//! * **Persistent layer** ([`layout`], `lower`) — one allocation bit
//!   per 32-byte frame plus a `u32` free counter per 512-frame *tree*,
//!   all stored inside the managed space. When that space is a pool's
//!   vPM, the PAX device's undo logging rolls allocator metadata back
//!   together with user data; no allocator-specific logging exists.
//! * **Volatile layer** (`upper`) — per-core claimed trees and an
//!   atomic per-tree index of free counts and longest-free-run hints. A
//!   core allocates from its claimed tree without touching any other
//!   core's state; when its tree cannot hold a request it reserves
//!   another whose hint admits it (partial first, then empty, then
//!   stealing).
//! * **Recovery == construction** ([`recover`]) — every `attach` scans
//!   the bitmap once, verifies the persisted counters, and rebuilds the
//!   volatile layer. There is no separate recovery path (§3.4).
//!
//! # Example
//!
//! ```
//! use libpax::{BitmapAlloc, PmAllocator, PVec, VolatileSpace};
//!
//! # fn main() -> libpax::Result<()> {
//! let alloc = BitmapAlloc::attach(VolatileSpace::new(1 << 20))?;
//! // The same structure code that runs over Heap runs over BitmapAlloc.
//! let v: PVec<u64, _, _> = PVec::attach(alloc.clone())?;
//! v.push(7)?;
//! assert_eq!(v.get(0)?, Some(7));
//! # Ok(())
//! # }
//! ```

pub mod layout;
pub(crate) mod lower;
pub mod recover;
pub(crate) mod upper;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{MemSpace, PaxError, PmAllocator, Result};
use pax_telemetry::{Counter, MetricSet, MetricSnapshot};

use layout::{Geometry, LayoutError, FRAME_BYTES, MAGIC, TREE_FRAMES, VERSION};
use recover::RecoveryStats;
use upper::{Reserved, TreeIndex};

/// Default number of per-core caches when [`BitmapAlloc::attach`] is
/// used; callers with real thread counts use
/// [`BitmapAlloc::attach_with_cores`].
pub const DEFAULT_CORES: usize = 4;

#[derive(Debug)]
struct CoreCache {
    /// Claimed tree + 1; 0 = none.
    tree: AtomicU64,
    /// Next in-tree frame offset to probe (ring cursor).
    cursor: AtomicU64,
}

#[derive(Debug)]
struct Shared {
    geom: Geometry,
    index: TreeIndex,
    cores: Vec<CoreCache>,
    /// Serializes multi-tree span allocations (rare: > 16 KiB requests,
    /// or runs no single tree can hold).
    span_lock: Mutex<()>,
    recovery: RecoveryStats,
    metrics: MetricSet,
    c_fast: Counter,
    c_steals: Counter,
    c_scan: Counter,
    c_span: Counter,
    c_reserves: Counter,
    c_hint_misses: Counter,
    g_live: Counter,
    g_frag: Counter,
}

/// The llfree-style bitmap allocator (see crate docs).
///
/// Cloning is cheap and shares all state; [`BitmapAlloc::for_core`]
/// produces a handle bound to a different per-core cache, which is how
/// worker threads avoid contending on one tree.
#[derive(Debug, Clone)]
pub struct BitmapAlloc<S: MemSpace> {
    space: S,
    shared: Arc<Shared>,
    core: usize,
}

impl<S: MemSpace> BitmapAlloc<S> {
    /// Formats or recovers the allocator over `space` with
    /// [`DEFAULT_CORES`] per-core caches.
    ///
    /// # Errors
    ///
    /// [`PaxError::Corrupt`] for undersized spaces, foreign magic, or
    /// counter/bitmap disagreement; propagates space I/O errors.
    pub fn attach(space: S) -> Result<Self> {
        Self::attach_with_cores(space, DEFAULT_CORES)
    }

    /// [`BitmapAlloc::attach`] with an explicit per-core cache count.
    ///
    /// # Errors
    ///
    /// See [`BitmapAlloc::attach`].
    pub fn attach_with_cores(space: S, cores: usize) -> Result<Self> {
        let cores = cores.max(1);
        let geom = Geometry::for_capacity(space.capacity_bytes()).map_err(PaxError::from)?;
        match space.read_u64(layout::OFF_MAGIC)? {
            0 => Self::format(&space, &geom)?,
            MAGIC => Self::validate_header(&space, &geom)?,
            other => return Err(LayoutError::BadMagic(other).into()),
        }
        // Construction and recovery are the same scan (§3.4).
        let (trees, recovery) = recover::rebuild(&space, &geom)?;

        let mut metrics = MetricSet::new("alloc");
        let c_fast = metrics.counter("alloc_fast_hits");
        let c_steals = metrics.counter("alloc_tree_steals");
        let c_scan = metrics.counter("alloc_scan_frames");
        let c_span = metrics.counter("alloc_span_allocs");
        let c_reserves = metrics.counter("alloc_reserves");
        let c_hint_misses = metrics.counter("alloc_hint_misses");
        let g_live = metrics.counter("alloc_live_frames");
        let g_frag = metrics.counter("alloc_frag_permille");
        metrics.add(c_scan, recovery.scan_steps);

        let shared = Shared {
            index: TreeIndex::new(&trees),
            cores: (0..cores)
                .map(|_| CoreCache { tree: AtomicU64::new(0), cursor: AtomicU64::new(0) })
                .collect(),
            span_lock: Mutex::new(()),
            geom,
            recovery,
            metrics,
            c_fast,
            c_steals,
            c_scan,
            c_span,
            c_reserves,
            c_hint_misses,
            g_live,
            g_frag,
        };
        Ok(BitmapAlloc { space, shared: Arc::new(shared), core: 0 })
    }

    /// A handle for core `core` (modulo the configured core count):
    /// same allocator, different per-core cache.
    pub fn for_core(&self, core: usize) -> Self {
        let mut h = self.clone();
        h.core = core % self.shared.cores.len();
        h
    }

    /// The computed space carve-up.
    pub fn geometry(&self) -> &Geometry {
        &self.shared.geom
    }

    /// What the attach-time bitmap scan saw (the recovery cost).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.shared.recovery
    }

    /// Allocated frames right now (volatile view).
    pub fn live_frames(&self) -> u64 {
        let g = &self.shared.geom;
        let free: u64 = self.shared.index.trees.iter().map(|t| t.free()).sum();
        g.frames - free
    }

    /// External fragmentation gauge: permille of trees that are neither
    /// empty nor full. A workload that allocates and frees without
    /// spreading stays near 0; pathological interleaving drives it
    /// toward 1000.
    pub fn fragmentation_permille(&self) -> u64 {
        let g = &self.shared.geom;
        let partial = (0..g.trees)
            .filter(|&t| {
                let f = self.shared.index.trees[t as usize].free();
                f != 0 && f != g.frames_in_tree(t)
            })
            .count() as u64;
        partial * 1000 / g.trees.max(1)
    }

    /// Each tree's longest-free-run hint, for tests that check it never
    /// falls below the bitmap's true longest run.
    #[doc(hidden)]
    pub fn run_hints(&self) -> Vec<u64> {
        self.shared.index.trees.iter().map(|t| t.run_hint()).collect()
    }

    /// Telemetry snapshot (`alloc_fast_hits`, `alloc_tree_steals`,
    /// `alloc_scan_frames`, `alloc_span_allocs`, `alloc_reserves`,
    /// `alloc_hint_misses` — scans of a tree whose hint admitted the
    /// request but which had no run — plus the `alloc_live_frames` /
    /// `alloc_frag_permille` gauges refreshed at snapshot time).
    pub fn metrics_snapshot(&self) -> MetricSnapshot {
        let s = &self.shared;
        for (gauge, now) in
            [(s.g_live, self.live_frames()), (s.g_frag, self.fragmentation_permille())]
        {
            let cur = s.metrics.get(gauge);
            if now >= cur {
                s.metrics.add(gauge, now - cur);
            } else {
                s.metrics.sub(gauge, cur - now);
            }
        }
        s.metrics.snapshot()
    }

    // -- formatting ------------------------------------------------------

    fn format(space: &S, geom: &Geometry) -> Result<()> {
        // A fresh space is zero-filled, but the space may be recycled:
        // clear the bitmap explicitly before declaring frames free.
        space.write_bytes(layout::HEADER_BYTES, &vec![0u8; (geom.words * 8) as usize])?;
        for t in 0..geom.trees {
            space.write_u32(geom.counter_addr(t), geom.frames_in_tree(t) as u32)?;
        }
        space.write_u64(layout::OFF_VERSION, VERSION)?;
        space.write_u64(layout::OFF_FRAMES, geom.frames)?;
        space.write_u64(layout::OFF_FRAME_BYTES, FRAME_BYTES)?;
        space.write_u64(layout::OFF_TREE_FRAMES, TREE_FRAMES)?;
        space.write_u64(layout::OFF_DATA_START, geom.data_start)?;
        space.write_u64(layout::OFF_ROOT, 0)?;
        // Magic last: a half-formatted space re-formats instead of
        // recovering garbage.
        space.write_u64(layout::OFF_MAGIC, MAGIC)
    }

    fn validate_header(space: &S, geom: &Geometry) -> Result<()> {
        let version = space.read_u64(layout::OFF_VERSION)?;
        if version != VERSION {
            return Err(LayoutError::BadVersion(version).into());
        }
        let fb = space.read_u64(layout::OFF_FRAME_BYTES)?;
        if fb != FRAME_BYTES {
            return Err(LayoutError::FrameBytes(fb).into());
        }
        let tf = space.read_u64(layout::OFF_TREE_FRAMES)?;
        if tf != TREE_FRAMES {
            return Err(LayoutError::TreeFrames(tf).into());
        }
        let frames = space.read_u64(layout::OFF_FRAMES)?;
        if frames != geom.frames {
            return Err(LayoutError::Frames { persisted: frames, computed: geom.frames }.into());
        }
        Ok(())
    }

    // -- allocation ------------------------------------------------------

    fn frames_for(len: u64) -> u64 {
        len.div_ceil(FRAME_BYTES).max(1)
    }

    /// Marks `[frame, frame + n)` allocated. Caller holds the tree lock
    /// (single-tree path) or the span lock plus each tree lock in turn.
    fn commit_run(&self, frame: u64, n: u64) -> Result<()> {
        let s = &self.shared;
        lower::flip_run(&self.space, &s.geom, frame, n, true)?;
        let mut left = n;
        let mut f = frame;
        while left > 0 {
            let tree = Geometry::tree_of(f);
            let in_tree = (s.geom.frames_in_tree(tree) - f % TREE_FRAMES).min(left);
            let addr = s.geom.counter_addr(tree);
            let cur = self.space.read_u32(addr)?;
            self.space.write_u32(addr, cur - in_tree as u32)?;
            s.index.trees[tree as usize].sub_free(in_tree);
            f += in_tree;
            left -= in_tree;
        }
        Ok(())
    }

    /// Allocates `need` frames in `tree` if its hint admits them. A scan
    /// that finds no run resets the hint to the tree's exact longest run,
    /// so the tree is not offered for this size again until a free
    /// raises it. A successful allocation leaves the hint as it was
    /// (possibly high): keeping it exact would cost a whole-tree run
    /// count on every allocation.
    fn alloc_in_tree(&self, tree: u64, need: u64, from_cache: bool) -> Result<Option<u64>> {
        let s = &self.shared;
        let entry = &s.index.trees[tree as usize];
        let _g = entry.lock.lock();
        if !entry.admits(need) {
            return Ok(None);
        }
        let nframes = s.geom.frames_in_tree(tree);
        let base = tree * TREE_FRAMES;
        let words = lower::load_words(&self.space, &s.geom, base, nframes)?;
        let cursor = s.cores[self.core].cursor.load(Ordering::Relaxed) % nframes.max(1);
        let scan = lower::find_run(&words, nframes, need, if from_cache { cursor } else { 0 });
        s.metrics.add(s.c_scan, scan.steps);
        let Some(off) = scan.found else {
            let run = lower::max_run(&words, nframes);
            debug_assert!(run < need);
            entry.set_run_hint(run);
            s.metrics.inc(s.c_hint_misses);
            return Ok(None);
        };
        self.commit_run(base + off, need)?;
        s.cores[self.core].cursor.store(off + need, Ordering::Relaxed);
        if from_cache {
            s.metrics.inc(s.c_fast);
        }
        Ok(Some(s.geom.frame_addr(base + off)))
    }

    /// The scalable path: the core's claimed tree, else reserve/steal.
    /// Ends when no tree's hint admits `need`: every failed attempt
    /// leaves the tree it tried below `need`, free count or hint.
    fn alloc_small(&self, need: u64) -> Result<Option<u64>> {
        let s = &self.shared;
        let cache = &s.cores[self.core];
        loop {
            let cached = cache.tree.load(Ordering::Relaxed);
            let tree = if cached != 0 {
                cached - 1
            } else {
                match s.index.reserve(&s.geom, self.core, s.cores.len(), need) {
                    Some(r) => {
                        s.metrics.inc(s.c_reserves);
                        if matches!(r, Reserved::Stolen(_)) {
                            s.metrics.inc(s.c_steals);
                        }
                        cache.tree.store(r.tree() + 1, Ordering::Relaxed);
                        cache.cursor.store(0, Ordering::Relaxed);
                        r.tree()
                    }
                    None => return Ok(None),
                }
            };
            if let Some(addr) = self.alloc_in_tree(tree, need, cached != 0)? {
                return Ok(Some(addr));
            }
            // Dry or too fragmented: drop it and reserve elsewhere.
            s.index.trees[tree as usize].release();
            cache.tree.store(0, Ordering::Relaxed);
        }
    }

    /// The rare path: an exhaustive scan over the whole bitmap for runs
    /// larger than a tree or runs that must straddle trees. Holds the
    /// span lock, then each involved tree's lock in ascending order.
    fn alloc_span(&self, need: u64) -> Result<Option<u64>> {
        let s = &self.shared;
        let _span = s.span_lock.lock();
        let guards: Vec<_> = s.index.trees.iter().map(|t| t.lock.lock()).collect();
        let words = lower::load_words(&self.space, &s.geom, 0, s.geom.frames)?;
        let scan = lower::find_run(&words, s.geom.frames, need, 0);
        s.metrics.add(s.c_scan, scan.steps);
        s.metrics.inc(s.c_span);
        let Some(frame) = scan.found else {
            return Ok(None);
        };
        self.commit_run(frame, need)?;
        drop(guards);
        Ok(Some(s.geom.frame_addr(frame)))
    }
}

impl<S: MemSpace> PmAllocator<S> for BitmapAlloc<S> {
    fn space(&self) -> &S {
        &self.space
    }

    fn alloc(&self, len: u64) -> Result<u64> {
        let need = Self::frames_for(len);
        let got = if need <= TREE_FRAMES { self.alloc_small(need)? } else { None };
        match got {
            Some(addr) => Ok(addr),
            None => match self.alloc_span(need)? {
                Some(addr) => Ok(addr),
                None => Err(PaxError::OutOfMemory {
                    requested: len,
                    capacity: self.space.capacity_bytes(),
                }),
            },
        }
    }

    fn free(&self, addr: u64, len: u64) -> Result<()> {
        let s = &self.shared;
        let need = Self::frames_for(len);
        let frame = s.geom.frame_of(addr).ok_or_else(|| {
            PaxError::Corrupt(format!("pax-alloc: free of {addr:#x}, not a frame address"))
        })?;
        if frame + need > s.geom.frames {
            return Err(PaxError::Corrupt(format!(
                "pax-alloc: free of {need} frames at {frame} runs past the pool"
            )));
        }
        // Tree by tree, ascending, one lock at a time.
        let mut f = frame;
        let mut left = need;
        while left > 0 {
            let tree = Geometry::tree_of(f);
            let in_tree = (s.geom.frames_in_tree(tree) - f % TREE_FRAMES).min(left);
            let entry = &s.index.trees[tree as usize];
            let _g = entry.lock.lock();
            let written = lower::flip_run(&self.space, &s.geom, f, in_tree, false)?;
            let caddr = s.geom.counter_addr(tree);
            let cur = self.space.read_u32(caddr)?;
            self.space.write_u32(caddr, cur + in_tree as u32)?;
            entry.add_free(in_tree);
            // A hint at or above the free count already bounds every run.
            if entry.run_hint() < entry.free() {
                let base = tree * TREE_FRAMES;
                let end = base + s.geom.frames_in_tree(tree);
                let run = lower::run_through(f, in_tree, base, end, |w| {
                    match written.iter().find(|&&(i, _)| i == w) {
                        Some(&(_, v)) => Ok(v),
                        None => self.space.read_u64(s.geom.word_addr(w)),
                    }
                })?;
                if run > entry.run_hint() {
                    entry.set_run_hint(run);
                }
            }
            f += in_tree;
            left -= in_tree;
        }
        Ok(())
    }

    fn root(&self) -> Result<u64> {
        self.space.read_u64(layout::OFF_ROOT)
    }

    fn set_root(&self, addr: u64) -> Result<()> {
        self.space.write_u64(layout::OFF_ROOT, addr)
    }

    fn live_allocations(&self) -> Result<u64> {
        Ok(self.live_frames())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VolatileSpace;

    fn alloc_1m() -> BitmapAlloc<VolatileSpace> {
        BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap()
    }

    #[test]
    fn alloc_free_roundtrip_and_reuse() {
        let a = alloc_1m();
        let x = a.alloc(100).unwrap();
        let y = a.alloc(100).unwrap();
        assert_ne!(x, y);
        assert_eq!(x % 8, 0);
        assert_eq!(a.live_frames(), 8); // 2 * ceil(100/32)
        a.free(x, 100).unwrap();
        a.free(y, 100).unwrap();
        assert_eq!(a.live_frames(), 0);
        // Freed frames are reused rather than leaked.
        let z = a.alloc(100).unwrap();
        assert!(z >= a.geometry().data_start);
        a.free(z, 100).unwrap();
    }

    #[test]
    fn double_free_is_corrupt() {
        let a = alloc_1m();
        let x = a.alloc(64).unwrap();
        a.free(x, 64).unwrap();
        assert!(matches!(a.free(x, 64), Err(PaxError::Corrupt(_))));
        // Freeing an address never handed out (metadata region) too.
        assert!(matches!(a.free(8, 8), Err(PaxError::Corrupt(_))));
    }

    #[test]
    fn data_never_overlaps_metadata() {
        let a = alloc_1m();
        for _ in 0..100 {
            let x = a.alloc(256).unwrap();
            assert!(x >= a.geometry().data_start);
            assert!(x + 256 <= a.space().capacity_bytes());
        }
    }

    #[test]
    fn spans_larger_than_a_tree() {
        let a = alloc_1m();
        let big = TREE_FRAMES * FRAME_BYTES * 3; // 3 trees worth
        let x = a.alloc(big).unwrap();
        assert_eq!(a.live_frames(), TREE_FRAMES * 3);
        a.free(x, big).unwrap();
        assert_eq!(a.live_frames(), 0);
        let snap = a.metrics_snapshot();
        assert!(snap.counter("alloc_span_allocs") >= 1);
    }

    #[test]
    fn reattach_recovers_live_state() {
        let space = VolatileSpace::new(1 << 20);
        let (x, y);
        {
            let a = BitmapAlloc::attach(space.clone()).unwrap();
            x = a.alloc_bytes(b"persist me").unwrap();
            y = a.alloc(4096).unwrap();
            a.free(y, 4096).unwrap();
            a.set_root(x).unwrap();
        }
        let b = BitmapAlloc::attach(space).unwrap();
        assert_eq!(b.root().unwrap(), x);
        assert_eq!(b.live_frames(), 1);
        assert_eq!(b.recovery_stats().live_frames, 1);
        assert_eq!(b.recovery_stats().scanned_frames, b.geometry().frames);
        let mut buf = [0u8; 10];
        b.space().read_bytes(x, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
        // y's frames came back: allocating them again must not collide.
        let z = b.alloc(4096).unwrap();
        assert!(z + 4096 <= b.space().capacity_bytes());
        let _ = y;
    }

    #[test]
    fn run_hints_steer_requests_past_fragmented_trees() {
        let space = VolatileSpace::new(1 << 20);
        let a = BitmapAlloc::attach(space.clone()).unwrap();
        let tree_of = |x: u64| Geometry::tree_of(a.geometry().frame_of(x).unwrap());
        // Carpet tree 0 with single frames, then free every other one:
        // 256 free frames, no run longer than one.
        let carpet: Vec<u64> = (0..TREE_FRAMES).map(|_| a.alloc(32).unwrap()).collect();
        assert!(carpet.iter().all(|&x| tree_of(x) == 0));
        for &x in carpet.iter().step_by(2) {
            a.free(x, 32).unwrap();
        }
        // Allocations left the hint high; one failed scan makes it exact.
        assert_eq!(a.run_hints()[0], TREE_FRAMES);
        assert_eq!(tree_of(a.alloc(64).unwrap()), 1);
        assert_eq!(a.run_hints()[0], 1);
        // From then on tree 0 is skipped without a scan.
        a.shared.index.trees[1].release();
        a.shared.cores[0].tree.store(0, Ordering::Relaxed);
        assert_eq!(tree_of(a.alloc(64).unwrap()), 1);
        let snap = a.metrics_snapshot();
        assert_eq!(snap.counter("alloc_hint_misses"), 1);
        assert_eq!(snap.counter("alloc_span_allocs"), 0);
        // Freeing the frame between two holes raises the hint to the
        // joined run exactly.
        a.free(carpet[1], 32).unwrap();
        assert_eq!(a.run_hints()[0], 3);
        // Re-attaching rebuilds exact hints from the bitmap.
        let b = BitmapAlloc::attach(space).unwrap();
        assert_eq!(&b.run_hints()[..2], &[3, TREE_FRAMES - 4]);
        let g = b.geometry();
        for t in 2..g.trees {
            assert_eq!(b.run_hints()[t as usize], g.frames_in_tree(t), "empty tree {t}");
        }
    }

    #[test]
    fn counter_mismatch_is_detected_on_attach() {
        let space = VolatileSpace::new(1 << 20);
        let g;
        {
            let a = BitmapAlloc::attach(space.clone()).unwrap();
            a.alloc(64).unwrap();
            g = *a.geometry();
        }
        // Corrupt tree 0's persisted counter.
        let cur = space.read_u32(g.counter_addr(0)).unwrap();
        space.write_u32(g.counter_addr(0), cur + 1).unwrap();
        let err = BitmapAlloc::attach(space).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn foreign_magic_is_rejected() {
        let space = VolatileSpace::new(1 << 20);
        space.write_u64(0, 0x1234).unwrap();
        assert!(BitmapAlloc::attach(space).is_err());
    }

    #[test]
    fn out_of_memory_is_reported_not_looped() {
        let a = BitmapAlloc::attach(VolatileSpace::new(4096)).unwrap();
        let frames = a.geometry().frames;
        let x = a.alloc(frames * FRAME_BYTES).unwrap();
        assert!(matches!(a.alloc(32), Err(PaxError::OutOfMemory { .. })));
        a.free(x, frames * FRAME_BYTES).unwrap();
        assert!(a.alloc(32).is_ok());
    }

    #[test]
    fn per_core_handles_use_distinct_trees() {
        let a = BitmapAlloc::attach_with_cores(VolatileSpace::new(1 << 20), 2).unwrap();
        let b = a.for_core(1);
        let xa = a.alloc(32).unwrap();
        let xb = b.alloc(32).unwrap();
        let ta = Geometry::tree_of(a.geometry().frame_of(xa).unwrap());
        let tb = Geometry::tree_of(b.geometry().frame_of(xb).unwrap());
        assert_ne!(ta, tb, "cores should claim different trees");
        // Second allocs hit the claimed-tree fast path.
        a.alloc(32).unwrap();
        b.alloc(32).unwrap();
        assert!(a.metrics_snapshot().counter("alloc_fast_hits") >= 2);
    }

    #[test]
    fn fragmentation_gauge_moves() {
        let a = alloc_1m();
        assert_eq!(a.fragmentation_permille(), 0);
        let x = a.alloc(32).unwrap();
        assert!(a.fragmentation_permille() > 0);
        a.free(x, 32).unwrap();
        assert_eq!(a.fragmentation_permille(), 0);
    }

    #[test]
    fn parallel_allocs_are_disjoint() {
        let a = BitmapAlloc::attach_with_cores(crate::StripedSpace::new(1 << 20), 4).unwrap();
        let mut handles = Vec::new();
        for core in 0..4 {
            let h = a.for_core(core);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for i in 0..200u64 {
                    let len = 32 + (i % 7) * 32;
                    let addr = h.alloc(len).unwrap();
                    got.push((addr, len));
                }
                for (addr, len) in &got[..100] {
                    h.free(*addr, *len).unwrap();
                }
                got[100..].to_vec()
            }));
        }
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for h in handles {
            for (addr, len) in h.join().unwrap() {
                intervals.push((
                    addr,
                    addr + BitmapAlloc::<VolatileSpace>::frames_for(len) * FRAME_BYTES,
                ));
            }
        }
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
        assert_eq!(a.live_frames(), intervals.iter().map(|(s, e)| (e - s) / FRAME_BYTES).sum());
    }
}
