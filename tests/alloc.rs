//! Differential allocator tests: the first-fit [`Heap`] and the
//! llfree-style [`BitmapAlloc`] run the same schedules behind the same
//! [`PmAllocator`] trait and must both keep the allocator contract:
//!
//! * returned blocks are 8-aligned, disjoint, and inside the space;
//! * data written to a block survives every later alloc/free;
//! * freeing everything returns `live_allocations()` to 0 (no leaks);
//! * after an armed crash at *any* durable-write step, re-attaching
//!   recovers exactly the blocks live at the recovered epoch — contents
//!   intact, accounting exact, and fresh allocations disjoint from them
//!   (§3.4: recovering the pool recovers its allocator);
//! * the bitmap allocator's volatile longest-free-run hints never fall
//!   below a tree's true longest run, and re-attaching rebuilds them
//!   exactly.

use std::collections::HashMap;

use libpax::balloc::layout::TREE_FRAMES;
use libpax::{
    BitmapAlloc, Heap, MemSpace, PaxConfig, PaxError, PaxPool, PmAllocator, VPm, VolatileSpace,
};
use pax_pm::PoolConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fill a block with a pattern derived from `tag`, so later integrity
/// checks can detect any cross-block clobbering.
fn pattern(tag: u64, len: u64) -> Vec<u8> {
    (0..len).map(|i| (tag.wrapping_mul(31).wrapping_add(i) % 251) as u8).collect()
}

/// One live block in the oracle: where, how long, which fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    addr: u64,
    len: u64,
    tag: u64,
}

fn write_block<S: MemSpace, A: PmAllocator<S>>(a: &A, len: u64, tag: u64) -> libpax::Result<Block> {
    let addr = a.alloc(len)?;
    a.space().write_bytes(addr, &pattern(tag, len))?;
    Ok(Block { addr, len, tag })
}

fn check_block<S: MemSpace, A: PmAllocator<S>>(a: &A, b: &Block) -> Result<(), String> {
    let mut buf = vec![0u8; b.len as usize];
    a.space().read_bytes(b.addr, &mut buf).map_err(|e| format!("read {:#x}: {e}", b.addr))?;
    if buf != pattern(b.tag, b.len) {
        return Err(format!("block {:#x} (+{}) lost its fill pattern", b.addr, b.len));
    }
    Ok(())
}

fn assert_disjoint(blocks: &[Block]) -> Result<(), String> {
    // Byte-range disjointness; clobbering of any padding the allocator
    // reserves beyond `len` is caught by the fill-pattern checks instead.
    let mut spans: Vec<(u64, u64)> = blocks.iter().map(|b| (b.addr, b.addr + b.len)).collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        if w[0].1 > w[1].0 {
            return Err(format!("blocks overlap: {:?} vs {:?}", w[0], w[1]));
        }
    }
    Ok(())
}

/// Runs a schedule of (selector, len) ops on `a`; returns the surviving
/// blocks. Selector < 160 allocates, else frees a pseudo-random live
/// block — biased toward allocation so the live set grows.
fn run_schedule<S: MemSpace, A: PmAllocator<S>>(
    a: &A,
    ops: &[(u8, u16)],
) -> Result<Vec<Block>, String> {
    let mut live: Vec<Block> = Vec::new();
    for (i, &(sel, rawlen)) in ops.iter().enumerate() {
        if sel < 160 || live.is_empty() {
            let len = u64::from(rawlen % 480 + 1);
            let b = write_block(a, len, i as u64).map_err(|e| format!("alloc #{i}: {e}"))?;
            if b.addr % 8 != 0 {
                return Err(format!("alloc #{i} returned misaligned {:#x}", b.addr));
            }
            live.push(b);
        } else {
            let victim = live.swap_remove(sel as usize * (i + 1) % live.len());
            a.free(victim.addr, victim.len).map_err(|e| format!("free #{i}: {e}"))?;
        }
        // Integrity + disjointness hold after every step, not just at the
        // end — catches transient clobbering by allocator metadata.
        if i % 16 == 0 {
            assert_disjoint(&live)?;
            for b in &live {
                check_block(a, b)?;
            }
        }
    }
    assert_disjoint(&live)?;
    for b in &live {
        check_block(a, b)?;
    }
    Ok(live)
}

fn drain<S: MemSpace, A: PmAllocator<S>>(a: &A, live: Vec<Block>) -> Result<(), String> {
    for b in live {
        check_block(a, &b)?;
        a.free(b.addr, b.len).map_err(|e| format!("drain free: {e}"))?;
    }
    let n = a.live_allocations().map_err(|e| format!("live: {e}"))?;
    if n != 0 {
        return Err(format!("leak: {n} live after freeing everything"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The same random schedule holds every invariant on both allocators.
    #[test]
    fn schedules_hold_invariants_on_both_allocators(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..140),
    ) {
        let heap = Heap::attach(VolatileSpace::new(1 << 20)).unwrap();
        let live = run_schedule(&heap, &ops).map_err(TestCaseError::fail)?;
        drain(&heap, live).map_err(TestCaseError::fail)?;

        let bm = BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap();
        let live = run_schedule(&bm, &ops).map_err(TestCaseError::fail)?;
        drain(&bm, live).map_err(TestCaseError::fail)?;
    }
}

// -- crash fuzz over vPM -------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Which {
    Heap,
    Bitmap,
}

/// Either allocator attached to a pool's vPM. Implements [`PmAllocator`]
/// itself, so the same generic helpers drive both (the differential
/// requirement).
#[derive(Clone)]
enum VpmAlloc {
    Heap(Heap<VPm>),
    Bitmap(BitmapAlloc<VPm>),
}

impl VpmAlloc {
    fn attach(which: Which, vpm: VPm) -> libpax::Result<Self> {
        Ok(match which {
            Which::Heap => VpmAlloc::Heap(Heap::attach(vpm)?),
            Which::Bitmap => VpmAlloc::Bitmap(BitmapAlloc::attach(vpm)?),
        })
    }

    /// Checks every tree's run hint against the bitmap: never below the
    /// tree's longest free run, and equal to it when `exact`. Counted bit
    /// by bit; a hint at or above the tree's free count needs no count.
    fn check_run_hints(&self, exact: bool) -> libpax::Result<()> {
        let VpmAlloc::Bitmap(a) = self else {
            return Ok(());
        };
        let g = *a.geometry();
        let mut raw = vec![0u8; (g.words * 8) as usize];
        PmAllocator::space(a).read_bytes(g.word_addr(0), &mut raw)?;
        let words: Vec<u64> =
            raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        let used = |f: u64| words[(f / 64) as usize] >> (f % 64) & 1 == 1;
        for (t, hint) in (0..g.trees).zip(a.run_hints()) {
            let frames = TREE_FRAMES * t..TREE_FRAMES * t + g.frames_in_tree(t);
            let free = frames.clone().filter(|&f| !used(f)).count() as u64;
            if hint >= free && !exact {
                continue;
            }
            let (mut run, mut longest) = (0u64, 0u64);
            for f in frames {
                run = if used(f) { 0 } else { run + 1 };
                longest = longest.max(run);
            }
            if hint < longest || (exact && hint != longest) {
                return Err(PaxError::Corrupt(format!(
                    "tree {t}: run hint {hint}, longest free run {longest} (exact: {exact})"
                )));
            }
        }
        Ok(())
    }

    /// What `live_allocations` should report for `blocks` (the unit is
    /// allocator-specific: blocks for Heap, frames for Bitmap).
    fn expected_live(&self, blocks: &[Block]) -> u64 {
        match self {
            VpmAlloc::Heap(_) => blocks.len() as u64,
            VpmAlloc::Bitmap(_) => blocks.iter().map(|b| b.len.div_ceil(32).max(1)).sum(),
        }
    }
}

impl PmAllocator<VPm> for VpmAlloc {
    fn space(&self) -> &VPm {
        match self {
            VpmAlloc::Heap(a) => a.space(),
            VpmAlloc::Bitmap(a) => PmAllocator::space(a),
        }
    }

    fn alloc(&self, len: u64) -> libpax::Result<u64> {
        match self {
            VpmAlloc::Heap(a) => a.alloc(len),
            VpmAlloc::Bitmap(a) => PmAllocator::alloc(a, len),
        }
    }

    fn free(&self, addr: u64, len: u64) -> libpax::Result<()> {
        match self {
            VpmAlloc::Heap(a) => a.free(addr, len),
            VpmAlloc::Bitmap(a) => PmAllocator::free(a, addr, len),
        }
    }

    fn root(&self) -> libpax::Result<u64> {
        match self {
            VpmAlloc::Heap(a) => a.root(),
            VpmAlloc::Bitmap(a) => PmAllocator::root(a),
        }
    }

    fn set_root(&self, addr: u64) -> libpax::Result<()> {
        match self {
            VpmAlloc::Heap(a) => a.set_root(addr),
            VpmAlloc::Bitmap(a) => PmAllocator::set_root(a, addr),
        }
    }

    fn live_allocations(&self) -> libpax::Result<u64> {
        match self {
            VpmAlloc::Heap(a) => a.live_allocations(),
            VpmAlloc::Bitmap(a) => PmAllocator::live_allocations(a),
        }
    }
}

fn pool_config() -> PaxConfig {
    // Log capacity far above any schedule, so no implicit epoch closes.
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(1 << 20).with_log_bytes(8 << 20))
}

/// The alloc/free shapes the crash sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// 60 seeded steps: 60 % allocations of 16–299 bytes, else a random
    /// live block is freed.
    Mixed,
    /// 160 allocations of 1–8 frames, every other one freed, then a
    /// re-attach (exact hints) and 120 steps of 1–8-frame allocations
    /// over the holes with every third step a random free: trees go
    /// partial with short runs, placement leans on the run hints, and
    /// frees that join holes must raise them.
    Fragmented,
}

/// One schedule step: allocate this many bytes, or free the live block
/// at this index.
enum Step {
    Alloc(u64),
    Free(usize),
}

impl Schedule {
    fn steps(self) -> usize {
        match self {
            Schedule::Mixed => 60,
            Schedule::Fragmented => 360,
        }
    }

    fn step(self, i: usize, rng: &mut StdRng, live: usize) -> Step {
        match self {
            Schedule::Mixed if live == 0 || rng.gen_range(0..10u32) < 6 => {
                Step::Alloc(rng.gen_range(16..300u64))
            }
            Schedule::Mixed => Step::Free(rng.gen_range(0..live)),
            // Frees walk down from the last block, so earlier indices
            // still name blocks in allocation order.
            Schedule::Fragmented if (160..240).contains(&i) => Step::Free(159 - 2 * (i - 160)),
            Schedule::Fragmented if i >= 240 && i.is_multiple_of(3) => {
                Step::Free(rng.gen_range(0..live))
            }
            Schedule::Fragmented => Step::Alloc(rng.gen_range(1..9u64) * 32),
        }
    }

    /// The step before which the allocator is attached afresh.
    fn reattach_at(self) -> Option<usize> {
        match self {
            Schedule::Mixed => None,
            Schedule::Fragmented => Some(240),
        }
    }
}

/// Runs a seeded alloc/free/persist schedule with the crash clock armed
/// `arm` durable-write steps in (never, when `None`), crashes, reopens,
/// re-attaches, and verifies the §3.4 recovery contract. Returns the
/// clock steps the unarmed run consumed, for sweep planning.
fn run_crash_schedule(
    which: Which,
    schedule: Schedule,
    seed: u64,
    arm: Option<u64>,
) -> Result<u64, String> {
    let pool = PaxPool::create(pool_config()).map_err(|e| format!("create: {e}"))?;
    let clock = pool.crash_clock().map_err(|e| format!("clock: {e}"))?;
    if let Some(offset) = arm {
        clock.arm(clock.steps_taken() + offset);
    }

    let mut live: Vec<Block> = Vec::new();
    let mut at_close: HashMap<u64, Vec<Block>> = HashMap::new();
    // The fresh pool's committed epoch: 0, the empty image.
    at_close.insert(0, Vec::new());
    let mut tag = 1u64;

    // The armed clock can fire inside attach itself — a legal crash
    // point (mid-format / mid-recovery); the contract still must hold.
    let mut run = || -> libpax::Result<()> {
        let mut a = VpmAlloc::attach(which, pool.vpm())?;
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..schedule.steps() {
            if schedule.reattach_at() == Some(i) {
                a = VpmAlloc::attach(which, pool.vpm())?;
            }
            match schedule.step(i, &mut rng, live.len()) {
                Step::Alloc(len) => {
                    live.push(write_block(&a, len, tag)?);
                    tag += 1;
                }
                Step::Free(idx) => {
                    let b = live.remove(idx);
                    a.free(b.addr, b.len)?;
                }
            }
            a.check_run_hints(false)?;
            if i % 6 == 5 {
                let e = pool.persist()?;
                at_close.insert(e, live.clone());
            }
        }
        let e = pool.persist()?;
        at_close.insert(e, live.clone());
        Ok(())
    };
    if let Err(e) = run() {
        if !e.is_crash() {
            return Err(format!("[{which:?} {schedule:?}] non-crash failure mid-schedule: {e}"));
        }
    }
    let steps_taken = clock.steps_taken();

    // Crash, reopen, re-attach: recovery is the same attach call.
    let pm = pool.crash().map_err(|e| format!("crash: {e}"))?;
    let pool = PaxPool::open(pm, pool_config()).map_err(|e| format!("open: {e}"))?;
    let committed = pool.committed_epoch().map_err(|e| format!("committed: {e}"))?;
    let expected = at_close
        .get(&committed)
        .ok_or(format!("[{which:?}] recovered epoch {committed} was never a close point"))?;

    let a = VpmAlloc::attach(which, pool.vpm())
        .map_err(|e| format!("[{which:?}] re-attach after crash at epoch {committed}: {e}"))?;
    a.check_run_hints(true).map_err(|e| format!("[{which:?}] re-attach at {committed}: {e}"))?;

    // 1. Every block live at the recovered epoch reads back intact.
    for b in expected {
        check_block(&a, b).map_err(|e| format!("[{which:?}] epoch {committed}: {e}"))?;
    }
    // 2. Accounting is exact: no leaked, no lost allocations.
    let got = a.live_allocations().map_err(|e| format!("live: {e}"))?;
    if got != a.expected_live(expected) {
        return Err(format!(
            "[{which:?}] epoch {committed}: live_allocations {got} != expected {} ({} blocks)",
            a.expected_live(expected),
            expected.len(),
        ));
    }
    // 3. The recovered allocator keeps allocating correctly: new blocks
    //    land disjoint from every recovered block (overwriting none).
    let mut all = expected.clone();
    for i in 0..12u64 {
        let b = write_block(&a, 64 + i * 24, 0xC0DE + i).map_err(|e| format!("post: {e}"))?;
        all.push(b);
    }
    assert_disjoint(&all).map_err(|e| format!("[{which:?}] after recovery: {e}"))?;
    for b in &all {
        check_block(&a, b).map_err(|e| format!("[{which:?}] post-recovery: {e}"))?;
    }
    Ok(steps_taken)
}

/// The acceptance differential: for each allocator and schedule, crash
/// at every sampled durable-write step of the same seeded schedule and
/// prove recovery is leak-free and intact each time.
#[test]
fn armed_crash_sweep_recovers_both_allocators() {
    for which in [Which::Heap, Which::Bitmap] {
        for schedule in [Schedule::Mixed, Schedule::Fragmented] {
            for seed in [7u64, 40] {
                let total = run_crash_schedule(which, schedule, seed, None)
                    .unwrap_or_else(|e| panic!("unarmed {schedule:?} run failed: {e}"));
                assert!(total > 0);
                // Sweep ~24 crash points spread over the whole schedule.
                let stride = (total / 24).max(1);
                let mut arm = 1;
                while arm <= total {
                    run_crash_schedule(which, schedule, seed, Some(arm)).unwrap_or_else(|e| {
                        panic!("{schedule:?} crash at step {arm}/{total}: {e}")
                    });
                    arm += stride;
                }
            }
        }
    }
}

// -- structures over the bitmap allocator --------------------------------

#[test]
fn structures_run_unmodified_over_bitmap_alloc() {
    // One structure per space (one root pointer each), same volatile-
    // style code as over Heap.
    let v: libpax::PVec<u64, _, _> =
        libpax::PVec::attach(BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap()).unwrap();
    for i in 0..500 {
        v.push(i).unwrap();
    }
    assert_eq!(v.len().unwrap(), 500);
    assert_eq!(v.get(499).unwrap(), Some(499));

    let m: libpax::PHashMap<u64, u64, _, _> =
        libpax::PHashMap::attach(BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap())
            .unwrap();
    for i in 0..300 {
        m.insert(i, i * 10).unwrap();
    }
    assert_eq!(m.get(123).unwrap(), Some(1230));
    m.remove(123).unwrap();
    assert_eq!(m.get(123).unwrap(), None);

    let l: libpax::PList<u32, _, _> =
        libpax::PList::attach(BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap()).unwrap();
    l.push_back(2).unwrap();
    l.push_front(1).unwrap();
    assert_eq!(l.to_vec().unwrap(), vec![1, 2]);

    let t: libpax::PBTreeMap<u64, u64, _, _> =
        libpax::PBTreeMap::attach(BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap())
            .unwrap();
    for i in (0..100).rev() {
        t.insert(i, i).unwrap();
    }
    assert_eq!(t.first().unwrap(), Some((0, 0)));

    let r: libpax::PRing<u64, _, _> =
        libpax::PRing::create(BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap(), 8)
            .unwrap();
    r.push(9).unwrap();
    assert_eq!(r.pop().unwrap(), Some(9));
}

/// A structure living on the bitmap allocator survives crash + reopen
/// through the `Persistent::new_in` facade.
#[test]
fn persistent_new_in_recovers_over_bitmap_alloc() {
    let pool = PaxPool::create(pool_config()).unwrap();
    {
        let alloc = BitmapAlloc::attach(pool.vpm()).unwrap();
        let ht: libpax::Persistent<libpax::PHashMap<u64, u64, VPm, BitmapAlloc<VPm>>> =
            libpax::Persistent::new_in(alloc).unwrap();
        for i in 0..200 {
            ht.insert(i, i + 1000).unwrap();
        }
        pool.persist().unwrap();
    }
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, pool_config()).unwrap();
    let alloc = BitmapAlloc::attach(pool.vpm()).unwrap();
    assert!(alloc.recovery_stats().live_frames > 0);
    let ht: libpax::Persistent<libpax::PHashMap<u64, u64, VPm, BitmapAlloc<VPm>>> =
        libpax::Persistent::new_in(alloc).unwrap();
    for i in 0..200 {
        assert_eq!(ht.get(i).unwrap(), Some(i + 1000));
    }
}
