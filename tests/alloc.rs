//! Allocator tests: the llfree-style [`BitmapAlloc`] runs seeded
//! schedules behind the [`PmAllocator`] trait and must keep the
//! allocator contract:
//!
//! * returned blocks are 8-aligned, disjoint, and inside the space;
//! * data written to a block survives every later alloc/free;
//! * freeing everything returns `live_allocations()` to 0 (no leaks);
//! * after an armed crash at *any* durable-write step, re-attaching
//!   recovers exactly the blocks live at the recovered epoch — contents
//!   intact, accounting exact, and fresh allocations disjoint from them
//!   (§3.4: recovering the pool recovers its allocator);
//! * the volatile longest-free-run hints never fall below a tree's true
//!   longest run, and re-attaching rebuilds them exactly.
//!
//! The schedules run on the checker in `tests/common/`, whose oracle
//! checks all of the above as the schedule runs and after recovery.

mod common;

use common::{check_or_fail, fragmented_blocks, schedule, settle, sweep, Mix, Point, Step};
use libpax::{BitmapAlloc, PaxConfig, PaxPool, VPm, VolatileSpace};
use pax_pm::PoolConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random alloc/free schedules hold every invariant, and freeing
/// everything leaves nothing live.
#[test]
fn schedules_hold_allocator_invariants() {
    let mut rng = StdRng::seed_from_u64(0xa110c);
    for _ in 0..12 {
        let n = rng.gen_range(1..140);
        let mut steps = schedule(&mut rng, Mix::Blocks, n);
        steps.extend((0..n).map(|_| Step::Free(0, 0)));
        check_or_fail(&Point::BASE.rig(), &settle(&steps), None);
    }
}

/// A random and a fragmenting schedule crashed at sampled durable-write
/// steps across the whole run: recovery is leak-free and intact every
/// time, and the run hints stay sound.
#[test]
fn armed_crash_sweep_recovers_the_allocator() {
    let rig = Point::BASE.rig();
    for seed in [7u64, 40] {
        let mut rng = StdRng::seed_from_u64(seed);
        for steps in [settle(&schedule(&mut rng, Mix::Blocks, 60)), fragmented_blocks(&mut rng)] {
            sweep(&rig, &steps, 24);
        }
    }
}

fn pool_config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(1 << 20).with_log_bytes(8 << 20))
}

// -- structures over the bitmap allocator --------------------------------

#[test]
fn structures_run_unmodified_over_bitmap_alloc() {
    // One structure per space (one root pointer each).
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
