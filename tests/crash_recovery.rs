//! End-to-end crash/recovery tests through the full stack: structure →
//! allocator → vPM → host cache → CXL-style requests → PAX device → pool.

use libpax::{BitmapAlloc, MemSpace, PHashMap, PVec, PaxConfig, PaxPool, PmAllocator};
use pax_pm::PoolConfig;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(32 << 20))
}

#[test]
fn unpersisted_operations_roll_back() {
    let pool = PaxPool::create(config()).unwrap();
    {
        let map: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
        map.insert(1, 100).unwrap();
        map.insert(2, 200).unwrap();
        pool.persist().unwrap();
        map.insert(3, 300).unwrap();
        map.remove(1).unwrap();
        // no persist
    }
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert_eq!(map.get(1).unwrap(), Some(100), "remove rolled back");
    assert_eq!(map.get(2).unwrap(), Some(200));
    assert_eq!(map.get(3).unwrap(), None, "unpersisted insert rolled back");
    assert_eq!(map.len().unwrap(), 2);
}

#[test]
fn allocator_state_recovers_with_the_data() {
    // §3.4: allocator state lives in vPM, so rollback covers it: an
    // allocation made in a lost epoch must be available again.
    let pool = PaxPool::create(config()).unwrap();
    let alloc = BitmapAlloc::attach(pool.vpm()).unwrap();
    let live_before = alloc.live_allocations().unwrap();
    pool.persist().unwrap();

    alloc.alloc(256).unwrap();
    alloc.alloc(256).unwrap();
    // Two 256-byte allocations are eight 32-byte frames each.
    assert_eq!(alloc.live_allocations().unwrap(), live_before + 16);

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let alloc = BitmapAlloc::attach(pool.vpm()).unwrap();
    assert_eq!(
        alloc.live_allocations().unwrap(),
        live_before,
        "allocations from the lost epoch must be rolled back"
    );
}

#[test]
fn repeated_crashes_between_epochs() {
    let mut pm = None;
    for round in 0u64..5 {
        let pool = match pm.take() {
            None => PaxPool::create(config()).unwrap(),
            Some(p) => PaxPool::open(p, config()).unwrap(),
        };
        let vec: PVec<u64, _> = PVec::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
        assert_eq!(vec.len().unwrap(), round, "round {round}");
        vec.push(round).unwrap();
        pool.persist().unwrap();
        // Post-persist garbage that must vanish:
        vec.push(999).unwrap();
        pm = Some(pool.crash().unwrap());
    }
    let pool = PaxPool::open(pm.unwrap(), config()).unwrap();
    let vec: PVec<u64, _> = PVec::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert_eq!(vec.to_vec().unwrap(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn crash_during_persist_preserves_previous_snapshot() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    for i in 0..32u64 {
        vpm.write_u64(i * 64, i + 1).unwrap();
    }
    pool.persist().unwrap(); // epoch 1

    for i in 0..32u64 {
        vpm.write_u64(i * 64, 1000 + i).unwrap();
    }
    // Cut power a few durable writes into the persist sweep. (The
    // batched write-back pipeline covers 32 contiguous lines in a
    // handful of steps, so arm early to land before the commit.)
    let clock = pool.crash_clock().unwrap();
    clock.arm(clock.steps_taken() + 2);
    let err = pool.persist().unwrap_err();
    assert!(err.is_crash());

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    assert_eq!(pool.committed_epoch().unwrap(), 1);
    let vpm = pool.vpm();
    for i in 0..32u64 {
        assert_eq!(vpm.read_u64(i * 64).unwrap(), i + 1, "line {i} must hold epoch-1 value");
    }
}

#[test]
fn crash_at_every_early_step_of_a_persist() {
    // Systematic sweep: arm the crash clock at each of the first N
    // device steps of an epoch's persist; recovery must always restore
    // the previous snapshot exactly.
    for crash_step in 0..24u64 {
        let pool = PaxPool::create(config()).unwrap();
        let vpm = pool.vpm();
        vpm.write_u64(0, 7).unwrap();
        vpm.write_u64(640, 8).unwrap();
        pool.persist().unwrap();

        for i in 0..8u64 {
            vpm.write_u64(i * 64, 100 + i).unwrap();
        }
        let clock = pool.crash_clock().unwrap();
        clock.arm(clock.steps_taken() + crash_step);
        let result = pool.persist();

        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, config()).unwrap();
        let vpm = pool.vpm();
        match result {
            Err(e) => {
                assert!(e.is_crash(), "step {crash_step}: {e}");
                assert_eq!(pool.committed_epoch().unwrap(), 1, "step {crash_step}");
                assert_eq!(vpm.read_u64(0).unwrap(), 7, "step {crash_step}");
                assert_eq!(vpm.read_u64(640).unwrap(), 8, "step {crash_step}");
                for i in 1..8u64 {
                    if i * 64 != 640 {
                        assert_eq!(vpm.read_u64(i * 64).unwrap(), 0, "step {crash_step} line {i}");
                    }
                }
            }
            Ok(epoch) => {
                // The clock fired after the commit (or not at all):
                // epoch 2 must be fully visible.
                assert_eq!(epoch, 2);
                for i in 0..8u64 {
                    assert_eq!(vpm.read_u64(i * 64).unwrap(), 100 + i, "step {crash_step}");
                }
            }
        }
    }
}

#[test]
fn recovery_is_transparent_for_fresh_pools() {
    // "There is no difference between constructing a new persistent map
    // and recovering one" (§3.4).
    let pool = PaxPool::create(config()).unwrap();
    let report = pool.recovery_report().unwrap();
    assert_eq!(report.rolled_back, 0);
    assert_eq!(report.committed_epoch, 0);
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert!(map.is_empty().unwrap());
}
