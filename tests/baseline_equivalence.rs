//! Cross-mechanism equivalence: the same structure code must compute the
//! same result on every memory space, and the crash-consistency
//! mechanisms must differ exactly where the paper says they do.

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxPool, VolatileSpace};
use pax_baselines::{Costed, DirectPmSpace, HybridSpace, PageFaultSpace, RedoSpace, WalSpace};
use pax_pm::PoolConfig;

fn pool_config() -> PoolConfig {
    PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(64 << 20)
}

fn drive<S: MemSpace>(space: S) -> Vec<(u64, u64)> {
    let m: PHashMap<u64, u64, S> = PHashMap::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
    for k in 0..150u64 {
        m.insert(k, k + 1).unwrap();
    }
    for k in (0..150u64).step_by(3) {
        m.remove(k).unwrap();
    }
    let mut e = m.entries().unwrap();
    e.sort_unstable();
    e
}

#[test]
fn all_spaces_compute_identical_results() {
    let reference = drive(VolatileSpace::new(8 << 20));
    assert_eq!(drive(DirectPmSpace::new(8 << 20)), reference, "direct PM");
    assert_eq!(drive(WalSpace::create(pool_config()).unwrap()), reference, "undo WAL");
    assert_eq!(drive(RedoSpace::create(pool_config()).unwrap()), reference, "redo WAL");
    assert_eq!(
        drive(PageFaultSpace::create(pool_config()).unwrap()),
        reference,
        "page-fault tracking"
    );
    assert_eq!(drive(HybridSpace::create(pool_config()).unwrap()), reference, "hybrid");
    let pax = PaxPool::create(PaxConfig::default().with_pool(pool_config())).unwrap();
    assert_eq!(drive(pax.vpm()), reference, "PAX vPM");
}

#[test]
fn cost_profiles_differ_as_the_paper_describes() {
    // Identical byte-level workload on each mechanism.
    let workload = |s: &dyn Fn(u64, u64)| {
        for i in 0..100u64 {
            s(i * 4096, i); // one 8 B field per page: the sparse case §1 targets
        }
    };

    let wal = WalSpace::create(pool_config()).unwrap();
    workload(&|a, v| wal.write_u64(a, v).unwrap());
    let pf = PageFaultSpace::create(pool_config()).unwrap();
    workload(&|a, v| pf.write_u64(a, v).unwrap());
    let hy = HybridSpace::create(pool_config()).unwrap();
    workload(&|a, v| hy.write_u64(a, v).unwrap());
    let direct = DirectPmSpace::new(8 << 20);
    workload(&|a, v| direct.write_u64(a, v).unwrap());

    // §2: WAL stalls per mutated line; the others don't stall per store.
    assert!(wal.costs().sfences >= 100);
    assert_eq!(direct.costs().sfences, 0);
    assert_eq!(hy.costs().sfences, 0);

    // §1: traps are the page-based mechanism's signature cost.
    assert!(pf.costs().traps > 0);
    assert_eq!(wal.costs().traps, 0);
    assert_eq!(direct.costs().traps, 0);

    // §1: page-granularity logging amplifies writes far beyond line
    // granularity.
    assert!(
        pf.costs().write_amplification() > 10.0 * hy.costs().write_amplification(),
        "page {} vs hybrid {}",
        pf.costs().write_amplification(),
        hy.costs().write_amplification()
    );
}

#[test]
fn direct_pm_exposes_torn_operations_where_pax_does_not() {
    // The motivating §2 scenario: a multi-location structure operation is
    // interrupted. Under direct PM the tear is visible after reboot;
    // under PAX the snapshot hides it.

    // -- Direct PM: write 2 of 3 fields of a "record", then crash.
    let direct = DirectPmSpace::new(1 << 20);
    direct.write_u64(0, 0xA).unwrap(); // field 1
    direct.write_u64(64, 0xB).unwrap(); // field 2 (different line)
                                        // crash before field 3
    direct.crash();
    let torn =
        (direct.read_u64(0).unwrap(), direct.read_u64(64).unwrap(), direct.read_u64(128).unwrap());
    assert_eq!(torn, (0xA, 0xB, 0), "direct PM exposes the partial operation");

    // -- PAX: same partial operation, never persisted.
    let pax = PaxPool::create(PaxConfig::default().with_pool(pool_config())).unwrap();
    let vpm = pax.vpm();
    vpm.write_u64(0, 0xA).unwrap();
    vpm.write_u64(64, 0xB).unwrap();
    let pm = pax.crash().unwrap();
    let pax = PaxPool::open(pm, PaxConfig::default().with_pool(pool_config())).unwrap();
    let vpm = pax.vpm();
    assert_eq!(
        (vpm.read_u64(0).unwrap(), vpm.read_u64(64).unwrap(), vpm.read_u64(128).unwrap()),
        (0, 0, 0),
        "PAX rolls the torn operation back entirely"
    );
}

#[test]
fn wal_and_pax_recover_the_same_state_for_the_same_committed_work() {
    // Both mechanisms get the same committed prefix and the same
    // uncommitted suffix; both must recover to the prefix.
    let run_wal = || {
        let wal = WalSpace::create(pool_config()).unwrap();
        let m: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(wal.clone()).unwrap()).unwrap();
        wal.tx(|| {
            for k in 0..50 {
                m.insert(k, k).unwrap();
            }
            Ok(())
        })
        .unwrap();
        wal.begin_tx().unwrap();
        for k in 50..80 {
            m.insert(k, k).unwrap();
        }
        // no commit
        let pool = wal.crash().unwrap();
        let wal = WalSpace::open(pool).unwrap();
        let m: PHashMap<u64, u64, _> = PHashMap::attach(BitmapAlloc::attach(wal).unwrap()).unwrap();
        let mut e = m.entries().unwrap();
        e.sort_unstable();
        e
    };
    let run_pax = || {
        let pax = PaxPool::create(PaxConfig::default().with_pool(pool_config())).unwrap();
        let m: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pax.vpm()).unwrap()).unwrap();
        for k in 0..50 {
            m.insert(k, k).unwrap();
        }
        pax.persist().unwrap();
        for k in 50..80 {
            m.insert(k, k).unwrap();
        }
        // no persist
        let pm = pax.crash().unwrap();
        let pax = PaxPool::open(pm, PaxConfig::default().with_pool(pool_config())).unwrap();
        let m: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pax.vpm()).unwrap()).unwrap();
        let mut e = m.entries().unwrap();
        e.sort_unstable();
        e
    };
    assert_eq!(run_wal(), run_pax());
}
