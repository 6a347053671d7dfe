//! Structure tests on the *persistent* space: the same volatile-style
//! code that unit tests exercise on `VolatileSpace` must behave
//! identically on `VPm`, including across crash/recovery — the black-box
//! reuse claim.

use libpax::{
    BitmapAlloc, MemSpace, PBTreeMap, PHashMap, PList, PRing, PVec, PaxConfig, PaxPool,
    VolatileSpace,
};
use pax_pm::PoolConfig;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(16 << 20).with_log_bytes(64 << 20))
}

fn pool() -> PaxPool {
    PaxPool::create(config()).unwrap()
}

#[test]
fn hashmap_behaves_identically_volatile_and_persistent() {
    fn drive<S: libpax::MemSpace>(space: S) -> Vec<(u64, u64)> {
        let m: PHashMap<u64, u64, S> =
            PHashMap::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
        for k in 0..300u64 {
            m.insert(k, k * k).unwrap();
        }
        for k in (0..300u64).step_by(2) {
            m.remove(k).unwrap();
        }
        for k in 100..150u64 {
            m.insert(k, 1).unwrap();
        }
        let mut e = m.entries().unwrap();
        e.sort_unstable();
        e
    }
    let volatile = drive(VolatileSpace::new(16 << 20));
    let persistent = drive(pool().vpm());
    assert_eq!(volatile, persistent);
}

#[test]
fn vec_and_list_on_vpm() {
    let p1 = pool();
    let v: PVec<u64, _> = PVec::attach(BitmapAlloc::attach(p1.vpm()).unwrap()).unwrap();
    for i in 0..500 {
        v.push(i).unwrap();
    }
    assert_eq!(v.len().unwrap(), 500);
    assert_eq!(v.get(499).unwrap(), Some(499));
    assert_eq!(v.pop().unwrap(), Some(499));

    let p2 = pool();
    let l: PList<u64, _> = PList::attach(BitmapAlloc::attach(p2.vpm()).unwrap()).unwrap();
    for i in 0..100 {
        l.push_back(i).unwrap();
        l.push_front(1000 + i).unwrap();
    }
    assert_eq!(l.len().unwrap(), 200);
    assert_eq!(l.pop_front().unwrap(), Some(1099));
    assert_eq!(l.pop_back().unwrap(), Some(99));
}

#[test]
fn hashmap_growth_survives_persist_and_crash() {
    let pool = pool();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    // Enough inserts to trigger several rehashes.
    for k in 0..2_000u64 {
        map.insert(k, k + 1).unwrap();
    }
    assert!(map.bucket_count().unwrap() >= 1024);
    pool.persist().unwrap();

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert_eq!(map.len().unwrap(), 2_000);
    for k in (0..2_000u64).step_by(37) {
        assert_eq!(map.get(k).unwrap(), Some(k + 1), "key {k}");
    }
}

#[test]
fn crash_mid_rehash_rolls_back_cleanly() {
    // Fill to just below a growth threshold, persist, then push the map
    // over the threshold (rehash) without persisting; crash. The
    // recovered map must be the pre-rehash snapshot, fully intact.
    let pool = pool();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    for k in 0..31u64 {
        map.insert(k, k).unwrap();
    }
    let buckets_before = map.bucket_count().unwrap();
    pool.persist().unwrap();

    for k in 31..80u64 {
        map.insert(k, k).unwrap(); // triggers ≥1 rehash
    }
    assert!(map.bucket_count().unwrap() > buckets_before);

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert_eq!(map.bucket_count().unwrap(), buckets_before);
    assert_eq!(map.len().unwrap(), 31);
    for k in 0..31u64 {
        assert_eq!(map.get(k).unwrap(), Some(k), "key {k}");
    }
}

/// Inserting keys `0..n` into a fresh map: growth starts at 33 entries
/// (16 buckets at load 2), and each later insert migrates one of the 16
/// old buckets, so 41 inserts leave the migration half done.
const HALF_MIGRATED: u64 = 41;

fn vpm_map(pool: &PaxPool) -> PHashMap<u64, u64> {
    PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap()
}

fn sorted_entries<S: MemSpace, A: libpax::PmAllocator<S>>(
    map: &PHashMap<u64, u64, S, A>,
) -> Vec<(u64, u64)> {
    let mut e = map.entries().unwrap();
    e.sort_unstable();
    e
}

#[test]
fn crash_mid_migration_recovers_each_committed_key_once() {
    let pool = pool();
    let map = vpm_map(&pool);
    for k in 0..HALF_MIGRATED {
        map.insert(k, k * 10).unwrap();
    }
    assert_eq!(map.bucket_count().unwrap(), 32);
    // In 32-byte frames: the header (4), the old and new bucket arrays
    // (4 + 8) and one per node.
    let live = map.heap().live_frames();
    assert_eq!(live, 16 + HALF_MIGRATED);
    pool.persist().unwrap();
    // More migration, then a crash before the next persist.
    for k in 100..104u64 {
        map.insert(k, 0).unwrap();
    }

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let map = vpm_map(&pool);
    let want: Vec<(u64, u64)> = (0..HALF_MIGRATED).map(|k| (k, k * 10)).collect();
    assert_eq!(sorted_entries(&map), want, "every committed key exactly once");
    assert_eq!(map.len().unwrap(), HALF_MIGRATED);
    assert_eq!(map.heap().live_frames(), live);
    // The eight remaining old buckets move with the next eight inserts;
    // the last one frees the old array.
    for k in HALF_MIGRATED..HALF_MIGRATED + 8 {
        map.insert(k, k * 10).unwrap();
    }
    let n = HALF_MIGRATED + 8;
    assert_eq!(map.heap().live_frames(), 12 + n);
    assert_eq!(sorted_entries(&map), (0..n).map(|k| (k, k * 10)).collect::<Vec<_>>());
    for k in 0..n {
        assert_eq!(map.get(k).unwrap(), Some(k * 10), "key {k}");
    }
}

#[test]
fn updates_and_removes_run_correctly_during_a_migration() {
    fn drive<S: MemSpace>(space: S) -> Vec<(u64, u64)> {
        let map: PHashMap<u64, u64, S> =
            PHashMap::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for k in 0..33u64 {
            map.insert(k, k).unwrap();
            model.insert(k, k);
        }
        // Growth has started. Updates, fresh inserts and removes of keys
        // in migrated and unmigrated buckets alike, checked against the
        // model after every step until the migration is long done.
        for step in 0..48u64 {
            let key = (step * 7) % 40;
            let got = match step % 3 {
                0 => map.remove(key).unwrap(),
                _ => map.insert(key, step + 100).unwrap(),
            };
            let want = match step % 3 {
                0 => model.remove(&key),
                _ => model.insert(key, step + 100),
            };
            assert_eq!(got, want, "step {step}, key {key}");
            assert_eq!(map.len().unwrap(), model.len() as u64);
            for k in 0..40u64 {
                assert_eq!(map.get(k).unwrap(), model.get(&k).copied(), "step {step}, key {k}");
            }
            let e = sorted_entries(&map);
            assert_eq!(e, model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
        }
        sorted_entries(&map)
    }
    let volatile = drive(VolatileSpace::new(1 << 20));
    let pool = pool();
    assert_eq!(drive(pool.vpm()), volatile);
    pool.persist().unwrap();
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    assert_eq!(sorted_entries(&vpm_map(&pool)), volatile);
}

#[test]
fn no_insert_logs_more_than_a_few_undo_entries() {
    // Under PAX an epoch logs every line it first writes. A growth that
    // relinked the whole table in one insert would log a line per few
    // nodes (over a thousand entries for the growth at 2 048 keys); one
    // migrated bucket per insert keeps every insert to a dozen or so.
    let pool = pool();
    let map = vpm_map(&pool);
    let mut worst = (0, 0);
    for k in 0..3_000u64 {
        pool.persist().unwrap();
        let before = pool.device_metrics().unwrap().undo_entries;
        map.insert(k, k).unwrap();
        let logged = pool.device_metrics().unwrap().undo_entries - before;
        worst = worst.max((logged, k));
    }
    assert!(map.bucket_count().unwrap() >= 1024, "several growths ran");
    assert!(worst.0 <= 32, "insert of key {} logged {} undo entries", worst.1, worst.0);
}

#[test]
fn vec_growth_mid_epoch_crash() {
    let pool = pool();
    let v: PVec<u32, _> = PVec::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    for i in 0..8u32 {
        v.push(i).unwrap(); // exactly the initial capacity
    }
    pool.persist().unwrap();
    v.push(8).unwrap(); // forces the grow-copy-swap sequence
    v.push(9).unwrap();

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let v: PVec<u32, _> = PVec::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert_eq!(v.to_vec().unwrap(), (0..8).collect::<Vec<u32>>());
}

#[test]
fn multiple_structure_types_share_the_same_code_paths() {
    // Wide-element structures exercise multi-line values.
    let pool = pool();
    let m: PHashMap<[u8; 24], [u8; 40], _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    let key = |i: u8| -> [u8; 24] { [i; 24] };
    let val = |i: u8| -> [u8; 40] { [i.wrapping_mul(3); 40] };
    for i in 0..50u8 {
        m.insert(key(i), val(i)).unwrap();
    }
    pool.persist().unwrap();
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let m: PHashMap<[u8; 24], [u8; 40], _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    for i in 0..50u8 {
        assert_eq!(m.get(key(i)).unwrap(), Some(val(i)), "key {i}");
    }
}

#[test]
fn byte_level_access_patterns() {
    let pool = pool();
    let vpm = pool.vpm();
    // Writes of every small size at every offset within a line.
    for size in [1usize, 2, 3, 7, 8, 9, 15, 16, 63, 64, 65, 127] {
        let data: Vec<u8> = (0..size as u8).collect();
        for offset in [0u64, 1, 31, 63] {
            let addr = 4096 + offset;
            vpm.write_bytes(addr, &data).unwrap();
            let mut buf = vec![0u8; size];
            vpm.read_bytes(addr, &mut buf).unwrap();
            assert_eq!(buf, data, "size {size} offset {offset}");
        }
    }
}

#[test]
fn ring_buffer_survives_crash_at_snapshot() {
    let p = pool();
    let r: PRing<u64, _> = PRing::create(BitmapAlloc::attach(p.vpm()).unwrap(), 8).unwrap();
    for i in 0..6 {
        assert!(r.push(i).unwrap());
    }
    r.pop().unwrap();
    p.persist().unwrap();
    // Post-snapshot churn that must vanish:
    r.pop().unwrap();
    r.push(100).unwrap();

    let pm = p.crash().unwrap();
    let p = PaxPool::open(pm, config()).unwrap();
    let r: PRing<u64, _> = PRing::attach(BitmapAlloc::attach(p.vpm()).unwrap()).unwrap();
    assert_eq!(r.len().unwrap(), 5);
    assert_eq!(r.pop().unwrap(), Some(1));
    assert_eq!(r.capacity().unwrap(), 8);
}

#[test]
fn btree_crash_mid_split_rolls_back() {
    // Fill the root leaf exactly to capacity, persist, then trigger the
    // multi-node split without persisting; crash. The recovered tree must
    // be the pre-split snapshot with all invariants intact.
    let p = pool();
    let t: PBTreeMap<u64, u64, _> =
        PBTreeMap::attach(BitmapAlloc::attach(p.vpm()).unwrap()).unwrap();
    for k in 0..7u64 {
        t.insert(k, k).unwrap(); // MAX_KEYS for MIN_DEGREE=4
    }
    p.persist().unwrap();
    for k in 7..40u64 {
        t.insert(k, k).unwrap(); // forces root and deeper splits
    }
    t.check_invariants().unwrap();

    let pm = p.crash().unwrap();
    let p = PaxPool::open(pm, config()).unwrap();
    let t: PBTreeMap<u64, u64, _> =
        PBTreeMap::attach(BitmapAlloc::attach(p.vpm()).unwrap()).unwrap();
    t.check_invariants().unwrap();
    assert_eq!(t.len().unwrap(), 7);
    assert_eq!(t.entries().unwrap(), (0..7).map(|k| (k, k)).collect::<Vec<_>>());
}

#[test]
fn btree_range_scans_on_persistent_space() {
    let p = pool();
    let t: PBTreeMap<u64, u64, _> =
        PBTreeMap::attach(BitmapAlloc::attach(p.vpm()).unwrap()).unwrap();
    for k in 0..500u64 {
        t.insert(k * 2, k).unwrap();
    }
    p.persist().unwrap();
    let pm = p.crash().unwrap();
    let p = PaxPool::open(pm, config()).unwrap();
    let t: PBTreeMap<u64, u64, _> =
        PBTreeMap::attach(BitmapAlloc::attach(p.vpm()).unwrap()).unwrap();
    let r = t.range(100, 110).unwrap();
    assert_eq!(r, vec![(100, 50), (102, 51), (104, 52), (106, 53), (108, 54), (110, 55)]);
    t.check_invariants().unwrap();
}
