//! Whole-system flows: the Listing 1 programming model, pool files on
//! disk, device metrics plausibility, and the §3.1 access paths.

use libpax::{HwSnapshotter, MemSpace, PHashMap, PaxConfig, PaxPool, Persistent};
use pax_pm::PoolConfig;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(32 << 20))
}

#[test]
fn listing_1_programming_model() {
    // Line-for-line the paper's Listing 1, in working code.
    let allocator = HwSnapshotter::create(config()).unwrap(); // map_pool
    let persistent_ht: Persistent<PHashMap<u64, u64>> = Persistent::new(&allocator).unwrap();
    persistent_ht.insert(1, 100).unwrap();
    assert_eq!(persistent_ht.get(1).unwrap(), Some(100)); // "Key 1 = 100"
    persistent_ht.insert(2, 200).unwrap();
    let epoch = allocator.persist().unwrap();
    assert_eq!(epoch, 1);
}

#[test]
fn pool_file_lifecycle_across_processes() {
    let dir = std::env::temp_dir().join("pax-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lifecycle.pool");
    let _ = std::fs::remove_file(&path);

    // "Process 1": create, populate, persist, save.
    {
        let snap = HwSnapshotter::map_pool(&path, config()).unwrap();
        let ht: Persistent<PHashMap<u64, u64>> = Persistent::new(&snap).unwrap();
        for k in 0..100 {
            ht.insert(k, k * 2).unwrap();
        }
        snap.persist().unwrap();
        ht.insert(7777, 1).unwrap(); // unpersisted: must not survive
        snap.pool().save_file(&path).unwrap();
    }

    // "Process 2": map the same file; recovery is implicit.
    {
        let snap = HwSnapshotter::map_pool(&path, config()).unwrap();
        let ht: Persistent<PHashMap<u64, u64>> = Persistent::new(&snap).unwrap();
        assert_eq!(ht.len().unwrap(), 100);
        assert_eq!(ht.get(50).unwrap(), Some(100));
        assert_eq!(ht.get(7777).unwrap(), None);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cacheability_mostly_bypasses_the_device() {
    // §3.2: "vPM is cacheable, so most operations are performed without
    // consulting the device at all."
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    vpm.write_u64(0, 1).unwrap();
    let after_first = pool.device_metrics().unwrap().total_messages();
    for _ in 0..1_000 {
        vpm.read_u64(0).unwrap();
        vpm.write_u64(0, 2).unwrap();
    }
    let after_loop = pool.device_metrics().unwrap().total_messages();
    assert!(
        after_loop - after_first <= 4,
        "cached accesses kept consulting the device: {} extra messages",
        after_loop - after_first
    );
}

#[test]
fn stores_are_acknowledged_before_log_durability() {
    // §3.2's asynchrony: the host proceeds while entries are pending.
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    for i in 0..64u64 {
        vpm.write_u64(i * 64, i).unwrap();
    }
    let m = pool.device_metrics().unwrap();
    assert_eq!(m.undo_entries, 64);
    // Nothing in the op path waited for a log flush:
    assert_eq!(m.forced_log_flushes, 0);
}

#[test]
fn persist_downgrades_and_collects_host_lines() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    for i in 0..16u64 {
        vpm.write_u64(i * 64, i).unwrap();
    }
    let before = pool.device_metrics().unwrap();
    pool.persist().unwrap();
    let after = pool.device_metrics().unwrap();
    assert_eq!(after.snoops_sent - before.snoops_sent, 16, "one SnpData per logged line");
    assert!(after.snoop_data_returned > 0, "host forwarded current values");
    assert!(after.device_writebacks >= 16, "all modified lines written back");

    // Post-persist stores re-announce (lines were downgraded to S).
    vpm.write_u64(0, 99).unwrap();
    let m = pool.device_metrics().unwrap();
    assert_eq!(m.undo_entries, 17);
}

#[test]
fn metrics_compose_consistently() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    for i in 0..32u64 {
        vpm.write_u64(i * 64, i).unwrap();
        vpm.read_u64(((i + 7) % 32) * 64).unwrap();
    }
    pool.persist().unwrap();
    let m = pool.device_metrics().unwrap();
    assert_eq!(
        m.total_messages(),
        m.rd_shared + m.rd_own + m.clean_evicts + m.dirty_evicts + m.snoops_sent
    );
    // Every undo entry is one pre-image line, and every block drain adds
    // one header line: 32 entries of one epoch fill 8 whole blocks.
    assert_eq!(m.log_lines_written, m.undo_entries + m.log_blocks);
    assert_eq!(m.log_bytes(), m.log_lines_written * 64);
    assert_eq!((m.undo_entries, m.log_blocks), (32, 8));
    assert!(m.persists == 1);
    let cache = pool.cache_stats();
    assert!(cache.write_upgrades >= 32);
}

#[test]
fn two_pools_are_independent() {
    let a = PaxPool::create(config()).unwrap();
    let b = PaxPool::create(config()).unwrap();
    a.vpm().write_u64(0, 1).unwrap();
    b.vpm().write_u64(0, 2).unwrap();
    a.persist().unwrap();
    assert_eq!(a.vpm().read_u64(0).unwrap(), 1);
    assert_eq!(b.vpm().read_u64(0).unwrap(), 2);
    assert_eq!(a.committed_epoch().unwrap(), 1);
    assert_eq!(b.committed_epoch().unwrap(), 0);
}
