//! Snapshot-semantics tests (§3.3): the recovered state always equals the
//! state at the most recent completed `persist()` — never a mix of
//! epochs, never a partial operation.

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxPool};
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, EvictionPolicy, HbmConfig};
use pax_pm::PoolConfig;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(32 << 20))
}

/// A tiny-everything config that forces heavy eviction traffic, so lines
/// reach PM mid-epoch — the hardest case for snapshot atomicity.
fn stress_config() -> PaxConfig {
    config().with_cache(CacheConfig::tiny(4 * 64, 2)).with_device(DeviceConfig::default().with_hbm(
        HbmConfig { capacity_bytes: 8 * 64, ways: 2, policy: EvictionPolicy::PreferDurable },
    ))
}

#[test]
fn epochs_transition_atomically() {
    // Write a "record" spanning many lines per epoch; a recovered pool
    // must never show lines from two different epochs.
    let pool = PaxPool::create(stress_config()).unwrap();
    let vpm = pool.vpm();
    let lines = 64u64;

    for epoch_val in 1..=3u64 {
        for i in 0..lines {
            vpm.write_u64(i * 64, epoch_val).unwrap();
        }
        pool.persist().unwrap();
    }
    // Epoch 4 in progress, not persisted:
    for i in 0..lines / 2 {
        vpm.write_u64(i * 64, 4).unwrap();
    }

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let vpm = pool.vpm();
    let first = vpm.read_u64(0).unwrap();
    assert_eq!(first, 3, "recovered state must be the last persisted epoch");
    for i in 0..lines {
        assert_eq!(vpm.read_u64(i * 64).unwrap(), 3, "line {i}: mixed-epoch state");
    }
}

#[test]
fn mid_epoch_writebacks_never_leak_into_the_snapshot() {
    // With a tiny HBM, epoch-2 data is proactively written to PM before
    // persist() — recovery must still return pure epoch-1 state.
    let pool = PaxPool::create(stress_config()).unwrap();
    let vpm = pool.vpm();
    let lines = 128u64;
    for i in 0..lines {
        vpm.write_u64(i * 64, 1).unwrap();
    }
    pool.persist().unwrap();

    for i in 0..lines {
        vpm.write_u64(i * 64, 2).unwrap();
    }
    // Plenty of device activity so background write back runs:
    for i in 0..lines {
        vpm.read_u64(i * 64).unwrap();
    }
    let metrics = pool.device_metrics().unwrap();
    assert!(metrics.device_writebacks > 0, "test needs mid-epoch write back to be meaningful");

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let report = pool.recovery_report().unwrap();
    assert!(report.rolled_back > 0, "rollback must undo the leaked writes");
    let vpm = pool.vpm();
    for i in 0..lines {
        assert_eq!(vpm.read_u64(i * 64).unwrap(), 1, "line {i}");
    }
}

#[test]
fn persist_returns_monotonic_epochs() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    let mut last = 0;
    for i in 0..10u64 {
        vpm.write_u64(0, i).unwrap();
        let e = pool.persist().unwrap();
        assert_eq!(e, last + 1);
        last = e;
    }
    assert_eq!(pool.committed_epoch().unwrap(), 10);
}

#[test]
fn empty_epoch_persists_cleanly() {
    let pool = PaxPool::create(config()).unwrap();
    assert_eq!(pool.persist().unwrap(), 1);
    assert_eq!(pool.persist().unwrap(), 2);
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    assert_eq!(pool.committed_epoch().unwrap(), 2);
}

#[test]
fn reads_do_not_dirty_the_snapshot() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    vpm.write_u64(0, 5).unwrap();
    pool.persist().unwrap();
    let before = pool.device_metrics().unwrap().undo_entries;
    for i in 0..64u64 {
        vpm.read_u64(i * 64).unwrap();
    }
    let after = pool.device_metrics().unwrap().undo_entries;
    assert_eq!(before, after, "reads must not generate undo entries");
}

#[test]
fn structure_level_snapshot_equality() {
    // Run the same structure twice: once with a crash after persist, once
    // without any extra ops; recovered entries must match exactly.
    let build = |extra_garbage: bool| -> Vec<(u64, u64)> {
        let pool = PaxPool::create(config()).unwrap();
        let map: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
        for k in 0..200u64 {
            map.insert(k, k * 7).unwrap();
        }
        for k in (0..200u64).step_by(3) {
            map.remove(k).unwrap();
        }
        pool.persist().unwrap();
        if extra_garbage {
            for k in 500..600u64 {
                map.insert(k, 1).unwrap();
            }
        }
        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, config()).unwrap();
        let map: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
        let mut e = map.entries().unwrap();
        e.sort_unstable();
        e
    };
    assert_eq!(build(false), build(true));
}
