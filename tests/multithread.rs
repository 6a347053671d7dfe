//! Multi-threading contract tests (§3.5): thread-safe structure code over
//! vPM works concurrently; `persist()` runs at quiescent points; and the
//! persisted snapshot reflects complete operations only.

use std::sync::Arc;
use std::thread;

use libpax::{BitmapAlloc, PHashMap, PaxConfig, PaxPool};
use pax_pm::PoolConfig;

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(16 << 20).with_log_bytes(64 << 20))
}

#[test]
fn concurrent_inserts_then_quiescent_persist() {
    let pool = PaxPool::create(config()).unwrap();
    let map: Arc<PHashMap<u64, u64, _>> =
        Arc::new(PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap());

    let threads = 4;
    let per_thread = 200u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let map = Arc::clone(&map);
        handles.push(thread::spawn(move || {
            for i in 0..per_thread {
                map.insert(t * 10_000 + i, i).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All threads joined → quiescent (the §3.5 requirement) → persist.
    pool.persist().unwrap();

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert_eq!(map.len().unwrap(), threads * per_thread);
    for t in 0..threads {
        for i in (0..per_thread).step_by(17) {
            assert_eq!(map.get(t * 10_000 + i).unwrap(), Some(i));
        }
    }
}

#[test]
fn mixed_readers_and_writers() {
    let pool = PaxPool::create(config()).unwrap();
    let map: Arc<PHashMap<u64, u64, _>> =
        Arc::new(PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap());
    for k in 0..500u64 {
        map.insert(k, k).unwrap();
    }

    let mut handles = Vec::new();
    for t in 0..2u64 {
        let map = Arc::clone(&map);
        handles.push(thread::spawn(move || {
            for i in 0..300u64 {
                map.insert(1000 + t * 1000 + i, i).unwrap();
            }
        }));
    }
    for _ in 0..2 {
        let map = Arc::clone(&map);
        handles.push(thread::spawn(move || {
            let mut found = 0;
            for i in 0..600u64 {
                if map.get(i % 500).unwrap().is_some() {
                    found += 1;
                }
            }
            assert_eq!(found, 600, "preloaded keys must always be visible");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(map.len().unwrap(), 500 + 600);
}

#[test]
fn handles_are_send_and_clone() {
    fn assert_send_clone<T: Send + Clone>() {}
    assert_send_clone::<libpax::VPm>();
    assert_send_clone::<PaxPool>();
    assert_send_clone::<PHashMap<u64, u64, libpax::VPm>>();
}

#[test]
fn epochs_interleave_with_thread_batches() {
    // Alternating parallel batches and persists: every persisted batch
    // must survive a final crash; the last (unpersisted) one must not.
    let pool = PaxPool::create(config()).unwrap();
    let map: Arc<PHashMap<u64, u64, _>> =
        Arc::new(PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap());

    for batch in 0..3u64 {
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let map = Arc::clone(&map);
            handles.push(thread::spawn(move || {
                for i in 0..50u64 {
                    map.insert(batch * 1000 + t * 100 + i, batch).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        pool.persist().unwrap();
    }

    // Unpersisted batch 3:
    for i in 0..50u64 {
        map.insert(3_000 + i, 3).unwrap();
    }

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert_eq!(map.len().unwrap(), 3 * 3 * 50);
    assert_eq!(map.get(3_000).unwrap(), None);
    assert_eq!(map.get(2_149).unwrap(), Some(2));
}
