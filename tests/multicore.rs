//! Multi-core host + PAX device, end to end: per-core caches with
//! core-to-core transfers over the device as home agent. Verifies the
//! §3.5/§3.3 interplay — dirty-line migration is invisible to the device,
//! yet `persist()` still captures every modified line by snooping all
//! cores — and crash recovery under cross-core mutation.

use pax_cache::{CacheConfig, SharedComplex};
use pax_device::{DeviceConfig, PaxDevice};
use pax_pm::{CacheLine, LineAddr, PmPool, PoolConfig};

fn setup(cores: usize) -> (PaxDevice, SharedComplex) {
    let pool =
        PmPool::create(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(32 << 20))
            .unwrap();
    let device = PaxDevice::open(pool, DeviceConfig::default()).unwrap();
    let complex = SharedComplex::new(cores, CacheConfig::tiny(8 << 10, 4));
    (device, complex)
}

#[test]
fn migrated_dirty_lines_are_captured_by_persist() {
    let (mut device, mut cx) = setup(4);
    let addr = LineAddr(0);

    // Core 0 takes ownership (device logs the pre-image) …
    cx.write(0, addr, CacheLine::filled(1), &mut device).unwrap();
    assert_eq!(device.metrics().rd_own, 1);

    // … then the line migrates across every core, silently to the device.
    for core in 1..4 {
        cx.write(core, addr, CacheLine::filled(core as u8 + 1), &mut device).unwrap();
    }
    assert_eq!(device.metrics().rd_own, 1, "migrations must not re-announce");
    assert_eq!(device.metrics().undo_entries, 1);

    // persist() snoops all cores and captures the final value.
    device.persist(&mut cx).unwrap();
    let mut pool = device.crash_into_pool();
    let abs = pool.layout().vpm_to_pool(0).unwrap();
    assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(4), "core 3's final value");
}

#[test]
fn per_core_working_sets_commit_together() {
    let (mut device, mut cx) = setup(4);
    for core in 0..4usize {
        for i in 0..32u64 {
            let addr = LineAddr(core as u64 * 100 + i);
            cx.write(core, addr, CacheLine::filled(core as u8), &mut device).unwrap();
        }
    }
    device.persist(&mut cx).unwrap();

    let mut pool = device.crash_into_pool();
    for core in 0..4u64 {
        for i in 0..32u64 {
            let abs = pool.layout().vpm_to_pool(core * 100 + i).unwrap();
            assert_eq!(
                pool.read_line(abs).unwrap(),
                CacheLine::filled(core as u8),
                "core {core} line {i}"
            );
        }
    }
}

#[test]
fn crash_with_cross_core_mutation_rolls_back_atomically() {
    let (mut device, mut cx) = setup(2);
    // Epoch 1: a committed baseline.
    cx.write(0, LineAddr(0), CacheLine::filled(1), &mut device).unwrap();
    cx.write(1, LineAddr(1), CacheLine::filled(1), &mut device).unwrap();
    device.persist(&mut cx).unwrap();

    // Epoch 2: both cores mutate, including a migration; never persisted.
    cx.write(0, LineAddr(0), CacheLine::filled(2), &mut device).unwrap();
    cx.write(1, LineAddr(0), CacheLine::filled(3), &mut device).unwrap(); // migrate
    cx.write(1, LineAddr(1), CacheLine::filled(2), &mut device).unwrap();
    // Push dirty lines toward PM so rollback has real work.
    for i in 10..80u64 {
        cx.write(0, LineAddr(i), CacheLine::filled(9), &mut device).unwrap();
    }

    let pool = device.crash_into_pool();
    let mut device = PaxDevice::open(pool, DeviceConfig::default()).unwrap();
    let cx = SharedComplex::new(2, CacheConfig::tiny(8 << 10, 4));
    assert_eq!(cx.read(0, LineAddr(0), &mut device).unwrap(), CacheLine::filled(1));
    assert_eq!(cx.read(1, LineAddr(1), &mut device).unwrap(), CacheLine::filled(1));
    assert_eq!(cx.read(0, LineAddr(10), &mut device).unwrap(), CacheLine::zeroed());
}

#[test]
fn false_sharing_pattern_still_converges() {
    // Two cores ping-pong stores to the same line; final value must win.
    let (mut device, mut cx) = setup(2);
    for round in 0..50u8 {
        let core = (round % 2) as usize;
        cx.write(core, LineAddr(7), CacheLine::filled(round), &mut device).unwrap();
    }
    device.persist(&mut cx).unwrap();
    let mut pool = device.crash_into_pool();
    let abs = pool.layout().vpm_to_pool(7).unwrap();
    assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(49));
    // The ping-pong stayed on-socket: far fewer RdOwn than stores.
}

#[test]
fn read_sharing_after_writer_core() {
    let (mut device, cx) = setup(3);
    cx.write(0, LineAddr(4), CacheLine::filled(0xAB), &mut device).unwrap();
    // Readers on other cores see the value without extra device reads.
    let pm_reads_before = device.metrics().pm_reads;
    for core in 1..3 {
        assert_eq!(cx.read(core, LineAddr(4), &mut device).unwrap(), CacheLine::filled(0xAB));
    }
    assert_eq!(device.metrics().pm_reads, pm_reads_before);
    assert!(cx.stats().cache_to_cache_transfers >= 2);
}

mod libpax_level {
    //! The same multi-core model through the libpax surface: per-core vPM
    //! mappings shared by one structure.

    use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxPool};
    use pax_cache::ComplexStats;
    use pax_pm::PoolConfig;

    fn config(cores: usize) -> PaxConfig {
        PaxConfig::default()
            .with_pool(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(32 << 20))
            .with_cores(cores)
    }

    #[test]
    fn per_core_mappings_share_one_structure() {
        let pool = PaxPool::create(config(4)).unwrap();
        // Each "thread" gets its own core's mapping; the structure code is
        // identical — only the space handle differs. A core attaches once
        // the previous one is done inserting: attach rebuilds the
        // allocator's volatile state from the bitmap the others wrote.
        let maps: Vec<PHashMap<u64, u64, _>> = (0..4u64)
            .map(|core| {
                let alloc = BitmapAlloc::attach(pool.vpm_for_core(core as usize)).unwrap();
                let map = PHashMap::attach(alloc).unwrap();
                for i in 0..50u64 {
                    map.insert(core * 1000 + i, i).unwrap();
                }
                map
            })
            .collect();
        // Every core observes every other core's writes (coherence).
        assert_eq!(maps[0].len().unwrap(), 200);
        assert_eq!(maps[3].get(2_049).unwrap(), Some(49));
        assert!(pool.complex_stats().cache_to_cache_transfers > 0);

        pool.persist().unwrap();
        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, config(1)).unwrap(); // reopen single-core
        let map: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
        assert_eq!(map.len().unwrap(), 200);
    }

    #[test]
    fn single_core_pool_has_no_cross_core_traffic() {
        let pool = PaxPool::create(config(1)).unwrap();
        let vpm = pool.vpm_for_core(0);
        for i in 0..64u64 {
            vpm.write_u64(i * 64, i).unwrap();
            assert_eq!(vpm.read_u64(i * 64).unwrap(), i);
        }
        pool.persist().unwrap();
        assert_eq!(pool.complex_stats(), ComplexStats::default());
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_is_rejected() {
        let pool = PaxPool::create(config(2)).unwrap();
        let _ = pool.vpm_for_core(2);
    }

    #[test]
    fn vpm_values_coherent_across_cores() {
        let pool = PaxPool::create(config(2)).unwrap();
        let v0 = pool.vpm_for_core(0);
        let v1 = pool.vpm_for_core(1);
        v0.write_u64(64, 7).unwrap();
        assert_eq!(v1.read_u64(64).unwrap(), 7);
        v1.write_u64(64, 8).unwrap();
        assert_eq!(v0.read_u64(64).unwrap(), 8);
    }
}

mod log_full {
    //! Undo-log capacity behaviour: surfaced as an error by default,
    //! handled transparently with `auto_persist_on_log_full` (§3.2).

    use libpax::{MemSpace, PaxConfig, PaxPool};
    use pax_pm::PoolConfig;

    fn tiny_log(auto: bool) -> PaxConfig {
        // Room for only 16 undo entries per epoch: four 5-line blocks.
        let cfg = PaxConfig::default()
            .with_pool(PoolConfig::small().with_data_bytes(1 << 20).with_log_bytes(20 * 64));
        if auto {
            cfg.with_auto_persist_on_log_full()
        } else {
            cfg
        }
    }

    #[test]
    fn log_full_surfaces_by_default() {
        let pool = PaxPool::create(tiny_log(false)).unwrap();
        let vpm = pool.vpm();
        let mut hit_full = false;
        for i in 0..64u64 {
            match vpm.write_u64(i * 64, i) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.to_string().contains("log"), "unexpected error {e}");
                    hit_full = true;
                    break;
                }
            }
        }
        assert!(hit_full, "a 16-entry log cannot absorb 64 distinct lines");
        // The application can recover by persisting and continuing.
        pool.persist().unwrap();
        vpm.write_u64(0, 99).unwrap();
    }

    #[test]
    fn auto_persist_makes_log_capacity_invisible() {
        let pool = PaxPool::create(tiny_log(true)).unwrap();
        let vpm = pool.vpm();
        for i in 0..64u64 {
            vpm.write_u64(i * 64, i).unwrap();
        }
        // Several implicit epochs were committed along the way.
        assert!(pool.committed_epoch().unwrap() >= 2);
        pool.persist().unwrap();
        let pm = pool.crash().unwrap();
        let pool = PaxPool::open(pm, tiny_log(true)).unwrap();
        let vpm = pool.vpm();
        for i in 0..64u64 {
            assert_eq!(vpm.read_u64(i * 64).unwrap(), i, "line {i}");
        }
    }
}
