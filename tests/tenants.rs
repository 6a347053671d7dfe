//! Multi-tenant end-to-end tests: one PAX device hosting several pool
//! contexts, each with its own vPM extent, epoch counter, and recovery
//! state.
//!
//! The isolation contract under test: tenant A's `persist()` commits A's
//! epoch without flushing or stalling B's; a crash rolls each tenant
//! back to *its own* last committed snapshot even though all tenants'
//! undo entries interleave in the shared log region; and the weighted
//! scheduler never starves a light tenant behind a heavy one.

mod common;

use common::{points, random, Mix};
use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_cache::{CacheConfig, CoherentCache};
use pax_device::{DeviceConfig, PaxDevice, TenantRegion, BLOCK_ENTRIES};
use pax_pm::{CacheLine, LineAddr, PmPool, PoolConfig, LINE_SIZE};

fn config(tenants: usize) -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(64 << 20))
        .with_device(DeviceConfig::default().with_shards(2))
        .with_tenants(tenants)
}

#[test]
fn two_tenant_isolation_end_to_end() {
    let pool = PaxPool::create(config(2)).unwrap();
    let a = pool.attach(0).unwrap();
    let b = pool.attach(1).unwrap();

    // Interleaved traffic from both tenants.
    for i in 0..16u64 {
        a.vpm().write_u64(i * LINE_SIZE as u64, 0xA000 + i).unwrap();
        b.vpm().write_u64(i * LINE_SIZE as u64, 0xB000 + i).unwrap();
    }
    // A's persist is A's barrier only: B's epoch stays open.
    assert_eq!(a.persist().unwrap(), 1);
    assert_eq!(a.committed_epoch().unwrap(), 1);
    assert_eq!(b.committed_epoch().unwrap(), 0);

    // Crash now: A recovers its snapshot, B recovers to empty.
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config(2)).unwrap();
    let a = pool.attach(0).unwrap();
    let b = pool.attach(1).unwrap();
    for i in 0..16u64 {
        assert_eq!(a.vpm().read_u64(i * LINE_SIZE as u64).unwrap(), 0xA000 + i, "line {i}");
        assert_eq!(b.vpm().read_u64(i * LINE_SIZE as u64).unwrap(), 0, "B never persisted");
    }
}

#[test]
fn tenant_telemetry_labels_conserve() {
    let pool = PaxPool::create(config(2)).unwrap();
    let a = pool.attach(0).unwrap();
    let b = pool.attach(1).unwrap();
    for i in 0..8u64 {
        a.vpm().write_u64(i * LINE_SIZE as u64, 1).unwrap();
    }
    for i in 0..4u64 {
        b.vpm().write_u64(i * LINE_SIZE as u64, 2).unwrap();
    }
    a.persist().unwrap();
    let t = pool.telemetry();
    assert_eq!(t.counter("device", "tenants"), 2);
    for name in ["rd_own", "undo_entries", "persists"] {
        assert_eq!(
            t.counter("device", &format!("tenant0/{name}"))
                + t.counter("device", &format!("tenant1/{name}")),
            t.counter("device", name),
            "{name} must conserve across tenant labels"
        );
    }
    assert_eq!(t.counter("device", "tenant0/persists"), 1);
    assert_eq!(t.counter("device", "tenant1/persists"), 0);
}

/// Weighted round-robin no-starvation regression: a weight-1 tenant
/// sharing a shard with a weight-7 log-hammering tenant still drains its
/// log on every tick (the floor-of-one guarantee), and the heavy tenant
/// gets the larger share.
#[test]
fn weighted_scheduler_never_starves_the_light_tenant() {
    let pool = PmPool::create(PoolConfig::small()).unwrap();
    let data_lines = pool.layout().data_lines;
    let half = data_lines / 2;
    let regions = vec![
        TenantRegion::new(0, half).with_weight(7),
        TenantRegion::new(half, data_lines - half).with_weight(1),
    ];
    // Foreground never pumps: only ticks make background progress.
    let config = DeviceConfig::default().with_shards(2).with_log_pump_interval(usize::MAX);
    let mut device = PaxDevice::open_multi(pool, config, regions).unwrap();
    let mut cache = CoherentCache::new(CacheConfig::tiny(256 << 10, 8));

    // Heavy tenant logs 64 entries; light tenant logs one log block per
    // shard (background pumps drain whole blocks).
    let light = 2 * BLOCK_ENTRIES;
    for i in 0..64u64 {
        cache.write(LineAddr(i), CacheLine::filled(1), &mut device).unwrap();
    }
    for i in 0..light {
        cache.write(LineAddr(half + i), CacheLine::filled(2), &mut device).unwrap();
    }
    assert_eq!(device.log_pending_for(0), 64);
    assert_eq!(device.log_pending_for(1), light as usize);

    // One tick. An unweighted scheduler would hand the heavy tenant the
    // whole per-shard budget and leave the light tenant's entries sitting;
    // the weighted floor guarantees every active lane drains at least one
    // block per tick, so the light backlog clears immediately.
    device.tick(1).unwrap();
    assert_eq!(device.log_pending_for(1), 0, "light tenant drained on the first tick");
    assert!(device.log_pending_for(0) > 0, "heavy backlog is still working off");
    // Run to completion: the heavy backlog drains too; nobody is starved
    // and nothing is lost.
    for _ in 0..256 {
        device.tick(1).unwrap();
    }
    assert_eq!(device.log_pending_for(0), 0);
    assert_eq!(device.log_durable_offset(), 64 + light, "both tenants' logs fully drained");
}

/// Independent recovery for any tenant count (2–4), any skewed mix of
/// per-tenant stores, and any subset of tenants closing: a crash at any
/// durable-write step restores each tenant to exactly its own last
/// committed snapshot — never a neighbour's epoch, never a mix.
#[test]
fn each_tenant_recovers_its_own_snapshot() {
    random(0x7e4a, 24, &points(|p| p.tenants > 1), Mix::Lines, 1..60, 4);
}
