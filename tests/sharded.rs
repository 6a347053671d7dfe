//! The sharded device is a performance structure, not a semantic one.
//!
//! For any interleaving of reads, writes and persists across cores, a
//! pool on an `S`-shard device must leave the same state as on one shard
//! — including what survives a crash — and virtual device ticks must be
//! invisible. The checker's differential mode (`tests/common/`) states
//! both as one check over settled runs; its random mode checks the §3.4
//! invariant on sharded devices under crashes.

mod common;

use common::{differential, points, random, rigs, schedule, settle, without_ticks, Mix};
use libpax::{MemSpace, PaxConfig, PaxPool};
use pax_device::DeviceConfig;
use pax_pm::PoolConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random cross-core schedules leave the same vPM image and read the same
/// values on 1, 2, 4 and 8 shards.
#[test]
fn shard_count_is_state_transparent() {
    let pts = rigs(|p| p.tenants == 1 && p.cores == 3 && p.dir);
    let mut rng = StdRng::seed_from_u64(0x5a4d);
    for _ in 0..6 {
        differential(&pts, &[settle(&schedule(&mut rng, Mix::Lines, 60))]);
    }
}

/// Dropping every `run_device()` from a schedule leaves every observable
/// unchanged: ticks are pure background progress.
#[test]
fn device_ticks_are_state_transparent() {
    let pts = rigs(|p| p.tenants <= 2 && p.cores == 1 && p.dir);
    let mut rng = StdRng::seed_from_u64(0x71c5);
    for _ in 0..4 {
        let steps = schedule(&mut rng, Mix::Lines, 60);
        differential(&pts, &[settle(&steps), settle(&without_ticks(&steps))]);
    }
}

/// One line schedule and one arena schedule settle to the same image on
/// every matrix point of each tenant count.
#[test]
fn settled_runs_agree_across_the_whole_matrix() {
    let mut rng = StdRng::seed_from_u64(0x3a7);
    for mix in [Mix::Lines, Mix::Blocks] {
        differential(&rigs(|_| true), &[settle(&schedule(&mut rng, mix, 40))]);
    }
}

/// With a crash armed at an arbitrary device step — mid-op, mid-snoop or
/// mid-drain — a sharded pool recovers exactly a committed snapshot.
#[test]
fn sharded_crash_recovery_lands_on_a_committed_snapshot() {
    random(0x54a2, 48, &points(|p| p.shards > 1), Mix::Lines, 1..60, 4);
}

/// Regression for the pump-starvation bug: background progress used to be
/// driven by a single global request counter, so a workload hitting one
/// shard monopolised all pumping and other shards' pending work sat until
/// the next `persist()`. The scheduler gives each shard its own credit
/// and donates one round-robin step per pump to a shard with pending
/// work.
#[test]
fn skewed_traffic_cannot_starve_an_idle_shards_background_work() {
    let config = PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(4 << 20).with_log_bytes(16 << 20))
        .with_cores(3)
        .with_device(DeviceConfig::default().with_shards(4));
    let pool = PaxPool::create(config).unwrap();
    let vpm = pool.vpm();
    // Seed shards 1..3 with a full block of pending undo entries each
    // (appends happen after the shard's own pump step, so the block's
    // last write leaves the whole block behind).
    for line in [1u64, 2, 3] {
        for k in 0..pax_device::BLOCK_ENTRIES {
            vpm.write_u64((line + 4 * k) * 64, line).unwrap();
        }
    }
    // Then traffic lands only on shard 0 — distinct lines so every read
    // misses the host cache and actually reaches the device.
    for i in 0..64u64 {
        vpm.read_u64(i * 4 * 64).unwrap();
    }
    let m = pool.device_metrics().unwrap();
    assert_eq!(m.persists, 0, "no persist may be involved");
    assert!(
        m.sched_idle_steps >= 3,
        "shard-0 traffic must donate drain steps to shards 1..3, got {m:?}"
    );
}
