//! Golden durable-image oracle for the lock-free HBM set index.
//!
//! The concurrent set index is the device's only HBM engine. The
//! mutex-era engine, which kept the whole lane behind a mutex on the
//! store hot path, was retired once these golden digests pinned their
//! equivalence on the same schedules ([`common::golden`]); they were
//! re-recorded once when the undo log moved to 5-line blocks, and once
//! when each log bank began rewinding to its first block after a drained
//! commit (which moves only log-region bytes: every schedule's data
//! image and committed epoch stayed). The schedules run a 64-line
//! host cache over a 512-line span into an HBM buffer far smaller than
//! the span, so dirty evictions, HBM victims with undrained undo
//! entries (forced log flushes), background write-back, and the
//! persist-time snoop filter all shape the durable image.
//!
//! (The multi-thread half of the contract — counter conservation under
//! real same-lane contention — is asserted in-crate in `pax-device`'s
//! `concurrent_same_lane_stores_preserve_telemetry_conservation`.)

mod common;

use common::{assert_golden, golden_random, Rig, Schedule};
use libpax::PaxConfig;
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, DirectoryConfig, EvictionPolicy, HbmConfig};
use pax_pm::PoolConfig;

const SPAN_LINES: u64 = 512;

/// Two shards, a 128-line prefer-durable HBM, the snoop filter on.
fn spill() -> Rig {
    let hbm = HbmConfig { capacity_bytes: 8 << 10, ways: 4, policy: EvictionPolicy::PreferDurable };
    let config = PaxConfig::default()
        .with_pool(PoolConfig::small())
        .with_cache(CacheConfig::tiny(4 << 10, 4))
        .with_device(DeviceConfig::default().with_shards(2).with_hbm(hbm));
    Rig::custom(config, SPAN_LINES, "spill()".into())
}

/// One shard, a 64-line LRU HBM, every logged line snooped at persist.
fn lru() -> Rig {
    let hbm = HbmConfig { capacity_bytes: 4 << 10, ways: 2, policy: EvictionPolicy::Lru };
    let device = DeviceConfig::default().with_hbm(hbm).with_directory(DirectoryConfig::disabled());
    Rig::custom(spill().config.with_device(device), SPAN_LINES, "lru()".into())
}

const fn sched(seed: u64, ops: u64, crash_at: Option<u64>) -> Schedule {
    Schedule { seed, ops, crash_at }
}

const SPILL_GOLDEN: [(Schedule, u64); 5] = [
    (sched(5, 399, Some(320)), 0xe6ff_ba9d_0b12_a4ec),
    (sched(42, 300, None), 0x0926_0138_885a_f069),
    (sched(7, 256, Some(37)), 0xdc61_ba8d_a926_1d2e),
    (sched(1001, 384, Some(250)), 0xc8d5_407d_bc8b_81d8),
    (sched(990_017, 128, Some(9)), 0xcb71_4cfe_cbd9_bc8b),
];

const LRU_GOLDEN: [(Schedule, u64); 3] = [
    (sched(42, 300, None), 0xab57_abc1_413e_46ba),
    (sched(7, 256, Some(90)), 0xd91a_200b_2c76_fc80),
    (sched(1001, 384, Some(400)), 0x445e_4422_6c56_4f6a),
];

/// Random spill schedules ending in power loss with no armed crash.
#[test]
fn hbm_engines_agree_without_armed_crash() {
    golden_random(0x4b3, &[spill()], 12, false);
}

/// Random spill schedules with the crash clock armed at a random device
/// step — the cut lands mid-epoch, often inside an undo-bank drain or
/// between an HBM insert and its write back.
#[test]
fn hbm_engines_agree_under_mid_epoch_crash() {
    golden_random(0x4b4, &[spill(), lru()], 12, true);
}

/// The pinned schedules reproduce the durable images both HBM engines
/// produced.
#[test]
fn hbm_engines_agree_on_pinned_seeds() {
    assert_golden(&spill(), &SPILL_GOLDEN);
    assert_golden(&lru(), &LRU_GOLDEN);
}
