//! Golden durable-image oracle for the lock-free HBM set index.
//!
//! The concurrent set index is the device's only HBM engine. The
//! mutex-era engine, which kept the whole lane behind a mutex on the
//! store hot path, was retired once these golden digests pinned their
//! equivalence: both engines produced every digest below from the same
//! schedules (see `tests/common/mod.rs`). The schedules run a 64-line
//! host cache over a 512-line span into an HBM buffer far smaller than
//! the span, so dirty evictions, HBM victims with undrained undo
//! entries (forced log flushes), background write-back, and the
//! persist-time snoop filter all shape the durable image.
//!
//! (The multi-thread half of the contract — counter conservation under
//! real same-lane contention — is asserted in-crate in `pax-device`'s
//! `concurrent_same_lane_stores_preserve_telemetry_conservation`.)

mod common;

use common::{assert_golden, run, Schedule};
use libpax::PaxConfig;
use pax_cache::CacheConfig;
use pax_device::{DeviceConfig, DirectoryConfig, EvictionPolicy, HbmConfig};
use pax_pm::PoolConfig;
use proptest::prelude::*;

const SPAN_LINES: u64 = 512;

/// Two shards, a 128-line prefer-durable HBM, the snoop filter on.
fn spill_config() -> PaxConfig {
    let hbm = HbmConfig { capacity_bytes: 8 << 10, ways: 4, policy: EvictionPolicy::PreferDurable };
    PaxConfig::default()
        .with_pool(PoolConfig::small())
        .with_cache(CacheConfig::tiny(4 << 10, 4))
        .with_device(DeviceConfig::default().with_shards(2).with_hbm(hbm))
}

/// One shard, a 64-line LRU HBM, every logged line snooped at persist.
fn lru_config() -> PaxConfig {
    let hbm = HbmConfig { capacity_bytes: 4 << 10, ways: 2, policy: EvictionPolicy::Lru };
    let device = DeviceConfig::default().with_hbm(hbm).with_directory(DirectoryConfig::disabled());
    spill_config().with_device(device)
}

const fn sched(seed: u64, ops: u64, crash_at: Option<u64>) -> Schedule {
    Schedule { seed, ops, crash_at }
}

const SPILL_GOLDEN: [(Schedule, u64); 5] = [
    (sched(5, 399, Some(520)), 0x3f5e_b63c_ff51_a1c1),
    (sched(42, 300, None), 0xc44b_86de_6bcc_c2b6),
    (sched(7, 256, Some(37)), 0x0939_4ba5_eeab_0f21),
    (sched(1001, 384, Some(250)), 0x645b_d0e3_f8ca_9290),
    (sched(990_017, 128, Some(9)), 0x561e_6510_ec4a_1f62),
];

const LRU_GOLDEN: [(Schedule, u64); 3] = [
    (sched(42, 300, None), 0xebdf_11d8_0ecb_1fda),
    (sched(7, 256, Some(90)), 0xa9e3_a1cc_51f0_654d),
    (sched(1001, 384, Some(400)), 0x9fcd_ea3a_e217_4bf1),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random spill schedules ending in power loss with no armed crash.
    #[test]
    fn hbm_engines_agree_without_armed_crash(seed in any::<u64>(), ops in 64u64..400) {
        run(spill_config(), SPAN_LINES, sched(seed, ops, None));
    }

    /// Random spill schedules with the crash clock armed at a random
    /// device step — the cut lands mid-epoch, often inside an undo-bank
    /// drain or between an HBM insert and its write back.
    #[test]
    fn hbm_engines_agree_under_mid_epoch_crash(
        seed in any::<u64>(),
        ops in 64u64..400,
        crash_at in 5u64..600,
    ) {
        let config = if seed.is_multiple_of(2) { spill_config() } else { lru_config() };
        run(config, SPAN_LINES, sched(seed, ops, Some(crash_at)));
    }
}

/// The pinned schedules reproduce the durable images both HBM engines
/// produced.
#[test]
fn hbm_engines_agree_on_pinned_seeds() {
    assert_golden(spill_config(), SPAN_LINES, &SPILL_GOLDEN);
    assert_golden(lru_config(), SPAN_LINES, &LRU_GOLDEN);
}
