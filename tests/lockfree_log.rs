//! Golden durable-image oracle for the lock-free undo bank.
//!
//! The CAS reserve-then-fill bank is the device's only undo-log engine.
//! Its mutex-guarded predecessor was retired once these golden digests
//! pinned their equivalence on the same seeded schedules
//! ([`common::golden`]: stores, a close every 41 ops, two ticks every
//! 23). The digests were re-recorded once when the log moved to 5-line
//! blocks (DESIGN.md §12), which changes every durable image, and once
//! when each bank began rewinding to its first block after a drained
//! commit, which moves only log-region bytes (every schedule's data
//! image and committed epoch stayed). The buffered schedules moved once
//! more, the same way, when the non-blocking commit began rewinding too.
//! The pinned schedules cover the
//! synchronous epoch barrier and the buffered-epoch drain, whose log
//! flush targets, forced flushes, and incremental recycling all run
//! through the bank; the random schedules check the crash-consistency
//! oracle under arbitrary crash points.

mod common;

use common::{assert_golden, golden_random, Rig, Schedule};
use libpax::{PaxConfig, PersistencyModel};
use pax_device::DeviceConfig;
use pax_pm::PoolConfig;

const SPAN_LINES: u64 = 128;

/// Two shards under the default synchronous epoch barrier.
fn epoch() -> Rig {
    let config = PaxConfig::default()
        .with_pool(PoolConfig::small())
        .with_device(DeviceConfig::default().with_shards(2));
    Rig::custom(config, SPAN_LINES, "epoch()".into())
}

/// Four shards whose `persist()` closes epochs into a two-deep buffered
/// drain, retired by device ticks and later closes.
fn buffered() -> Rig {
    let config = (epoch().config)
        .with_device(DeviceConfig::default().with_shards(4))
        .with_persistency(PersistencyModel::BufferedEpoch { k: 2 });
    Rig::custom(config, SPAN_LINES, "buffered()".into())
}

const fn sched(seed: u64, ops: u64, crash_at: Option<u64>) -> Schedule {
    Schedule { seed, ops, crash_at }
}

const EPOCH_GOLDEN: [(Schedule, u64); 5] = [
    (sched(5, 399, Some(320)), 0x9b2e_056d_c32e_c34d),
    (sched(42, 300, None), 0xfea6_476d_1160_1cab),
    (sched(7, 256, Some(37)), 0xa1eb_930e_ea06_3ab6),
    (sched(1001, 384, Some(250)), 0x6985_8c09_e315_5fb9),
    (sched(990_017, 128, Some(9)), 0x133d_16b1_a75d_7e5d),
];

const BUFFERED_GOLDEN: [(Schedule, u64); 3] = [
    (sched(42, 300, None), 0x4f9d_de3f_a364_d8bd),
    (sched(7, 256, Some(61)), 0x83bc_42c4_f237_c2f6),
    (sched(1001, 384, Some(300)), 0x813a_969a_a0cb_b74b),
];

/// Random schedules ending in power loss with no armed crash: the
/// unpersisted tail rolls back to the last committed snapshot.
#[test]
fn engines_agree_without_armed_crash() {
    golden_random(0x10c, &[epoch()], 12, false);
}

/// Random schedules with the crash clock armed at a random device step —
/// the cut lands mid-epoch, often inside an undo-bank drain — under both
/// the epoch barrier and the buffered drain.
#[test]
fn engines_agree_under_mid_epoch_crash() {
    golden_random(0x10d, &[epoch(), buffered()], 12, true);
}

/// The pinned schedules reproduce the durable images both undo-bank
/// engines produced.
#[test]
fn engines_agree_on_pinned_seeds() {
    assert_golden(&epoch(), &EPOCH_GOLDEN);
    assert_golden(&buffered(), &BUFFERED_GOLDEN);
}
