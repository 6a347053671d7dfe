//! Crash search across persistency models.
//!
//! The checker (`tests/common/`) holds each [`PersistencyModel`] to its
//! documented recovery contract:
//!
//! * **Strict** — every store commits its own epoch: no completed store
//!   is ever rolled back.
//! * **Epoch** — every `persist()` that returned is durable; a crash
//!   loses at most the open epoch.
//! * **BufferedEpoch(K)** — a close returns before retiring; a crash
//!   loses at most the K buffered closes (plus the open epoch), closes
//!   retire in order, and no more than K are ever outstanding.
//!
//! One contract is universal: the recovered image is a *prefix-closed
//! cut* of epoch history — byte-identical to the state at the moment the
//! recovered epoch closed, never a mix — and the recovery report's
//! rollback gap stays within the model's bound.

mod common;

use common::{
    check_or_fail, differential, points, random, random_two_lives, rigs, schedule, settle, sweep,
    Mix, Point, Step, MODELS,
};
use libpax::PersistencyModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Three seeds × all four models, each crashed at every sampled
/// durable-write step of the whole schedule; with no crash, every model
/// settles to the same vPM image.
#[test]
fn whole_schedule_crash_sweep_holds_every_model_contract() {
    for seed in [3u64, 17, 291] {
        let steps = schedule(&mut StdRng::seed_from_u64(seed), Mix::Lines, 48);
        for model in MODELS {
            sweep(&Point { model, ..Point::BASE }.rig(), &steps, 24);
        }
        differential(&rigs(|p| Point { model: p.model, ..Point::BASE } == *p), &[settle(&steps)]);
    }
}

/// Random schedules on random points of every model, each crashed at
/// random steps.
#[test]
fn differential_crash_fuzz_respects_every_model_contract() {
    random(0xd1ff, 48, &points(|_| true), Mix::Lines, 1..60, 4);
}

/// Random schedules that crash and recover once mid-way, go on in a
/// second life, and crash again: what the first recovery left on media
/// must not undo the second life's commits. The points are every model
/// and tenant count on one shard, three cores and no snoop filter, where
/// a large epoch drains slowly enough (three host caches of dirty lines,
/// one line per write-back step) for the next epoch's entries to become
/// durable first.
#[test]
fn second_life_crash_fuzz_respects_every_model_contract() {
    let slow_drain = points(|p| p.shards == 1 && p.cores == 3 && !p.dir);
    random_two_lives(0x2b1f, 48, &slow_drain, Mix::Lines, 1..60, 4);
}

/// Buffered closes retire in order and never run more than K ahead, and
/// a drained run commits exactly the newest close.
#[test]
fn buffered_closes_retire_in_order() {
    let buffered = points(|p| matches!(p.model, PersistencyModel::BufferedEpoch { .. }));
    let mut rng = StdRng::seed_from_u64(0xb0f);
    for _ in 0..24 {
        let p = buffered[rng.gen_range(0..buffered.len())];
        let n = rng.gen_range(4..40);
        let steps = settle(&schedule(&mut rng, Mix::Lines, n));
        let total = check_or_fail(&p.rig(), &steps, None).steps_taken;
        check_or_fail(&p.rig(), &steps, Some(rng.gen_range(0..total + 1)));
    }
}

/// A buffered commit must not rewind an undo bank that the next epoch
/// already holds durable entries in. Three epochs of one tenant store
/// from three cores on one shard without a snoop filter, so each close
/// drains one line per write-back run: epoch 1 commits after a tick has
/// made epoch 2's first block durable, and epoch 2 still drains while
/// epoch 3's entries reach the block after epoch 1's. A rewind at epoch
/// 1's commit would reopen the bank at its first block, epoch 3 would
/// overwrite epoch 2's first block, and recovery would leave epoch 2's
/// first lines unrolled.
#[test]
fn buffered_commit_keeps_a_later_epochs_durable_block() {
    let point = Point { cores: 3, model: PersistencyModel::buffered(2), dir: false, ..Point::BASE };
    let stores = |e: u64, lines: std::ops::Range<u16>| {
        lines.map(move |l| Step::Store(0, (l % 3) as u8, l, e << 16 | u64::from(l)))
    };
    let steps: Vec<Step> = (stores(1, 0..48).chain([Step::Close(0)]))
        .chain(stores(2, 0..4).chain([Step::Tick(12)]))
        .chain(stores(2, 4..48).chain([Step::Close(0)]))
        .chain(stores(3, 0..12).chain([Step::Close(0), Step::Wait(0)]))
        .collect();
    sweep(&point.rig(), &steps, u64::MAX);
}
