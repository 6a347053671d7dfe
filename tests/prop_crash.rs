//! Crash-consistency search over the whole configuration matrix.
//!
//! The central invariant of the paper: *after recovery, the application
//! always sees vPM in the state of the last completed `persist()`* — for
//! any operation sequence, any persist placement, and any crash point.
//! Every test here is a mode of the checker in `tests/common/`: seeded
//! random schedules on random matrix points, an exhaustive crash of every
//! short schedule at every durable-write step, and replay determinism.

mod common;

use common::{
    check_or_fail, drive, exhaustive, points, random, schedule, shrink, Mix, Point, Step,
};
use libpax::PersistencyModel;
use pax_device::recover_traced;
use pax_telemetry::{TraceBuf, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn not_strict(p: &Point) -> bool {
    p.model != PersistencyModel::Strict
}

/// Map puts and deletes with closes, crashed at the end: the hash map and
/// B-tree recover exactly the model at the last close.
#[test]
fn recovery_restores_last_persisted_snapshot() {
    random(0x5eed, 48, &points(not_strict), Mix::Map, 1..120, 0);
}

/// Map schedules crashed at arbitrary durable-write steps (mid-op and
/// mid-persist included) never expose anything but a close point.
#[test]
fn arbitrary_crash_points_are_safe() {
    random(0xa7b, 24, &points(not_strict), Mix::Map, 1..60, 4);
}

/// Allocations and frees never overlap, stay aligned, keep their fills,
/// and recover with exact accounting.
#[test]
fn heap_allocations_never_overlap() {
    random(0x4ea9, 32, &points(not_strict), Mix::Blocks, 1..80, 1);
}

/// Line schedules with async closes, polls and waits crash anywhere:
/// recovery lands on whichever close had committed, never a mix, and
/// never before a close a poll or wait reported.
#[test]
fn overlapped_epochs_crash_anywhere() {
    random(0x0e1a, 48, &points(|_| true), Mix::Lines, 1..60, 4);
}

/// The B-tree's structural invariants survive crashes mid-rebalance.
#[test]
fn btree_recovery_restores_last_persisted_snapshot() {
    random(0xb7ee, 24, &points(not_strict), Mix::Map, 20..80, 2);
}

/// Shrunk from a planted bug that committed a buffered epoch's header
/// before writing its captured values back: the recovered maps were torn.
/// (Torn B-trees once recursed forever; the walk now stops at a node
/// reachable twice, so such a bug shrinks like any other.)
#[test]
fn header_commit_before_write_back_regression() {
    check_or_fail(
        &Point {
            shards: 8,
            tenants: 1,
            cores: 3,
            model: PersistencyModel::BufferedEpoch { k: 4 },
            dir: true,
        }
        .rig(),
        &[
            Step::Put(1, 2, 13644806791751102172),
            Step::Put(3, 47, 13384701005241175597),
            Step::Close(0),
            Step::Put(3, 47, 17269788448967318300),
        ],
        None,
    );
}

/// Bounded-exhaustive mode: every schedule of up to three line steps,
/// each on the next matrix point, crashed at every durable-write step.
#[test]
fn every_short_line_schedule_survives_every_crash_point() {
    let alphabet = [
        Step::Store(0, 0, 0, 1),
        Step::Store(1, 2, 1, 2),
        Step::Close(0),
        Step::CloseAsync(1),
        Step::Poll(1),
        Step::Tick(1),
    ];
    exhaustive(&points(|_| true), &alphabet, 3);
}

/// Bounded-exhaustive mode over allocator and map steps.
#[test]
fn every_short_arena_schedule_survives_every_crash_point() {
    let alphabet = [Step::Alloc(0, 40), Step::Free(0, 0), Step::Put(1, 3, 9), Step::Close(0)];
    exhaustive(&points(not_strict), &alphabet, 3);
}

/// The shrinker cuts a failing schedule down to the steps the failure
/// needs and moves the crash to its earliest failing step.
#[test]
fn shrinker_cuts_a_failure_to_its_minimal_schedule() {
    let mut steps = schedule(&mut StdRng::seed_from_u64(9), Mix::Lines, 60);
    steps.insert(17, Step::Store(2, 1, 5, 77));
    steps.insert(40, Step::CloseAsync(3));
    // A stand-in bug: a store of 77 followed later by async close 3, seen
    // only when the crash comes at step 4 or later.
    let fails = |s: &[Step], at: Option<u64>| {
        let store = s.iter().position(|&x| x == Step::Store(2, 1, 5, 77));
        let close = s.iter().rposition(|&x| x == Step::CloseAsync(3));
        matches!((store, close), (Some(a), Some(b)) if a < b) && at.is_some_and(|c| c >= 4)
    };
    assert!(fails(&steps, Some(30)));
    let (min, at) = shrink(&steps, Some(30), fails);
    assert_eq!((min, at), (vec![Step::Store(2, 1, 5, 77), Step::CloseAsync(3)], Some(4)));
}

/// A crash injected mid-epoch is replayable from the trace dump: the dump
/// parses back in sequence order with exactly one crash event, last, and
/// every undo-log append of the in-flight epoch precedes it; recovery
/// rolls back only lines the trace logged in that epoch.
#[test]
fn mid_epoch_crash_replays_from_trace_dump() {
    let mut rng = StdRng::seed_from_u64(0x7ace);
    for _ in 0..24 {
        let puts = |rng: &mut StdRng| -> Vec<Step> {
            let n = rng.gen_range(2..20usize);
            (0..n).map(|_| Step::Put(0, rng.gen_range(0..48), rng.gen())).collect()
        };
        // Epoch 1 commits; epoch 2 dies somewhere in the middle.
        let mut steps = puts(&mut rng);
        steps.push(Step::Close(0));
        let rig = Point::BASE.rig();
        let crash_at = drive(&rig, &steps, None).unwrap().steps_taken + rng.gen_range(5..200u64);
        steps.extend(puts(&mut rng));
        let mut crashed = drive(&rig, &steps, Some(crash_at)).unwrap().power_loss().unwrap();

        let records = TraceBuf::parse_json_lines(&crashed.run.pool.trace_dump()).unwrap();
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq), "dump in sequence order");
        let crashes: Vec<usize> = (0..records.len())
            .filter(|&i| matches!(records[i].event, TraceEvent::Crash { .. }))
            .collect();
        assert_eq!(crashes, [records.len() - 1], "exactly one crash, and it is last");
        let TraceEvent::Crash { epoch } = records[crashes[0]].event else { unreachable!() };
        let logged: std::collections::HashSet<u64> = records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::LogAppend { epoch: e, line, .. } if e == epoch => Some(line),
                _ => None,
            })
            .collect();

        let mut replay = TraceBuf::new(4096);
        let report = recover_traced(&mut crashed.pm, &mut replay).unwrap();
        let rolled: Vec<u64> = replay
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::RecoveryStep { line, .. } => Some(line),
                _ => None,
            })
            .collect();
        assert_eq!(rolled.len(), report.rolled_back);
        assert!(rolled.iter().all(|l| logged.contains(l)), "rolled back an unlogged line");
        crashed.recover().unwrap();
    }
}

/// Virtual-time determinism: the same schedule with the crash clock armed
/// at the same step replays the identical durable image and recovery.
#[test]
fn identical_tick_schedules_replay_identical_crash_states() {
    let mut rng = StdRng::seed_from_u64(0x71c);
    let rig = Point::BASE.rig();
    for _ in 0..24 {
        let n = rng.gen_range(8..32);
        let steps = schedule(&mut rng, Mix::Lines, n);
        let crash_at = Some(rng.gen_range(1..250));
        let replay = || {
            let mut crashed = drive(&rig, &steps, crash_at).unwrap().power_loss().unwrap();
            (crashed.digest(), crashed.recover().unwrap())
        };
        assert_eq!(replay(), replay(), "same schedule and crash step must replay");
    }
}
