//! Non-blocking persist (§6 "Looking Forward"): epochs overlap — the
//! application continues into epoch N+1 while epoch N drains; durability
//! of N holds from the moment it commits; recovery always lands on the
//! newest *committed* epoch, even with interleaved cross-epoch writes to
//! the same lines.

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxError, PaxPool};
use pax_device::{BLOCK_ENTRIES, BLOCK_LINES};
use pax_pm::{PmError, PoolConfig, LINE_SIZE};

fn config() -> PaxConfig {
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(8 << 20).with_log_bytes(64 << 20))
}

/// A pool whose undo log holds only `slots` entries (a whole number of
/// blocks of `BLOCK_ENTRIES` entries, `BLOCK_LINES` lines each).
fn tiny_log_config(slots: usize) -> PaxConfig {
    let lines = slots / BLOCK_ENTRIES as usize * BLOCK_LINES as usize;
    PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(1 << 20).with_log_bytes(lines * LINE_SIZE))
}

#[test]
fn async_persist_returns_immediately_and_commits_later() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    for i in 0..32u64 {
        vpm.write_u64(i * 64, 1).unwrap();
    }
    let epoch = pool.persist_async().unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(pool.persist_pending().unwrap(), Some(1));
    // Not yet committed:
    assert_eq!(pool.committed_epoch().unwrap(), 0);

    // The application keeps working; background progress happens on its
    // accesses, plus explicit polls.
    let mut committed = None;
    for i in 0..200u64 {
        vpm.write_u64((64 + i % 8) * 64, i).unwrap();
        if committed.is_none() {
            committed = pool.persist_poll().unwrap();
        }
    }
    if committed.is_none() {
        pool.persist_wait().unwrap();
    }
    assert_eq!(pool.committed_epoch().unwrap(), 1);
    assert_eq!(pool.persist_pending().unwrap(), None);
}

#[test]
fn work_during_drain_lands_in_the_next_epoch() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    vpm.write_u64(0, 10).unwrap();
    pool.persist_async().unwrap(); // epoch 1 draining

    // Epoch 2 work, interleaved with the drain:
    vpm.write_u64(64, 20).unwrap();
    pool.persist_wait().unwrap(); // epoch 1 committed
    assert_eq!(pool.committed_epoch().unwrap(), 1);

    // Crash now: epoch 2 is lost, epoch 1 survives.
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let vpm = pool.vpm();
    assert_eq!(vpm.read_u64(0).unwrap(), 10);
    assert_eq!(vpm.read_u64(64).unwrap(), 0, "epoch-2 write must be rolled back");
}

#[test]
fn cross_epoch_rewrites_of_the_same_line_are_ordered() {
    // The hard case from §6: the same line is modified in epoch N (value
    // A, draining) and again in epoch N+1 (value B) before N commits. The
    // pre-image logged for N+1 must be A (not the pre-N value), and the
    // final PM state must be B after N+1 commits.
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    vpm.write_u64(0, 0xA).unwrap();
    pool.persist_async().unwrap(); // epoch 1 draining with value A

    vpm.write_u64(0, 0xB).unwrap(); // epoch 2 rewrite, drain still pending
    pool.persist_wait().unwrap(); // epoch 1 commits

    // Crash before epoch 2 persists: must recover value A.
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let vpm = pool.vpm();
    assert_eq!(vpm.read_u64(0).unwrap(), 0xA, "epoch-2 pre-image must be the epoch-1 value");

    // And the full pipeline: rewrite + async persist of both epochs.
    vpm.write_u64(0, 0xC).unwrap();
    pool.persist_async().unwrap();
    vpm.write_u64(0, 0xD).unwrap();
    pool.persist_wait().unwrap();
    pool.persist().unwrap(); // commit the D epoch synchronously
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    assert_eq!(pool.vpm().read_u64(0).unwrap(), 0xD);
}

#[test]
fn crash_while_draining_recovers_to_previous_epoch() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    vpm.write_u64(0, 1).unwrap();
    pool.persist().unwrap(); // epoch 1, committed

    for i in 0..16u64 {
        vpm.write_u64(i * 64, 100 + i).unwrap();
    }
    pool.persist_async().unwrap(); // epoch 2 draining
                                   // Crash before the drain completes (no polls issued).
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    assert_eq!(pool.committed_epoch().unwrap(), 1);
    let vpm = pool.vpm();
    assert_eq!(vpm.read_u64(0).unwrap(), 1);
    for i in 1..16u64 {
        assert_eq!(vpm.read_u64(i * 64).unwrap(), 0, "line {i}");
    }
}

#[test]
fn overlapping_epochs_with_structures() {
    let pool = PaxPool::create(config()).unwrap();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();

    let mut committed_lens = Vec::new();
    for batch in 0..6u64 {
        for k in 0..50u64 {
            map.insert(batch * 100 + k, batch).unwrap();
        }
        pool.persist_async().unwrap();
        committed_lens.push((batch + 1) * 50);
    }
    pool.persist_wait().unwrap();
    assert_eq!(pool.committed_epoch().unwrap(), 6);

    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(pool.vpm()).unwrap()).unwrap();
    assert_eq!(map.len().unwrap(), 300);
    assert_eq!(map.get(523).unwrap(), Some(5));
}

#[test]
fn sync_persist_flushes_a_pending_drain_first() {
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    vpm.write_u64(0, 1).unwrap();
    pool.persist_async().unwrap(); // epoch 1 draining
    vpm.write_u64(64, 2).unwrap(); // epoch 2
    let epoch = pool.persist().unwrap(); // must commit 1 then 2
    assert_eq!(epoch, 2);
    assert_eq!(pool.committed_epoch().unwrap(), 2);
    assert_eq!(pool.persist_pending().unwrap(), None);
}

#[test]
fn continuous_overlapping_epochs_recycle_the_log() {
    // Regression: `persist_poll` used to return committed epochs' log
    // slots only once the device was completely idle (empty epoch log AND
    // no pending drain). Under continuous overlapped traffic that moment
    // never arrives, so cumulative appends eventually crossed the log
    // capacity and writes died with a spurious `LogFull`. The fix
    // recycles each committed epoch's slots up to its drain watermark.
    let pool = PaxPool::create(tiny_log_config(16)).unwrap();
    let vpm = pool.vpm();
    // 20 rounds × up to 7 appends ≫ 16 slots: only recycling keeps this
    // alive (the pre-fix code failed around round 3).
    for round in 0..20u64 {
        for i in 0..6u64 {
            vpm.write_u64(i * 64, round * 10 + i).unwrap();
        }
        pool.persist_async().unwrap();
        // Next-epoch traffic while the drain is in flight keeps the
        // device from ever going idle.
        vpm.write_u64((6 + round % 4) * 64, round).unwrap();
        pool.persist_wait().unwrap();
    }
    assert!(pool.committed_epoch().unwrap() >= 20);
    for i in 0..6u64 {
        assert_eq!(vpm.read_u64(i * 64).unwrap(), 19 * 10 + i);
    }
}

#[test]
fn oversized_single_epoch_still_reports_log_full() {
    // The recycling fix must not erode the capacity guard: one epoch
    // touching more distinct lines than the log holds is a real overflow.
    let pool = PaxPool::create(tiny_log_config(16)).unwrap();
    let vpm = pool.vpm();
    let mut err = None;
    for i in 0..64u64 {
        if let Err(e) = vpm.write_u64(i * 64, i) {
            err = Some(e);
            break;
        }
    }
    match err {
        Some(PaxError::Pm(PmError::LogFull { capacity_entries })) => {
            assert_eq!(capacity_entries, 16);
        }
        other => panic!("expected LogFull, got {other:?}"),
    }
}

#[test]
fn free_running_ticks_drain_an_async_persist_without_traffic() {
    use pax_device::DeviceConfig;

    // Foreground requests never pump (interval usize::MAX): the only
    // background progress is the virtual-time scheduler — the decoupled
    // "device makes progress on its own" deployment.
    let free_running =
        config().with_device(DeviceConfig::default().with_log_pump_interval(usize::MAX));
    let pool = PaxPool::create(free_running).unwrap();
    let vpm = pool.vpm();
    for i in 0..32u64 {
        vpm.write_u64(i * 64, i + 7).unwrap();
    }
    let epoch = pool.persist_async().unwrap();
    assert_eq!(pool.committed_epoch().unwrap(), 0, "nothing committed yet");

    // No further application traffic, no polls: ticks alone must flush
    // the log, write everything back, and commit (bounded for safety).
    let mut ticks_needed = 0u64;
    while pool.persist_pending().unwrap().is_some() {
        pool.run_device(1).unwrap();
        ticks_needed += 1;
        assert!(ticks_needed < 10_000, "drain must converge");
    }
    assert_eq!(pool.committed_epoch().unwrap(), epoch);

    // The committed snapshot is the real thing: it survives a crash.
    let pm = pool.crash().unwrap();
    let pool = PaxPool::open(pm, config()).unwrap();
    let vpm = pool.vpm();
    for i in 0..32u64 {
        assert_eq!(vpm.read_u64(i * 64).unwrap(), i + 7, "line {i}");
    }
}

#[test]
fn empty_async_epoch_commits() {
    let pool = PaxPool::create(config()).unwrap();
    let e = pool.persist_async().unwrap();
    pool.persist_wait().unwrap();
    assert_eq!(pool.committed_epoch().unwrap(), e);
}

#[test]
fn rolled_back_entries_cannot_roll_back_a_later_committed_epoch() {
    // Recovery rolls back every entry newer than the committed epoch. If
    // it left those entries valid on media, the next life — which reuses
    // the same epoch numbers — would commit over them, and a second crash
    // would roll its committed data back to the first life's snapshot.
    let pool = PaxPool::create(config()).unwrap();
    let vpm = pool.vpm();
    vpm.write_u64(0, 1).unwrap();
    assert_eq!(pool.persist().unwrap(), 1);
    // A big epoch 2 keeps draining while epoch 3 logs and drains its
    // blocks ahead of it.
    for i in 1..=40_000u64 {
        vpm.write_u64(i * 64, i).unwrap();
    }
    assert_eq!(pool.persist_async().unwrap(), 2);
    vpm.write_u64(0, 3).unwrap();
    for i in 1..=11u64 {
        vpm.write_u64((50_000 + i) * 64, i).unwrap();
    }
    for i in 0..3u64 {
        vpm.read_u64((60_000 + i) * 64).unwrap();
    }

    let pool = PaxPool::open(pool.crash().unwrap(), config()).unwrap();
    assert_eq!(pool.committed_epoch().unwrap(), 1);
    assert_eq!(pool.vpm().read_u64(0).unwrap(), 1);
    // The second life commits its own epoch 2, overwriting X.
    pool.vpm().write_u64(0, 22).unwrap();
    assert_eq!(pool.persist().unwrap(), 2);

    let pool = PaxPool::open(pool.crash().unwrap(), config()).unwrap();
    let report = pool.recovery_report().unwrap();
    assert_eq!((report.committed_epoch, report.rolled_back), (2, 0), "{report:?}");
    assert_eq!(pool.vpm().read_u64(0).unwrap(), 22, "committed epoch 2 must survive");
}
