//! Post-crash recovery (§3.4).
//!
//! "libpax reads the epoch number stored in the pool, then it looks for
//! undo log entries associated with the pool tagged with any later epoch
//! number. For each such entry, libpax overwrites the corresponding cache
//! line in PM with the value stored in the log entry. Next, it performs an
//! SFENCE, and initializes the device and vPM as usual."
//!
//! [`recover`] is that procedure, plus one step the paper leaves
//! implicit: once the rollback is durable, the blocks it rolled back are
//! invalidated, so the next life — which reuses their epoch numbers —
//! can never mistake them for its own uncommitted work. It is idempotent
//! — recovering twice is harmless, and the second pass finds nothing to
//! roll back — and running it on a clean pool is a no-op, which is why
//! "from the application's perspective, there is no difference between
//! constructing a new persistent map and recovering one".

use pax_pm::{PmPool, Result};
use pax_telemetry::{TraceBuf, TraceEvent};

use crate::undo_log::UndoLog;

/// What a recovery pass observed and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The committed epoch the pool was restored to.
    pub committed_epoch: u64,
    /// Valid undo entries found in the log region.
    pub scanned: usize,
    /// Entries rolled back (tagged with an epoch newer than committed).
    pub rolled_back: usize,
    /// How many epochs of history the rollback unwound: the maximum, over
    /// all tenants, of `newest rolled-back entry's epoch − the tenant's
    /// committed epoch`. Zero when nothing rolled back. This is the
    /// quantity each [`PersistencyModel`](pax_pm::PersistencyModel)
    /// bounds: ≤ `rollback_bound() + 1` (its buffered closes plus the one
    /// open epoch a crash always forfeits).
    pub rollback_gap: u64,
}

/// Rolls the pool back to its last committed snapshot.
///
/// # Errors
///
/// Surfaces media errors from the scan and rollback writes.
pub fn recover(pool: &mut PmPool) -> Result<RecoveryReport> {
    recover_traced(pool, &mut TraceBuf::disabled())
}

/// Like [`recover`], emitting a [`TraceEvent::RecoveryStep`] per rolled
/// back line into `trace` so the rollback order is replayable.
///
/// Slots a lock-free appender *reserved but never published* are
/// structurally invisible here: the pump only drains published entries,
/// so such a slot's media is stale or garbage, and
/// [`UndoLog::scan`] rejects any header whose commit mark or checksum —
/// which covers the mark — does not verify. Recovery therefore never
/// replays a half-filled entry, whatever instant the crash hit the
/// reserve→fill window.
///
/// # Errors
///
/// Surfaces media errors from the scan and rollback writes.
pub fn recover_traced(pool: &mut PmPool, trace: &mut TraceBuf) -> Result<RecoveryReport> {
    let committed = pool.committed_epoch()?;
    // Each entry rolls back against *its own tenant's* committed epoch —
    // tenant A crashing mid-epoch must not unwind B's committed data.
    // Only entries newer than that are kept: the stale entries of
    // committed epochs fill most of a long-lived log.
    let mut committed_for = std::collections::HashMap::new();
    let mut scanned = 0;
    let mut live = Vec::new();
    UndoLog::scan_each(pool, |pool, slot, entry| {
        scanned += 1;
        let tenant_committed = *committed_for.entry(entry.tenant).or_insert_with(|| {
            // A tenant tag past the header's epoch slots can only come
            // from corrupt media the checksum missed; skip, don't die.
            pool.committed_epoch_for(entry.tenant as usize).unwrap_or(u64::MAX)
        });
        if entry.epoch > tenant_committed {
            live.push((slot, entry, tenant_committed));
        }
        Ok(())
    })?;
    // Newest-epoch-first: each entry restores its line's epoch-start
    // value, so when the same line was logged in several uncommitted
    // epochs the *oldest* pre-image must be applied last. Slot order is
    // not append order — the log is a ring that rewinds after drained
    // commits, and banked per shard — so the epoch tag, not the slot
    // index, decides the order. Within an epoch a
    // line is logged at most once, so intra-epoch order is free. Tenants'
    // entries interleave in the shared region but never name the same
    // line (regions are disjoint), so one global sort is sound.
    live.sort_by(|(sa, a, _), (sb, b, _)| b.epoch.cmp(&a.epoch).then(sa.cmp(sb)));
    let rolled_back = live.len();
    let slots: Vec<u64> = live.iter().map(|(slot, _, _)| *slot).collect();
    let mut rollback_gap = 0u64;
    for (_, entry, tenant_committed) in live {
        let abs = pool.layout().vpm_to_pool(entry.vpm_line.0)?;
        pool.write_line(abs, entry.old)?;
        trace.record(
            "device",
            TraceEvent::RecoveryStep { epoch: entry.epoch, line: entry.vpm_line.0 },
        );
        rollback_gap = rollback_gap.max(entry.epoch - tenant_committed);
    }
    // The §3.4 SFENCE needs no call here: each rollback write is durable
    // once the pool accepts it, before execution continues.
    // The rolled-back entries must not outlive this recovery: the next
    // life reuses their epoch numbers, and once it commits one of them a
    // later recovery would take the stale entries for uncommitted work
    // and roll committed data back. Clearing their blocks' commit marks
    // only after the rollback was written keeps recovery idempotent: a crash
    // in between leaves the rolled-back data plus entries that restore it
    // again. The marks clear in rollback order (newest epoch first), and
    // media keeps a prefix of its writes, so what a crash leaves valid is
    // the oldest epochs — whose pre-images are the ones that win anyway.
    UndoLog::invalidate(pool, slots)?;
    Ok(RecoveryReport { committed_epoch: committed, scanned, rolled_back, rollback_gap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::undo_log::{UndoEntry, UndoLog, BLOCK_ENTRIES, BLOCK_LINES};
    use pax_pm::{CacheLine, CrashClock, LineAddr, PoolConfig};

    #[test]
    fn clean_pool_recovers_to_epoch_zero() {
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let r = recover(&mut pool).unwrap();
        assert_eq!(
            r,
            RecoveryReport { committed_epoch: 0, scanned: 0, rolled_back: 0, rollback_gap: 0 }
        );
    }

    #[test]
    fn entries_newer_than_committed_are_rolled_back() {
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let clock = CrashClock::new();
        pool.commit_epoch(2).unwrap();

        // Simulate a crash mid-epoch-3: line 4's pre-image (0xAB) is
        // logged and the "new" value (0xCD) already reached PM.
        let log = UndoLog::new(&pool);
        log.append(UndoEntry::single(3, LineAddr(4), CacheLine::filled(0xAB))).unwrap();
        log.flush(&mut pool, &clock).unwrap();
        let abs = pool.layout().vpm_to_pool(4).unwrap();
        pool.write_line(abs, CacheLine::filled(0xCD)).unwrap();

        let r = recover(&mut pool).unwrap();
        assert_eq!(r.rolled_back, 1);
        assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(0xAB));
    }

    #[test]
    fn entries_from_committed_epochs_are_ignored() {
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let clock = CrashClock::new();
        let log = UndoLog::new(&pool);
        log.append(UndoEntry::single(1, LineAddr(0), CacheLine::filled(0x11))).unwrap();
        log.flush(&mut pool, &clock).unwrap();
        pool.commit_epoch(1).unwrap(); // epoch 1 committed: entry is stale

        let abs = pool.layout().vpm_to_pool(0).unwrap();
        pool.write_line(abs, CacheLine::filled(0x22)).unwrap();

        let r = recover(&mut pool).unwrap();
        assert_eq!(r.scanned, 1);
        assert_eq!(r.rolled_back, 0);
        assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(0x22));
    }

    #[test]
    fn wrapped_slots_roll_back_in_epoch_order() {
        // The ring makes block order disagree with append order: the same
        // line is logged in uncommitted epochs 2 (block 1) and 3 (block 0,
        // wrapped). Rollback must finish with the epoch-2 pre-image —
        // block-order iteration would finish with epoch 3's.
        let mut cfg = PoolConfig::small();
        cfg.log_bytes = 2 * BLOCK_LINES as usize * pax_pm::LINE_SIZE; // 2 blocks
        let mut pool = PmPool::create(cfg).unwrap();
        let clock = CrashClock::new();
        pool.commit_epoch(1).unwrap();

        let log = UndoLog::new(&pool);
        for i in 0..BLOCK_ENTRIES {
            // Committed-epoch fillers occupying block 0.
            log.append(UndoEntry::single(1, LineAddr(i), CacheLine::zeroed())).unwrap();
        }
        log.append(UndoEntry::single(2, LineAddr(7), CacheLine::filled(0x22))).unwrap();
        log.flush(&mut pool, &clock).unwrap();
        log.recycle_to(BLOCK_ENTRIES); // epoch-1 block free; epoch-2 entry stays live
        let wrapped =
            log.append(UndoEntry::single(3, LineAddr(7), CacheLine::filled(0x33))).unwrap();
        assert_eq!(wrapped, 2 * BLOCK_ENTRIES, "wraps into block 0");
        log.flush(&mut pool, &clock).unwrap();

        let abs = pool.layout().vpm_to_pool(7).unwrap();
        pool.write_line(abs, CacheLine::filled(0x99)).unwrap();

        let r = recover(&mut pool).unwrap();
        assert_eq!(r.rolled_back, 2);
        assert_eq!(
            pool.read_line(abs).unwrap(),
            CacheLine::filled(0x22),
            "oldest uncommitted pre-image must win"
        );
        assert_eq!(r.rollback_gap, 2, "epochs 2 and 3 unwound against committed epoch 1");
    }

    #[test]
    fn rollback_gap_is_the_deepest_unwind_across_tenants() {
        // Tenant 0 loses one epoch (2 vs committed 1); tenant 1 loses
        // three (5 vs committed 2). The report's gap is the worst case —
        // the quantity a persistency model's rollback bound caps.
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let clock = CrashClock::new();
        pool.commit_epoch_for(0, 1).unwrap();
        pool.commit_epoch_for(1, 2).unwrap();

        let log = UndoLog::new(&pool);
        log.append(UndoEntry {
            epoch: 2,
            vpm_line: LineAddr(3),
            tenant: 0,
            old: CacheLine::filled(0xA0),
        })
        .unwrap();
        log.append(UndoEntry {
            epoch: 5,
            vpm_line: LineAddr(8),
            tenant: 1,
            old: CacheLine::filled(0xB0),
        })
        .unwrap();
        log.flush(&mut pool, &clock).unwrap();

        let r = recover(&mut pool).unwrap();
        assert_eq!(r.rolled_back, 2);
        assert_eq!(r.rollback_gap, 3, "tenant 1's epoch-5 entry vs committed epoch 2");
    }

    #[test]
    fn each_tenant_rolls_back_against_its_own_committed_epoch() {
        // Tenant 0 committed through epoch 1; tenant 1 through epoch 3.
        // Interleaved entries at epoch 2: tenant 0's is uncommitted (rolls
        // back), tenant 1's is history (must NOT roll back) — a global
        // committed epoch would get one of the two wrong either way.
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let clock = CrashClock::new();
        pool.commit_epoch_for(0, 1).unwrap();
        pool.commit_epoch_for(1, 3).unwrap();

        let log = UndoLog::new(&pool);
        log.append(UndoEntry {
            epoch: 2,
            vpm_line: LineAddr(4),
            tenant: 0,
            old: CacheLine::filled(0xA0),
        })
        .unwrap();
        log.append(UndoEntry {
            epoch: 2,
            vpm_line: LineAddr(9),
            tenant: 1,
            old: CacheLine::filled(0xB0),
        })
        .unwrap();
        log.flush(&mut pool, &clock).unwrap();
        for line in [4u64, 9] {
            let abs = pool.layout().vpm_to_pool(line).unwrap();
            pool.write_line(abs, CacheLine::filled(0xFF)).unwrap();
        }

        let r = recover(&mut pool).unwrap();
        assert_eq!(r.scanned, 2);
        assert_eq!(r.rolled_back, 1, "only tenant 0's entry is uncommitted");
        let abs0 = pool.layout().vpm_to_pool(4).unwrap();
        let abs1 = pool.layout().vpm_to_pool(9).unwrap();
        assert_eq!(pool.read_line(abs0).unwrap(), CacheLine::filled(0xA0));
        assert_eq!(pool.read_line(abs1).unwrap(), CacheLine::filled(0xFF), "tenant 1 untouched");
    }

    /// A reserved-but-unpublished slot can leave at worst a
    /// plausible-looking block header without its commit mark; recovery
    /// must treat it as empty space, not as an entry to roll back.
    #[test]
    fn unpublished_slot_is_never_replayed() {
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let clock = CrashClock::new();
        let log = UndoLog::new(&pool);
        log.append(UndoEntry::single(1, LineAddr(5), CacheLine::filled(0xAA))).unwrap();
        log.flush(&mut pool, &clock).unwrap();
        let abs = pool.layout().vpm_to_pool(5).unwrap();
        pool.write_line(abs, CacheLine::filled(0xBB)).unwrap();

        // Model the crash landing inside the reserve→fill window: the
        // header reached media but publication (the commit mark) never
        // did.
        let header = LineAddr(pool.layout().log_start().0);
        let mut line = pool.read_line(header).unwrap();
        line.write_at(crate::undo_log::COMMIT_OFFSET, &[0u8]);
        pool.write_line(header, line).unwrap();

        let r = recover(&mut pool).unwrap();
        assert_eq!(r.scanned, 0, "unpublished slot must not scan as an entry");
        assert_eq!(r.rolled_back, 0);
        assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(0xBB), "line untouched");
    }

    #[test]
    fn a_crash_inside_the_invalidation_leaves_a_recoverable_log() {
        // Line 7 logged in uncommitted epochs 2 (block 0) and 3 (block
        // 1). Recovery clears block 1's mark before block 0's, so a crash
        // in between keeps only epoch 2's entry, whose pre-image is the
        // one the rollback must end on.
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let clock = CrashClock::new();
        pool.commit_epoch(1).unwrap();
        let log = UndoLog::new(&pool);
        log.append(UndoEntry::single(2, LineAddr(7), CacheLine::filled(0x22))).unwrap();
        log.append(UndoEntry::single(3, LineAddr(7), CacheLine::filled(0x33))).unwrap();
        log.flush(&mut pool, &clock).unwrap();
        let abs = pool.layout().vpm_to_pool(7).unwrap();
        pool.write_line(abs, CacheLine::filled(0x99)).unwrap();
        let header = LineAddr(pool.layout().log_start().0);
        let epoch2 = pool.read_line(header).unwrap();

        assert_eq!(recover(&mut pool).unwrap().rolled_back, 2);
        assert!(UndoLog::scan(&mut pool).unwrap().is_empty(), "both blocks invalidated");
        // Model the crash after the first invalidation: block 0 valid
        // (and the line scribbled again, to see the rollback act).
        pool.write_line(header, epoch2).unwrap();
        pool.write_line(abs, CacheLine::filled(0x99)).unwrap();
        assert_eq!(recover(&mut pool).unwrap().rolled_back, 1);
        assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(0x22));
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut pool = PmPool::create(PoolConfig::small()).unwrap();
        let clock = CrashClock::new();
        let log = UndoLog::new(&pool);
        log.append(UndoEntry::single(1, LineAddr(2), CacheLine::filled(0x33))).unwrap();
        log.flush(&mut pool, &clock).unwrap();

        let r1 = recover(&mut pool).unwrap();
        let r2 = recover(&mut pool).unwrap();
        assert_eq!(r1.rolled_back, 1);
        // The first pass invalidated what it rolled back, so the second
        // finds nothing to do and leaves the same image.
        assert_eq!((r2.committed_epoch, r2.scanned, r2.rolled_back), (0, 0, 0));
        let abs = pool.layout().vpm_to_pool(2).unwrap();
        assert_eq!(pool.read_line(abs).unwrap(), CacheLine::filled(0x33));
    }
}
