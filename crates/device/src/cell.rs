//! Interior-mutability cells and lock-free trace rings for the
//! concurrent device.
//!
//! A `Send + Sync` [`PaxDevice`](crate::PaxDevice) keeps the PM media
//! global (per-lane state — undo banks, HBM sets, write-back queues,
//! trace rings — lives in lock-free or finely striped structures of its
//! own), but it must be reachable from `&self`. These types wrap the
//! shared pieces:
//!
//! * [`PoolCell`] — the single media lock. Shard engines receive
//!   `&PoolCell` and lock it only around actual durable-write steps, so
//!   an HBM hit or an undo-bank append never touches the global lock.
//!   **Never call a `&PoolCell`-taking function while holding its
//!   guard** — the `Mutex` is not reentrant.
//! * [`WbGate`] — one per lane: serializes that lane's *write-back
//!   drains* (background steps, persist batches, forced drains) against
//!   each other — the only lane-local lock. Lock order: ctl → core →
//!   wb-gate → HBM set → pool (DESIGN.md §15).
//! * [`TraceRing`] — a fixed ring of packed atomic slots, one per lane
//!   plus one for device-wide events. Recording takes no lock, allocates
//!   nothing and reads no global counter, so it sits outside the lock
//!   order and can be called under any of the locks above.
//!   [`merge_traces`] turns the rings back into one [`TraceBuf`] for
//!   dumps and post-crash forensics (DESIGN.md §11).
//!
//! The locks are the vendored `parking_lot` shim's poison-free locks,
//! like every other lock in the crate: a panicked thread must not wedge
//! every other thread's persist.

use std::borrow::Cow;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::MutexGuard;

use parking_lot::Mutex;
use pax_pm::PmPool;
use pax_telemetry::{TraceBuf, TraceEvent, TraceRecord};

use crate::shard::COMPONENT;

/// The device's PM media behind its single lock (see module docs).
#[derive(Debug)]
pub(crate) struct PoolCell(Mutex<PmPool>);

impl PoolCell {
    pub(crate) fn new(pool: PmPool) -> Self {
        PoolCell(Mutex::new(pool))
    }

    /// Locks the media. Hold the guard only across the durable-write
    /// steps that need it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, PmPool> {
        self.0.lock()
    }

    pub(crate) fn into_inner(self) -> PmPool {
        self.0.into_inner()
    }
}

/// A lane's write-back drain gate (see module docs). Consumers of the
/// lane's [`WbQueue`](crate::shard::WbQueue) must hold this for the
/// whole pop-check-write sequence so two drains never interleave their
/// queue pops with their PM writes.
#[derive(Debug, Default)]
pub(crate) struct WbGate(Mutex<()>);

impl WbGate {
    /// Locks the gate.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ()> {
        self.0.lock()
    }
}

/// The coherence messages the device traces, packed into a ring slot as
/// their index into [`Op::NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    RdShared,
    RdOwn,
    CleanEvict,
    DirtyEvict,
    SnpData,
    SnpInv,
}

impl Op {
    /// The message names a dump prints, in discriminant order.
    const NAMES: [&'static str; 6] =
        ["rd_shared", "rd_own", "clean_evict", "dirty_evict", "snp_data", "snp_inv"];
}

/// A device event as a ring records it: [`TraceEvent`] without the
/// recovery-only `RecoveryStep` and with the coherence op as an [`Op`],
/// so it packs into plain words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RingEvent {
    Coherence { op: Op, line: u64 },
    LogAppend { epoch: u64, line: u64 },
    WriteBack { line: u64 },
    EpochCommit { epoch: u64, entries: u64 },
    Crash { epoch: u64 },
    Tick { tick: u64, work: u64 },
}

/// Bits of a slot's tag word below the stamp: kind in bits 4..8, op in
/// bits 0..4.
const STAMP_SHIFT: u32 = 8;

/// The largest stamp a tag holds. Epochs never get near it; the crash
/// record uses it so it sorts after every other record.
pub(crate) const STAMP_LAST: u64 = u64::MAX >> STAMP_SHIFT;

impl RingEvent {
    /// Packs the event and its merge stamp into `(tag, a, b)`.
    fn pack(self, stamp: u64) -> (u64, u64, u64) {
        let (kind, op, a, b) = match self {
            RingEvent::Coherence { op, line } => (0, op as u64, line, 0),
            RingEvent::LogAppend { epoch, line } => (1, 0, epoch, line),
            RingEvent::WriteBack { line } => (2, 0, line, 0),
            RingEvent::EpochCommit { epoch, entries } => (3, 0, epoch, entries),
            RingEvent::Crash { epoch } => (4, 0, epoch, 0),
            RingEvent::Tick { tick, work } => (5, 0, tick, work),
        };
        (stamp.min(STAMP_LAST) << STAMP_SHIFT | kind << 4 | op, a, b)
    }

    /// Inverse of [`RingEvent::pack`], straight to the dump's event type.
    fn unpack(tag: u64, a: u64, b: u64) -> TraceEvent {
        match (tag >> 4) & 0xf {
            0 => TraceEvent::Coherence {
                op: Cow::Borrowed(Op::NAMES[(tag & 0xf) as usize]),
                line: a,
            },
            1 => TraceEvent::LogAppend { epoch: a, line: b },
            2 => TraceEvent::WriteBack { line: a },
            3 => TraceEvent::EpochCommit { epoch: a, entries: b },
            4 => TraceEvent::Crash { epoch: a },
            _ => TraceEvent::Tick { tick: a, work: b },
        }
    }
}

/// One ring slot. `seq` is the record's ring sequence number plus one
/// (0 = empty or being filled); it is written last, so a reader that
/// sees the same nonzero `seq` before and after reading the payload read
/// one whole record. 32 bytes, aligned so a slot never straddles a
/// cache line.
#[derive(Debug, Default)]
#[repr(align(32))]
struct Slot {
    seq: AtomicU64,
    tag: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A bounded, lock-free ring of device trace records (see module docs).
///
/// Each record claims the next ring sequence number with one
/// `fetch_add` on the ring's own cursor and fills the slot that number
/// maps to. Slots are a power of two, so that map is a mask; a dump
/// reads only the newest `capacity` of them. A ring built with capacity
/// 0 records nothing.
///
/// A writer lapped by a whole ring of newer records while it
/// is still filling its slot can leave that slot mixing two records;
/// with the shipped 1024-slot rings that takes a thread descheduled in
/// the middle of four stores while others record a thousand events on
/// its lane.
#[derive(Debug)]
pub(crate) struct TraceRing {
    /// `capacity` rounded up to a power of two (empty when 0).
    slots: Box<[Slot]>,
    /// Records a dump keeps: the newest `capacity`.
    capacity: u64,
    cursor: AtomicU64,
}

impl TraceRing {
    pub(crate) fn new(capacity: usize) -> Self {
        let len = if capacity == 0 { 0 } else { capacity.next_power_of_two() };
        TraceRing {
            slots: (0..len).map(|_| Slot::default()).collect(),
            capacity: capacity as u64,
            cursor: AtomicU64::new(0),
        }
    }

    /// The slot ring sequence number `seq` maps to.
    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq & (self.slots.len() as u64 - 1)) as usize]
    }

    /// Records `event` under merge stamp `stamp` (its tenant's epoch).
    pub(crate) fn record(&self, stamp: u64, event: RingEvent) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(seq);
        let (tag, a, b) = event.pack(stamp);
        // Seqlock write: mark the slot in flight, and let the fence order
        // that mark before the payload stores, so a reader that sees any
        // new payload word also sees the mark change.
        slot.seq.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.tag.store(tag, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        // Release pairs with the Acquire load in `collect`.
        slot.seq.store(seq + 1, Ordering::Release);
    }

    /// Records overwritten by newer ones since the ring was built.
    fn dropped(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed).saturating_sub(self.capacity)
    }

    /// Appends the ring's retained records to `out` as
    /// `(stamp, rank, ring seq, event)`, skipping any slot a writer is
    /// filling or has already reused for a newer record.
    fn collect(&self, rank: usize, out: &mut Vec<(u64, usize, u64, TraceEvent)>) {
        let end = self.cursor.load(Ordering::Acquire);
        for seq in end.saturating_sub(self.capacity)..end {
            let slot = self.slot(seq);
            // Seqlock read: Acquire pairs with the writer's final Release
            // store; the Acquire fence orders the payload loads before
            // the re-check.
            if slot.seq.load(Ordering::Acquire) != seq + 1 {
                continue;
            }
            let (tag, a, b) = (
                slot.tag.load(Ordering::Relaxed),
                slot.a.load(Ordering::Relaxed),
                slot.b.load(Ordering::Relaxed),
            );
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq + 1 {
                continue;
            }
            out.push((tag >> STAMP_SHIFT, rank, seq, RingEvent::unpack(tag, a, b)));
        }
    }
}

/// Merges `prefix` (the open-time recovery trace) and the rings into one
/// [`TraceBuf`]: the prefix first, then the rings' `device` records
/// ordered by `(stamp, ring index, ring seq)` — `rings` in lane order
/// with the device ring last, so a device-wide event follows its
/// epoch's lane events. `seq` is renumbered `0..n` in that order, and
/// `dropped` counts the prefix's and every ring's overwritten records.
/// The order depends only on what each ring recorded, so a single
/// driver dumps the same trace every run.
pub(crate) fn merge_traces<'a>(
    prefix: &TraceBuf,
    rings: impl IntoIterator<Item = &'a TraceRing>,
) -> TraceBuf {
    let mut merged = Vec::new();
    let (mut capacity, mut dropped) = (prefix.capacity(), prefix.dropped());
    for (rank, ring) in rings.into_iter().enumerate() {
        ring.collect(rank, &mut merged);
        capacity += ring.capacity as usize;
        dropped += ring.dropped();
    }
    merged.sort_unstable_by_key(|&(stamp, rank, seq, _)| (stamp, rank, seq));
    let records = prefix
        .records()
        .map(|r| (r.component.clone(), r.event.clone()))
        .chain(merged.into_iter().map(|(.., event)| (Cow::Borrowed(COMPONENT), event)))
        .enumerate()
        .map(|(seq, (component, event))| TraceRecord { seq: seq as u64, component, event });
    TraceBuf::from_records(capacity, records, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event kind survives the packed slot encoding, and the merge
    /// orders by stamp first, then ring, then ring sequence.
    #[test]
    fn ring_events_round_trip_and_merge_by_stamp() {
        let (lane, device) = (TraceRing::new(8), TraceRing::new(8));
        let ops =
            [Op::RdShared, Op::RdOwn, Op::CleanEvict, Op::DirtyEvict, Op::SnpData, Op::SnpInv];
        for (i, &op) in ops.iter().enumerate() {
            lane.record(2, RingEvent::Coherence { op, line: i as u64 });
        }
        lane.record(1, RingEvent::LogAppend { epoch: 1, line: 7 });
        lane.record(1, RingEvent::WriteBack { line: 7 });
        device.record(1, RingEvent::EpochCommit { epoch: 1, entries: 1 });
        device.record(1, RingEvent::Tick { tick: 9, work: 3 });
        device.record(STAMP_LAST, RingEvent::Crash { epoch: 2 });
        let merged = merge_traces(&TraceBuf::new(4), [&lane, &device]);
        let events: Vec<TraceEvent> = merged.records().map(|r| r.event.clone()).collect();
        let mut want = vec![
            TraceEvent::LogAppend { epoch: 1, line: 7 },
            TraceEvent::WriteBack { line: 7 },
            TraceEvent::EpochCommit { epoch: 1, entries: 1 },
            TraceEvent::Tick { tick: 9, work: 3 },
        ];
        want.extend(
            Op::NAMES
                .iter()
                .enumerate()
                .map(|(i, &op)| TraceEvent::Coherence { op: op.into(), line: i as u64 }),
        );
        want.push(TraceEvent::Crash { epoch: 2 });
        assert_eq!(events, want);
        assert!(merged.records().enumerate().all(|(i, r)| r.seq == i as u64));
        assert_eq!(merged.dropped(), 0);
    }
}
