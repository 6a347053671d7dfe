//! The persistent, epoch-tagged undo log (§3.2–3.3).
//!
//! On every first-in-epoch `RdOwn` the device appends an entry recording
//! the line's *old* value. Appends are buffered in device SRAM and drained
//! to the pool's log region asynchronously; durability advances at a
//! monotonically increasing entry offset (the *watermark*), which is what
//! lets the device write modified data lines back to PM mid-epoch: a data
//! line may be written back as soon as the entry covering it is durable.
//!
//! # Offsets are logical and monotonic
//!
//! Entry offsets never reset: they count appends over the writer's whole
//! lifetime. The physical slot of offset `o` is `o % capacity`, so the
//! region is a ring. A slot may be overwritten only once the epoch of the
//! entry it holds has committed — [`UndoLog::recycle_to`] advances the
//! recycle watermark when that happens. This makes two things true by
//! construction:
//!
//! 1. a `log_offset` stamped on a buffered line stays comparable against
//!    [`UndoLog::durable_offset`] forever (committed entries are simply
//!    `< durable` for the rest of time — no stale-offset ambiguity), and
//! 2. the region can be recycled *incrementally* under overlapped epochs:
//!    committing epoch N frees exactly N's slots, even while epoch N+1 is
//!    already appending.
//!
//! # The append engine
//!
//! The volatile tail is a lock-free llfree-style reserve-then-fill ring:
//! a CAS on one packed tail word reserves a slot, the entry is filled,
//! then *release-published* via a per-slot ready word; the pump consumes
//! a contiguous published prefix with an acquire scan. Concurrent
//! appenders never serialize on a mutex, and the pump's media handoff
//! needs no lane lock at all. Under a single driving thread the sequence
//! of media writes and crash-clock ticks is fully determined
//! (`tests/determinism.rs` pins it; `tests/lockfree_log.rs` pins the
//! durable images to golden digests that the retired mutex-guarded
//! engine produced too).
//!
//! # On-media format
//!
//! Each entry occupies [`ENTRY_LINES`] = 2 consecutive lines in its slot
//! of the pool's log region:
//!
//! ```text
//! line 0 (header): magic[8] | epoch u64 | vpm_line u64 | checksum u64 | tenant u32 | commit u8
//! line 1 (data):   the 64-byte pre-image of the logged line
//! ```
//!
//! The checksum folds the data line with the header fields — including
//! the commit mark — so recovery can detect (and safely skip) entries
//! torn by a crash mid-append: a torn entry's data write back cannot have
//! happened — write back is gated on the entry being durable — so
//! skipping it is always sound. The commit mark exists for the
//! reserve-then-fill ring: a slot that was *reserved* but never
//! *published* at the moment of a crash never reaches media at all (the
//! pump only drains published slots), so whatever the slot's media lines
//! hold is either a stale
//! committed entry or garbage that fails the magic/commit/checksum
//! gauntlet — reserved-but-unready slots are structurally invisible to
//! recovery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pax_pm::{CacheLine, CrashOutcome, LineAddr, PmError, PmPool, Result, LINE_SIZE};

/// Lines per undo-log entry (header + pre-image).
pub const ENTRY_LINES: u64 = 2;

const LOG_MAGIC: &[u8; 8] = b"PAXUNDO1";

/// Header byte offset of the commit mark.
pub(crate) const COMMIT_OFFSET: usize = 36;

/// Value of the commit mark in every published header. [`UndoEntry::parse`]
/// rejects anything else, so a slot whose header was never fully written
/// by the pump (or was scribbled) cannot masquerade as a log record.
const COMMIT_MARK: u8 = 1;

/// One undo-log record: "line `vpm_line` held `old` at the start of
/// `epoch`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoEntry {
    /// Epoch during which the line was first modified. Epoch numbers are
    /// **per tenant**: entries of different tenants are never compared.
    pub epoch: u64,
    /// The vPM line the entry covers.
    pub vpm_line: LineAddr,
    /// The pool context (tenant) the entry belongs to. Recovery rolls
    /// each entry back against *its own tenant's* committed epoch, so
    /// entries of different tenants can interleave freely in shared
    /// banks without cross-contaminating rollback.
    pub tenant: u32,
    /// The line's contents when the epoch began.
    pub old: CacheLine,
}

impl UndoEntry {
    /// An entry for the single-tenant (tenant 0) pool context.
    pub fn single(epoch: u64, vpm_line: LineAddr, old: CacheLine) -> Self {
        UndoEntry { epoch, vpm_line, tenant: 0, old }
    }

    fn checksum(&self) -> u64 {
        let mut sum = 0xfeed_face_cafe_beefu64;
        sum ^= self.epoch.rotate_left(17);
        sum ^= self.vpm_line.0.rotate_left(31);
        sum ^= (self.tenant as u64).rotate_left(47);
        sum ^= (COMMIT_MARK as u64).rotate_left(11);
        for chunk in self.old.as_bytes().chunks(8) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            sum = sum.rotate_left(7) ^ u64::from_le_bytes(b);
        }
        sum
    }

    fn header_line(&self) -> CacheLine {
        let mut l = CacheLine::zeroed();
        l.write_at(0, LOG_MAGIC);
        l.write_at(8, &self.epoch.to_le_bytes());
        l.write_at(16, &self.vpm_line.0.to_le_bytes());
        l.write_at(24, &self.checksum().to_le_bytes());
        l.write_at(32, &self.tenant.to_le_bytes());
        l.write_at(COMMIT_OFFSET, &[COMMIT_MARK]);
        l
    }

    fn parse(header: &CacheLine, data: &CacheLine) -> Option<UndoEntry> {
        if header.read_at(0, 8) != LOG_MAGIC {
            return None;
        }
        // The commit mark gates everything else: only the pump writes
        // headers, and it only drains *published* slots, so a cleared
        // mark means the slot never held a completed append.
        if header.read_at(COMMIT_OFFSET, 1) != [COMMIT_MARK] {
            return None;
        }
        let mut buf = [0u8; 8];
        buf.copy_from_slice(header.read_at(8, 8));
        let epoch = u64::from_le_bytes(buf);
        buf.copy_from_slice(header.read_at(16, 8));
        let vpm_line = LineAddr(u64::from_le_bytes(buf));
        buf.copy_from_slice(header.read_at(24, 8));
        let stored_sum = u64::from_le_bytes(buf);
        let mut tbuf = [0u8; 4];
        tbuf.copy_from_slice(header.read_at(32, 4));
        let tenant = u32::from_le_bytes(tbuf);
        let entry = UndoEntry { epoch, vpm_line, tenant, old: data.clone() };
        (entry.checksum() == stored_sum).then_some(entry)
    }
}

/// Reserved-tail bits of the packed word (low 48: the monotonic logical
/// offset of the next reservation; 2⁴⁸ appends outlives any simulation).
const TAIL_MASK: u64 = (1 << 48) - 1;
/// One reservation in flight, in the high 16 bits of the packed word.
const INFLIGHT_UNIT: u64 = 1 << 48;

/// A 64-byte-aligned atomic so the hot tail word and the recycle
/// watermark never share a cache line with each other (or a neighbor) —
/// false sharing between appenders and recyclers would serialize the very
/// path the CAS exists to scale.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedAtomicU64(AtomicU64);

/// One reserve-then-fill slot of an [`UndoLog`].
///
/// `ready == 0` means empty; `ready == offset + 1` means the pre-image
/// for logical offset `offset` is published (the `+1` keeps 0 free for
/// "empty", and comparing against the *exact* expected offset is what
/// makes the check ABA-proof across ring laps: a slot republished on a
/// later lap holds a different offset, so a stale pump scan can never
/// mistake it for the entry it is waiting on).
///
/// The entry box is a `Mutex` only because the crate forbids `unsafe`;
/// by protocol it is uncontended — exactly one appender owns a reserved
/// slot until it publishes, and exactly one pump consumes it after.
#[derive(Debug)]
struct Slot {
    ready: AtomicU64,
    entry: Mutex<Option<Box<UndoEntry>>>,
}

/// The device's undo-log writer over (a bank of) the pool's log region:
/// a lock-free tail with CAS reservation on a packed head/tail word,
/// per-slot release publication, and acquire-scan consumption
/// (llfree-style).
///
/// All methods take `&self`. The protocol, in memory-ordering terms:
///
/// 1. **Reserve** — a CAS on the packed word claims logical offset `o`
///    and bumps the in-flight count (one word so the `log_reserved`
///    gauge is exact). The fullness check `tail − recycled ≥ capacity`
///    loads `recycled` with *acquire*, pairing with the *release*
///    `fetch_max` in [`UndoLog::recycle_to`]; transitively (see step
///    4) the reservation happens-after the pump finished with the slot's
///    previous lap, so overwriting it is safe.
/// 2. **Fill** — the appender writes the entry into slot `o % capacity`
///    (uncontended by construction).
/// 3. **Publish** — `ready.store(o + 1, Release)`: everything the
///    appender wrote becomes visible to whoever acquires the ready word.
///    The in-flight count drops.
/// 4. **Consume** — the pump (externally serialized: it requires
///    `&mut PmPool`, and the device's media pool sits behind one mutex)
///    scans the contiguous published prefix from the durable watermark
///    with `ready.load(Acquire)`, writes both lines to media, clears
///    `ready`, drains, then release-stores the durable watermark
///    `o + 1`. Commit recycles with a release `fetch_max`, closing the
///    loop back to step 1.
///
/// The durable watermark is what lets readers order against the log
/// without any lock: [`UndoLog::durable_offset`] is an acquire load, so
/// any offset a reader observes is backed by media.
#[derive(Debug)]
pub struct UndoLog {
    /// Packed word: low 48 bits = reserved tail (monotonic logical
    /// offset), high 16 bits = reservations in flight (reserved, not yet
    /// published).
    state: PaddedAtomicU64,
    /// Logical offsets below this belong to committed epochs; their
    /// slots may be reused. Only grows (release `fetch_max`).
    recycled: PaddedAtomicU64,
    /// Entries drained to media over the writer's lifetime (monotonic,
    /// never resets; release-stored by the pump).
    durable: PaddedAtomicU64,
    /// The volatile ring, one slot per in-capacity logical offset.
    slots: Box<[Slot]>,
    /// Failed reservation CAS attempts (contention telemetry).
    cas_retries: AtomicU64,
    /// Total bytes of log writes issued (write-amplification benches).
    bytes_written: AtomicU64,
    /// First pool line of this writer's slice of the log region.
    region_start: u64,
    /// Capacity of this writer's slice, in entries.
    capacity_entries: u64,
}

impl UndoLog {
    /// A log writer over a pool's whole log region.
    pub fn new(pool: &PmPool) -> Self {
        let layout = pool.layout();
        Self::with_region(layout.log_start().0, layout.log_lines / ENTRY_LINES)
    }

    /// A log writer over `capacity_entries` slots starting at pool line
    /// `region_start` — how a sharded device gives each lane its own
    /// bank of the log region.
    pub fn with_region(region_start: u64, capacity_entries: u64) -> Self {
        let slots = (0..capacity_entries)
            .map(|_| Slot { ready: AtomicU64::new(0), entry: Mutex::new(None) })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        UndoLog {
            state: PaddedAtomicU64::default(),
            recycled: PaddedAtomicU64::default(),
            durable: PaddedAtomicU64::default(),
            slots,
            cas_retries: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            region_start,
            capacity_entries,
        }
    }

    /// Entries appended over the writer's lifetime (durable + pending);
    /// the next append gets this offset.
    pub fn appended(&self) -> u64 {
        self.state.0.load(Ordering::Relaxed) & TAIL_MASK
    }

    /// Reservations currently in flight (reserved, not yet published) —
    /// the `log_reserved` gauge.
    pub fn in_flight(&self) -> u64 {
        self.state.0.load(Ordering::Relaxed) >> 48
    }

    /// Failed reservation CAS attempts so far — the `log_cas_retries`
    /// counter.
    pub fn cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Entries known durable; write back of a data line tagged with offset
    /// `o` is legal once `o < durable_offset()`. Acquire: pairs with the
    /// pump's release store after the media drain.
    pub fn durable_offset(&self) -> u64 {
        self.durable.0.load(Ordering::Acquire)
    }

    /// Entries appended but not yet durable. (Loads `durable` first:
    /// both only grow and `durable ≤ tail` at every instant, so the
    /// later tail load can only over-approximate, never underflow.)
    pub fn pending_len(&self) -> usize {
        let durable = self.durable_offset();
        self.appended().saturating_sub(durable) as usize
    }

    /// Entries whose slots are still held by uncommitted epochs.
    pub fn live_entries(&self) -> u64 {
        let recycled = self.recycled.0.load(Ordering::Acquire);
        self.appended().saturating_sub(recycled)
    }

    /// Capacity of this writer's region slice, in entries.
    pub fn capacity_entries(&self) -> u64 {
        self.capacity_entries
    }

    /// Total log bytes issued to media.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Pool line of the slot backing logical offset `offset`.
    fn slot_base(&self, offset: u64) -> u64 {
        self.region_start + (offset % self.capacity_entries) * ENTRY_LINES
    }

    /// Lock-free append: reserve a slot with one CAS, fill it, publish
    /// it. Returns the entry's logical offset.
    ///
    /// The append itself is volatile — this is the asynchrony of §3.2: the
    /// host's `RdOwn` is acknowledged without waiting for durability.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::LogFull`] when every slot is held by an
    /// uncommitted epoch; the caller (libpax) should `persist()` to
    /// recycle the region.
    pub fn append(&self, entry: UndoEntry) -> Result<u64> {
        let mut cur = self.state.0.load(Ordering::Relaxed);
        let offset = loop {
            let tail = cur & TAIL_MASK;
            // Acquire on `recycled` pairs with the release `fetch_max`
            // in `recycle_to`: if the check admits us, the pump's last
            // use of the slot we are about to overwrite happened-before
            // this load (pump cleared `ready` → release-published
            // durable → committer acquired durable and release-maxed
            // `recycled` → we acquire `recycled`).
            if tail - self.recycled.0.load(Ordering::Acquire) >= self.capacity_entries {
                return Err(PmError::LogFull { capacity_entries: self.capacity_entries });
            }
            let next = ((cur >> 48) + 1) << 48 | (tail + 1);
            match self.state.0.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break tail,
                Err(now) => {
                    self.cas_retries.fetch_add(1, Ordering::Relaxed);
                    std::hint::spin_loop();
                    cur = now;
                }
            }
        };
        let slot = &self.slots[(offset % self.capacity_entries) as usize];
        debug_assert_eq!(
            slot.ready.load(Ordering::Relaxed),
            0,
            "reserved slot {offset} still published from a previous lap"
        );
        *slot.entry.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some(Box::new(entry));
        // Release: the filled entry becomes visible to the pump's
        // acquire scan exactly when the ready word does. `offset + 1`
        // (not a bare flag) makes the scan ABA-proof across ring laps.
        slot.ready.store(offset + 1, Ordering::Release);
        self.state.0.fetch_sub(INFLIGHT_UNIT, Ordering::Relaxed);
        Ok(offset)
    }

    /// Drains up to `max_entries` of the *contiguous published prefix*
    /// to the log region and advances the durable watermark. Returns
    /// entries drained; stops early at the first unpublished slot.
    ///
    /// Needs no lane lock: callers are serialized by `&mut PmPool` (the
    /// media pool lock), which is exactly the resource the pump consumes.
    ///
    /// # Errors
    ///
    /// Surfaces [`PmError::Crashed`] if the pool's crash clock fires, and
    /// media errors from the pool.
    pub fn pump(
        &self,
        pool: &mut PmPool,
        clock: &pax_pm::CrashClock,
        max_entries: usize,
    ) -> Result<usize> {
        let mut drained = 0;
        while drained < max_entries {
            let durable = self.durable_offset();
            let slot = &self.slots[(durable % self.capacity_entries) as usize];
            // Acquire pairs with the publisher's release store: observing
            // `durable + 1` makes the boxed entry visible.
            if slot.ready.load(Ordering::Acquire) != durable + 1 {
                break;
            }
            if clock.tick() == CrashOutcome::Crashed {
                pool.crash();
                return Err(PmError::Crashed);
            }
            let entry = slot
                .entry
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
                .expect("published slot holds its entry");
            // Clearing `ready` before publishing durability keeps the
            // reuse chain intact: clear → durable release → recycle
            // release-max → reserver acquire — a future lap's appender
            // can only see an empty slot.
            slot.ready.store(0, Ordering::Release);
            let base = self.slot_base(durable);
            pool.write_line(LineAddr(base), entry.header_line())?;
            pool.write_line(LineAddr(base + 1), entry.old.clone())?;
            // The watermark only advances once both lines are durable:
            // the release store publishes the drained media state to any
            // thread that acquires the new offset.
            pool.drain();
            self.durable.0.store(durable + 1, Ordering::Release);
            self.bytes_written
                .fetch_add((ENTRY_LINES as usize * LINE_SIZE) as u64, Ordering::Relaxed);
            drained += 1;
        }
        Ok(drained)
    }

    /// Drains until everything reserved *at entry* is durable (the
    /// synchronous step inside `persist()`).
    ///
    /// If the scan meets a reservation that is filled but not yet
    /// published (only possible with a concurrent appender), it yields
    /// and re-scans — the publisher finishes without taking any lock, so
    /// this cannot live-lock.
    ///
    /// # Errors
    ///
    /// See [`UndoLog::pump`].
    pub fn flush(&self, pool: &mut PmPool, clock: &pax_pm::CrashClock) -> Result<()> {
        let target = self.appended();
        while self.durable_offset() < target {
            if self.pump(pool, clock, usize::MAX)? == 0 {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// Marks every entry below logical offset `watermark` as committed,
    /// freeing its slot for reuse; clamped to the durable offset and
    /// never regresses. The release `fetch_max` pairs with the acquire
    /// load in [`UndoLog::append`]'s fullness check (see the protocol
    /// docs on the type).
    pub fn recycle_to(&self, watermark: u64) {
        let clamped = watermark.min(self.durable_offset());
        self.recycled.0.fetch_max(clamped, Ordering::AcqRel);
    }

    /// Recycles the whole region after a fully-drained epoch commits (the
    /// synchronous-persist epilogue). Offsets stay monotonic; only slot
    /// ownership resets. Stale entries left on media belong to committed
    /// epochs and are ignored by recovery.
    pub fn reset_after_commit(&self) {
        debug_assert_eq!(self.pending_len(), 0, "reset with undrained entries");
        self.recycle_to(self.durable_offset());
    }

    /// Drops the volatile tail (power loss): reservations, published
    /// entries, and in-flight counts all vanish; only media (and the
    /// watermark describing it) survives. Callers must have exclusive
    /// access in practice (the engine's crash path is stop-the-world).
    pub fn crash(&self) {
        for slot in self.slots.iter() {
            slot.ready.store(0, Ordering::Relaxed);
            *slot.entry.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }
        self.state.0.store(self.durable_offset(), Ordering::Relaxed);
    }

    /// Scans the pool's log region for valid entries (recovery, §3.4).
    ///
    /// Every slot is parsed; torn or never-written slots fail checksum
    /// validation and are skipped, and slots whose header lacks the
    /// commit mark — which is what a reserved-but-never-published
    /// slot's media can look like at worst — are rejected the same way.
    /// Returns entries in on-media slot order — **not** append order once
    /// the ring has wrapped; recovery orders rollback by epoch, which
    /// slot reuse cannot disturb (a slot is only overwritten after its
    /// epoch commits).
    ///
    /// # Errors
    ///
    /// Surfaces media read errors.
    pub fn scan(pool: &mut PmPool) -> Result<Vec<(u64, UndoEntry)>> {
        let layout = pool.layout();
        let capacity = layout.log_lines / ENTRY_LINES;
        let mut out = Vec::new();
        for i in 0..capacity {
            let base = layout.log_start().0 + i * ENTRY_LINES;
            let header = pool.read_line(LineAddr(base))?;
            // Cheap pre-filter: never-written slots have no magic.
            if header.read_at(0, 8) != LOG_MAGIC {
                continue;
            }
            let data = pool.read_line(LineAddr(base + 1))?;
            if let Some(entry) = UndoEntry::parse(&header, &data) {
                out.push((i, entry));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_pm::{CrashClock, PoolConfig};

    fn pool() -> PmPool {
        PmPool::create(PoolConfig::small()).unwrap()
    }

    fn entry(epoch: u64, line: u64, fill: u8) -> UndoEntry {
        UndoEntry::single(epoch, LineAddr(line), CacheLine::filled(fill))
    }

    /// A writer over `slots` entries of `p`'s log region, laid out the two
    /// ways the workspace uses: at the region start (the baselines'
    /// whole-region writers) or as the second of two banks (a device
    /// lane). The `_in_both_modes` tests check each contract both ways.
    fn mode_log(p: &PmPool, banked: bool, slots: u64) -> UndoLog {
        let base = p.layout().log_start().0 + if banked { slots * ENTRY_LINES } else { 0 };
        UndoLog::with_region(base, slots)
    }

    #[test]
    fn tenant_tag_round_trips_and_is_checksummed() {
        let mut p = pool();
        let clock = CrashClock::new();
        let log = UndoLog::new(&p);
        log.append(UndoEntry { tenant: 3, ..entry(1, 7, 0xAA) }).unwrap();
        log.flush(&mut p, &clock).unwrap();
        let scanned = UndoLog::scan(&mut p).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].1.tenant, 3);
        // Flipping the on-media tenant field must fail the checksum: a
        // corrupted tag cannot silently reassign an entry to another pool.
        let header = LineAddr(p.layout().log_start().0);
        let mut line = p.read_line(header).unwrap();
        line.write_at(32, &5u32.to_le_bytes());
        p.write_line(header, line).unwrap();
        p.drain();
        assert!(UndoLog::scan(&mut p).unwrap().is_empty());
    }

    #[test]
    fn cleared_commit_mark_is_invisible_to_scan() {
        let mut p = pool();
        let clock = CrashClock::new();
        let log = UndoLog::new(&p);
        log.append(entry(1, 7, 0xAA)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        assert_eq!(UndoLog::scan(&mut p).unwrap().len(), 1);
        // Zeroing just the commit mark models the worst a
        // reserved-but-unpublished slot could leave behind: a
        // plausible-looking header that never completed publication.
        let header = LineAddr(p.layout().log_start().0);
        let mut line = p.read_line(header).unwrap();
        line.write_at(COMMIT_OFFSET, &[0u8]);
        p.write_line(header, line).unwrap();
        p.drain();
        assert!(UndoLog::scan(&mut p).unwrap().is_empty());
    }

    #[test]
    fn append_assigns_monotonic_offsets_in_both_modes() {
        let p = pool();
        for banked in [false, true] {
            let log = mode_log(&p, banked, 1024);
            assert_eq!(log.append(entry(1, 0, 0)).unwrap(), 0);
            assert_eq!(log.append(entry(1, 1, 0)).unwrap(), 1);
            assert_eq!(log.appended(), 2);
            assert_eq!(log.durable_offset(), 0); // nothing drained yet
        }
    }

    #[test]
    fn pump_advances_watermark_incrementally_in_both_modes() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let mut p = pool();
            let log = mode_log(&p, banked, 1024);
            for i in 0..5 {
                log.append(entry(1, i, i as u8)).unwrap();
            }
            assert_eq!(log.pump(&mut p, &clock, 2).unwrap(), 2);
            assert_eq!(log.durable_offset(), 2);
            assert_eq!(log.pending_len(), 3);
            log.flush(&mut p, &clock).unwrap();
            assert_eq!(log.durable_offset(), 5);
            assert_eq!(log.bytes_written(), 5 * 128);
        }
    }

    #[test]
    fn engines_produce_identical_media_bytes() {
        // The media contract every writer honours: after a flush, slot i
        // holds exactly entry i's header line and pre-image, whatever the
        // tenant/epoch mix — the bytes recovery and the golden durable
        // images depend on.
        let clock = CrashClock::new();
        let mut p = pool();
        let log = UndoLog::new(&p);
        let entries: Vec<UndoEntry> = (0..32u64)
            .map(|i| UndoEntry { tenant: (i % 3) as u32, ..entry(1 + i / 10, i % 7, i as u8) })
            .collect();
        for e in &entries {
            log.append(e.clone()).unwrap();
        }
        log.flush(&mut p, &clock).unwrap();
        let start = p.layout().log_start().0;
        for (i, e) in entries.iter().enumerate() {
            let base = start + i as u64 * ENTRY_LINES;
            assert_eq!(p.read_line(LineAddr(base)).unwrap(), e.header_line(), "slot {i} header");
            assert_eq!(p.read_line(LineAddr(base + 1)).unwrap(), e.old, "slot {i} pre-image");
        }
    }

    #[test]
    fn scan_round_trips_entries() {
        let mut p = pool();
        let clock = CrashClock::new();
        let log = UndoLog::new(&p);
        log.append(entry(3, 7, 0xAA)).unwrap();
        log.append(entry(3, 9, 0xBB)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        let scanned = UndoLog::scan(&mut p).unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].1, entry(3, 7, 0xAA));
        assert_eq!(scanned[1].1, entry(3, 9, 0xBB));
    }

    #[test]
    fn pending_entries_are_lost_on_crash_in_both_modes() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let mut p = pool();
            let log = mode_log(&p, banked, 1024);
            log.append(entry(1, 0, 1)).unwrap();
            log.pump(&mut p, &clock, 1).unwrap();
            log.append(entry(1, 1, 2)).unwrap();
            log.crash();
            p.crash();
            assert_eq!(log.pending_len(), 0);
            let scanned = UndoLog::scan(&mut p).unwrap();
            assert_eq!(scanned.len(), 1, "only the drained entry survives");
            assert_eq!(scanned[0].1.vpm_line, LineAddr(0));
        }
    }

    #[test]
    fn torn_entry_fails_checksum_and_is_skipped() {
        let mut p = pool();
        let clock = CrashClock::new();
        let log = UndoLog::new(&p);
        log.append(entry(1, 0, 1)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        // Corrupt the data line of the entry (simulated torn write).
        let data_line = LineAddr(p.layout().log_start().0 + 1);
        p.write_line(data_line, CacheLine::filled(0xFF)).unwrap();
        p.drain();
        assert!(UndoLog::scan(&mut p).unwrap().is_empty());
    }

    #[test]
    fn log_full_is_reported_in_both_modes() {
        let mut cfg = PoolConfig::small();
        cfg.log_bytes = 8 * LINE_SIZE; // two banks of 2 entries
        let p = PmPool::create(cfg).unwrap();
        for banked in [false, true] {
            let log = mode_log(&p, banked, 2);
            log.append(entry(1, 0, 0)).unwrap();
            log.append(entry(1, 1, 0)).unwrap();
            assert!(matches!(log.append(entry(1, 2, 0)), Err(PmError::LogFull { .. })));
        }
    }

    #[test]
    fn reset_after_commit_reuses_slots_with_monotonic_offsets() {
        let mut p = pool();
        let clock = CrashClock::new();
        let log = UndoLog::new(&p);
        log.append(entry(1, 5, 1)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        log.reset_after_commit();
        // Offsets keep counting — no ambiguity against stale buffered
        // offsets — but the region is free again.
        assert_eq!(log.durable_offset(), 1);
        assert_eq!(log.live_entries(), 0);
        assert_eq!(log.append(entry(2, 6, 2)).unwrap(), 1);
        log.flush(&mut p, &clock).unwrap();
        let scanned = UndoLog::scan(&mut p).unwrap();
        // Both slots hold valid entries; recovery tells them apart by
        // epoch, not by position.
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned.iter().filter(|(_, e)| e.epoch == 2).count(), 1);
    }

    #[test]
    fn recycle_to_frees_slots_incrementally_in_both_modes() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let mut cfg = PoolConfig::small();
            cfg.log_bytes = 16 * LINE_SIZE; // two banks of 4 slots
            let mut p = PmPool::create(cfg).unwrap();
            let log = mode_log(&p, banked, 4);
            for i in 0..4 {
                log.append(entry(1, i, 0)).unwrap();
            }
            assert!(matches!(log.append(entry(2, 9, 0)), Err(PmError::LogFull { .. })));
            log.flush(&mut p, &clock).unwrap();
            // Epoch 1 committed up to offset 2: two slots free, two live.
            log.recycle_to(2);
            assert_eq!(log.live_entries(), 2);
            assert_eq!(log.append(entry(2, 9, 0)).unwrap(), 4);
            assert_eq!(log.append(entry(2, 10, 0)).unwrap(), 5);
            assert!(matches!(log.append(entry(2, 11, 0)), Err(PmError::LogFull { .. })));
            // The wrapped entries physically overwrite the recycled slots.
            log.flush(&mut p, &clock).unwrap();
            let scanned = UndoLog::scan(&mut p).unwrap();
            assert_eq!(scanned.len(), 4);
            assert_eq!(scanned.iter().filter(|(_, e)| e.epoch == 2).count(), 2);
        }
    }

    #[test]
    fn recycle_to_clamps_to_durable_and_never_regresses() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let mut p = pool();
            let log = mode_log(&p, banked, 1024);
            for i in 0..3 {
                log.append(entry(1, i, 0)).unwrap();
            }
            log.pump(&mut p, &clock, 1).unwrap();
            log.recycle_to(99); // clamped: only 1 entry is durable
            assert_eq!(log.live_entries(), 2);
            log.recycle_to(0); // never regresses
            assert_eq!(log.live_entries(), 2);
        }
    }

    #[test]
    fn sharded_regions_do_not_overlap() {
        let mut p = pool();
        let clock = CrashClock::new();
        let layout = p.layout();
        let per_shard = 2u64;
        let a = UndoLog::with_region(layout.log_start().0, per_shard);
        let b = UndoLog::with_region(layout.log_start().0 + per_shard * ENTRY_LINES, per_shard);
        a.append(entry(1, 0, 0xA)).unwrap();
        a.append(entry(1, 2, 0xA)).unwrap();
        b.append(entry(1, 1, 0xB)).unwrap();
        a.flush(&mut p, &clock).unwrap();
        b.flush(&mut p, &clock).unwrap();
        let scanned = UndoLog::scan(&mut p).unwrap();
        assert_eq!(scanned.len(), 3);
        // Shard B's entry landed in its own bank (slot index 2).
        assert_eq!(scanned[2].0, 2);
        assert_eq!(scanned[2].1.old, CacheLine::filled(0xB));
    }

    #[test]
    fn crash_clock_interrupts_pump_in_both_modes() {
        for banked in [false, true] {
            let mut p = pool();
            let clock = CrashClock::new();
            let log = mode_log(&p, banked, 1024);
            for i in 0..4 {
                log.append(entry(1, i, 0)).unwrap();
            }
            clock.arm(clock.steps_taken() + 2); // two pump steps, then crash
            assert_eq!(log.pump(&mut p, &clock, 2).unwrap(), 2);
            assert!(matches!(log.flush(&mut p, &clock), Err(PmError::Crashed)));
            assert_eq!(log.durable_offset(), 2);
            clock.reset();
        }
    }

    #[test]
    fn bytes_written_counts_both_lines() {
        let mut p = pool();
        let clock = CrashClock::new();
        let log = UndoLog::new(&p);
        log.append(entry(1, 0, 0)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        assert_eq!(log.bytes_written(), 128);
    }

    #[test]
    fn large_pending_drain_is_linear() {
        // The remove(0) regression: draining N pending entries must be
        // O(N). 50k entries through repeated small pumps completes in
        // well under a second with a VecDeque; the old Vec::remove(0)
        // drain was O(N²) and took tens of seconds.
        let mut cfg = PoolConfig::small();
        cfg.log_bytes = 50_000 * (ENTRY_LINES as usize) * LINE_SIZE;
        let mut p = PmPool::create(cfg).unwrap();
        let clock = CrashClock::new();
        let log = UndoLog::new(&p);
        for i in 0..50_000u64 {
            log.append(entry(1, i % 1024, i as u8)).unwrap();
        }
        let start = std::time::Instant::now();
        log.flush(&mut p, &clock).unwrap();
        let per_entry_ns = start.elapsed().as_nanos() as u64 / 50_000;
        assert_eq!(log.durable_offset(), 50_000);
        // Generous bound: a linear drain spends ~100 ns/entry; the
        // quadratic one spent tens of µs/entry at this size.
        assert!(per_entry_ns < 10_000, "drain took {per_entry_ns} ns/entry");
    }

    #[test]
    fn concurrent_appends_reserve_unique_contiguous_offsets() {
        // The lock-free claim itself: N threads hammering one bank get
        // disjoint offsets covering exactly 0..N*OPS, every reservation
        // is published, and the in-flight gauge settles back to zero.
        const THREADS: usize = 4;
        const OPS: u64 = 2_000;
        let bank = UndoLog::with_region(0, THREADS as u64 * OPS + 1);
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let bank = &bank;
                    s.spawn(move || {
                        (0..OPS)
                            .map(|i| {
                                bank.append(UndoEntry { tenant: t as u32, ..entry(1, i, t as u8) })
                                    .unwrap()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = per_thread.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..THREADS as u64 * OPS).collect();
        assert_eq!(all, expect, "offsets must be unique and contiguous");
        assert_eq!(bank.appended(), THREADS as u64 * OPS);
        assert_eq!(bank.in_flight(), 0, "every reservation was published");
        assert_eq!(bank.pending_len(), THREADS * OPS as usize);
    }

    #[test]
    fn concurrent_appends_drain_through_a_racing_pump() {
        // Appenders and the pump run simultaneously; the pump's acquire
        // scan must only ever consume published entries, in offset order,
        // and everything drains.
        const THREADS: usize = 3;
        const OPS: u64 = 1_000;
        let mut cfg = PoolConfig::small();
        cfg.log_bytes = ((THREADS as u64 * OPS + 1) * ENTRY_LINES) as usize * LINE_SIZE;
        let mut p = PmPool::create(cfg).unwrap();
        let clock = CrashClock::new();
        let bank = UndoLog::new(&p);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let bank = &bank;
                s.spawn(move || {
                    for i in 0..OPS {
                        bank.append(UndoEntry { tenant: t as u32, ..entry(1, i, t as u8) })
                            .unwrap();
                    }
                });
            }
            // This thread is the pump (it owns the pool exclusively).
            while bank.durable_offset() < THREADS as u64 * OPS {
                if bank.pump(&mut p, &clock, 64).unwrap() == 0 {
                    std::thread::yield_now();
                }
            }
        });
        assert_eq!(bank.durable_offset(), THREADS as u64 * OPS);
        assert_eq!(UndoLog::scan(&mut p).unwrap().len(), THREADS * OPS as usize);
    }
}
