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
//! Entry offsets never reset: they count reservations over the writer's
//! whole lifetime. The region is a ring of blocks laid over them from a
//! block-aligned *lap base*: offset `o` lives in slot
//! `(o − base) % BLOCK_ENTRIES` of block `(o − base) / BLOCK_ENTRIES`
//! (modulo the writer's block count). A block may be reopened only once
//! every offset of its previous use has been recycled —
//! [`UndoLog::recycle_to`] advances the recycle watermark when an epoch
//! commits. This makes two things true by construction:
//!
//! 1. a `log_offset` stamped on a buffered line stays comparable against
//!    [`UndoLog::durable_offset`] forever (committed entries are simply
//!    `< durable` for the rest of time — no stale-offset ambiguity), and
//! 2. the region can be recycled *incrementally* under overlapped epochs:
//!    committing epoch N frees exactly N's blocks, even while epoch N+1 is
//!    already appending.
//!
//! # Rewinding to the first block
//!
//! When a commit leaves the writer empty — everything reserved is
//! durable and recycled, and nothing is in flight — the next block opens
//! at the writer's first block again: the lap base moves to the tail
//! (rounded up to a block; the skipped offsets are the padding the next
//! epoch would have reserved anyway), and the durable and recycled
//! watermarks move with it. Offsets stay dense, so only the base, not
//! the tail, jumps. Without the rewind every epoch opens where the last
//! one stopped and a long run writes every line of the region; with it,
//! the region a run touches is as deep as its deepest epoch. Every
//! commit — synchronous, non-blocking or buffered — ends in
//! [`UndoLog::reset_after_commit`], which recycles the committed epoch's
//! offsets and rewinds the writer if that left it empty; a writer that a
//! later epoch already appends to keeps its lap until a later commit
//! finds it empty.
//!
//! The rewind is volatile only. Blocks beyond the new lap's reach keep
//! their entries, which belong to committed epochs and which recovery
//! ignores (recovery invalidates the entries it rolls back, so no block
//! outlives a recovery holding an uncommitted epoch); recovery needs no
//! base because block positions are fixed.
//!
//! # The append engine
//!
//! The volatile tail is a lock-free llfree-style reserve-then-fill ring:
//! a CAS on one packed tail word reserves an offset, the entry is filled,
//! then *release-published* via a per-slot ready word; the pump consumes
//! a contiguous published prefix with an acquire scan. Concurrent
//! appenders never serialize on a mutex, and the pump's media handoff
//! needs no lane lock at all. Under a single driving thread the sequence
//! of media writes and crash-clock ticks is fully determined
//! (`tests/determinism.rs` pins it; `tests/lockfree_log.rs` pins the
//! durable images to golden digests).
//!
//! A block holds entries of one epoch of one tenant. An append whose
//! epoch or tenant differs from the open block's first entry reserves
//! the rest of that block as *padding* together with its own offset at
//! the next block start. Padding is published like an entry, so it never
//! stalls the pump or the durable watermark; it only costs log capacity.
//!
//! # On-media format
//!
//! The region is a sequence of [`BLOCK_LINES`]-line blocks at fixed
//! offsets from the log start: one header line, then [`BLOCK_ENTRIES`]
//! pre-image lines.
//!
//! ```text
//! header: magic[8] | epoch u64 | tenant u32 | commit u8 | count u8 | 0[2]
//!         | BLOCK_ENTRIES × (vpm_line u48 | checksum u32)
//! line 1+i: the 64-byte pre-image of entry i
//! ```
//!
//! Only the first `count` entry fields are meaningful. Each entry's
//! checksum folds its pre-image with the block's epoch, tenant and commit
//! mark, the entry's vPM line and its position in the block, so recovery
//! validates every entry on its own:
//!
//! * Block positions are fixed, so recovery needs no bank geometry and
//!   never parses a pre-image line as a header — not even one whose bytes
//!   are a valid header.
//! * A background pump writes a whole block at once: pre-images first,
//!   header last, one crash-clock step per block. A torn block (header
//!   durable, a pre-image stale) fails that entry's checksum. Its data
//!   line cannot have been written back — write back is gated on the
//!   durable watermark, which only advances after the header write — so
//!   skipping it is sound.
//! * `flush`, forced drains and the baselines' synchronous appends may
//!   write a *partial* block; later entries of the same epoch extend it,
//!   rewriting the header with a larger `count`. The already-durable
//!   entries' fields are copied unchanged, so whichever header version a
//!   crash leaves behind still validates them.
//! * The commit mark exists for the reserve-then-fill ring: a slot that
//!   was *reserved* but never *published* at the moment of a crash never
//!   reaches media at all (the pump only drains published slots), so its
//!   media is either a stale committed entry or garbage that fails the
//!   magic/commit/checksum gauntlet.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

use pax_pm::{CacheLine, CrashOutcome, LineAddr, PmError, PmPool, Result};
use pax_telemetry::{Histogram, MetricSet, MetricSnapshot};

/// Undo entries (pre-image lines) per log block.
pub const BLOCK_ENTRIES: u64 = 4;

/// Lines per log block: one header line, then the pre-images.
pub const BLOCK_LINES: u64 = 1 + BLOCK_ENTRIES;

const LOG_MAGIC: &[u8; 8] = b"PAXUNDO2";

/// Header byte offset of the block's tenant.
const TENANT_OFFSET: usize = 16;

/// Header byte offset of the commit mark.
pub(crate) const COMMIT_OFFSET: usize = 20;

/// Header byte offset of the entry count.
const COUNT_OFFSET: usize = 21;

/// Header byte offset of the per-entry fields.
const ENTRY_FIELDS_OFFSET: usize = 24;

/// Bytes of one entry's header field: a 48-bit vPM line and a 32-bit
/// checksum.
const ENTRY_FIELD_BYTES: usize = 10;

/// vPM line numbers are stored in 48 bits (2⁴⁸ lines is 16 EiB of vPM).
const VPM_LINE_MASK: u64 = (1 << 48) - 1;

/// Value of the commit mark in every published header. A header with any
/// other value is rejected, so a block whose header was never fully
/// written by the pump (or was scribbled) cannot masquerade as a log
/// record.
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
    /// regions without cross-contaminating rollback.
    pub tenant: u32,
    /// The line's contents when the epoch began.
    pub old: CacheLine,
}

impl UndoEntry {
    /// An entry for the single-tenant (tenant 0) pool context.
    pub fn single(epoch: u64, vpm_line: LineAddr, old: CacheLine) -> Self {
        UndoEntry { epoch, vpm_line, tenant: 0, old }
    }

    /// The checksum stored for this entry at position `index` of its
    /// block.
    fn checksum(&self, index: usize) -> u32 {
        let mut sum = 0xfeed_face_cafe_beefu64;
        sum ^= self.epoch.rotate_left(17);
        sum ^= (self.vpm_line.0 & VPM_LINE_MASK).rotate_left(31);
        sum ^= (self.tenant as u64).rotate_left(47);
        sum ^= (COMMIT_MARK as u64).rotate_left(11);
        sum ^= (index as u64).rotate_left(53);
        for chunk in self.old.as_bytes().chunks(8) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            sum = sum.rotate_left(7) ^ u64::from_le_bytes(b);
        }
        // Mix before truncating so a difference in either half of the
        // fold survives into the stored 32 bits.
        sum ^= sum >> 33;
        sum = sum.wrapping_mul(0xff51_afd7_ed55_8ccd);
        sum ^= sum >> 33;
        (sum >> 32) as u32
    }
}

/// The decoded header line of one log block.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockHeader {
    epoch: u64,
    tenant: u32,
    /// Per entry, in block order: its vPM line and checksum.
    entries: Vec<(LineAddr, u32)>,
}

impl BlockHeader {
    fn new(epoch: u64, tenant: u32) -> Self {
        BlockHeader { epoch, tenant, entries: Vec::with_capacity(BLOCK_ENTRIES as usize) }
    }

    fn push(&mut self, entry: &UndoEntry) {
        debug_assert!(
            entry.epoch == self.epoch && entry.tenant == self.tenant,
            "a block holds one epoch of one tenant"
        );
        debug_assert!(entry.vpm_line.0 <= VPM_LINE_MASK, "vPM line beyond 48 bits");
        self.entries.push((entry.vpm_line, entry.checksum(self.entries.len())));
    }

    fn line(&self) -> CacheLine {
        let mut l = CacheLine::zeroed();
        l.write_at(0, LOG_MAGIC);
        l.write_at(8, &self.epoch.to_le_bytes());
        l.write_at(TENANT_OFFSET, &self.tenant.to_le_bytes());
        l.write_at(COMMIT_OFFSET, &[COMMIT_MARK]);
        l.write_at(COUNT_OFFSET, &[self.entries.len() as u8]);
        for (i, (line, sum)) in self.entries.iter().enumerate() {
            let at = ENTRY_FIELDS_OFFSET + i * ENTRY_FIELD_BYTES;
            l.write_at(at, &line.0.to_le_bytes()[..6]);
            l.write_at(at + 6, &sum.to_le_bytes());
        }
        l
    }

    fn parse(line: &CacheLine) -> Option<Self> {
        if line.read_at(0, 8) != LOG_MAGIC {
            return None;
        }
        // The commit mark gates everything else: only the pump writes
        // headers, and it only drains *published* slots.
        if line.read_at(COMMIT_OFFSET, 1) != [COMMIT_MARK] {
            return None;
        }
        let count = line.read_at(COUNT_OFFSET, 1)[0] as usize;
        if count == 0 || count > BLOCK_ENTRIES as usize {
            return None;
        }
        let mut buf = [0u8; 8];
        buf.copy_from_slice(line.read_at(8, 8));
        let epoch = u64::from_le_bytes(buf);
        let mut tbuf = [0u8; 4];
        tbuf.copy_from_slice(line.read_at(TENANT_OFFSET, 4));
        let tenant = u32::from_le_bytes(tbuf);
        let entries = (0..count)
            .map(|i| {
                let at = ENTRY_FIELDS_OFFSET + i * ENTRY_FIELD_BYTES;
                let mut buf = [0u8; 8];
                buf[..6].copy_from_slice(line.read_at(at, 6));
                let mut sum = [0u8; 4];
                sum.copy_from_slice(line.read_at(at + 6, 4));
                (LineAddr(u64::from_le_bytes(buf)), u32::from_le_bytes(sum))
            })
            .collect();
        Some(BlockHeader { epoch, tenant, entries })
    }

    /// Entry `index` with pre-image `old`, if its checksum verifies.
    fn entry(&self, index: usize, old: CacheLine) -> Option<UndoEntry> {
        let (vpm_line, sum) = self.entries[index];
        let entry = UndoEntry { epoch: self.epoch, vpm_line, tenant: self.tenant, old };
        (entry.checksum(index) == sum).then_some(entry)
    }
}

/// Reserved-tail bits of the packed word (low 48: the monotonic logical
/// offset of the next reservation; 2⁴⁸ appends outlives any simulation).
const TAIL_MASK: u64 = (1 << 48) - 1;
/// One reservation in flight, in bits 48..63 of the packed word.
const INFLIGHT_UNIT: u64 = 1 << 48;
/// Top bit of the packed word: a rewind holds the tail (see
/// `UndoLog::rewind`). Appenders wait while it is set.
const REWINDING: u64 = 1 << 63;

/// Blocks per chunk of the volatile ring (see [`Chunk`]): about 30 KiB
/// of host memory, built the first time the ring reaches it.
const CHUNK_BLOCKS: u64 = 256;

/// Entries per chunk of the volatile ring.
const CHUNK_ENTRIES: u64 = CHUNK_BLOCKS * BLOCK_ENTRIES;

/// A 64-byte-aligned atomic so the hot tail word and the recycle
/// watermark never share a cache line with each other (or a neighbor) —
/// false sharing between appenders and recyclers would serialize the very
/// path the CAS exists to scale.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedAtomicU64(AtomicU64);

/// One reserve-then-fill slot of an [`UndoLog`].
///
/// `ready == 0` means empty; `ready == offset + 1` means logical offset
/// `offset` is published (the `+1` keeps 0 free for "empty", and
/// comparing against the *exact* expected offset is what makes the check
/// ABA-proof across ring laps: a slot republished on a later lap holds a
/// different offset, so a stale pump scan can never mistake it for the
/// entry it is waiting on). A published slot without an entry is
/// padding.
///
/// The entry box is a `Mutex` only because the crate forbids `unsafe`;
/// by protocol it is uncontended — exactly one appender owns a reserved
/// slot until it publishes, and exactly one pump consumes it after.
#[derive(Debug)]
struct Slot {
    ready: AtomicU64,
    entry: Mutex<Option<Box<UndoEntry>>>,
}

/// The key of the block a ring position currently holds: the epoch and
/// tenant of its first entry, which later appenders compare against.
#[derive(Debug, Default)]
struct BlockKey {
    /// `offset + 1` once `epoch` and `tenant` hold the key of the block
    /// opened at logical offset `offset`. Set right after the opener's
    /// reservation, before its fill, and kept through the drain, so the
    /// key stays readable for as long as the block is open.
    opened_at: AtomicU64,
    epoch: AtomicU64,
    tenant: AtomicU32,
}

/// The slots and block keys of [`CHUNK_BLOCKS`] consecutive blocks of the
/// ring (fewer in a writer's last chunk).
#[derive(Debug)]
struct Chunk {
    slots: Box<[Slot]>,
    keys: Box<[BlockKey]>,
}

impl Chunk {
    fn new(blocks: u64) -> Self {
        let slots = (0..blocks * BLOCK_ENTRIES)
            .map(|_| Slot { ready: AtomicU64::new(0), entry: Mutex::new(None) })
            .collect();
        Chunk { slots, keys: (0..blocks).map(|_| BlockKey::default()).collect() }
    }
}

/// The device's undo-log writer over (a bank of) the pool's log region:
/// a lock-free tail with CAS reservation on a packed head/tail word,
/// per-slot release publication, and acquire-scan consumption
/// (llfree-style).
///
/// All methods take `&self`. The protocol, in memory-ordering terms:
///
/// 1. **Reserve** — a CAS on the packed word claims logical offset `o`
///    (plus any padding before it) and bumps the in-flight count (one
///    word so the `log_reserved` gauge is exact). The fullness check
///    `end of o's block − recycled > capacity` loads `recycled` with
///    *acquire*, pairing with the *release* `fetch_max` in
///    [`UndoLog::recycle_to`]; transitively (see step 4) the reservation
///    happens-after the pump finished with the block's previous use, so
///    overwriting it is safe. The packed word is loaded and swapped with
///    *acquire*, pairing with step 5's release store, so the appender
///    maps its offset through the lap base it was reserved under.
/// 2. **Fill** — the appender writes the entry into its slot
///    (uncontended by construction).
/// 3. **Publish** — `ready.store(o + 1, Release)`: everything the
///    appender wrote becomes visible to whoever acquires the ready word.
///    The in-flight count drops.
/// 4. **Consume** — the pump (externally serialized: it requires
///    `&mut PmPool`, and the device's media pool sits behind one mutex)
///    scans the contiguous published prefix of the block at the durable
///    watermark with `ready.load(Acquire)`, writes its pre-images and
///    header, clears `ready`, drains, then release-stores the durable
///    watermark. Commit recycles with a release `fetch_max`, closing the
///    loop back to step 1.
/// 5. **Rewind** — after a commit that left the writer empty,
///    `UndoLog::rewind` (which takes `&mut PmPool`, so no pump runs)
///    claims the packed word by a CAS from "nothing in flight, tail `t`"
///    to `t | REWINDING`, having seen `durable == recycled == t`. The
///    claim fails if any appender reserved since, and no appender can
///    reserve while the bit is set, so no reserved offset is ever mapped
///    through a base that moves under it. It then stores the new base `b`
///    (`t` rounded up to a block), moves `durable` and `recycled` to `b`,
///    and *release*-stores the tail `b`: an appender that acquires any
///    later value of the word (every later write is an RMW in this
///    store's release sequence) sees the new base and watermarks. An
///    appender still holding the word from before the claim may read the
///    new base while it decides whether to join `t`'s block; it finds the
///    base past `t` and defers to its CAS, which fails because the word
///    moved from `t` to `b > t` (offsets never repeat, so no ABA).
///    Every commit tries it; one whose writer a later epoch already
///    appends to leaves the lap as it is.
///
/// The volatile ring (slots and block keys) is built in chunks of
/// `CHUNK_BLOCKS` (256) blocks, each the first time an offset maps into it,
/// so its host memory follows the deepest lap the writer reaches rather
/// than the region. Building a chunk is the one place an appender may
/// wait on another: racing first touches of one chunk run a single
/// initializer (`OnceLock`), and the others wait for it, once per chunk
/// per writer.
///
/// The durable watermark is what lets readers order against the log
/// without any lock: [`UndoLog::durable_offset`] is an acquire load, so
/// any offset a reader observes is backed by media.
#[derive(Debug)]
pub struct UndoLog {
    /// Packed word: low 48 bits = reserved tail (monotonic logical
    /// offset), bits 48..63 = reservations in flight (reserved, not yet
    /// published), top bit = [`REWINDING`].
    state: PaddedAtomicU64,
    /// The lap base: a block-aligned logical offset that the writer's
    /// first block holds. Offsets below it are durable and recycled.
    /// Written only by [`UndoLog::rewind`].
    lap: AtomicU64,
    /// Logical offsets below this belong to committed epochs; their
    /// slots may be reused. Only grows (release `fetch_max`).
    recycled: PaddedAtomicU64,
    /// Offsets drained to media over the writer's lifetime (monotonic,
    /// never resets; release-stored by the pump).
    durable: PaddedAtomicU64,
    /// The volatile ring in chunks, each built on first touch: one slot
    /// per in-capacity logical offset and one key per block.
    chunks: Box<[OnceLock<Chunk>]>,
    /// The header of the block at the durable watermark while that block
    /// is only partly written; the next drain of the block extends it.
    /// Pump-only (the pump is serialized by the pool lock).
    open: Mutex<Option<BlockHeader>>,
    /// Failed reservation CAS attempts (contention telemetry).
    cas_retries: AtomicU64,
    /// Header writes issued, one per block drain (whole or partial).
    blocks_written: AtomicU64,
    /// Header and pre-image lines issued to media.
    lines_written: AtomicU64,
    /// Holds the `log_block_entries` histogram: entries covered by each
    /// header write.
    fill: MetricSet,
    fill_hist: Histogram,
    /// First pool line of this writer's slice of the log region.
    region_start: u64,
    /// Capacity of this writer's slice, in blocks.
    blocks: u64,
}

impl UndoLog {
    /// A log writer over a pool's whole log region.
    pub fn new(pool: &PmPool) -> Self {
        let layout = pool.layout();
        Self::with_region(layout.log_start().0, layout.log_lines / BLOCK_LINES)
    }

    /// A log writer over `blocks` blocks starting at pool line
    /// `region_start` — how a sharded device gives each lane its own
    /// bank of the log region.
    pub fn with_region(region_start: u64, blocks: u64) -> Self {
        let mut fill = MetricSet::new("device");
        let fill_hist = fill.histogram("log_block_entries");
        UndoLog {
            state: PaddedAtomicU64::default(),
            recycled: PaddedAtomicU64::default(),
            durable: PaddedAtomicU64::default(),
            lap: AtomicU64::new(0),
            chunks: (0..blocks.div_ceil(CHUNK_BLOCKS)).map(|_| OnceLock::new()).collect(),
            open: Mutex::new(None),
            cas_retries: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            lines_written: AtomicU64::new(0),
            fill,
            fill_hist,
            region_start,
            blocks,
        }
    }

    /// Offsets reserved over the writer's lifetime (durable + pending,
    /// padding included); the next append gets at least this offset.
    pub fn appended(&self) -> u64 {
        self.state.0.load(Ordering::Relaxed) & TAIL_MASK
    }

    /// Reservations currently in flight (reserved, not yet published) —
    /// the `log_reserved` gauge.
    pub fn in_flight(&self) -> u64 {
        (self.state.0.load(Ordering::Relaxed) & !REWINDING) >> 48
    }

    /// Failed reservation CAS attempts so far — the `log_cas_retries`
    /// counter.
    pub fn cas_retries(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Offsets known durable; write back of a data line tagged with
    /// offset `o` is legal once `o < durable_offset()`. Acquire: pairs
    /// with the pump's release store after the block's media writes.
    pub fn durable_offset(&self) -> u64 {
        self.durable.0.load(Ordering::Acquire)
    }

    /// Offsets reserved but not yet durable. (Loads `durable` first:
    /// both only grow and `durable ≤ tail` at every instant, so the
    /// later tail load can only over-approximate, never underflow.)
    pub fn pending_len(&self) -> usize {
        let durable = self.durable_offset();
        self.appended().saturating_sub(durable) as usize
    }

    /// Whether the block at the durable watermark is reserved to its end —
    /// the condition for the background pump to find a whole block (its
    /// last appender may still be publishing).
    pub(crate) fn has_whole_block(&self) -> bool {
        let durable = self.durable_offset();
        self.appended() >= (durable / BLOCK_ENTRIES + 1) * BLOCK_ENTRIES
    }

    /// Capacity of this writer's region slice, in entries.
    pub fn capacity_entries(&self) -> u64 {
        self.blocks * BLOCK_ENTRIES
    }

    /// Header writes issued so far — the `log_blocks` counter.
    pub(crate) fn blocks_written(&self) -> u64 {
        self.blocks_written.load(Ordering::Relaxed)
    }

    /// Header and pre-image lines issued so far — the
    /// `log_lines_written` counter.
    pub fn lines_written(&self) -> u64 {
        self.lines_written.load(Ordering::Relaxed)
    }

    /// The `log_block_entries` histogram (entries covered by each header
    /// write), as a `device` snapshot holding nothing else.
    pub(crate) fn fill_snapshot(&self) -> MetricSnapshot {
        self.fill.snapshot()
    }

    /// `offset`'s position in the current lap. Callers hold an offset
    /// the base cannot move under (see the type's step 5): an appender's
    /// own reservation, or the pump's watermark under the pool lock. A
    /// tail loaded but not yet reserved is not such an offset;
    /// `joins_block` maps it on its own.
    fn lap_offset(&self, offset: u64) -> u64 {
        let lap = self.lap.load(Ordering::Relaxed);
        debug_assert!(offset >= lap, "offset {offset} precedes lap base {lap}");
        offset - lap
    }

    /// The chunk holding ring block `block`, built on first touch.
    fn chunk(&self, block: u64) -> &Chunk {
        let i = block / CHUNK_BLOCKS;
        self.chunks[i as usize]
            .get_or_init(|| Chunk::new(CHUNK_BLOCKS.min(self.blocks - i * CHUNK_BLOCKS)))
    }

    fn slot(&self, offset: u64) -> &Slot {
        let pos = self.lap_offset(offset) % self.capacity_entries();
        &self.chunk(pos / BLOCK_ENTRIES).slots[(pos % CHUNK_ENTRIES) as usize]
    }

    /// The key of ring block `block`.
    fn block_key(&self, block: u64) -> &BlockKey {
        &self.chunk(block).keys[(block % CHUNK_BLOCKS) as usize]
    }

    /// Index of the block holding logical offset `offset`.
    fn block_index(&self, offset: u64) -> u64 {
        self.lap_offset(offset) / BLOCK_ENTRIES % self.blocks
    }

    /// The key of the block holding logical offset `offset`.
    fn key(&self, offset: u64) -> &BlockKey {
        self.block_key(self.block_index(offset))
    }

    /// Pool line of the header of the block holding logical offset
    /// `offset`.
    fn block_base(&self, offset: u64) -> u64 {
        self.region_start + self.block_index(offset) * BLOCK_LINES
    }

    /// Whether `entry` may take offset `tail`, which sits inside a block
    /// that already holds entries: only when the block's first entry has
    /// the same epoch and tenant.
    ///
    /// The key is set, except in the few instructions between another
    /// appender's reservation of the block and its key store; that
    /// appender holds no lock and waits on nothing, so the wait ends (it
    /// yields now and then in case that appender was preempted).
    fn joins_block(&self, tail: u64, entry: &UndoEntry) -> bool {
        let first = tail - tail % BLOCK_ENTRIES;
        // `tail` may be stale: a rewind may have moved the base past it
        // since the caller loaded the word. Map it through one load of the
        // base (any value keeps the index in bounds), and give up if it
        // precedes it — the tail moved too, so the caller's CAS fails and
        // it re-decides.
        let lap = self.lap.load(Ordering::Relaxed);
        if first < lap {
            return false;
        }
        let key = self.block_key((first - lap) / BLOCK_ENTRIES % self.blocks);
        let mut spins = 0u32;
        // Acquire pairs with the opener's release store of `opened_at`.
        while key.opened_at.load(Ordering::Acquire) != first + 1 {
            if self.appended() != tail {
                return false; // the caller's CAS fails and re-decides
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        key.epoch.load(Ordering::Relaxed) == entry.epoch
            && key.tenant.load(Ordering::Relaxed) == entry.tenant
    }

    /// Lock-free append: reserve an offset with one CAS, fill it, publish
    /// it. Returns the entry's logical offset.
    ///
    /// The append itself is volatile — this is the asynchrony of §3.2: the
    /// host's `RdOwn` is acknowledged without waiting for durability.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::LogFull`] when the entry's block is still held
    /// by an uncommitted epoch; the caller (libpax) should `persist()` to
    /// recycle the region.
    pub fn append(&self, entry: UndoEntry) -> Result<u64> {
        let capacity = self.capacity_entries();
        let mut cur = self.state.0.load(Ordering::Acquire);
        let mut spins = 0u32;
        let (tail, offset) = loop {
            if cur & REWINDING != 0 {
                // A rewind holds the tail for a few stores; like the
                // key wait in `joins_block`, it waits on nothing.
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                cur = self.state.0.load(Ordering::Acquire);
                continue;
            }
            let tail = cur & TAIL_MASK;
            let offset = if tail.is_multiple_of(BLOCK_ENTRIES) || self.joins_block(tail, &entry) {
                tail
            } else {
                tail.next_multiple_of(BLOCK_ENTRIES)
            };
            // Acquire on `recycled` pairs with the release `fetch_max`
            // in `recycle_to`: if the check admits us, the pump's last
            // use of every slot of this block's previous lap
            // happened-before this load (pump cleared `ready` →
            // release-published durable → committer acquired durable and
            // release-maxed `recycled` → we acquire `recycled`).
            let block_end = (offset / BLOCK_ENTRIES + 1) * BLOCK_ENTRIES;
            if block_end - self.recycled.0.load(Ordering::Acquire) > capacity {
                return Err(PmError::LogFull { capacity_entries: capacity });
            }
            let next = ((cur >> 48) + 1) << 48 | (offset + 1);
            // Acquire (both ways) pairs with `rewind`'s release store of
            // the tail: `offset` maps through the base it was reserved
            // under.
            match self.state.0.compare_exchange_weak(
                cur,
                next,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => break (tail, offset),
                Err(now) => {
                    self.cas_retries.fetch_add(1, Ordering::Relaxed);
                    std::hint::spin_loop();
                    cur = now;
                }
            }
        };
        if offset.is_multiple_of(BLOCK_ENTRIES) {
            let key = self.key(offset);
            key.epoch.store(entry.epoch, Ordering::Relaxed);
            key.tenant.store(entry.tenant, Ordering::Relaxed);
            key.opened_at.store(offset + 1, Ordering::Release);
        }
        for pad in tail..offset {
            debug_assert_eq!(self.slot(pad).ready.load(Ordering::Relaxed), 0);
            self.slot(pad).ready.store(pad + 1, Ordering::Release);
        }
        let slot = self.slot(offset);
        debug_assert_eq!(
            slot.ready.load(Ordering::Relaxed),
            0,
            "reserved slot {offset} still published from a previous lap"
        );
        *slot.entry.lock() = Some(Box::new(entry));
        // Release: the filled entry becomes visible to the pump's
        // acquire scan exactly when the ready word does. `offset + 1`
        // (not a bare flag) makes the scan ABA-proof across ring laps.
        slot.ready.store(offset + 1, Ordering::Release);
        self.state.0.fetch_sub(INFLIGHT_UNIT, Ordering::Relaxed);
        Ok(offset)
    }

    /// The background pump: drains *whole* blocks of the contiguous
    /// published prefix while fewer than `max_entries` offsets have
    /// drained, and advances the durable watermark. Returns offsets
    /// drained; padding is drained too but not charged to the budget. A
    /// block that is not yet full stays pending.
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
        self.drain(pool, clock, max_entries, 0)
    }

    /// Like [`UndoLog::pump`], but the block holding offset `target - 1`
    /// may be written partially — what a caller waiting for offsets below
    /// `target` to become durable (a persist, a forced eviction) needs.
    ///
    /// # Errors
    ///
    /// See [`UndoLog::pump`].
    pub fn pump_to(
        &self,
        pool: &mut PmPool,
        clock: &pax_pm::CrashClock,
        target: u64,
        max_entries: usize,
    ) -> Result<usize> {
        self.drain(pool, clock, max_entries, target)
    }

    fn drain(
        &self,
        pool: &mut PmPool,
        clock: &pax_pm::CrashClock,
        max_entries: usize,
        target: u64,
    ) -> Result<usize> {
        let (mut drained, mut padding) = (0, 0);
        // Stop at the tail: scanning an unreserved block would build its
        // chunk before any append reaches it.
        while drained < max_entries && self.durable_offset() < self.appended() {
            let start = self.durable_offset();
            let block_end = (start / BLOCK_ENTRIES + 1) * BLOCK_ENTRIES;
            // Acquire pairs with the publisher's release store: observing
            // `o + 1` makes the boxed entry visible.
            let mut end = start;
            while end < block_end && self.slot(end).ready.load(Ordering::Acquire) == end + 1 {
                end += 1;
            }
            if end == start || (end < block_end && target <= start) {
                break;
            }
            let n = (end - start) as usize;
            if self.write_block(pool, clock, start, end)? {
                drained += n;
            } else {
                padding += n;
            }
        }
        Ok(drained + padding)
    }

    /// Writes the published offsets `start..end` of one block to media:
    /// pre-images, then the header, then the watermark.
    /// Returns whether the range held any entry (a range of padding only
    /// just moves the watermark).
    fn write_block(
        &self,
        pool: &mut PmPool,
        clock: &pax_pm::CrashClock,
        start: u64,
        end: u64,
    ) -> Result<bool> {
        let padding_only = self.slot(start).entry.lock().is_none();
        if !padding_only && clock.tick() == CrashOutcome::Crashed {
            pool.crash();
            return Err(PmError::Crashed);
        }
        let mut open = self.open.lock();
        let mut header = if start.is_multiple_of(BLOCK_ENTRIES) { None } else { open.take() };
        let base = self.block_base(start);
        for offset in start..end {
            let slot = self.slot(offset);
            let entry = slot.entry.lock().take();
            // Clearing `ready` before publishing durability keeps the
            // reuse chain intact: clear → durable release → recycle
            // release-max → reserver acquire — a future lap's appender
            // can only see an empty slot.
            slot.ready.store(0, Ordering::Release);
            let Some(entry) = entry else { continue };
            let h = header.get_or_insert_with(|| BlockHeader::new(entry.epoch, entry.tenant));
            let index = offset % BLOCK_ENTRIES;
            debug_assert_eq!(h.entries.len() as u64, index, "block entries are contiguous");
            pool.write_line(LineAddr(base + 1 + index), entry.old.clone())?;
            h.push(&entry);
            self.lines_written.fetch_add(1, Ordering::Relaxed);
        }
        if !padding_only {
            let h = header.as_ref().expect("a block with entries has a header");
            pool.write_line(LineAddr(base), h.line())?;
            // The watermark only advances once the whole block is
            // durable: the release store below publishes the written
            // media state to any thread that acquires the new offset.
            self.blocks_written.fetch_add(1, Ordering::Relaxed);
            self.lines_written.fetch_add(1, Ordering::Relaxed);
            self.fill.record(self.fill_hist, h.entries.len() as u64);
        }
        *open = if end.is_multiple_of(BLOCK_ENTRIES) { None } else { header };
        self.durable.0.store(end, Ordering::Release);
        Ok(!padding_only)
    }

    /// Drains until everything reserved *at entry* is durable (the
    /// synchronous step inside `persist()`), writing the last block
    /// partially if it is not full.
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
            if self.pump_to(pool, clock, target, usize::MAX)? == 0 {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// Marks every offset below logical offset `watermark` as committed,
    /// freeing its slot for reuse; clamped to the durable offset and
    /// never regresses. The release `fetch_max` pairs with the acquire
    /// load in [`UndoLog::append`]'s fullness check (see the protocol
    /// docs on the type).
    pub fn recycle_to(&self, watermark: u64) {
        let clamped = watermark.min(self.durable_offset());
        self.recycled.0.fetch_max(clamped, Ordering::AcqRel);
    }

    /// The log's half of every commit: recycles the offsets below
    /// `watermark` (the committed epoch's, see [`UndoLog::recycle_to`])
    /// and rewinds the writer to its first block if that left it empty.
    /// Offsets stay monotonic; only slot ownership and the lap base
    /// reset. Stale entries left on media belong to committed epochs and
    /// are ignored by recovery.
    pub fn reset_after_commit(&self, pool: &mut PmPool, watermark: u64) {
        self.recycle_to(watermark);
        self.rewind(pool);
    }

    /// Moves the lap base to the tail, so the next block opens at the
    /// writer's first block — only when the writer is empty: everything
    /// reserved is durable and recycled, and nothing is in flight.
    /// Returns whether it rewound; a writer already at its lap base, or
    /// with an entry undrained, in flight or held by an uncommitted
    /// epoch, stays as it is. The pool is taken only to exclude the pump
    /// (step 5 of the type's protocol).
    fn rewind(&self, _pool: &mut PmPool) -> bool {
        let cur = self.state.0.load(Ordering::Acquire);
        let tail = cur & TAIL_MASK;
        if cur != tail
            || tail == self.lap.load(Ordering::Relaxed)
            || self.durable_offset() != tail
            || self.recycled.0.load(Ordering::Acquire) != tail
        {
            return false;
        }
        // Only the pump (excluded) moves `durable`, and `recycled` is
        // clamped to it, so both still equal `tail` once the claim holds.
        if self
            .state
            .0
            .compare_exchange(cur, cur | REWINDING, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let base = tail.next_multiple_of(BLOCK_ENTRIES);
        self.lap.store(base, Ordering::Relaxed);
        self.durable.0.store(base, Ordering::Release);
        self.recycled.0.store(base, Ordering::Release);
        self.state.0.store(base, Ordering::Release);
        true
    }

    /// Drops the volatile tail (power loss): reservations, published
    /// entries, and in-flight counts all vanish; only media (and the
    /// watermark and open-block header describing it) survives. Only
    /// chunks that were built hold anything to clear. Callers must have
    /// exclusive access in practice (the engine's crash path is
    /// stop-the-world).
    pub fn crash(&self) {
        for slot in self.chunks.iter().filter_map(OnceLock::get).flat_map(|c| c.slots.iter()) {
            slot.ready.store(0, Ordering::Relaxed);
            *slot.entry.lock() = None;
        }
        self.state.0.store(self.durable_offset(), Ordering::Relaxed);
    }

    /// Scans the pool's log region for valid entries (recovery, §3.4).
    ///
    /// Every block header at its fixed position is parsed, and every
    /// entry it lists is validated against its own checksum; torn or
    /// never-written entries are skipped, and headers lacking the commit
    /// mark — which is what a reserved-but-never-published slot's media
    /// can look like at worst — are rejected the same way. Returns
    /// `(block × BLOCK_ENTRIES + index, entry)` pairs in on-media order —
    /// **not** append order once the ring has wrapped or rewound;
    /// recovery orders rollback by epoch, which block reuse cannot
    /// disturb (a block is only overwritten after its epoch commits).
    ///
    /// # Errors
    ///
    /// Surfaces media read errors.
    pub fn scan(pool: &mut PmPool) -> Result<Vec<(u64, UndoEntry)>> {
        let mut out = Vec::new();
        Self::scan_each(pool, |_, slot, entry| {
            out.push((slot, entry));
            Ok(())
        })?;
        Ok(out)
    }

    /// Like [`UndoLog::scan`], but hands each valid entry to `f` (with
    /// the pool, for lookups) instead of collecting them all.
    ///
    /// # Errors
    ///
    /// Surfaces media read errors and `f`'s errors.
    pub(crate) fn scan_each(
        pool: &mut PmPool,
        mut f: impl FnMut(&mut PmPool, u64, UndoEntry) -> Result<()>,
    ) -> Result<()> {
        let layout = pool.layout();
        for block in 0..layout.log_lines / BLOCK_LINES {
            let base = layout.log_start().0 + block * BLOCK_LINES;
            let Some(header) = BlockHeader::parse(&pool.read_line(LineAddr(base))?) else {
                continue;
            };
            for i in 0..header.entries.len() {
                let old = pool.read_line(LineAddr(base + 1 + i as u64))?;
                if let Some(entry) = header.entry(i, old) {
                    f(pool, block * BLOCK_ENTRIES + i as u64, entry)?;
                }
            }
        }
        Ok(())
    }

    /// Clears the commit mark of the block holding each of `slots` (as
    /// [`UndoLog::scan`] numbers them), so none of the block's entries
    /// scans again. Recovery calls it on the entries it rolled back; a
    /// block holds one epoch of one tenant, so it holds nothing else.
    /// Blocks are written in the order of `slots` (repeats of the block
    /// just written are skipped).
    ///
    /// # Errors
    ///
    /// Surfaces media errors.
    pub(crate) fn invalidate(
        pool: &mut PmPool,
        slots: impl IntoIterator<Item = u64>,
    ) -> Result<()> {
        let start = pool.layout().log_start().0;
        let mut last = None;
        for block in slots.into_iter().map(|slot| slot / BLOCK_ENTRIES) {
            if last.replace(block) == Some(block) {
                continue;
            }
            let at = LineAddr(start + block * BLOCK_LINES);
            let mut header = pool.read_line(at)?;
            header.write_at(COMMIT_OFFSET, &[0]);
            pool.write_line(at, header)?;
        }
        Ok(())
    }
}

/// The header line a block holding `entries` (one epoch of one tenant, in
/// block order) carries on media.
pub fn block_header_line(entries: &[UndoEntry]) -> CacheLine {
    let mut header = BlockHeader::new(entries[0].epoch, entries[0].tenant);
    for e in entries {
        header.push(e);
    }
    header.line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_pm::{CrashClock, PoolConfig, LINE_SIZE};

    fn pool() -> PmPool {
        PmPool::create(PoolConfig::small()).unwrap()
    }

    fn entry(epoch: u64, line: u64, fill: u8) -> UndoEntry {
        UndoEntry::single(epoch, LineAddr(line), CacheLine::filled(fill))
    }

    /// A writer over `blocks` blocks of `p`'s log region, laid out the two
    /// ways the workspace uses: at the region start (the baselines'
    /// whole-region writers) or as the second of two banks (a device
    /// lane). The `_in_both_modes` tests check each contract both ways.
    fn mode_log(p: &PmPool, banked: bool, blocks: u64) -> UndoLog {
        let base = p.layout().log_start().0 + if banked { blocks * BLOCK_LINES } else { 0 };
        UndoLog::with_region(base, blocks)
    }

    fn pool_with_log_lines(lines: usize) -> PmPool {
        PmPool::create(PoolConfig::small().with_log_bytes(lines * LINE_SIZE)).unwrap()
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
        line.write_at(TENANT_OFFSET, &5u32.to_le_bytes());
        p.write_line(header, line).unwrap();
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
        assert!(UndoLog::scan(&mut p).unwrap().is_empty());
    }

    #[test]
    fn append_assigns_monotonic_offsets_in_both_modes() {
        let p = pool();
        for banked in [false, true] {
            let log = mode_log(&p, banked, 256);
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
            let log = mode_log(&p, banked, 256);
            for i in 0..5 {
                log.append(entry(1, i, i as u8)).unwrap();
            }
            // A budget of two drains the one whole block; the fifth entry
            // waits for its block to fill.
            assert_eq!(log.pump(&mut p, &clock, 2).unwrap(), 4);
            assert_eq!(log.durable_offset(), 4);
            assert_eq!(log.pending_len(), 1);
            assert_eq!(log.pump(&mut p, &clock, 2).unwrap(), 0);
            log.flush(&mut p, &clock).unwrap();
            assert_eq!(log.durable_offset(), 5);
            assert_eq!((log.blocks_written(), log.lines_written()), (2, 7));
        }
    }

    #[test]
    fn epoch_switch_pads_to_the_next_block() {
        let clock = CrashClock::new();
        let mut p = pool();
        let log = UndoLog::new(&p);
        assert_eq!(log.append(entry(1, 0, 1)).unwrap(), 0);
        // A new epoch (or tenant) never joins the open block.
        assert_eq!(log.append(entry(2, 1, 2)).unwrap(), 4);
        assert_eq!(log.append(UndoEntry { tenant: 1, ..entry(2, 2, 3) }).unwrap(), 8);
        assert_eq!(log.append(UndoEntry { tenant: 1, ..entry(2, 3, 4) }).unwrap(), 9);
        // The padding is published: the pump drains past it without
        // waiting, and the partial blocks become durable on flush.
        log.flush(&mut p, &clock).unwrap();
        assert_eq!(log.durable_offset(), 10);
        let scanned = UndoLog::scan(&mut p).unwrap();
        let slots: Vec<u64> = scanned.iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![0, 4, 8, 9]);
        assert_eq!(log.blocks_written(), 3);
        let fill = log.fill_snapshot();
        let h = fill.histogram("log_block_entries").unwrap();
        assert_eq!((h.count, h.sum, h.max), (3, 4, 2));
    }

    #[test]
    fn partial_block_is_extended_without_invalidating_durable_entries() {
        let clock = CrashClock::new();
        let mut p = pool();
        let log = UndoLog::new(&p);
        log.append(entry(1, 0, 1)).unwrap();
        log.append(entry(1, 1, 2)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        let header = LineAddr(p.layout().log_start().0);
        let first = p.read_line(header).unwrap();
        log.append(entry(1, 2, 3)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        assert_eq!(UndoLog::scan(&mut p).unwrap().len(), 3);
        // A crash that kept the previous header version still finds the
        // two entries that were durable under it.
        p.write_line(header, first).unwrap();
        let scanned = UndoLog::scan(&mut p).unwrap();
        assert_eq!(scanned.iter().map(|(_, e)| e.vpm_line.0).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn engines_produce_identical_media_bytes() {
        // The media contract every writer honours: after a flush, each
        // block holds exactly its header line and its entries'
        // pre-images, whatever the tenant/epoch mix — the bytes recovery
        // and the golden durable images depend on.
        let clock = CrashClock::new();
        let mut p = pool();
        let log = UndoLog::new(&p);
        let entries: Vec<UndoEntry> = (0..32u64)
            .map(|i| UndoEntry { tenant: (i / 8 % 3) as u32, ..entry(1 + i / 12, i % 7, i as u8) })
            .collect();
        let mut blocks: Vec<(u64, Vec<UndoEntry>)> = Vec::new();
        for e in &entries {
            let offset = log.append(e.clone()).unwrap();
            match blocks.last_mut() {
                Some((b, v)) if *b == offset / BLOCK_ENTRIES => v.push(e.clone()),
                _ => blocks.push((offset / BLOCK_ENTRIES, vec![e.clone()])),
            }
        }
        log.flush(&mut p, &clock).unwrap();
        let start = p.layout().log_start().0;
        for (b, v) in &blocks {
            let base = start + b * BLOCK_LINES;
            assert_eq!(p.read_line(LineAddr(base)).unwrap(), block_header_line(v), "block {b}");
            for (i, e) in v.iter().enumerate() {
                let pre = p.read_line(LineAddr(base + 1 + i as u64)).unwrap();
                assert_eq!(pre, e.old, "block {b} pre-image {i}");
            }
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
            let log = mode_log(&p, banked, 256);
            log.append(entry(1, 0, 1)).unwrap();
            log.pump_to(&mut p, &clock, 1, 1).unwrap();
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
        log.append(entry(1, 1, 2)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        // Corrupt the first pre-image (simulated torn write): only that
        // entry is lost; its block neighbour still validates.
        let data_line = LineAddr(p.layout().log_start().0 + 1);
        p.write_line(data_line, CacheLine::filled(0xFF)).unwrap();
        let scanned = UndoLog::scan(&mut p).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].1, entry(1, 1, 2));
    }

    #[test]
    fn header_shaped_pre_image_is_never_parsed_as_a_header() {
        let clock = CrashClock::new();
        let mut p = pool();
        let log = UndoLog::new(&p);
        // A pre-image whose bytes are a valid header of another block.
        let forged = block_header_line(&[entry(9, 3, 0x33)]);
        log.append(UndoEntry::single(1, LineAddr(5), forged.clone())).unwrap();
        log.flush(&mut p, &clock).unwrap();
        let scanned = UndoLog::scan(&mut p).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].1.old, forged);
    }

    #[test]
    fn log_full_is_reported_in_both_modes() {
        let p = pool_with_log_lines(2 * BLOCK_LINES as usize); // two banks of one block
        for banked in [false, true] {
            let log = mode_log(&p, banked, 1);
            for i in 0..BLOCK_ENTRIES {
                log.append(entry(1, i, 0)).unwrap();
            }
            assert!(matches!(log.append(entry(1, 9, 0)), Err(PmError::LogFull { .. })));
        }
    }

    #[test]
    fn reset_after_commit_reuses_slots_with_monotonic_offsets() {
        let mut p = pool();
        let clock = CrashClock::new();
        let log = UndoLog::new(&p);
        log.append(entry(1, 5, 1)).unwrap();
        log.append(entry(1, 6, 1)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        log.reset_after_commit(&mut p, log.durable_offset());
        // Offsets keep counting — no ambiguity against stale buffered
        // offsets — but the region is free again, and the new epoch's
        // block opens at the first block.
        assert_eq!(log.durable_offset(), BLOCK_ENTRIES);
        assert_eq!(log.recycled.0.load(Ordering::Acquire), log.appended());
        assert_eq!(log.append(entry(2, 7, 2)).unwrap(), BLOCK_ENTRIES);
        log.flush(&mut p, &clock).unwrap();
        // Epoch 2's one-entry header replaced epoch 1's; epoch 1's second
        // pre-image is left behind, unlisted, so scan finds one entry.
        let scanned = UndoLog::scan(&mut p).unwrap();
        assert_eq!(scanned, vec![(0, entry(2, 7, 2))]);
    }

    /// Drains and commits everything `log` holds, as the synchronous
    /// epilogue does.
    fn commit(log: &UndoLog, p: &mut PmPool, clock: &CrashClock) {
        log.flush(p, clock).unwrap();
        log.reset_after_commit(p, log.durable_offset());
    }

    #[test]
    fn drained_commit_rewinds_to_the_first_block_in_both_modes() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let mut p = pool();
            let log = mode_log(&p, banked, 8);
            let first = log.block_base(log.appended());
            for i in 0..6 {
                log.append(entry(1, i, i as u8)).unwrap();
            }
            commit(&log, &mut p, &clock);
            // Six entries end mid-block 1: the tail rounds up to offset
            // 8, which now maps to the first block.
            let offset = log.append(entry(2, 9, 0x99)).unwrap();
            assert_eq!(offset, 2 * BLOCK_ENTRIES);
            assert_eq!(log.block_base(offset), first);
            log.flush(&mut p, &clock).unwrap();
            let header = BlockHeader::parse(&p.read_line(LineAddr(first)).unwrap()).unwrap();
            assert_eq!((header.epoch, header.entries.len()), (2, 1));
            assert_eq!(p.read_line(LineAddr(first + 1)).unwrap(), CacheLine::filled(0x99));
        }
    }

    #[test]
    fn offsets_keep_rising_across_rewinds() {
        let clock = CrashClock::new();
        let mut p = pool();
        let log = mode_log(&p, true, 4);
        let mut last = None;
        for epoch in 1..=40u64 {
            // 1..=7 entries per epoch: laps of every length, aligned and
            // not.
            for i in 0..1 + epoch % 7 {
                let offset = log.append(entry(epoch, i, epoch as u8)).unwrap();
                assert!(last.is_none_or(|l| offset > l), "offset {offset} after {last:?}");
                last = Some(offset);
            }
            commit(&log, &mut p, &clock);
            assert_eq!(log.appended(), log.durable_offset());
            assert_eq!(log.appended() % BLOCK_ENTRIES, 0, "the tail rests on a block start");
        }
        // Every epoch fit the 4-block bank only because each one started
        // at its first block: 40 epochs reserved far more than 16 offsets.
        assert!(log.appended() > 4 * log.capacity_entries());
    }

    #[test]
    fn no_rewind_while_an_entry_is_undrained_in_flight_or_draining() {
        let clock = CrashClock::new();
        let mut p = pool();
        let log = mode_log(&p, false, 8);
        for i in 0..5 {
            log.append(entry(1, i, 0)).unwrap();
        }
        // Undrained: the fifth entry is still pending.
        log.pump(&mut p, &clock, usize::MAX).unwrap();
        log.recycle_to(log.durable_offset());
        assert!(!log.rewind(&mut p));
        // In flight: a reservation not yet published holds the tail.
        log.flush(&mut p, &clock).unwrap();
        log.recycle_to(log.durable_offset());
        log.state.0.fetch_add(INFLIGHT_UNIT, Ordering::Relaxed);
        assert!(!log.rewind(&mut p));
        log.state.0.fetch_sub(INFLIGHT_UNIT, Ordering::Relaxed);
        // Held by a draining async epoch: durable but not yet recycled.
        log.append(entry(2, 9, 0)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        assert!(!log.rewind(&mut p));
        assert_eq!(log.append(entry(3, 10, 0)).unwrap(), 3 * BLOCK_ENTRIES, "no rewind");
        // Once every offset is durable and recycled, it rewinds.
        log.flush(&mut p, &clock).unwrap();
        log.recycle_to(log.durable_offset());
        assert!(log.rewind(&mut p));
        assert!(!log.rewind(&mut p), "already at its lap base");
        assert_eq!(log.block_base(log.append(entry(4, 11, 0)).unwrap()), log.region_start);
    }

    /// Indices of the ring chunks `log` has built.
    fn built(log: &UndoLog) -> Vec<usize> {
        (0..log.chunks.len()).filter(|&i| log.chunks[i].get().is_some()).collect()
    }

    #[test]
    fn a_fresh_bank_builds_no_chunk() {
        let clock = CrashClock::new();
        let mut p = pool();
        let blocks = (32 << 20) / LINE_SIZE as u64 / BLOCK_LINES;
        let log = UndoLog::with_region(p.layout().log_start().0, blocks);
        assert_eq!(log.chunks.len() as u64, blocks.div_ceil(CHUNK_BLOCKS));
        // Neither opening nor an idle pump touches the ring.
        assert_eq!(log.pump(&mut p, &clock, usize::MAX).unwrap(), 0);
        log.flush(&mut p, &clock).unwrap();
        log.crash();
        assert_eq!(built(&log), Vec::<usize>::new());
    }

    #[test]
    fn appends_build_only_the_chunks_they_reach_in_both_modes() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let blocks = 3 * CHUNK_BLOCKS;
            let mut p = pool_with_log_lines(2 * (blocks * BLOCK_LINES) as usize);
            let log = mode_log(&p, banked, blocks);
            for i in 0..CHUNK_ENTRIES {
                log.append(entry(1, i, 0)).unwrap();
            }
            assert_eq!(built(&log), vec![0]);
            // The last block of chunk 0 is full: draining it stops at the
            // tail instead of scanning into chunk 1.
            log.flush(&mut p, &clock).unwrap();
            assert_eq!(built(&log), vec![0]);
            log.append(entry(1, CHUNK_ENTRIES, 0)).unwrap();
            log.flush(&mut p, &clock).unwrap();
            assert_eq!(built(&log), vec![0, 1]);
            // A drained commit rewinds; the next epoch stays in chunk 0.
            log.reset_after_commit(&mut p, log.durable_offset());
            log.append(entry(2, 0, 0)).unwrap();
            assert_eq!(built(&log), vec![0, 1]);
        }
    }

    #[test]
    fn a_lap_across_a_chunk_boundary_then_a_rewind_keeps_offsets_and_keys_in_both_modes() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            // Chunk 1 holds the ring's last four blocks.
            let blocks = CHUNK_BLOCKS + 4;
            let mut p = pool_with_log_lines(2 * (blocks * BLOCK_LINES) as usize);
            let log = mode_log(&p, banked, blocks);
            let first = log.region_start;
            // Epoch 1 reaches two blocks into chunk 1 and commits without
            // a rewind (the non-blocking commit only recycles).
            for i in 0..(CHUNK_BLOCKS + 2) * BLOCK_ENTRIES {
                log.append(entry(1, i, 1)).unwrap();
            }
            log.flush(&mut p, &clock).unwrap();
            log.recycle_to(log.durable_offset());
            // Epoch 2 fills the ring's last two blocks and wraps into
            // chunk 0's first blocks: offsets stay dense, and each block
            // maps to its ring position and carries epoch 2's key.
            let tail = log.appended();
            for i in 0..4 * BLOCK_ENTRIES + 2 {
                let offset = log.append(entry(2, 1000 + i, 2)).unwrap();
                assert_eq!(offset, tail + i);
                let block = (CHUNK_BLOCKS + 2 + i / BLOCK_ENTRIES) % blocks;
                assert_eq!(log.block_base(offset), first + block * BLOCK_LINES);
                let key = log.key(offset);
                assert_eq!(key.opened_at.load(Ordering::Relaxed), offset - i % BLOCK_ENTRIES + 1);
                assert_eq!(key.epoch.load(Ordering::Relaxed), 2);
            }
            commit(&log, &mut p, &clock);
            // The rewind maps the next block to the first again.
            let offset = log.append(entry(3, 7, 3)).unwrap();
            assert_eq!(offset, (tail + 4 * BLOCK_ENTRIES + 2).next_multiple_of(BLOCK_ENTRIES));
            assert_eq!(log.block_base(offset), first);
            assert_eq!(log.key(offset).epoch.load(Ordering::Relaxed), 3);
            log.flush(&mut p, &clock).unwrap();
            let bank = if banked { blocks * BLOCK_ENTRIES } else { 0 };
            let scanned = UndoLog::scan(&mut p).unwrap();
            let epochs = |slot: u64| {
                let at = scanned.iter().filter(|(s, _)| *s == bank + slot);
                at.map(|(_, e)| e.epoch).collect::<Vec<_>>()
            };
            assert_eq!(epochs(0), vec![3]);
            assert_eq!(epochs(BLOCK_ENTRIES), vec![2]);
            assert_eq!(epochs((CHUNK_BLOCKS + 2) * BLOCK_ENTRIES), vec![2]);
            assert_eq!(epochs(CHUNK_BLOCKS * BLOCK_ENTRIES), vec![1]);
        }
    }

    #[test]
    fn crash_empties_every_built_chunk() {
        let clock = CrashClock::new();
        let blocks = 3 * CHUNK_BLOCKS;
        let mut p = pool_with_log_lines((blocks * BLOCK_LINES) as usize);
        let log = mode_log(&p, false, blocks);
        for i in 0..CHUNK_ENTRIES + 6 {
            log.append(entry(1, i, 0)).unwrap();
        }
        // One block drains; the rest is published but volatile.
        log.pump(&mut p, &clock, 1).unwrap();
        assert_eq!(log.durable_offset(), BLOCK_ENTRIES);
        log.crash();
        assert_eq!(built(&log), vec![0, 1]);
        for chunk in log.chunks.iter().filter_map(OnceLock::get) {
            for slot in chunk.slots.iter() {
                assert_eq!(slot.ready.load(Ordering::Relaxed), 0);
                assert!(slot.entry.lock().is_none());
            }
        }
        // The tail restarts at the durable watermark.
        assert_eq!(log.append(entry(2, 0, 0)).unwrap(), BLOCK_ENTRIES);
    }

    #[test]
    fn a_stale_tail_does_not_join_a_block_the_base_moved_past() {
        let clock = CrashClock::new();
        let mut p = pool();
        let log = mode_log(&p, false, 8);
        for i in 0..5 {
            log.append(entry(1, i, 0)).unwrap();
        }
        // An appender loads the word mid-block 1 ...
        let stale = log.appended();
        assert_ne!(stale % BLOCK_ENTRIES, 0);
        // ... and a drained commit rewinds before it decides.
        commit(&log, &mut p, &clock);
        assert!(log.lap.load(Ordering::Relaxed) > stale);
        assert!(!log.joins_block(stale, &entry(1, 9, 0)));
        // The word moved past the stale tail, so the appender's CAS
        // fails; its retry opens the first block.
        assert_ne!(log.appended(), stale);
        assert_eq!(log.block_base(log.append(entry(2, 9, 0)).unwrap()), log.region_start);
    }

    #[test]
    fn crash_after_a_rewind_recovers_past_stale_committed_blocks() {
        let clock = CrashClock::new();
        let mut p = pool();
        let log = UndoLog::new(&p);
        // Epoch 1 fills three blocks and commits.
        for i in 0..3 * BLOCK_ENTRIES {
            log.append(entry(1, i, 0x11)).unwrap();
        }
        commit(&log, &mut p, &clock);
        p.commit_epoch(1).unwrap();
        // Epoch 2 rewinds over block 0 only, and the crash hits mid-epoch
        // after its line reached PM.
        log.append(entry(2, 0, 0x22)).unwrap();
        log.flush(&mut p, &clock).unwrap();
        let abs = p.layout().vpm_to_pool(0).unwrap();
        p.write_line(abs, CacheLine::filled(0x33)).unwrap();
        log.crash();
        p.crash();
        // Blocks 1 and 2 still hold epoch 1's entries: committed, so
        // recovery scans and ignores them, and rolls back epoch 2 only.
        let r = crate::recover(&mut p).unwrap();
        assert_eq!((r.committed_epoch, r.scanned, r.rolled_back), (1, 9, 1));
        assert_eq!(p.read_line(abs).unwrap(), CacheLine::filled(0x22));
    }

    #[test]
    fn scan_reports_the_slots_of_the_lap_mapping_in_both_modes() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let mut p = pool_with_log_lines(8 * BLOCK_LINES as usize); // two banks of 4 blocks
            let log = mode_log(&p, banked, 4);
            let bank = if banked { log.capacity_entries() } else { 0 };
            for i in 0..7 {
                log.append(entry(1, i, 0)).unwrap();
            }
            commit(&log, &mut p, &clock);
            let offsets: Vec<u64> =
                (0..6).map(|i| log.append(entry(2, 20 + i, 0)).unwrap()).collect();
            log.flush(&mut p, &clock).unwrap();
            assert_eq!(offsets[0], 2 * BLOCK_ENTRIES);
            // Epoch 2 overwrote blocks 0 and 1 of the bank, so epoch 1's
            // entries there are gone; each of epoch 2's lands at its
            // offset's place in the lap.
            let scanned = UndoLog::scan(&mut p).unwrap();
            let slots: Vec<u64> = scanned.iter().map(|(slot, _)| *slot).collect();
            let want: Vec<u64> = offsets.iter().map(|o| bank + o - offsets[0]).collect();
            assert_eq!(slots, want);
            assert!(scanned.iter().all(|(_, e)| e.epoch == 2));
        }
    }

    #[test]
    fn recycle_to_frees_slots_incrementally_in_both_modes() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let mut p = pool_with_log_lines(4 * BLOCK_LINES as usize); // two banks of 2 blocks
            let log = mode_log(&p, banked, 2);
            for i in 0..8 {
                log.append(entry(1 + i / 4, i, 0)).unwrap();
            }
            assert!(matches!(log.append(entry(3, 9, 0)), Err(PmError::LogFull { .. })));
            log.flush(&mut p, &clock).unwrap();
            // Epoch 1 committed up to offset 4: its block is free, epoch
            // 2's is live.
            log.recycle_to(4);
            assert_eq!(log.recycled.0.load(Ordering::Acquire), 4);
            assert_eq!(log.append(entry(3, 9, 0)).unwrap(), 8);
            assert_eq!(log.append(entry(3, 10, 0)).unwrap(), 9);
            // A block is reopened only once all of its previous lap is
            // recycled, so a mid-block watermark frees nothing.
            log.recycle_to(6);
            assert!(matches!(log.append(entry(4, 11, 0)), Err(PmError::LogFull { .. })));
            // The wrapped entries physically overwrite the recycled block.
            log.flush(&mut p, &clock).unwrap();
            let scanned = UndoLog::scan(&mut p).unwrap();
            assert_eq!(scanned.len(), 6);
            assert_eq!(scanned.iter().filter(|(_, e)| e.epoch == 3).count(), 2);
        }
    }

    #[test]
    fn recycle_to_clamps_to_durable_and_never_regresses() {
        let clock = CrashClock::new();
        for banked in [false, true] {
            let mut p = pool();
            let log = mode_log(&p, banked, 256);
            for i in 0..6 {
                log.append(entry(1, i, 0)).unwrap();
            }
            log.pump(&mut p, &clock, 1).unwrap();
            log.recycle_to(99); // clamped: only one block is durable
            assert_eq!(log.recycled.0.load(Ordering::Acquire), 4);
            log.recycle_to(0); // never regresses
            assert_eq!(log.recycled.0.load(Ordering::Acquire), 4);
        }
    }

    #[test]
    fn sharded_regions_do_not_overlap() {
        let mut p = pool();
        let clock = CrashClock::new();
        let layout = p.layout();
        let per_shard = 2u64;
        let a = UndoLog::with_region(layout.log_start().0, per_shard);
        let b = UndoLog::with_region(layout.log_start().0 + per_shard * BLOCK_LINES, per_shard);
        a.append(entry(1, 0, 0xA)).unwrap();
        a.append(entry(1, 2, 0xA)).unwrap();
        b.append(entry(1, 1, 0xB)).unwrap();
        a.flush(&mut p, &clock).unwrap();
        b.flush(&mut p, &clock).unwrap();
        let scanned = UndoLog::scan(&mut p).unwrap();
        assert_eq!(scanned.len(), 3);
        // Shard B's entry landed in its own bank (its first block).
        assert_eq!(scanned[2].0, per_shard * BLOCK_ENTRIES);
        assert_eq!(scanned[2].1.old, CacheLine::filled(0xB));
    }

    #[test]
    fn crash_clock_interrupts_pump_in_both_modes() {
        for banked in [false, true] {
            let mut p = pool();
            let clock = CrashClock::new();
            let log = mode_log(&p, banked, 256);
            for i in 0..12 {
                log.append(entry(1, i, 0)).unwrap();
            }
            clock.arm(clock.steps_taken() + 2); // two blocks, then crash
            assert_eq!(log.pump(&mut p, &clock, 8).unwrap(), 8);
            assert!(matches!(log.flush(&mut p, &clock), Err(PmError::Crashed)));
            assert_eq!(log.durable_offset(), 8);
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
        assert_eq!(log.lines_written(), 2);
        // A full block costs one header line for four pre-images.
        for i in 1..BLOCK_ENTRIES + 1 {
            log.append(entry(1, i, 0)).unwrap();
        }
        log.flush(&mut p, &clock).unwrap();
        assert_eq!(log.lines_written(), 2 + 4 + 2);
        assert_eq!(log.blocks_written(), 3);
    }

    #[test]
    fn large_pending_drain_is_linear() {
        // The remove(0) regression: draining N pending entries must be
        // O(N). 50k entries through repeated small pumps completes in
        // well under a second with a VecDeque; the old Vec::remove(0)
        // drain was O(N²) and took tens of seconds.
        let mut p = pool_with_log_lines(12_500 * BLOCK_LINES as usize);
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
        // disjoint offsets covering exactly 0..N*OPS (one epoch of one
        // tenant never pads), every reservation is published, and the
        // in-flight gauge settles back to zero.
        const THREADS: usize = 4;
        const OPS: u64 = 2_000;
        let bank = UndoLog::with_region(0, THREADS as u64 * OPS / BLOCK_ENTRIES);
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let bank = &bank;
                    s.spawn(move || {
                        (0..OPS)
                            .map(|i| bank.append(entry(1, t as u64 * OPS + i, t as u8)).unwrap())
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
        let mut p =
            pool_with_log_lines((THREADS as u64 * OPS / BLOCK_ENTRIES * BLOCK_LINES) as usize);
        let clock = CrashClock::new();
        let bank = UndoLog::new(&p);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let bank = &bank;
                s.spawn(move || {
                    for i in 0..OPS {
                        bank.append(entry(1, t as u64 * OPS + i, t as u8)).unwrap();
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
