//! The record store the workloads drive, its shadow, and the crash oracle.
//!
//! A record is a value blob in one `BitmapAlloc` over vPM, indexed by a
//! `PHashMap<u64, u64>` from key to the blob's packed address and length.
//! The structure and allocator code is the repository's, unchanged; the
//! benchmark only picks the space and allocator types ([`Flavor`]), so the
//! same workload code runs plain or traced.

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxError, PmAllocator, Result, VPm};
use pax_telemetry::MetricSnapshot;

use crate::trace::{self, Kind, TimedAlloc, TimedSpace};

/// Space and allocator types of one run: plain for the measured run,
/// wrapped in spans for the traced one.
pub trait Flavor: 'static {
    /// The space structures see.
    type Space: MemSpace + Send + Sync + 'static;
    /// The allocator structures see.
    type Alloc: PmAllocator<Self::Space> + AllocProbe + Send + Sync + 'static;
    /// Wraps a pool mapping.
    fn space(vpm: VPm) -> Self::Space;
    /// Formats or recovers the allocator (`BitmapAlloc::attach`).
    ///
    /// # Errors
    ///
    /// Propagates allocator recovery errors.
    fn attach(space: Self::Space) -> Result<Self::Alloc>;
}

/// The untraced types: exactly what an application would use.
#[derive(Debug)]
pub struct Plain;

impl Flavor for Plain {
    type Space = VPm;
    type Alloc = BitmapAlloc<VPm>;

    fn space(vpm: VPm) -> VPm {
        vpm
    }

    fn attach(space: VPm) -> Result<Self::Alloc> {
        BitmapAlloc::attach(space)
    }
}

/// The traced types: every allocator and space call is a span.
#[derive(Debug)]
pub struct Traced;

impl Flavor for Traced {
    type Space = TimedSpace<VPm>;
    type Alloc = TimedAlloc<BitmapAlloc<TimedSpace<VPm>>>;

    fn space(vpm: VPm) -> Self::Space {
        TimedSpace(vpm)
    }

    fn attach(space: Self::Space) -> Result<Self::Alloc> {
        trace::span(Kind::AttachAlloc, || BitmapAlloc::attach(space)).map(TimedAlloc)
    }
}

/// Allocator state the oracle and the per-layer report read.
pub trait AllocProbe {
    /// Allocated frames (`BitmapAlloc::live_frames`).
    fn live_frames(&self) -> u64;
    /// Permille of partially used trees.
    fn frag_permille(&self) -> u64;
    /// The allocator's counters.
    fn counters(&self) -> MetricSnapshot;
}

impl<S: MemSpace> AllocProbe for BitmapAlloc<S> {
    fn live_frames(&self) -> u64 {
        BitmapAlloc::live_frames(self)
    }

    fn frag_permille(&self) -> u64 {
        self.fragmentation_permille()
    }

    fn counters(&self) -> MetricSnapshot {
        self.metrics_snapshot()
    }
}

impl<A: AllocProbe> AllocProbe for TimedAlloc<A> {
    fn live_frames(&self) -> u64 {
        self.0.live_frames()
    }

    fn frag_permille(&self) -> u64 {
        self.0.frag_permille()
    }

    fn counters(&self) -> MetricSnapshot {
        self.0.counters()
    }
}

/// Blob length fixed per key and seed: 8 to 248 bytes, so an update
/// rewrites its blob in place.
pub fn blob_len(key: u64, seed: u64) -> usize {
    8 + (mix(key ^ seed.rotate_left(29)) % 241) as usize
}

/// The bytes of `key`'s blob at `version`.
pub fn fill_blob(key: u64, version: u32, buf: &mut [u8]) {
    let mut x = mix(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((version as u64) << 32));
    for chunk in buf.chunks_mut(8) {
        x = mix(x);
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pack(addr: u64, len: usize) -> u64 {
    debug_assert!(addr < 1 << 48 && len < 1 << 16);
    addr | (len as u64) << 48
}

fn unpack(v: u64) -> (u64, usize) {
    (v & ((1 << 48) - 1), (v >> 48) as usize)
}

/// Key → blob store over one allocator (see module docs).
#[derive(Debug, Clone)]
pub struct RecordStore<F: Flavor> {
    map: PHashMap<u64, u64, F::Space, F::Alloc>,
}

impl<F: Flavor> RecordStore<F> {
    /// Opens (formats or recovers) the store over a pool mapping:
    /// `BitmapAlloc::attach` then `PHashMap::attach`.
    ///
    /// # Errors
    ///
    /// Propagates recovery errors.
    pub fn attach(vpm: VPm) -> Result<Self> {
        let alloc = F::attach(F::space(vpm))?;
        let map = trace::span(Kind::AttachMap, || PHashMap::attach(alloc))?;
        Ok(RecordStore { map })
    }

    /// The allocator.
    pub fn alloc(&self) -> &F::Alloc {
        self.map.heap()
    }

    fn space(&self) -> &F::Space {
        self.map.heap().space()
    }

    /// Where `key`'s blob lives, if present.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn locate(&self, key: u64) -> Result<Option<(u64, usize)>> {
        Ok(self.map.get(key)?.map(unpack))
    }

    /// Reads `key`'s blob into `buf`; false when absent.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn get(&self, key: u64, buf: &mut Vec<u8>) -> Result<bool> {
        let Some((addr, len)) = self.locate(key)? else { return Ok(false) };
        buf.resize(len, 0);
        self.space().read_bytes(addr, buf)?;
        Ok(true)
    }

    /// Writes `key`'s blob: in place when present, else a new blob and a
    /// new index entry.
    ///
    /// # Errors
    ///
    /// [`PaxError::Corrupt`] when a present blob has another length, and
    /// allocation and space errors.
    pub fn put(&self, key: u64, bytes: &[u8]) -> Result<()> {
        match self.locate(key)? {
            Some((addr, len)) if len == bytes.len() => self.space().write_bytes(addr, bytes),
            Some((_, len)) => Err(PaxError::Corrupt(format!(
                "record {key} has a {len}-byte blob, not {}",
                bytes.len()
            ))),
            None => {
                let addr = self.alloc().alloc(bytes.len() as u64)?;
                self.space().write_bytes(addr, bytes)?;
                self.map.insert(key, pack(addr, bytes.len()))?;
                Ok(())
            }
        }
    }

    /// Removes `key` and frees its blob; false when absent.
    ///
    /// # Errors
    ///
    /// Propagates allocator and space errors.
    pub fn remove(&self, key: u64) -> Result<bool> {
        let Some(v) = self.map.remove(key)? else { return Ok(false) };
        let (addr, len) = unpack(v);
        self.alloc().free(addr, len as u64)?;
        Ok(true)
    }
}

/// A record as the shadow knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    /// Which write produced the blob.
    pub version: u32,
    /// Blob length.
    pub len: u16,
}

/// The expected store contents: the live view, plus an undo list back to
/// the state at the last `persist()`.
#[derive(Debug, Clone)]
pub struct Shadow {
    recs: Vec<Option<Rec>>,
    undo: Vec<(u64, Option<Rec>)>,
    next_version: u32,
    committed_live_frames: u64,
}

impl Shadow {
    /// An empty shadow over keys `0..keys`.
    pub fn new(keys: u64) -> Self {
        Shadow {
            recs: vec![None; keys as usize],
            undo: Vec::new(),
            next_version: 1,
            committed_live_frames: 0,
        }
    }

    /// The live record for `key`.
    pub fn get(&self, key: u64) -> Option<Rec> {
        self.recs[key as usize]
    }

    /// Records a write of `key` at `len` bytes and returns its record.
    pub fn write(&mut self, key: u64, len: usize) -> Rec {
        let rec = Rec { version: self.next_version, len: len as u16 };
        self.next_version = self.next_version.wrapping_add(1);
        self.set(key, Some(rec));
        rec
    }

    /// Records a removal of `key`.
    pub fn remove(&mut self, key: u64) {
        self.set(key, None);
    }

    /// Overwrites `key`'s record outright (tests use this to stale it).
    pub fn set(&mut self, key: u64, rec: Option<Rec>) {
        let old = std::mem::replace(&mut self.recs[key as usize], rec);
        self.undo.push((key, old));
    }

    /// Marks the live view durable, with the allocator's live frames at
    /// that `persist()`.
    pub fn commit(&mut self, live_frames: u64) {
        self.undo.clear();
        self.committed_live_frames = live_frames;
    }

    /// Rolls the live view back to the last commit (what a crash must
    /// leave behind).
    pub fn rollback(&mut self) {
        while let Some((key, old)) = self.undo.pop() {
            self.recs[key as usize] = old;
        }
    }

    /// Keys in the shadow's key space.
    pub fn keys(&self) -> u64 {
        self.recs.len() as u64
    }
}

/// What one oracle pass found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Keys read back.
    pub checked: u64,
    /// Records that differ from the committed state: a committed record
    /// missing or changed, or a post-persist change still visible. A
    /// wrong allocator live count adds one.
    pub mismatches: u64,
}

/// Checks a reopened store against a rolled-back shadow: every key in
/// the key space is read back and compared byte for byte, and the
/// allocator's live frames must equal their value at the last persist.
///
/// # Errors
///
/// Propagates space errors from the read-back.
pub fn check<F: Flavor>(store: &RecordStore<F>, shadow: &Shadow) -> Result<Verdict> {
    trace::span(Kind::Oracle, || {
        let mut v = Verdict::default();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for key in 0..shadow.keys() {
            v.checked += 1;
            let present = store.get(key, &mut got)?;
            let ok = match shadow.get(key) {
                None => !present,
                Some(rec) => {
                    want.resize(rec.len as usize, 0);
                    fill_blob(key, rec.version, &mut want);
                    present && got == want
                }
            };
            v.mismatches += u64::from(!ok);
        }
        if store.alloc().live_frames() != shadow.committed_live_frames {
            v.mismatches += 1;
        }
        Ok(v)
    })
}
