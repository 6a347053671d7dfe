//! A separate-chaining hash map written in volatile style.
//!
//! The Rust analogue of the paper's `std::unordered_map` example: ordinary
//! hash-table code (bucket array, chain nodes, incremental growth) whose
//! only interface to memory is the [`PmAllocator`]/[`MemSpace`] pair. Nothing in
//! this file knows about epochs, logs, or flushes.
//!
//! # Incremental growth
//!
//! Growth never relinks the whole table at once. When the load passes
//! its threshold, the insert that crossed it allocates a bucket array of
//! twice the size and records the old array and a migration *cursor* in
//! the header; the new array is not zeroed. Every later insert then moves
//! one old bucket `b` into new buckets `b` and `b + n` — the only two its
//! keys can land in, since the old count `n` is a power of two — and
//! advances the cursor; the insert that moves the last one frees the old
//! array. A key whose old bucket `h % n` is at or past the cursor still
//! lives in the old array, so lookups, inserts and removes look there,
//! and a new bucket is read only after its migration wrote it. The next
//! threshold is `n` inserts away at the earliest, so a migration always
//! ends before the next one starts, and no insert migrates more than one
//! chain. Under PAX this bounds what one operation writes, and so what
//! one epoch must log.

use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;
use pax_pm::LINE_SIZE;

use crate::allocator::PmAllocator;
#[cfg(test)]
use crate::balloc::BitmapAlloc;
use crate::error::PaxError;
use crate::pod::Pod;
use crate::space::MemSpace;
use crate::Result;

use super::{encode_pod, hash_bytes, read_pod, write_pod};

/// `PAXHMAP1` headers (no migration fields) are rejected as corrupt.
const MAGIC: u64 = u64::from_le_bytes(*b"PAXHMAP2");
const INITIAL_BUCKETS: u64 = 16;
/// Grow when `len > buckets * LOAD_NUM / LOAD_DEN`.
const LOAD_NUM: u64 = 2;
const LOAD_DEN: u64 = 1;

// Header field offsets (relative to the line-aligned header).
const H_MAGIC: u64 = 0;
/// `Meta`'s fields, in order, from here to the end of the header.
const H_META: u64 = 8;
const HEADER_BYTES: u64 = 48;
const LINE: u64 = LINE_SIZE as u64;
const _: () = assert!(HEADER_BYTES <= LINE, "the header is read as one line");

// Node layout: next(8) | key | value.
const N_NEXT: u64 = 0;
const N_KEY: u64 = 8;

/// The header's fields after the magic, read and written whole.
#[derive(Debug, Clone, Copy)]
struct Meta {
    /// The current bucket array.
    buckets: u64,
    /// Its bucket count (a power of two).
    nbuckets: u64,
    len: u64,
    /// The array being migrated from (`nbuckets / 2` buckets), or 0.
    old: u64,
    /// Old buckets below this have moved to `buckets`.
    cursor: u64,
}

impl Meta {
    const BYTES: usize = (HEADER_BYTES - H_META) as usize;

    fn decode(bytes: &[u8]) -> Self {
        let field = |i: usize| {
            u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("an 8-byte field"))
        };
        Meta {
            buckets: field(0),
            nbuckets: field(1),
            len: field(2),
            old: field(3),
            cursor: field(4),
        }
    }

    fn encode(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        let fields = [self.buckets, self.nbuckets, self.len, self.old, self.cursor];
        for (chunk, f) in out.chunks_exact_mut(8).zip(fields) {
            chunk.copy_from_slice(&f.to_le_bytes());
        }
        out
    }

    /// Address of the bucket word holding the chain for hash `h`: the old
    /// array's while that bucket has not migrated yet.
    fn slot(&self, h: u64) -> u64 {
        let b = h % self.nbuckets;
        let half = self.nbuckets / 2;
        if self.old != 0 && b % half >= self.cursor {
            self.old + b % half * 8
        } else {
            self.buckets + b * 8
        }
    }

    /// Every bucket word that heads a live chain, each once.
    fn chains(&self) -> impl Iterator<Item = u64> + '_ {
        let half = self.nbuckets / 2;
        let migrated = move |b: &u64| self.old == 0 || b % half < self.cursor;
        let new = (0..self.nbuckets).filter(migrated).map(|b| self.buckets + b * 8);
        let old = (if self.old == 0 { 0..0 } else { self.cursor..half }).map(|b| self.old + b * 8);
        new.chain(old)
    }
}

/// A persistent-or-volatile hash map from `K` to `V` (see module docs).
///
/// # Example
///
/// ```
/// use libpax::{BitmapAlloc, PHashMap, VolatileSpace};
///
/// # fn main() -> libpax::Result<()> {
/// let alloc = BitmapAlloc::attach(VolatileSpace::new(1 << 20))?;
/// let map: PHashMap<u64, u64, _> = PHashMap::attach(alloc)?;
/// map.insert(1, 100)?;
/// assert_eq!(map.get(1)?, Some(100));
/// assert_eq!(map.remove(1)?, Some(100));
/// assert!(map.is_empty()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PHashMap<K, V, S = crate::VPm, A = crate::balloc::BitmapAlloc<S>>
where
    S: MemSpace,
{
    heap: A,
    header: u64,
    lock: Arc<Mutex<()>>,
    _marker: PhantomData<(K, V, S)>,
}

impl<K: Pod, V: Pod, S: MemSpace, A: PmAllocator<S>> PHashMap<K, V, S, A> {
    fn node_bytes() -> u64 {
        8 + K::SIZE as u64 + V::SIZE as u64
    }

    /// Opens the map rooted in `heap`, creating it on first use.
    ///
    /// If the heap root is unset, a fresh empty map is allocated and
    /// rooted; otherwise the existing map is validated and attached —
    /// construction and recovery are the same call (§3.4).
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::Corrupt`] when the root points at something
    /// that is not a map (including a map of the older header format), and
    /// propagates allocation/space errors.
    pub fn attach(heap: A) -> Result<Self> {
        let root = heap.root()?;
        let header = if root == 0 {
            // Allocators promise 8-byte alignment; round up inside a
            // larger allocation so the header is one line. It is never
            // freed.
            let header = heap.alloc(HEADER_BYTES + LINE - 8)?.next_multiple_of(LINE);
            let buckets = heap.alloc(INITIAL_BUCKETS * 8)?;
            let s = heap.space();
            s.write_bytes(buckets, &[0u8; INITIAL_BUCKETS as usize * 8])?;
            let meta = Meta { buckets, nbuckets: INITIAL_BUCKETS, len: 0, old: 0, cursor: 0 };
            s.write_bytes(header + H_META, &meta.encode())?;
            s.write_u64(header + H_MAGIC, MAGIC)?;
            heap.set_root(header)?;
            header
        } else {
            // The magic alone first: an older, shorter header may end
            // where the next allocation begins.
            let magic = heap.space().read_u64(root + H_MAGIC)?;
            if magic != MAGIC {
                return Err(PaxError::Corrupt(format!("root is not a PHashMap ({magic:#x})")));
            }
            root
        };
        Ok(PHashMap { heap, header, lock: Arc::new(Mutex::new(())), _marker: PhantomData })
    }

    /// The header's fields, in one read of its line.
    fn meta(&self) -> Result<Meta> {
        let mut buf = [0u8; Meta::BYTES];
        self.heap.space().read_bytes(self.header + H_META, &mut buf)?;
        Ok(Meta::decode(&buf))
    }

    fn store_meta(&self, meta: &Meta) -> Result<()> {
        self.heap.space().write_bytes(self.header + H_META, &meta.encode())
    }

    /// Number of elements.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn len(&self) -> Result<u64> {
        Ok(self.meta()?.len)
    }

    /// Whether the map is empty.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn get(&self, key: K) -> Result<Option<V>> {
        let _g = self.lock.lock();
        self.get_locked(&key)
    }

    fn get_locked(&self, key: &K) -> Result<Option<V>> {
        let s = self.heap.space();
        let want = encode_pod(key);
        let mut node = s.read_u64(self.meta()?.slot(hash_bytes(&want)))?;
        while node != 0 {
            let mut kbuf = vec![0u8; K::SIZE];
            s.read_bytes(node + N_KEY, &mut kbuf)?;
            if kbuf == want {
                return Ok(Some(read_pod(s, node + N_KEY + K::SIZE as u64)?));
            }
            node = s.read_u64(node + N_NEXT)?;
        }
        Ok(None)
    }

    /// Inserts `key → value`, returning the previous value if present.
    /// While a growth is migrating, each insert first moves one old
    /// bucket (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates allocation and space errors.
    pub fn insert(&self, key: K, value: V) -> Result<Option<V>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let mut meta = self.meta()?;
        let migrating = meta.old != 0;
        if migrating {
            self.migrate_one(&mut meta)?;
        }
        let want = encode_pod(&key);
        let slot = meta.slot(hash_bytes(&want));
        let head = s.read_u64(slot)?;

        // Update in place when present.
        let mut node = head;
        while node != 0 {
            let mut kbuf = vec![0u8; K::SIZE];
            s.read_bytes(node + N_KEY, &mut kbuf)?;
            if kbuf == want {
                let vaddr = node + N_KEY + K::SIZE as u64;
                let old = read_pod(s, vaddr)?;
                write_pod(s, vaddr, &value)?;
                if migrating {
                    self.store_meta(&meta)?;
                }
                return Ok(Some(old));
            }
            node = s.read_u64(node + N_NEXT)?;
        }

        // New node, pushed at the chain head; head pointer written last so
        // concurrent readers never see a half-written node.
        let node = self.heap.alloc(Self::node_bytes())?;
        s.write_u64(node + N_NEXT, head)?;
        s.write_bytes(node + N_KEY, &want)?;
        write_pod(s, node + N_KEY + K::SIZE as u64, &value)?;
        s.write_u64(slot, node)?;
        meta.len += 1;
        if meta.len > meta.nbuckets * LOAD_NUM / LOAD_DEN {
            self.grow(&mut meta)?;
        }
        self.store_meta(&meta)?;
        Ok(None)
    }

    /// Removes `key`, returning its value if present.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn remove(&self, key: K) -> Result<Option<V>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let mut meta = self.meta()?;
        let want = encode_pod(&key);
        let slot = meta.slot(hash_bytes(&want));

        let mut prev: Option<u64> = None;
        let mut node = s.read_u64(slot)?;
        while node != 0 {
            let next = s.read_u64(node + N_NEXT)?;
            let mut kbuf = vec![0u8; K::SIZE];
            s.read_bytes(node + N_KEY, &mut kbuf)?;
            if kbuf == want {
                let value = read_pod(s, node + N_KEY + K::SIZE as u64)?;
                match prev {
                    Some(p) => s.write_u64(p + N_NEXT, next)?,
                    None => s.write_u64(slot, next)?,
                }
                self.heap.free(node, Self::node_bytes())?;
                meta.len -= 1;
                self.store_meta(&meta)?;
                return Ok(Some(value));
            }
            prev = Some(node);
            node = next;
        }
        Ok(None)
    }

    /// Starts a growth: allocates twice the buckets, unzeroed, and makes
    /// the current array the one being migrated from. The caller stores
    /// `meta`.
    fn grow(&self, meta: &mut Meta) -> Result<()> {
        debug_assert_eq!(meta.old, 0, "a migration ends before the next threshold");
        let n = meta.nbuckets * 2;
        let buckets = self.heap.alloc(n * 8)?;
        *meta = Meta { buckets, nbuckets: n, old: meta.buckets, cursor: 0, ..*meta };
        Ok(())
    }

    /// Moves old bucket `meta.cursor` into new buckets `cursor` and
    /// `cursor + n`, and frees the old array after its last bucket. The
    /// caller stores `meta`.
    ///
    /// The chain is split in place, in order: a node's link is rewritten
    /// only where its successor goes to the other half (or it ends its
    /// half's chain early), so a chain whose nodes all stay together
    /// costs no node writes at all.
    fn migrate_one(&self, meta: &mut Meta) -> Result<()> {
        let s = self.heap.space();
        let half = meta.nbuckets / 2;
        let b = meta.cursor;
        let mut heads = [0u64; 2];
        // Per half: its last node so far, and that node's link on media.
        let mut tails: [Option<(u64, u64)>; 2] = [None; 2];
        let mut node = s.read_u64(meta.old + b * 8)?;
        let mut link = vec![0u8; 8 + K::SIZE];
        while node != 0 {
            s.read_bytes(node + N_NEXT, &mut link)?;
            let next = u64::from_le_bytes(link[..8].try_into().expect("an 8-byte link"));
            let high = usize::from(hash_bytes(&link[8..]) % meta.nbuckets >= half);
            match tails[high] {
                None => heads[high] = node,
                Some((tail, old)) if old != node => s.write_u64(tail + N_NEXT, node)?,
                Some(_) => {}
            }
            tails[high] = Some((node, next));
            node = next;
        }
        for (tail, old) in tails.into_iter().flatten() {
            if old != 0 {
                s.write_u64(tail + N_NEXT, 0)?;
            }
        }
        s.write_u64(meta.buckets + b * 8, heads[0])?;
        s.write_u64(meta.buckets + (b + half) * 8, heads[1])?;
        meta.cursor += 1;
        if meta.cursor == half {
            self.heap.free(meta.old, half * 8)?;
            (meta.old, meta.cursor) = (0, 0);
        }
        Ok(())
    }

    /// Collects all `(key, value)` pairs in unspecified order.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn entries(&self) -> Result<Vec<(K, V)>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let meta = self.meta()?;
        let mut out = Vec::with_capacity(meta.len as usize);
        for slot in meta.chains() {
            let mut node = s.read_u64(slot)?;
            while node != 0 {
                let key: K = read_pod(s, node + N_KEY)?;
                let value: V = read_pod(s, node + N_KEY + K::SIZE as u64)?;
                out.push((key, value));
                node = s.read_u64(node + N_NEXT)?;
            }
        }
        Ok(out)
    }

    /// Current bucket count (tests exercise growth through this).
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn bucket_count(&self) -> Result<u64> {
        Ok(self.meta()?.nbuckets)
    }

    /// The allocator this map lives in.
    pub fn heap(&self) -> &A {
        &self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VolatileSpace;

    fn map() -> PHashMap<u64, u64, VolatileSpace> {
        PHashMap::attach(BitmapAlloc::attach(VolatileSpace::new(4 << 20)).unwrap()).unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let m = map();
        assert_eq!(m.insert(1, 10).unwrap(), None);
        assert_eq!(m.insert(2, 20).unwrap(), None);
        assert_eq!(m.get(1).unwrap(), Some(10));
        assert_eq!(m.get(3).unwrap(), None);
        assert_eq!(m.insert(1, 11).unwrap(), Some(10));
        assert_eq!(m.len().unwrap(), 2);
        assert_eq!(m.remove(1).unwrap(), Some(11));
        assert_eq!(m.remove(1).unwrap(), None);
        assert_eq!(m.len().unwrap(), 1);
    }

    #[test]
    fn growth_preserves_contents() {
        let m = map();
        for k in 0..1000u64 {
            m.insert(k, k * 3).unwrap();
        }
        assert!(m.bucket_count().unwrap() > INITIAL_BUCKETS);
        for k in 0..1000u64 {
            assert_eq!(m.get(k).unwrap(), Some(k * 3), "key {k}");
        }
        assert_eq!(m.len().unwrap(), 1000);
    }

    #[test]
    fn entries_collects_everything() {
        let m = map();
        for k in 0..50u64 {
            m.insert(k, k + 1).unwrap();
        }
        let mut e = m.entries().unwrap();
        e.sort_unstable();
        assert_eq!(e.len(), 50);
        assert_eq!(e[0], (0, 1));
        assert_eq!(e[49], (49, 50));
    }

    #[test]
    fn reattach_finds_existing_map() {
        let space = VolatileSpace::new(4 << 20);
        {
            let m: PHashMap<u64, u64, _> =
                PHashMap::attach(BitmapAlloc::attach(space.clone()).unwrap()).unwrap();
            m.insert(7, 77).unwrap();
        }
        let m2: PHashMap<u64, u64, _> =
            PHashMap::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
        assert_eq!(m2.get(7).unwrap(), Some(77));
    }

    #[test]
    fn array_keys_work() {
        let alloc = BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap();
        let m: PHashMap<[u8; 8], u32, _> = PHashMap::attach(alloc).unwrap();
        m.insert(*b"keykey01", 5).unwrap();
        assert_eq!(m.get(*b"keykey01").unwrap(), Some(5));
        assert_eq!(m.get(*b"keykey02").unwrap(), None);
    }

    #[test]
    fn removal_mid_chain() {
        // Force collisions with a 1-bucket... cannot; rely on 16 buckets
        // and enough keys that chains form.
        let m = map();
        for k in 0..64u64 {
            m.insert(k, k).unwrap();
        }
        for k in (0..64u64).step_by(2) {
            assert_eq!(m.remove(k).unwrap(), Some(k));
        }
        for k in 0..64u64 {
            assert_eq!(m.get(k).unwrap(), (k % 2 == 1).then_some(k), "key {k}");
        }
    }

    #[test]
    fn corrupt_root_is_detected() {
        let space = VolatileSpace::new(1 << 20);
        let alloc = BitmapAlloc::attach(space).unwrap();
        let junk = alloc.alloc(64).unwrap();
        alloc.set_root(junk).unwrap();
        assert!(matches!(PHashMap::<u64, u64, _>::attach(alloc), Err(PaxError::Corrupt(_))));
    }

    #[test]
    fn v1_header_is_rejected_as_corrupt() {
        // The 32-byte `PAXHMAP1` header (magic, buckets, count, len) had no
        // migration fields; what follows it belongs to the next allocation.
        let alloc = BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap();
        let s = alloc.space();
        let header = alloc.alloc(32).unwrap();
        let buckets = alloc.alloc(INITIAL_BUCKETS * 8).unwrap();
        for (i, field) in
            [u64::from_le_bytes(*b"PAXHMAP1"), buckets, INITIAL_BUCKETS, 0].into_iter().enumerate()
        {
            s.write_u64(header + i as u64 * 8, field).unwrap();
        }
        alloc.set_root(header).unwrap();
        let err = PHashMap::<u64, u64, _>::attach(alloc).unwrap_err();
        assert!(matches!(err, PaxError::Corrupt(ref m) if m.contains("PHashMap")), "{err:?}");
    }

    #[test]
    fn header_is_one_line() {
        let m = map();
        assert_eq!(m.header % LINE, 0);
    }

    #[test]
    fn growth_migrates_one_bucket_per_insert() {
        let m = map();
        // Growth starts on the insert that passes 2 × 16 entries; each of
        // the next 16 inserts moves one old bucket.
        for k in 0..33u64 {
            m.insert(k, k).unwrap();
        }
        let meta = m.meta().unwrap();
        assert_eq!((meta.nbuckets, meta.cursor), (32, 0));
        assert_ne!(meta.old, 0);
        for (i, k) in (33..49u64).enumerate() {
            for probe in 0..k {
                assert_eq!(m.get(probe).unwrap(), Some(probe), "key {probe} at cursor {i}");
            }
            m.insert(k, k).unwrap();
            let meta = m.meta().unwrap();
            assert_eq!(meta.cursor, (i as u64 + 1) % 16);
            assert_eq!(meta.old == 0, i == 15);
        }
        let mut e = m.entries().unwrap();
        e.sort_unstable();
        assert_eq!(e, (0..49u64).map(|k| (k, k)).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_inserts_do_not_lose_entries() {
        let m = std::sync::Arc::new(map());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = std::sync::Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    m.insert(t * 1000 + i, i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len().unwrap(), 1000);
    }
}
