//! An ordered map: a B-tree written in volatile style.
//!
//! The most structurally complex collection in the workspace — node
//! splits, rotations, and merges mutate many locations per operation —
//! which makes it the strongest demonstration of the black-box claim:
//! nothing here knows about crash consistency, yet on a
//! [`VPm`](crate::VPm) space every multi-node rebalance is covered by the
//! device's undo log and rolls back atomically.
//!
//! Classic CLRS B-tree with minimum degree [`MIN_DEGREE`]: every node
//! except the root holds between `t-1` and `2t-1` keys; inserts split
//! full nodes top-down; deletes borrow or merge top-down so the recursion
//! never needs to back up.
//!
//! # Node layout (byte offsets within a node allocation)
//!
//! ```text
//! 0..8    tag: 1 = leaf, 2 = internal
//! 8..16   nkeys
//! 16..    keys   [2t-1 × K::SIZE]
//! then    leaf: values  [2t-1 × V::SIZE]
//!     internal: children [2t × 8]
//! ```

use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::allocator::PmAllocator;
#[cfg(test)]
use crate::balloc::BitmapAlloc;
use crate::error::PaxError;
use crate::pod::Pod;
use crate::space::MemSpace;
use crate::Result;

use super::{read_pod, write_pod};

/// Minimum degree `t` of the tree (max keys per node = `2t-1`).
pub const MIN_DEGREE: usize = 4;
const MAX_KEYS: usize = 2 * MIN_DEGREE - 1;
const MIN_KEYS: usize = MIN_DEGREE - 1;

const MAGIC: u64 = u64::from_le_bytes(*b"PAXBTRE1");

const H_MAGIC: u64 = 0;
const H_ROOT: u64 = 8;
const H_LEN: u64 = 16;
const HEADER_BYTES: u64 = 24;

const N_TAG: u64 = 0;
const N_NKEYS: u64 = 8;
const N_KEYS: u64 = 16;

const TAG_LEAF: u64 = 1;
const TAG_INTERNAL: u64 = 2;

/// A persistent-or-volatile ordered map (see module docs).
///
/// # Example
///
/// ```
/// use libpax::{BitmapAlloc, PBTreeMap, VolatileSpace};
///
/// # fn main() -> libpax::Result<()> {
/// let alloc = BitmapAlloc::attach(VolatileSpace::new(1 << 20))?;
/// let map: PBTreeMap<u64, u64, _> = PBTreeMap::attach(alloc)?;
/// map.insert(3, 30)?;
/// map.insert(1, 10)?;
/// map.insert(2, 20)?;
/// assert_eq!(map.range(1, 2)?, vec![(1, 10), (2, 20)]);
/// assert_eq!(map.remove(2)?, Some(20));
/// assert_eq!(map.first()?, Some((1, 10)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PBTreeMap<K, V, S = crate::VPm, A = crate::balloc::BitmapAlloc<S>>
where
    S: MemSpace,
{
    heap: A,
    header: u64,
    lock: Arc<Mutex<()>>,
    _marker: PhantomData<(K, V, S)>,
}

impl<K: Pod + Ord, V: Pod, S: MemSpace, A: PmAllocator<S>> PBTreeMap<K, V, S, A> {
    fn leaf_bytes() -> u64 {
        N_KEYS + (MAX_KEYS * (K::SIZE + V::SIZE)) as u64
    }

    fn internal_bytes() -> u64 {
        N_KEYS + (MAX_KEYS * K::SIZE) as u64 + ((MAX_KEYS + 1) * 8) as u64
    }

    fn key_addr(node: u64, i: usize) -> u64 {
        node + N_KEYS + (i * K::SIZE) as u64
    }

    fn val_addr(node: u64, i: usize) -> u64 {
        node + N_KEYS + (MAX_KEYS * K::SIZE) as u64 + (i * V::SIZE) as u64
    }

    fn child_addr(node: u64, i: usize) -> u64 {
        node + N_KEYS + (MAX_KEYS * K::SIZE) as u64 + (i * 8) as u64
    }

    // -- raw node accessors --------------------------------------------

    fn tag(&self, node: u64) -> Result<u64> {
        self.heap.space().read_u64(node + N_TAG)
    }

    fn is_leaf(&self, node: u64) -> Result<bool> {
        Ok(self.tag(node)? == TAG_LEAF)
    }

    fn nkeys(&self, node: u64) -> Result<usize> {
        Ok(self.heap.space().read_u64(node + N_NKEYS)? as usize)
    }

    fn set_nkeys(&self, node: u64, n: usize) -> Result<()> {
        self.heap.space().write_u64(node + N_NKEYS, n as u64)
    }

    fn key(&self, node: u64, i: usize) -> Result<K> {
        read_pod(self.heap.space(), Self::key_addr(node, i))
    }

    fn set_key(&self, node: u64, i: usize, k: &K) -> Result<()> {
        write_pod(self.heap.space(), Self::key_addr(node, i), k)
    }

    fn val(&self, node: u64, i: usize) -> Result<V> {
        read_pod(self.heap.space(), Self::val_addr(node, i))
    }

    fn set_val(&self, node: u64, i: usize, v: &V) -> Result<()> {
        write_pod(self.heap.space(), Self::val_addr(node, i), v)
    }

    fn child(&self, node: u64, i: usize) -> Result<u64> {
        self.heap.space().read_u64(Self::child_addr(node, i))
    }

    fn set_child(&self, node: u64, i: usize, c: u64) -> Result<()> {
        self.heap.space().write_u64(Self::child_addr(node, i), c)
    }

    fn new_node(&self, leaf: bool) -> Result<u64> {
        let bytes = if leaf { Self::leaf_bytes() } else { Self::internal_bytes() };
        let node = self.heap.alloc(bytes)?;
        let s = self.heap.space();
        s.write_u64(node + N_TAG, if leaf { TAG_LEAF } else { TAG_INTERNAL })?;
        s.write_u64(node + N_NKEYS, 0)?;
        Ok(node)
    }

    fn free_node(&self, node: u64) -> Result<()> {
        let bytes = if self.is_leaf(node)? { Self::leaf_bytes() } else { Self::internal_bytes() };
        self.heap.free(node, bytes)
    }

    /// Lowest index with `keys[i] >= key`; `nkeys` if all are smaller.
    fn lower_bound(&self, node: u64, key: &K) -> Result<usize> {
        let n = self.nkeys(node)?;
        for i in 0..n {
            if self.key(node, i)? >= *key {
                return Ok(i);
            }
        }
        Ok(n)
    }

    // -- construction ---------------------------------------------------

    /// Opens the tree rooted in `heap`, creating it on first use.
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::Corrupt`] if the heap root is another
    /// structure; propagates allocation/space errors.
    pub fn attach(heap: A) -> Result<Self> {
        let root = heap.root()?;
        let header = if root == 0 {
            let header = heap.alloc(HEADER_BYTES)?;
            let tree = PBTreeMap::<K, V, S, A> {
                heap: heap.clone(),
                header,
                lock: Arc::new(Mutex::new(())),
                _marker: PhantomData,
            };
            let root_node = tree.new_node(true)?;
            let s = heap.space();
            s.write_u64(header + H_ROOT, root_node)?;
            s.write_u64(header + H_LEN, 0)?;
            s.write_u64(header + H_MAGIC, MAGIC)?;
            heap.set_root(header)?;
            return Ok(tree);
        } else {
            if heap.space().read_u64(root + H_MAGIC)? != MAGIC {
                return Err(PaxError::Corrupt("root is not a PBTreeMap".into()));
            }
            root
        };
        Ok(PBTreeMap { heap, header, lock: Arc::new(Mutex::new(())), _marker: PhantomData })
    }

    fn root_node(&self) -> Result<u64> {
        self.heap.space().read_u64(self.header + H_ROOT)
    }

    /// Number of entries.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn len(&self) -> Result<u64> {
        self.heap.space().read_u64(self.header + H_LEN)
    }

    /// Whether the map is empty.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    fn bump_len(&self, delta: i64) -> Result<()> {
        let l = self.len()?;
        self.heap.space().write_u64(self.header + H_LEN, l.wrapping_add(delta as u64))
    }

    // -- lookup ----------------------------------------------------------

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn get(&self, key: K) -> Result<Option<V>> {
        let _g = self.lock.lock();
        let mut node = self.root_node()?;
        loop {
            let n = self.nkeys(node)?;
            let mut i = self.lower_bound(node, &key)?;
            if self.is_leaf(node)? {
                return if i < n && self.key(node, i)? == key {
                    Ok(Some(self.val(node, i)?))
                } else {
                    Ok(None)
                };
            }
            // Values live in leaves; internal keys are separator copies,
            // and an equal separator means the entry is in the RIGHT
            // subtree (split_child puts the median in the right leaf).
            if i < n && self.key(node, i)? == key {
                i += 1;
            }
            node = self.child(node, i)?;
        }
    }

    // -- insertion --------------------------------------------------------

    /// Inserts `key → value`, returning the previous value if present.
    ///
    /// # Errors
    ///
    /// Propagates allocation/space errors.
    pub fn insert(&self, key: K, value: V) -> Result<Option<V>> {
        let _g = self.lock.lock();
        let root = self.root_node()?;
        if self.nkeys(root)? == MAX_KEYS {
            // Preemptive root split: new internal root with one child.
            let new_root = self.new_node(false)?;
            self.set_child(new_root, 0, root)?;
            self.split_child(new_root, 0)?;
            self.heap.space().write_u64(self.header + H_ROOT, new_root)?;
            return self.insert_nonfull(new_root, key, value);
        }
        self.insert_nonfull(root, key, value)
    }

    fn insert_nonfull(&self, mut node: u64, key: K, value: V) -> Result<Option<V>> {
        loop {
            let n = self.nkeys(node)?;
            let i = self.lower_bound(node, &key)?;
            if self.is_leaf(node)? {
                if i < n && self.key(node, i)? == key {
                    let old = self.val(node, i)?;
                    self.set_val(node, i, &value)?;
                    return Ok(Some(old));
                }
                // Shift right and insert.
                for j in (i..n).rev() {
                    let k = self.key(node, j)?;
                    let v = self.val(node, j)?;
                    self.set_key(node, j + 1, &k)?;
                    self.set_val(node, j + 1, &v)?;
                }
                self.set_key(node, i, &key)?;
                self.set_val(node, i, &value)?;
                self.set_nkeys(node, n + 1)?;
                self.bump_len(1)?;
                return Ok(None);
            }
            // Internal: keys are leaf-copies acting as separators (B+-tree
            // style): equal keys descend RIGHT so the leaf copy is found.
            let mut idx = i;
            if idx < n && self.key(node, idx)? == key {
                idx += 1;
            }
            let child = self.child(node, idx)?;
            if self.nkeys(child)? == MAX_KEYS {
                self.split_child(node, idx)?;
                // The separator that moved up may redirect us (equal keys
                // go right: the median copy lives in the right leaf).
                let sep = self.key(node, idx)?;
                node = if key >= sep { self.child(node, idx + 1)? } else { self.child(node, idx)? };
            } else {
                node = child;
            }
        }
    }

    /// Splits the full child at `parent.children[i]` (B+-tree style: for
    /// leaf children, the median key is *copied* up and stays in the
    /// right leaf; for internal children it moves up, CLRS-style).
    fn split_child(&self, parent: u64, i: usize) -> Result<()> {
        let child = self.child(parent, i)?;
        let child_leaf = self.is_leaf(child)?;
        let right = self.new_node(child_leaf)?;
        let mid = MIN_KEYS; // index of the median key

        if child_leaf {
            // Right leaf takes keys mid..MAX (median included).
            let moved = MAX_KEYS - mid;
            for j in 0..moved {
                let k = self.key(child, mid + j)?;
                let v = self.val(child, mid + j)?;
                self.set_key(right, j, &k)?;
                self.set_val(right, j, &v)?;
            }
            self.set_nkeys(right, moved)?;
            self.set_nkeys(child, mid)?;
        } else {
            // Right internal takes keys mid+1..MAX; median moves up.
            let moved = MAX_KEYS - mid - 1;
            for j in 0..moved {
                let k = self.key(child, mid + 1 + j)?;
                self.set_key(right, j, &k)?;
            }
            for j in 0..=moved {
                let c = self.child(child, mid + 1 + j)?;
                self.set_child(right, j, c)?;
            }
            self.set_nkeys(right, moved)?;
            self.set_nkeys(child, mid)?;
        }

        // Make room in the parent for the separator + new child.
        let pn = self.nkeys(parent)?;
        for j in (i..pn).rev() {
            let k = self.key(parent, j)?;
            self.set_key(parent, j + 1, &k)?;
        }
        for j in ((i + 1)..=pn).rev() {
            let c = self.child(parent, j)?;
            self.set_child(parent, j + 1, c)?;
        }
        let median = self.key(child, mid)?; // still valid for leaves; for
                                            // internals it was at mid
        self.set_key(parent, i, &median)?;
        self.set_child(parent, i + 1, right)?;
        self.set_nkeys(parent, pn + 1)?;
        Ok(())
    }

    // -- deletion -----------------------------------------------------------

    /// Removes `key`, returning its value if present.
    ///
    /// B+-tree style lazy deletion: the entry is removed from its leaf;
    /// separators in internal nodes may go stale (they remain valid
    /// ordering bounds), and leaves are allowed to underflow. Structural
    /// shrinking happens only when a leaf empties completely and can be
    /// unlinked without rebalancing ancestors (the common database
    /// engineering trade-off; ordering invariants are preserved, which
    /// the property tests verify).
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn remove(&self, key: K) -> Result<Option<V>> {
        let _g = self.lock.lock();
        let mut node = self.root_node()?;
        loop {
            let n = self.nkeys(node)?;
            let mut i = self.lower_bound(node, &key)?;
            if self.is_leaf(node)? {
                if i < n && self.key(node, i)? == key {
                    let old = self.val(node, i)?;
                    for j in i..n - 1 {
                        let k = self.key(node, j + 1)?;
                        let v = self.val(node, j + 1)?;
                        self.set_key(node, j, &k)?;
                        self.set_val(node, j, &v)?;
                    }
                    self.set_nkeys(node, n - 1)?;
                    self.bump_len(-1)?;
                    return Ok(Some(old));
                }
                return Ok(None);
            }
            if i < n && self.key(node, i)? == key {
                i += 1; // equal separators: the entry lives to the right
            }
            node = self.child(node, i)?;
        }
    }

    // -- ordered access -------------------------------------------------------

    /// The smallest entry.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn first(&self) -> Result<Option<(K, V)>> {
        let _g = self.lock.lock();
        let mut node = self.root_node()?;
        loop {
            if self.is_leaf(node)? {
                // Skip empty leaves by falling back to a scan via range.
                if self.nkeys(node)? > 0 {
                    return Ok(Some((self.key(node, 0)?, self.val(node, 0)?)));
                }
                drop(_g);
                let mut all = self.entries()?;
                return Ok(if all.is_empty() { None } else { Some(all.remove(0)) });
            }
            node = self.child(node, 0)?;
        }
    }

    /// The largest entry.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn last(&self) -> Result<Option<(K, V)>> {
        let _g = self.lock.lock();
        let mut node = self.root_node()?;
        loop {
            let n = self.nkeys(node)?;
            if self.is_leaf(node)? {
                if n > 0 {
                    return Ok(Some((self.key(node, n - 1)?, self.val(node, n - 1)?)));
                }
                drop(_g);
                let all = self.entries()?;
                return Ok(all.last().copied());
            }
            node = self.child(node, n)?;
        }
    }

    /// All entries with `lo <= key <= hi`, in key order.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn range(&self, lo: K, hi: K) -> Result<Vec<(K, V)>> {
        let _g = self.lock.lock();
        let mut out = Vec::new();
        self.walk(&mut |k, v| {
            if k >= lo && k <= hi {
                out.push((k, v));
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// All entries in key order.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn entries(&self) -> Result<Vec<(K, V)>> {
        let _g = self.lock.lock();
        let mut out = Vec::new();
        self.walk(&mut |k, v| {
            out.push((k, v));
            Ok(())
        })?;
        Ok(out)
    }

    /// Calls `f` on every leaf entry, in key order.
    fn walk(&self, f: &mut impl FnMut(K, V) -> Result<()>) -> Result<()> {
        self.visit(&mut |node, _| {
            if self.is_leaf(node)? {
                for i in 0..self.nkeys(node)? {
                    f(self.key(node, i)?, self.val(node, i)?)?;
                }
            }
            Ok(())
        })
    }

    /// Calls `f(node, is_root)` on every node, depth first with children
    /// in key order, so leaves come in key order.
    ///
    /// The traversal keeps its own stack and enters no node twice, so a
    /// torn tree whose child pointers loop back (or share a subtree)
    /// returns [`PaxError::Corrupt`] instead of recursing until the
    /// thread's stack overflows; its work is bounded by the number of
    /// distinct nodes. (The tree's length cannot bound the depth: lazy
    /// deletion keeps the height when entries leave.)
    fn visit(&self, f: &mut impl FnMut(u64, bool) -> Result<()>) -> Result<()> {
        let root = self.root_node()?;
        let mut seen = HashSet::new();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if !seen.insert(node) {
                return Err(PaxError::Corrupt(format!("node {node:#x} is reachable twice")));
            }
            let n = self.nkeys(node)?;
            if n > MAX_KEYS {
                return Err(PaxError::Corrupt("node overflow".into()));
            }
            f(node, node == root)?;
            if !self.is_leaf(node)? {
                for i in (0..=n).rev() {
                    stack.push(self.child(node, i)?);
                }
            }
        }
        Ok(())
    }

    /// Checks the tree's structural invariants (ordering, key counts,
    /// consistent length); tests call this after mutations.
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::Corrupt`] describing the first violation.
    pub fn check_invariants(&self) -> Result<()> {
        let _g = self.lock.lock();
        let mut count = 0u64;
        let mut last: Option<K> = None;
        self.walk(&mut |k, _| {
            if let Some(prev) = &last {
                if *prev >= k {
                    return Err(PaxError::Corrupt("keys out of order".into()));
                }
            }
            last = Some(k);
            count += 1;
            Ok(())
        })?;
        if count != self.len()? {
            return Err(PaxError::Corrupt(format!(
                "length mismatch: counted {count}, header says {}",
                self.len()?
            )));
        }
        self.visit(&mut |node, is_root| self.check_node(node, is_root))
    }

    fn check_node(&self, node: u64, is_root: bool) -> Result<()> {
        let n = self.nkeys(node)?;
        if !is_root && !self.is_leaf(node)? && n < MIN_KEYS {
            return Err(PaxError::Corrupt("internal underflow".into()));
        }
        for i in 1..n {
            if self.key(node, i - 1)? >= self.key(node, i)? {
                return Err(PaxError::Corrupt("node keys out of order".into()));
            }
        }
        Ok(())
    }

    /// The allocator this tree lives in. (The `free_node` path is reserved
    /// for a future compaction pass.)
    pub fn heap(&self) -> &A {
        let _ = Self::free_node; // silence: kept for compaction
        &self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VolatileSpace;

    fn tree() -> PBTreeMap<u64, u64, VolatileSpace> {
        PBTreeMap::attach(BitmapAlloc::attach(VolatileSpace::new(8 << 20)).unwrap()).unwrap()
    }

    #[test]
    fn insert_get_ordered() {
        let t = tree();
        for k in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            assert_eq!(t.insert(k, k * 10).unwrap(), None);
        }
        for k in 0..10u64 {
            assert_eq!(t.get(k).unwrap(), Some(k * 10), "key {k}");
        }
        assert_eq!(t.get(100).unwrap(), None);
        assert_eq!(t.entries().unwrap(), (0..10).map(|k| (k, k * 10)).collect::<Vec<_>>());
        t.check_invariants().unwrap();
    }

    #[test]
    fn overwrite_returns_old_value() {
        let t = tree();
        assert_eq!(t.insert(1, 10).unwrap(), None);
        assert_eq!(t.insert(1, 11).unwrap(), Some(10));
        assert_eq!(t.get(1).unwrap(), Some(11));
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn many_inserts_force_deep_splits() {
        let t = tree();
        let n = 2_000u64;
        for k in 0..n {
            // Bit-reversed order: neither ascending nor random-looking.
            t.insert(k.reverse_bits() >> 48, k).unwrap();
        }
        t.check_invariants().unwrap();
        assert!(t.len().unwrap() <= n);
        let e = t.entries().unwrap();
        assert!(e.windows(2).all(|w| w[0].0 < w[1].0), "sorted output");
    }

    #[test]
    fn ascending_and_descending_inserts() {
        for ascending in [true, false] {
            let t = tree();
            for i in 0..500u64 {
                let k = if ascending { i } else { 499 - i };
                t.insert(k, k).unwrap();
            }
            t.check_invariants().unwrap();
            assert_eq!(t.len().unwrap(), 500);
            assert_eq!(t.first().unwrap(), Some((0, 0)));
            assert_eq!(t.last().unwrap(), Some((499, 499)));
        }
    }

    #[test]
    fn remove_and_reinsert() {
        let t = tree();
        for k in 0..300u64 {
            t.insert(k, k).unwrap();
        }
        for k in (0..300u64).step_by(2) {
            assert_eq!(t.remove(k).unwrap(), Some(k), "remove {k}");
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len().unwrap(), 150);
        for k in 0..300u64 {
            assert_eq!(t.get(k).unwrap(), (k % 2 == 1).then_some(k), "get {k}");
        }
        // Reinsert over the holes.
        for k in (0..300u64).step_by(2) {
            t.insert(k, k + 1).unwrap();
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len().unwrap(), 300);
        assert_eq!(t.get(4).unwrap(), Some(5));
    }

    #[test]
    fn remove_everything() {
        let t = tree();
        for k in 0..200u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(t.remove(k).unwrap(), Some(k));
        }
        assert!(t.is_empty().unwrap());
        assert_eq!(t.remove(5).unwrap(), None);
        assert_eq!(t.first().unwrap(), None);
        assert_eq!(t.last().unwrap(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_queries() {
        let t = tree();
        for k in (0..100u64).map(|k| k * 3) {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.range(10, 20).unwrap(), vec![(12, 12), (15, 15), (18, 18)]);
        assert_eq!(t.range(0, 0).unwrap(), vec![(0, 0)]);
        assert!(t.range(1000, 2000).unwrap().is_empty());
        assert_eq!(t.range(0, u64::MAX).unwrap().len(), 100);
    }

    #[test]
    fn reattach_preserves_tree() {
        let space = VolatileSpace::new(8 << 20);
        {
            let t: PBTreeMap<u64, u64, _> =
                PBTreeMap::attach(BitmapAlloc::attach(space.clone()).unwrap()).unwrap();
            for k in 0..100 {
                t.insert(k, k).unwrap();
            }
        }
        let t: PBTreeMap<u64, u64, _> =
            PBTreeMap::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
        assert_eq!(t.len().unwrap(), 100);
        assert_eq!(t.get(42).unwrap(), Some(42));
        t.check_invariants().unwrap();
    }

    #[test]
    fn random_mixed_workload_matches_std_btreemap() {
        use std::collections::BTreeMap;
        let t = tree();
        let mut model = BTreeMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..3_000 {
            let k = next() % 128;
            match next() % 3 {
                0 | 1 => {
                    let v = next();
                    assert_eq!(t.insert(k, v).unwrap(), model.insert(k, v), "insert {k}");
                }
                _ => {
                    assert_eq!(t.remove(k).unwrap(), model.remove(&k), "remove {k}");
                }
            }
        }
        let got = t.entries().unwrap();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, want);
        t.check_invariants().unwrap();
    }

    #[test]
    fn cyclic_tree_is_corrupt_not_a_stack_overflow() {
        let t = tree();
        for k in 0..64u64 {
            t.insert(k, k).unwrap();
        }
        let root = t.root_node().unwrap();
        assert!(!t.is_leaf(root).unwrap(), "64 keys need an internal root");
        // Tear the tree into a cycle: the root's last child is the root.
        let n = t.nkeys(root).unwrap();
        t.set_child(root, n, root).unwrap();
        assert!(matches!(t.entries(), Err(PaxError::Corrupt(_))));
        assert!(matches!(t.check_invariants(), Err(PaxError::Corrupt(_))));
    }

    #[test]
    fn emptied_tree_keeps_its_height_and_checks_clean() {
        // Lazy deletion keeps the height, so a walk's depth is not bounded
        // by the length: an empty tree may still be several levels deep.
        let t = tree();
        for k in 0..200u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..200u64 {
            t.remove(k).unwrap();
        }
        assert_eq!(t.len().unwrap(), 0);
        assert!(!t.is_leaf(t.root_node().unwrap()).unwrap());
        assert!(t.entries().unwrap().is_empty());
        t.check_invariants().unwrap();
    }
}
