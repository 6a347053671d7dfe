//! A doubly-linked list written in volatile style.

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

const MAGIC: u64 = u64::from_le_bytes(*b"PAXLIST1");

const H_MAGIC: u64 = 0;
const H_HEAD: u64 = 8;
const H_TAIL: u64 = 16;
const H_LEN: u64 = 24;
const HEADER_BYTES: u64 = 32;

// Node layout: prev(8) | next(8) | value.
const N_PREV: u64 = 0;
const N_NEXT: u64 = 8;
const N_VALUE: u64 = 16;

/// A persistent-or-volatile doubly-linked list (deque operations at both
/// ends); see [`structures`](crate::structures).
///
/// # Example
///
/// ```
/// use libpax::{BitmapAlloc, PList, VolatileSpace};
///
/// # fn main() -> libpax::Result<()> {
/// let l: PList<u64, _> = PList::attach(BitmapAlloc::attach(VolatileSpace::new(1 << 20))?)?;
/// l.push_back(2)?;
/// l.push_front(1)?;
/// l.push_back(3)?;
/// assert_eq!(l.to_vec()?, vec![1, 2, 3]);
/// assert_eq!(l.pop_front()?, Some(1));
/// assert_eq!(l.pop_back()?, Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PList<T, S = crate::VPm, A = crate::balloc::BitmapAlloc<S>>
where
    S: MemSpace,
{
    heap: A,
    header: u64,
    lock: Arc<Mutex<()>>,
    _marker: PhantomData<(T, S)>,
}

impl<T: Pod, S: MemSpace, A: PmAllocator<S>> PList<T, S, A> {
    fn node_bytes() -> u64 {
        16 + T::SIZE as u64
    }

    /// Opens the list rooted in `heap`, creating it on first use.
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::Corrupt`] if the root is something else, and
    /// propagates allocation/space errors.
    pub fn attach(heap: A) -> Result<Self> {
        let root = heap.root()?;
        let header = if root == 0 {
            let header = heap.alloc(HEADER_BYTES)?;
            let s = heap.space();
            s.write_u64(header + H_HEAD, 0)?;
            s.write_u64(header + H_TAIL, 0)?;
            s.write_u64(header + H_LEN, 0)?;
            s.write_u64(header + H_MAGIC, MAGIC)?;
            heap.set_root(header)?;
            header
        } else {
            if heap.space().read_u64(root + H_MAGIC)? != MAGIC {
                return Err(PaxError::Corrupt("root is not a PList".into()));
            }
            root
        };
        Ok(PList { heap, header, lock: Arc::new(Mutex::new(())), _marker: PhantomData })
    }

    fn meta(&self) -> Result<(u64, u64, u64)> {
        let s = self.heap.space();
        Ok((
            s.read_u64(self.header + H_HEAD)?,
            s.read_u64(self.header + H_TAIL)?,
            s.read_u64(self.header + H_LEN)?,
        ))
    }

    /// Number of elements.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn len(&self) -> Result<u64> {
        Ok(self.meta()?.2)
    }

    /// Whether the list is empty.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    fn new_node(&self, value: &T) -> Result<u64> {
        let node = self.heap.alloc(Self::node_bytes())?;
        let s = self.heap.space();
        s.write_u64(node + N_PREV, 0)?;
        s.write_u64(node + N_NEXT, 0)?;
        write_pod(s, node + N_VALUE, value)?;
        Ok(node)
    }

    /// Appends at the back.
    ///
    /// # Errors
    ///
    /// Propagates allocation/space errors.
    pub fn push_back(&self, value: T) -> Result<()> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (head, tail, len) = self.meta()?;
        let node = self.new_node(&value)?;
        if tail == 0 {
            debug_assert_eq!(head, 0);
            s.write_u64(self.header + H_HEAD, node)?;
        } else {
            s.write_u64(tail + N_NEXT, node)?;
            s.write_u64(node + N_PREV, tail)?;
        }
        s.write_u64(self.header + H_TAIL, node)?;
        s.write_u64(self.header + H_LEN, len + 1)?;
        Ok(())
    }

    /// Prepends at the front.
    ///
    /// # Errors
    ///
    /// Propagates allocation/space errors.
    pub fn push_front(&self, value: T) -> Result<()> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (head, tail, len) = self.meta()?;
        let node = self.new_node(&value)?;
        if head == 0 {
            debug_assert_eq!(tail, 0);
            s.write_u64(self.header + H_TAIL, node)?;
        } else {
            s.write_u64(head + N_PREV, node)?;
            s.write_u64(node + N_NEXT, head)?;
        }
        s.write_u64(self.header + H_HEAD, node)?;
        s.write_u64(self.header + H_LEN, len + 1)?;
        Ok(())
    }

    /// Removes from the front.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn pop_front(&self) -> Result<Option<T>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (head, _tail, len) = self.meta()?;
        if head == 0 {
            return Ok(None);
        }
        let value = read_pod(s, head + N_VALUE)?;
        let next = s.read_u64(head + N_NEXT)?;
        s.write_u64(self.header + H_HEAD, next)?;
        if next == 0 {
            s.write_u64(self.header + H_TAIL, 0)?;
        } else {
            s.write_u64(next + N_PREV, 0)?;
        }
        s.write_u64(self.header + H_LEN, len - 1)?;
        self.heap.free(head, Self::node_bytes())?;
        Ok(Some(value))
    }

    /// Removes from the back.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn pop_back(&self) -> Result<Option<T>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (_head, tail, len) = self.meta()?;
        if tail == 0 {
            return Ok(None);
        }
        let value = read_pod(s, tail + N_VALUE)?;
        let prev = s.read_u64(tail + N_PREV)?;
        s.write_u64(self.header + H_TAIL, prev)?;
        if prev == 0 {
            s.write_u64(self.header + H_HEAD, 0)?;
        } else {
            s.write_u64(prev + N_NEXT, 0)?;
        }
        s.write_u64(self.header + H_LEN, len - 1)?;
        self.heap.free(tail, Self::node_bytes())?;
        Ok(Some(value))
    }

    /// Collects all elements front-to-back.
    ///
    /// # Errors
    ///
    /// Propagates space errors; returns [`PaxError::Corrupt`] if the list
    /// is longer than its recorded length (a cycle).
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (head, _tail, len) = self.meta()?;
        let mut out = Vec::with_capacity(len as usize);
        let mut node = head;
        while node != 0 {
            if out.len() as u64 > len {
                return Err(PaxError::Corrupt("list cycle detected".into()));
            }
            out.push(read_pod(s, node + N_VALUE)?);
            node = s.read_u64(node + N_NEXT)?;
        }
        Ok(out)
    }

    /// The allocator this list lives in.
    pub fn heap(&self) -> &A {
        &self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VolatileSpace;

    fn list() -> PList<u64, VolatileSpace> {
        PList::attach(BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap()).unwrap()
    }

    #[test]
    fn deque_operations() {
        let l = list();
        l.push_back(2).unwrap();
        l.push_front(1).unwrap();
        l.push_back(3).unwrap();
        assert_eq!(l.to_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(l.pop_back().unwrap(), Some(3));
        assert_eq!(l.pop_front().unwrap(), Some(1));
        assert_eq!(l.pop_front().unwrap(), Some(2));
        assert_eq!(l.pop_front().unwrap(), None);
        assert_eq!(l.pop_back().unwrap(), None);
        assert!(l.is_empty().unwrap());
    }

    #[test]
    fn single_element_edge_cases() {
        let l = list();
        l.push_front(9).unwrap();
        assert_eq!(l.pop_back().unwrap(), Some(9));
        assert!(l.is_empty().unwrap());
        l.push_back(8).unwrap();
        assert_eq!(l.pop_front().unwrap(), Some(8));
        assert!(l.is_empty().unwrap());
    }

    #[test]
    fn long_list_round_trip() {
        let l = list();
        for i in 0..500 {
            l.push_back(i).unwrap();
        }
        assert_eq!(l.len().unwrap(), 500);
        assert_eq!(l.to_vec().unwrap(), (0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn nodes_are_recycled() {
        let l = list();
        let live_before = l.heap().live_frames();
        for _ in 0..100 {
            l.push_back(1).unwrap();
            l.pop_front().unwrap();
        }
        assert_eq!(l.heap().live_frames(), live_before, "alloc/free cycles leaked frames");
    }

    #[test]
    fn reattach_preserves_order() {
        let space = VolatileSpace::new(1 << 20);
        {
            let l: PList<u32, _> =
                PList::attach(BitmapAlloc::attach(space.clone()).unwrap()).unwrap();
            l.push_back(1).unwrap();
            l.push_back(2).unwrap();
        }
        let l2: PList<u32, _> = PList::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
        assert_eq!(l2.to_vec().unwrap(), vec![1, 2]);
    }
}
