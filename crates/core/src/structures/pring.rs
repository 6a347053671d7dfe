//! A bounded ring buffer (SPSC-style queue) written in volatile style.
//!
//! Common in exactly the workloads the paper motivates (ingest pipelines,
//! device queues): fixed capacity decided at creation, O(1) push/pop, no
//! allocation on the hot path — every operation mutates just the slot
//! line plus the head/tail line, so it is also the structure with the
//! smallest per-op undo-log footprint.

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

const MAGIC: u64 = u64::from_le_bytes(*b"PAXRING1");

const H_MAGIC: u64 = 0;
const H_DATA: u64 = 8;
const H_CAP: u64 = 16;
const H_HEAD: u64 = 24; // next slot to pop
const H_TAIL: u64 = 32; // next slot to push
const HEADER_BYTES: u64 = 40;

/// A persistent-or-volatile bounded ring buffer.
///
/// # Example
///
/// ```
/// use libpax::{BitmapAlloc, PRing, VolatileSpace};
///
/// # fn main() -> libpax::Result<()> {
/// let alloc = BitmapAlloc::attach(VolatileSpace::new(1 << 20))?;
/// let ring: PRing<u64, _> = PRing::create(alloc, 4)?;
/// ring.push(1)?;
/// ring.push(2)?;
/// assert_eq!(ring.pop()?, Some(1));
/// assert_eq!(ring.len()?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PRing<T, S = crate::VPm, A = crate::balloc::BitmapAlloc<S>>
where
    S: MemSpace,
{
    heap: A,
    header: u64,
    lock: Arc<Mutex<()>>,
    _marker: PhantomData<(T, S)>,
}

impl<T: Pod, S: MemSpace, A: PmAllocator<S>> PRing<T, S, A> {
    /// Creates a ring of `capacity` slots rooted in `heap`, or attaches
    /// to the existing one (in which case `capacity` is ignored — the
    /// persisted capacity wins).
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::Corrupt`] if the root is another structure;
    /// propagates allocation errors. `capacity` must be non-zero.
    pub fn create(heap: A, capacity: u64) -> Result<Self> {
        let root = heap.root()?;
        let header = if root == 0 {
            if capacity == 0 {
                return Err(PaxError::Corrupt("ring capacity must be non-zero".into()));
            }
            let header = heap.alloc(HEADER_BYTES)?;
            let data = heap.alloc(capacity * T::SIZE as u64)?;
            let s = heap.space();
            s.write_u64(header + H_DATA, data)?;
            s.write_u64(header + H_CAP, capacity)?;
            s.write_u64(header + H_HEAD, 0)?;
            s.write_u64(header + H_TAIL, 0)?;
            s.write_u64(header + H_MAGIC, MAGIC)?;
            heap.set_root(header)?;
            header
        } else {
            if heap.space().read_u64(root + H_MAGIC)? != MAGIC {
                return Err(PaxError::Corrupt("root is not a PRing".into()));
            }
            root
        };
        Ok(PRing { heap, header, lock: Arc::new(Mutex::new(())), _marker: PhantomData })
    }

    /// Attaches to an existing ring (alias of [`PRing::create`] with a
    /// placeholder capacity, for the [`PStructure`](crate::PStructure)
    /// pattern).
    ///
    /// # Errors
    ///
    /// See [`PRing::create`].
    pub fn attach(heap: A) -> Result<Self> {
        Self::create(heap, 64)
    }

    fn meta(&self) -> Result<(u64, u64, u64, u64)> {
        let s = self.heap.space();
        Ok((
            s.read_u64(self.header + H_DATA)?,
            s.read_u64(self.header + H_CAP)?,
            s.read_u64(self.header + H_HEAD)?,
            s.read_u64(self.header + H_TAIL)?,
        ))
    }

    /// Slots in use.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn len(&self) -> Result<u64> {
        let (_, _, head, tail) = self.meta()?;
        Ok(tail - head)
    }

    /// Whether the ring holds no elements.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Total slot capacity.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn capacity(&self) -> Result<u64> {
        Ok(self.meta()?.1)
    }

    /// Appends `value`; returns `false` (without writing) when full.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn push(&self, value: T) -> Result<bool> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (data, cap, head, tail) = self.meta()?;
        if tail - head == cap {
            return Ok(false);
        }
        let slot = tail % cap;
        super::write_pod(s, data + slot * T::SIZE as u64, &value)?;
        s.write_u64(self.header + H_TAIL, tail + 1)?;
        Ok(true)
    }

    /// Removes the oldest element.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn pop(&self) -> Result<Option<T>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (data, cap, head, tail) = self.meta()?;
        if head == tail {
            return Ok(None);
        }
        let slot = head % cap;
        let value = super::read_pod(s, data + slot * T::SIZE as u64)?;
        s.write_u64(self.header + H_HEAD, head + 1)?;
        Ok(Some(value))
    }

    /// Reads the oldest element without removing it.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn peek(&self) -> Result<Option<T>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (data, cap, head, tail) = self.meta()?;
        if head == tail {
            return Ok(None);
        }
        Ok(Some(super::read_pod(s, data + (head % cap) * T::SIZE as u64)?))
    }

    /// The allocator this ring lives in.
    pub fn heap(&self) -> &A {
        &self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VolatileSpace;

    fn ring(cap: u64) -> PRing<u32, VolatileSpace> {
        PRing::create(BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap(), cap).unwrap()
    }

    #[test]
    fn fifo_order_with_wraparound() {
        let r = ring(4);
        for round in 0..5u32 {
            for i in 0..4 {
                assert!(r.push(round * 10 + i).unwrap());
            }
            assert!(!r.push(99).unwrap(), "full ring rejects");
            for i in 0..4 {
                assert_eq!(r.pop().unwrap(), Some(round * 10 + i));
            }
            assert_eq!(r.pop().unwrap(), None);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let r = ring(2);
        r.push(5).unwrap();
        assert_eq!(r.peek().unwrap(), Some(5));
        assert_eq!(r.peek().unwrap(), Some(5));
        assert_eq!(r.len().unwrap(), 1);
        assert_eq!(r.pop().unwrap(), Some(5));
        assert_eq!(r.peek().unwrap(), None);
    }

    #[test]
    fn len_and_capacity() {
        let r = ring(8);
        assert!(r.is_empty().unwrap());
        assert_eq!(r.capacity().unwrap(), 8);
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.len().unwrap(), 2);
    }

    #[test]
    fn reattach_preserves_contents_and_capacity() {
        let space = VolatileSpace::new(1 << 20);
        {
            let r: PRing<u32, _> =
                PRing::create(BitmapAlloc::attach(space.clone()).unwrap(), 3).unwrap();
            r.push(7).unwrap();
        }
        // Different capacity argument is ignored on reattach.
        let r: PRing<u32, _> = PRing::create(BitmapAlloc::attach(space).unwrap(), 999).unwrap();
        assert_eq!(r.capacity().unwrap(), 3);
        assert_eq!(r.pop().unwrap(), Some(7));
    }

    #[test]
    fn zero_capacity_rejected() {
        let alloc = BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap();
        assert!(PRing::<u32, _>::create(alloc, 0).is_err());
    }
}
