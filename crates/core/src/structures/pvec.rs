//! A growable vector written in volatile style.

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

const MAGIC: u64 = u64::from_le_bytes(*b"PAXPVEC1");

const H_MAGIC: u64 = 0;
const H_DATA: u64 = 8;
const H_LEN: u64 = 16;
const H_CAP: u64 = 24;
const HEADER_BYTES: u64 = 32;

const INITIAL_CAP: u64 = 8;

/// A persistent-or-volatile `Vec<T>` analogue (see
/// [`structures`](crate::structures)).
///
/// # Example
///
/// ```
/// use libpax::{BitmapAlloc, PVec, VolatileSpace};
///
/// # fn main() -> libpax::Result<()> {
/// let v: PVec<u32, _> = PVec::attach(BitmapAlloc::attach(VolatileSpace::new(1 << 20))?)?;
/// v.push(3)?;
/// v.push(5)?;
/// assert_eq!(v.get(1)?, Some(5));
/// assert_eq!(v.pop()?, Some(5));
/// assert_eq!(v.len()?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PVec<T, S = crate::VPm, A = crate::balloc::BitmapAlloc<S>>
where
    S: MemSpace,
{
    heap: A,
    header: u64,
    lock: Arc<Mutex<()>>,
    _marker: PhantomData<(T, S)>,
}

impl<T: Pod, S: MemSpace, A: PmAllocator<S>> PVec<T, S, A> {
    /// Opens the vector rooted in `heap`, creating it on first use.
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::Corrupt`] if the heap root is something else,
    /// and propagates allocation/space errors.
    pub fn attach(heap: A) -> Result<Self> {
        let root = heap.root()?;
        let header = if root == 0 {
            let header = heap.alloc(HEADER_BYTES)?;
            let data = heap.alloc(INITIAL_CAP * T::SIZE as u64)?;
            let s = heap.space();
            s.write_u64(header + H_DATA, data)?;
            s.write_u64(header + H_LEN, 0)?;
            s.write_u64(header + H_CAP, INITIAL_CAP)?;
            s.write_u64(header + H_MAGIC, MAGIC)?;
            heap.set_root(header)?;
            header
        } else {
            if heap.space().read_u64(root + H_MAGIC)? != MAGIC {
                return Err(PaxError::Corrupt("root is not a PVec".into()));
            }
            root
        };
        Ok(PVec { heap, header, lock: Arc::new(Mutex::new(())), _marker: PhantomData })
    }

    fn meta(&self) -> Result<(u64, u64, u64)> {
        let s = self.heap.space();
        Ok((
            s.read_u64(self.header + H_DATA)?,
            s.read_u64(self.header + H_LEN)?,
            s.read_u64(self.header + H_CAP)?,
        ))
    }

    /// Number of elements.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn len(&self) -> Result<u64> {
        Ok(self.meta()?.1)
    }

    /// Whether the vector is empty.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Appends `value`, growing the backing storage as needed.
    ///
    /// # Errors
    ///
    /// Propagates allocation/space errors.
    pub fn push(&self, value: T) -> Result<()> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (mut data, len, cap) = self.meta()?;
        if len == cap {
            // Doubling growth: allocate, copy, retarget, free — ordinary
            // vector code; PAX makes its partial states recoverable.
            let new_cap = cap * 2;
            let new_data = self.heap.alloc(new_cap * T::SIZE as u64)?;
            let mut buf = vec![0u8; (len * T::SIZE as u64) as usize];
            s.read_bytes(data, &mut buf)?;
            s.write_bytes(new_data, &buf)?;
            s.write_u64(self.header + H_DATA, new_data)?;
            s.write_u64(self.header + H_CAP, new_cap)?;
            self.heap.free(data, cap * T::SIZE as u64)?;
            data = new_data;
        }
        write_pod(s, data + len * T::SIZE as u64, &value)?;
        s.write_u64(self.header + H_LEN, len + 1)?;
        Ok(())
    }

    /// Removes and returns the last element.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn pop(&self) -> Result<Option<T>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (data, len, _) = self.meta()?;
        if len == 0 {
            return Ok(None);
        }
        let value = read_pod(s, data + (len - 1) * T::SIZE as u64)?;
        s.write_u64(self.header + H_LEN, len - 1)?;
        Ok(Some(value))
    }

    /// Returns element `index`, or `None` past the end.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn get(&self, index: u64) -> Result<Option<T>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (data, len, _) = self.meta()?;
        if index >= len {
            return Ok(None);
        }
        Ok(Some(read_pod(s, data + index * T::SIZE as u64)?))
    }

    /// Overwrites element `index`.
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::Corrupt`] for out-of-range indices and
    /// propagates space errors.
    pub fn set(&self, index: u64, value: T) -> Result<()> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (data, len, _) = self.meta()?;
        if index >= len {
            return Err(PaxError::Corrupt(format!("set past end: {index} >= {len}")));
        }
        write_pod(s, data + index * T::SIZE as u64, &value)
    }

    /// Collects all elements in order.
    ///
    /// # Errors
    ///
    /// Propagates space errors.
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let _g = self.lock.lock();
        let s = self.heap.space();
        let (data, len, _) = self.meta()?;
        (0..len).map(|i| read_pod(s, data + i * T::SIZE as u64)).collect()
    }

    /// The allocator this vector lives in.
    pub fn heap(&self) -> &A {
        &self.heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VolatileSpace;

    fn vec_u32() -> PVec<u32, VolatileSpace> {
        PVec::attach(BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap()).unwrap()
    }

    #[test]
    fn push_get_pop() {
        let v = vec_u32();
        v.push(1).unwrap();
        v.push(2).unwrap();
        assert_eq!(v.len().unwrap(), 2);
        assert_eq!(v.get(0).unwrap(), Some(1));
        assert_eq!(v.get(2).unwrap(), None);
        assert_eq!(v.pop().unwrap(), Some(2));
        assert_eq!(v.pop().unwrap(), Some(1));
        assert_eq!(v.pop().unwrap(), None);
        assert!(v.is_empty().unwrap());
    }

    #[test]
    fn growth_beyond_initial_capacity() {
        let v = vec_u32();
        for i in 0..1000u32 {
            v.push(i).unwrap();
        }
        assert_eq!(v.len().unwrap(), 1000);
        for i in (0..1000u64).step_by(97) {
            assert_eq!(v.get(i).unwrap(), Some(i as u32));
        }
        assert_eq!(v.to_vec().unwrap(), (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn set_validates_range() {
        let v = vec_u32();
        v.push(9).unwrap();
        v.set(0, 10).unwrap();
        assert_eq!(v.get(0).unwrap(), Some(10));
        assert!(v.set(1, 0).is_err());
    }

    #[test]
    fn reattach_preserves_contents() {
        let space = VolatileSpace::new(1 << 20);
        {
            let v: PVec<u64, _> =
                PVec::attach(BitmapAlloc::attach(space.clone()).unwrap()).unwrap();
            for i in 0..20 {
                v.push(i).unwrap();
            }
        }
        let v2: PVec<u64, _> = PVec::attach(BitmapAlloc::attach(space).unwrap()).unwrap();
        assert_eq!(v2.len().unwrap(), 20);
        assert_eq!(v2.get(19).unwrap(), Some(19));
    }

    #[test]
    fn float_elements() {
        let alloc = BitmapAlloc::attach(VolatileSpace::new(1 << 20)).unwrap();
        let v: PVec<f64, _> = PVec::attach(alloc).unwrap();
        v.push(3.75).unwrap();
        assert_eq!(v.get(0).unwrap(), Some(3.75));
    }
}
