//! The byte-addressed memory abstraction structures are written against.
//!
//! [`MemSpace`] is deliberately minimal: read bytes, write bytes, report
//! capacity. Data-structure code written against it contains *no* logging,
//! flushing, or ordering calls — it is volatile-style code. What makes it
//! persistent is solely which space it runs on:
//!
//! * [`VolatileSpace`] — plain memory; the structure is an ordinary
//!   volatile structure (the "DRAM" bar in the paper's figures).
//! * [`VPm`](crate::VPm) — the simulated host cache + PAX device; the
//!   identical structure code becomes crash consistent.
//!
//! This is the Rust rendition of "existing volatile data structures can
//! be transformed to be persistent without code changes" (§1): on stable
//! Rust, std collections cannot take custom allocators, so the reusable
//! unit is structure code parameterized by the space, exactly like C++
//! STL structures parameterized by an allocator.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::PaxError;
use crate::Result;

/// A byte-addressed memory space (see module docs).
///
/// Implementations are cheap cloneable handles sharing the underlying
/// memory, so a structure and its allocator can both hold the space.
pub trait MemSpace: Clone {
    /// Reads `buf.len()` bytes starting at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds reads and simulated crashes surface as [`PaxError`].
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `data` starting at byte address `addr`.
    ///
    /// # Errors
    ///
    /// Out-of-bounds writes and simulated crashes surface as [`PaxError`].
    fn write_bytes(&self, addr: u64, data: &[u8]) -> Result<()>;

    /// Total bytes in the space.
    fn capacity_bytes(&self) -> u64;

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// See [`MemSpace::read_bytes`].
    fn read_u64(&self, addr: u64) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// See [`MemSpace::write_bytes`].
    fn write_u64(&self, addr: u64, value: u64) -> Result<()> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u32` at `addr`.
    ///
    /// # Errors
    ///
    /// See [`MemSpace::read_bytes`].
    fn read_u32(&self, addr: u64) -> Result<u32> {
        let mut buf = [0u8; 4];
        self.read_bytes(addr, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Writes a little-endian `u32` at `addr`.
    ///
    /// # Errors
    ///
    /// See [`MemSpace::write_bytes`].
    fn write_u32(&self, addr: u64, value: u32) -> Result<()> {
        self.write_bytes(addr, &value.to_le_bytes())
    }
}

/// Plain volatile memory: the "DRAM" world.
///
/// The range is sharded into 4 KiB stripes, each behind its own lock,
/// so accesses to different stripes proceed concurrently — the property
/// the [`BitmapAlloc`](crate::BitmapAlloc)'s per-core subtrees are
/// designed to exploit (different cores touch different stripes).
///
/// An access that crosses a stripe boundary is served piecewise, taking
/// one stripe lock at a time in address order. Within a single call the
/// bytes of *each stripe* are read or written atomically, but the call
/// as a whole is not a single atomic unit across stripes — the same
/// contract real cache-line-grained memory gives multicore code, and
/// sufficient for every structure in this workspace (each structure
/// serializes its own mutations; allocator metadata words never span
/// stripes).
///
/// # Example
///
/// ```
/// use libpax::{MemSpace, VolatileSpace};
///
/// # fn main() -> libpax::Result<()> {
/// let space = VolatileSpace::new(4096);
/// space.write_u64(16, 0xDEAD_BEEF)?;
/// assert_eq!(space.read_u64(16)?, 0xDEAD_BEEF);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VolatileSpace {
    stripes: Arc<Vec<Mutex<Vec<u8>>>>,
    capacity: u64,
}

/// Bytes per [`VolatileSpace`] stripe: a page, and a multiple of 8, so
/// no metadata word straddles two stripes.
const STRIPE_BYTES: usize = 4096;

impl VolatileSpace {
    /// A zero-filled volatile space of `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        let stripes = (0..capacity_bytes.div_ceil(STRIPE_BYTES))
            .map(|i| Mutex::new(vec![0u8; (capacity_bytes - i * STRIPE_BYTES).min(STRIPE_BYTES)]))
            .collect();
        VolatileSpace { stripes: Arc::new(stripes), capacity: capacity_bytes as u64 }
    }

    fn check(&self, addr: u64, len: usize) -> Result<()> {
        if addr.checked_add(len as u64).is_none_or(|end| end > self.capacity) {
            return Err(PaxError::OutOfMemory {
                requested: addr.saturating_add(len as u64),
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Visits each stripe segment of `[addr, addr+len)` in address order:
    /// the stripe, the offset in it, the offset in the caller's buffer,
    /// and the segment's length.
    fn for_segments(
        &self,
        addr: u64,
        len: usize,
        mut f: impl FnMut(&Mutex<Vec<u8>>, usize, usize, usize),
    ) {
        let mut off = 0usize;
        while off < len {
            let a = addr as usize + off;
            let in_stripe = a % STRIPE_BYTES;
            let take = (len - off).min(STRIPE_BYTES - in_stripe);
            f(&self.stripes[a / STRIPE_BYTES], in_stripe, off, take);
            off += take;
        }
    }
}

impl MemSpace for VolatileSpace {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len())?;
        self.for_segments(addr, buf.len(), |stripe, in_stripe, off, take| {
            let bytes = stripe.lock();
            buf[off..off + take].copy_from_slice(&bytes[in_stripe..in_stripe + take]);
        });
        Ok(())
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> Result<()> {
        self.check(addr, data.len())?;
        self.for_segments(addr, data.len(), |stripe, in_stripe, off, take| {
            let mut bytes = stripe.lock();
            bytes[in_stripe..in_stripe + take].copy_from_slice(&data[off..off + take]);
        });
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bytes_and_ints() {
        let s = VolatileSpace::new(128);
        s.write_bytes(0, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        s.read_bytes(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        s.write_u32(64, 7).unwrap();
        assert_eq!(s.read_u32(64).unwrap(), 7);
    }

    #[test]
    fn bounds_are_enforced() {
        let s = VolatileSpace::new(16);
        assert!(s.write_u64(9, 1).is_err());
        assert!(s.write_u64(8, 1).is_ok());
        let mut buf = [0u8; 17];
        assert!(s.read_bytes(0, &mut buf).is_err());
        // Overflow-safe bounds check.
        assert!(s.read_u64(u64::MAX - 3).is_err());
    }

    #[test]
    fn clones_share_memory() {
        let a = VolatileSpace::new(64);
        let b = a.clone();
        a.write_u64(0, 42).unwrap();
        assert_eq!(b.read_u64(0).unwrap(), 42);
    }

    #[test]
    fn striped_round_trips_across_stripe_boundaries() {
        // A write that starts in one stripe, spans a whole one and ends
        // in a third.
        let s = VolatileSpace::new(4 * STRIPE_BYTES);
        let data: Vec<u8> = (0..2 * STRIPE_BYTES + 100).map(|i| i as u8).collect();
        let at = STRIPE_BYTES as u64 - 7;
        s.write_bytes(at, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        s.read_bytes(at, &mut buf).unwrap();
        assert_eq!(buf, data);
        let last = 4 * STRIPE_BYTES as u64 - 8;
        s.write_u64(last, 0xFEED).unwrap();
        assert_eq!(s.read_u64(last).unwrap(), 0xFEED);
    }

    #[test]
    fn striped_enforces_bounds_and_tail_stripe() {
        // One stripe and 100 bytes: the tail stripe is short.
        let cap = STRIPE_BYTES + 100;
        let s = VolatileSpace::new(cap);
        assert_eq!(s.capacity_bytes(), cap as u64);
        let end = cap as u64 - 8;
        s.write_u64(end, 9).unwrap();
        assert_eq!(s.read_u64(end).unwrap(), 9);
        assert!(s.write_u64(end + 1, 1).is_err());
        assert!(s.read_u64(u64::MAX - 3).is_err());
    }

    #[test]
    fn striped_clones_share_memory_across_threads() {
        // Each thread fills its own stripe.
        let s = VolatileSpace::new(4 * STRIPE_BYTES);
        let at = |t: u64, i: u64| t * STRIPE_BYTES as u64 + i * 8;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..(STRIPE_BYTES / 8) as u64 {
                        s.write_u64(at(t, i), t * 1000 + i).unwrap();
                    }
                });
            }
        });
        for t in 0..4u64 {
            for i in 0..(STRIPE_BYTES / 8) as u64 {
                assert_eq!(s.read_u64(at(t, i)).unwrap(), t * 1000 + i);
            }
        }
    }
}
