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
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl VolatileSpace {
    /// A zero-filled volatile space of `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> Self {
        VolatileSpace { bytes: Arc::new(Mutex::new(vec![0; capacity_bytes])) }
    }

    fn check(&self, addr: u64, len: usize) -> Result<()> {
        let cap = self.capacity_bytes();
        if addr.checked_add(len as u64).is_none_or(|end| end > cap) {
            return Err(PaxError::OutOfMemory {
                requested: addr.saturating_add(len as u64),
                capacity: cap,
            });
        }
        Ok(())
    }
}

impl MemSpace for VolatileSpace {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        self.check(addr, buf.len())?;
        let bytes = self.bytes.lock();
        buf.copy_from_slice(&bytes[addr as usize..addr as usize + buf.len()]);
        Ok(())
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> Result<()> {
        self.check(addr, data.len())?;
        let mut bytes = self.bytes.lock();
        bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn capacity_bytes(&self) -> u64 {
        self.bytes.lock().len() as u64
    }
}

/// Volatile memory under per-stripe locks: the multicore "DRAM" world.
///
/// [`VolatileSpace`] guards the whole byte range with one mutex, which
/// serializes every access and hides any parallelism in the layers above
/// it. `StripedSpace` shards the range into fixed-size stripes, each
/// behind its own lock, so accesses to different stripes proceed
/// concurrently — the property the [`BitmapAlloc`](crate::BitmapAlloc)'s
/// per-core subtrees are designed to exploit (different cores touch
/// different stripes).
///
/// An access that crosses a stripe boundary is served piecewise, taking
/// one stripe lock at a time in address order. Within a single call the
/// bytes of *each stripe* are read or written atomically, but the call
/// as a whole is not a single atomic unit across stripes — the same
/// contract real cache-line-grained memory gives multicore code, and
/// sufficient for every structure in this workspace (each structure
/// serializes its own mutations; allocator metadata words never span
/// stripes).
#[derive(Debug, Clone)]
pub struct StripedSpace {
    stripes: Arc<Vec<Mutex<Vec<u8>>>>,
    stripe_bytes: u64,
    capacity: u64,
}

/// Default stripe width for [`StripedSpace::new`].
pub const DEFAULT_STRIPE_BYTES: u64 = 4096;

impl StripedSpace {
    /// A zero-filled striped space of `capacity_bytes` with the default
    /// 4 KiB stripe width.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_stripe(capacity_bytes, DEFAULT_STRIPE_BYTES as usize)
    }

    /// A zero-filled striped space with an explicit stripe width.
    ///
    /// # Panics
    ///
    /// Panics when `stripe_bytes` is 0 or not a multiple of 8 (metadata
    /// words must never straddle a stripe).
    pub fn with_stripe(capacity_bytes: usize, stripe_bytes: usize) -> Self {
        assert!(
            stripe_bytes > 0 && stripe_bytes.is_multiple_of(8),
            "stripe must be a multiple of 8 bytes"
        );
        let n = capacity_bytes.div_ceil(stripe_bytes);
        let stripes = (0..n)
            .map(|i| {
                let len = (capacity_bytes - i * stripe_bytes).min(stripe_bytes);
                Mutex::new(vec![0u8; len])
            })
            .collect();
        StripedSpace {
            stripes: Arc::new(stripes),
            stripe_bytes: stripe_bytes as u64,
            capacity: capacity_bytes as u64,
        }
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

    /// Visits each stripe segment of `[addr, addr+len)` in address order.
    fn for_segments(
        &self,
        addr: u64,
        len: usize,
        mut f: impl FnMut(&Mutex<Vec<u8>>, usize, usize, usize),
    ) {
        let mut off = 0usize;
        while off < len {
            let a = addr + off as u64;
            let stripe = (a / self.stripe_bytes) as usize;
            let in_stripe = (a % self.stripe_bytes) as usize;
            let take = (len - off).min(self.stripe_bytes as usize - in_stripe);
            f(&self.stripes[stripe], in_stripe, off, take);
            off += take;
        }
    }
}

impl MemSpace for StripedSpace {
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
        // Tiny stripes so a medium write crosses several of them.
        let s = StripedSpace::with_stripe(256, 16);
        let data: Vec<u8> = (0..100).collect();
        s.write_bytes(7, &data).unwrap();
        let mut buf = vec![0u8; 100];
        s.read_bytes(7, &mut buf).unwrap();
        assert_eq!(buf, data);
        s.write_u64(248, 0xFEED).unwrap();
        assert_eq!(s.read_u64(248).unwrap(), 0xFEED);
    }

    #[test]
    fn striped_enforces_bounds_and_tail_stripe() {
        // 100 bytes with 64-byte stripes: the tail stripe is short.
        let s = StripedSpace::with_stripe(100, 64);
        assert_eq!(s.capacity_bytes(), 100);
        s.write_u64(92, 9).unwrap();
        assert_eq!(s.read_u64(92).unwrap(), 9);
        assert!(s.write_u64(93, 1).is_err());
        assert!(s.read_u64(u64::MAX - 3).is_err());
    }

    #[test]
    fn striped_clones_share_memory_across_threads() {
        let s = StripedSpace::with_stripe(1 << 16, 512);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..64u64 {
                        s.write_u64((t * 64 + i) * 8, t * 1000 + i).unwrap();
                    }
                });
            }
        });
        for t in 0..4u64 {
            for i in 0..64u64 {
                assert_eq!(s.read_u64((t * 64 + i) * 8).unwrap(), t * 1000 + i);
            }
        }
    }
}
