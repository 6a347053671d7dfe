//! [`PmAllocator`]: the allocator seam between spaces and structures.
//!
//! The paper's §3.4 claim — undo logging covers allocator metadata like
//! any other data, so recovering the pool recovers its allocator — is a
//! property of *any* allocator whose persistent state lives inside the
//! [`MemSpace`] it manages. This trait captures exactly that contract so
//! the structure zoo ([`structures`](crate::structures)) can run over
//! interchangeable allocators:
//!
//! * [`Heap`](crate::Heap) — the first-fit bump + free-list baseline in
//!   this crate; serializes every structure op, O(n) free-list scans.
//! * [`BitmapAlloc`](crate::BitmapAlloc) — the llfree-style scalable
//!   allocator (per-core frame caches over a hierarchical persistent
//!   bitmap) in [`balloc`](crate::balloc), the default behind
//!   `Persistent::new`.
//!
//! The contract every implementation must keep:
//!
//! 1. **All persistent state lives in the managed space.** No allocation
//!    decision may depend on state that survives a crash outside the
//!    space; volatile acceleration state (caches, indexes) must be
//!    reconstructible from the space alone.
//! 2. **Construction and recovery are the same call.** Attaching to a
//!    fresh (zeroed) space formats it; attaching to a formatted space
//!    recovers it. Callers cannot tell the difference (§3.4).
//! 3. **Addresses are stable.** An address returned by `alloc` refers to
//!    the same bytes until freed, across crash/recovery.

use crate::space::MemSpace;
use crate::Result;

/// A crash-consistent allocator over a [`MemSpace`] (see module docs).
///
/// Implementations are cheap cloneable handles sharing the underlying
/// space (and any volatile acceleration state), so a structure and its
/// allocator can both hold the allocator.
pub trait PmAllocator<S: MemSpace>: Clone {
    /// The space this allocator manages.
    fn space(&self) -> &S;

    /// Allocates `len` bytes, returning their byte address (8-aligned).
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::OutOfMemory`](crate::PaxError::OutOfMemory)
    /// when the request cannot be satisfied, and propagates space I/O
    /// errors (including simulated crashes).
    fn alloc(&self, len: u64) -> Result<u64>;

    /// Returns `len` bytes at `addr` to the allocator.
    ///
    /// # Errors
    ///
    /// Returns [`PaxError::Corrupt`](crate::PaxError::Corrupt) for
    /// addresses the allocator never handed out (including double
    /// frees), and propagates space I/O errors.
    fn free(&self, addr: u64, len: u64) -> Result<()>;

    /// The user root pointer (0 when unset) — the well-known address a
    /// structure hangs itself from so `attach` can find it again.
    ///
    /// # Errors
    ///
    /// Propagates space I/O errors.
    fn root(&self) -> Result<u64>;

    /// Durably records the structure root address.
    ///
    /// # Errors
    ///
    /// Propagates space I/O errors.
    fn set_root(&self, addr: u64) -> Result<()>;

    /// Live-allocation accounting for leak checks. The unit is
    /// implementation-specific (blocks for [`Heap`](crate::Heap), frames
    /// for a bitmap allocator); the invariant callers may rely on is
    /// `live_allocations() == 0` exactly when nothing is outstanding.
    ///
    /// # Errors
    ///
    /// Propagates space I/O errors.
    fn live_allocations(&self) -> Result<u64>;

    /// Typed convenience: allocates and writes an encoded value.
    ///
    /// # Errors
    ///
    /// See [`PmAllocator::alloc`].
    fn alloc_bytes(&self, data: &[u8]) -> Result<u64> {
        let addr = self.alloc(data.len() as u64)?;
        self.space().write_bytes(addr, data)?;
        Ok(addr)
    }
}

impl<S: MemSpace> PmAllocator<S> for crate::Heap<S> {
    fn space(&self) -> &S {
        crate::Heap::space(self)
    }

    fn alloc(&self, len: u64) -> Result<u64> {
        crate::Heap::alloc(self, len)
    }

    fn free(&self, addr: u64, len: u64) -> Result<()> {
        crate::Heap::free(self, addr, len)
    }

    fn root(&self) -> Result<u64> {
        crate::Heap::root(self)
    }

    fn set_root(&self, addr: u64) -> Result<()> {
        crate::Heap::set_root(self, addr)
    }

    fn live_allocations(&self) -> Result<u64> {
        crate::Heap::live_allocations(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::VolatileSpace;
    use crate::Heap;

    fn generic_roundtrip<S: MemSpace, A: PmAllocator<S>>(a: &A) {
        let x = a.alloc(64).unwrap();
        let y = a.alloc_bytes(b"trait objectless").unwrap();
        assert_ne!(x, y);
        assert_eq!(a.live_allocations().unwrap(), 2);
        a.set_root(x).unwrap();
        assert_eq!(a.root().unwrap(), x);
        a.free(x, 64).unwrap();
        a.free(y, 16).unwrap();
        assert_eq!(a.live_allocations().unwrap(), 0);
    }

    #[test]
    fn heap_satisfies_the_trait_contract() {
        let heap = Heap::attach(VolatileSpace::new(1 << 16)).unwrap();
        generic_roundtrip(&heap);
    }
}
