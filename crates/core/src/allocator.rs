//! [`PmAllocator`]: the allocator seam between spaces and structures.
//!
//! The paper's §3.4 claim — undo logging covers allocator metadata like
//! any other data, so recovering the pool recovers its allocator — is a
//! property of *any* allocator whose persistent state lives inside the
//! [`MemSpace`] it manages. This trait captures exactly that contract;
//! the structures ([`structures`](crate::structures)) are generic over
//! it. The allocator is [`BitmapAlloc`](crate::BitmapAlloc), the
//! llfree-style scalable allocator (per-core frame caches over a
//! hierarchical persistent bitmap) in [`balloc`](crate::balloc); a
//! wrapper that instruments it implements the trait by delegation.
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

    /// Live-allocation accounting for leak checks, in 32-byte frames
    /// ([`FRAME_BYTES`](crate::balloc::layout::FRAME_BYTES)): an
    /// allocation of `len` bytes counts `max(1, ceil(len / 32))`, so
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
