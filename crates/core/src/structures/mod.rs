//! Volatile-style collections, generic over any [`MemSpace`].
//!
//! These structures contain **no crash-consistency code whatsoever** — no
//! logging, no flushes, no ordering barriers. They are ordinary collection
//! implementations that read and write a [`MemSpace`] through a
//! [`PmAllocator`](crate::PmAllocator) ([`BitmapAlloc`](crate::BitmapAlloc)
//! by default). Attached to a [`VolatileSpace`](crate::VolatileSpace)
//! they are plain volatile structures; attached to a [`VPm`](crate::VPm)
//! they become crash-consistent persistent structures with snapshot
//! semantics, because the PAX device interposes below them. That is the
//! paper's central claim ("black-box code reuse", §1) demonstrated as
//! code: one implementation, two worlds.
//!
//! Concurrency follows §3.5: each structure serializes its operations
//! internally (a coarse lock), and callers must quiesce operations before
//! `persist()`.

mod pbtree;
mod phash;
mod plist;
mod pring;
mod pvec;

pub use pbtree::{PBTreeMap, MIN_DEGREE};
pub use phash::PHashMap;
pub use plist::PList;
pub use pring::PRing;
pub use pvec::PVec;

use crate::MemSpace;

/// Shared helper: FNV-1a over encoded bytes; stable across runs so hash
/// placements survive reopen.
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // Final avalanche so sequential keys spread over buckets.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Shared helper: encode a `Pod` into a fresh buffer.
pub(crate) fn encode_pod<P: crate::Pod>(value: &P) -> Vec<u8> {
    let mut buf = vec![0u8; P::SIZE];
    value.encode(&mut buf);
    buf
}

/// Shared helper: read a `Pod` at `addr`.
pub(crate) fn read_pod<P: crate::Pod, S: MemSpace>(space: &S, addr: u64) -> crate::Result<P> {
    let mut buf = vec![0u8; P::SIZE];
    space.read_bytes(addr, &mut buf)?;
    Ok(P::decode(&buf))
}

/// Shared helper: write a `Pod` at `addr`.
pub(crate) fn write_pod<P: crate::Pod, S: MemSpace>(
    space: &S,
    addr: u64,
    value: &P,
) -> crate::Result<()> {
    space.write_bytes(addr, &encode_pod(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        // Sequential u64 keys land in different low bits.
        let h: Vec<u64> = (0u64..16).map(|k| hash_bytes(&k.to_le_bytes()) % 16).collect();
        let distinct: std::collections::HashSet<_> = h.iter().collect();
        assert!(distinct.len() > 8, "poor spread: {h:?}");
    }
}
