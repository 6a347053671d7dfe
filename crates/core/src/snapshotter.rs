//! The Listing 1 façade: [`HwSnapshotter`] and [`Persistent<T>`].
//!
//! ```text
//! let mut allocator = HWSnapshotter<MyAllocator>::map_pool("./ht.pool");
//! let persistent_ht = Persistent<HashMap>::new(&allocator);
//! persistent_ht.insert(1, 100);
//! println!("Key 1 = {}", persistent_ht.get(1));
//! persistent_ht.insert(2, 200);
//! persistent_ht.persist();
//! ```
//!
//! Maps one-to-one onto the paper's programming model: `map_pool` maps the
//! vPM region and wraps it in an allocator; `Persistent<T>::new` passes
//! that allocator to an unmodified structure constructor (recovering the
//! structure if the pool needs it, §3.4); `persist()` asks the device for
//! a crash-consistent snapshot.

use std::ops::Deref;
use std::path::Path;

use crate::allocator::PmAllocator;
use crate::balloc::BitmapAlloc;
use crate::pool::{PaxConfig, PaxPool, VPm};
use crate::space::MemSpace;
use crate::Result;

/// A structure that can be rooted in (and recovered from) an allocator.
///
/// Implemented by every collection in [`structures`](crate::structures),
/// for any [`PmAllocator`]. The default `A = BitmapAlloc<S>` is the
/// scalable llfree-style allocator. `attach` must treat "fresh
/// allocator" and "existing structure" uniformly so construction and
/// recovery are indistinguishable to the application.
pub trait PStructure<S: MemSpace, A: PmAllocator<S> = BitmapAlloc<S>>: Sized {
    /// Opens the structure rooted in `alloc`, creating it on first use.
    ///
    /// # Errors
    ///
    /// Implementations surface corruption and allocation failures.
    fn attach(alloc: A) -> Result<Self>;
}

impl<K: crate::Pod + Ord, V: crate::Pod, S: MemSpace, A: PmAllocator<S>> PStructure<S, A>
    for crate::PBTreeMap<K, V, S, A>
{
    fn attach(alloc: A) -> Result<Self> {
        crate::PBTreeMap::attach(alloc)
    }
}

impl<K: crate::Pod, V: crate::Pod, S: MemSpace, A: PmAllocator<S>> PStructure<S, A>
    for crate::PHashMap<K, V, S, A>
{
    fn attach(alloc: A) -> Result<Self> {
        crate::PHashMap::attach(alloc)
    }
}

impl<T: crate::Pod, S: MemSpace, A: PmAllocator<S>> PStructure<S, A> for crate::PVec<T, S, A> {
    fn attach(alloc: A) -> Result<Self> {
        crate::PVec::attach(alloc)
    }
}

impl<T: crate::Pod, S: MemSpace, A: PmAllocator<S>> PStructure<S, A> for crate::PList<T, S, A> {
    fn attach(alloc: A) -> Result<Self> {
        crate::PList::attach(alloc)
    }
}

impl<T: crate::Pod, S: MemSpace, A: PmAllocator<S>> PStructure<S, A> for crate::PRing<T, S, A> {
    fn attach(alloc: A) -> Result<Self> {
        crate::PRing::attach(alloc)
    }
}

/// The hardware snapshotter: a mapped pool wrapped in an allocator
/// (Listing 1, line 1).
#[derive(Debug, Clone)]
pub struct HwSnapshotter {
    pool: PaxPool,
}

impl HwSnapshotter {
    /// Maps `path` into the "process", creating the pool file on first
    /// use (`map_pool` in the paper).
    ///
    /// # Errors
    ///
    /// Propagates pool-file and recovery errors.
    pub fn map_pool(path: impl AsRef<Path>, config: PaxConfig) -> Result<Self> {
        Ok(HwSnapshotter { pool: PaxPool::map_file(path, config)? })
    }

    /// Creates an in-memory pool (tests and examples that don't need a
    /// backing file).
    ///
    /// # Errors
    ///
    /// Propagates pool-layout errors.
    pub fn create(config: PaxConfig) -> Result<Self> {
        Ok(HwSnapshotter { pool: PaxPool::create(config)? })
    }

    /// Wraps an already-open [`PaxPool`].
    pub fn from_pool(pool: PaxPool) -> Self {
        HwSnapshotter { pool }
    }

    /// The underlying pool (metrics, crash control, persistence).
    pub fn pool(&self) -> &PaxPool {
        &self.pool
    }

    /// The mapped vPM region.
    pub fn vpm(&self) -> VPm {
        self.pool.vpm()
    }

    /// Instructs the PAX device to persist a crash-consistent snapshot
    /// (Listing 1, line 6); returns the committed epoch.
    ///
    /// # Errors
    ///
    /// Surfaces simulated crashes and media errors.
    pub fn persist(&self) -> Result<u64> {
        self.pool.persist()
    }
}

/// A handle to a structure living in vPM (Listing 1, line 2).
///
/// Dereferences to the inner structure, so `persistent_ht.insert(..)`
/// reads exactly like the volatile original.
#[derive(Debug, Clone)]
pub struct Persistent<T> {
    inner: T,
}

impl<T: PStructure<VPm>> Persistent<T> {
    /// Attaches (or recovers, §3.4) the structure in the snapshotter's
    /// pool, over the default [`BitmapAlloc`] allocator. "From the
    /// application's perspective, there is no difference between
    /// constructing a new persistent map and recovering one."
    ///
    /// A pool formatted by another allocator is rejected with a
    /// bad-magic error rather than silently reinterpreted.
    ///
    /// # Errors
    ///
    /// Propagates allocator and structure attach errors.
    pub fn new(snapshotter: &HwSnapshotter) -> Result<Self> {
        let alloc = BitmapAlloc::attach(snapshotter.vpm())?;
        Ok(Persistent { inner: T::attach(alloc)? })
    }
}

impl<T> Persistent<T> {
    /// Attaches the structure through an explicit allocator handle: a
    /// [`BitmapAlloc`] with its own core count
    /// ([`BitmapAlloc::attach_with_cores`]), or a [`PmAllocator`] that
    /// wraps one. The allocator must already wrap the pool's vPM so undo
    /// logging covers its metadata.
    ///
    /// # Errors
    ///
    /// Propagates allocator and structure attach errors.
    pub fn new_in<A: PmAllocator<VPm>>(alloc: A) -> Result<Self>
    where
        T: PStructure<VPm, A>,
    {
        Ok(Persistent { inner: T::attach(alloc)? })
    }
}

impl<T> Persistent<T> {
    /// Unwraps the inner structure handle.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T> Deref for Persistent<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PHashMap, PVec};

    #[test]
    fn listing_1_flow() {
        let snap = HwSnapshotter::create(PaxConfig::default()).unwrap();
        let ht: Persistent<PHashMap<u64, u64>> = Persistent::new(&snap).unwrap();
        ht.insert(1, 100).unwrap();
        assert_eq!(ht.get(1).unwrap(), Some(100));
        ht.insert(2, 200).unwrap();
        let epoch = snap.persist().unwrap();
        assert_eq!(epoch, 1);
    }

    #[test]
    fn recovery_is_transparent() {
        let snap = HwSnapshotter::create(PaxConfig::default()).unwrap();
        {
            let ht: Persistent<PHashMap<u64, u64>> = Persistent::new(&snap).unwrap();
            ht.insert(5, 50).unwrap();
        }
        snap.persist().unwrap();
        let pm = snap.pool().crash().unwrap();

        // Reopen: Persistent::new recovers instead of constructing.
        let snap2 =
            HwSnapshotter::from_pool(crate::PaxPool::open(pm, PaxConfig::default()).unwrap());
        let ht: Persistent<PHashMap<u64, u64>> = Persistent::new(&snap2).unwrap();
        assert_eq!(ht.get(5).unwrap(), Some(50));
    }

    #[test]
    fn other_structures_attach_too() {
        let snap = HwSnapshotter::create(PaxConfig::default()).unwrap();
        let v: Persistent<PVec<u32>> = Persistent::new(&snap).unwrap();
        v.push(1).unwrap();
        assert_eq!(v.get(0).unwrap(), Some(1));
    }

    #[test]
    fn map_pool_creates_then_reopens() {
        let dir = std::env::temp_dir().join("libpax-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshotter.pool");
        let _ = std::fs::remove_file(&path);

        let snap = HwSnapshotter::map_pool(&path, PaxConfig::default()).unwrap();
        let ht: Persistent<PHashMap<u64, u64>> = Persistent::new(&snap).unwrap();
        ht.insert(9, 90).unwrap();
        snap.persist().unwrap();
        snap.pool().save_file(&path).unwrap();
        drop((ht, snap));

        let snap2 = HwSnapshotter::map_pool(&path, PaxConfig::default()).unwrap();
        let ht2: Persistent<PHashMap<u64, u64>> = Persistent::new(&snap2).unwrap();
        assert_eq!(ht2.get(9).unwrap(), Some(90));
        std::fs::remove_file(&path).unwrap();
    }
}
