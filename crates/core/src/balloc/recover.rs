//! Recovery: rebuild the volatile index by scanning the persistent
//! bitmap.
//!
//! The allocator's only durable truth is the frame bitmap (plus the
//! per-tree counters as a cross-check). Everything volatile — per-core
//! claims, cursors, the tree free-count and longest-run index — is
//! reconstructed here by one linear scan, which runs on *every* attach:
//! construction and recovery are the same code path (§3.4). The scan
//! cost is recorded in [`RecoveryStats`] so benchmarks can assert it
//! stays linear in the pool's frame count.

use crate::{MemSpace, Result};

use super::layout::{Geometry, LayoutError};
use super::lower;

/// What the attach-time scan did, for telemetry and the recovery-cost
/// bound in CI (`allocbench` emits these per pool size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Frames whose bit the scan examined (== the pool's frame count).
    pub scanned_frames: u64,
    /// Frames found allocated.
    pub live_frames: u64,
    /// Total scan work in frame units (examination plus counter
    /// verification); the CI bound asserts this is linear in
    /// `scanned_frames`.
    pub scan_steps: u64,
}

/// Scans the whole bitmap, verifies the per-tree persisted counters, and
/// returns the volatile `(free count, longest free run)` per tree plus
/// the scan stats.
///
/// # Errors
///
/// [`LayoutError::CounterMismatch`] (as [`PaxError::Corrupt`](crate::PaxError::Corrupt))
/// when a persisted counter disagrees with the bits, and
/// [`LayoutError::TailBits`] when bits are set past the last frame.
pub(crate) fn rebuild<S: MemSpace>(
    space: &S,
    geom: &Geometry,
) -> Result<(Vec<(u32, u32)>, RecoveryStats)> {
    // One bulk read of the bitmap region: 1 bit per frame, so even a
    // 16M-frame pool reads only 2 MiB here.
    let mut raw = vec![0u8; (geom.words * 8) as usize];
    space.read_bytes(geom.word_addr(0), &mut raw)?;
    let words: Vec<u64> =
        raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();

    // Bits past the last frame must be clear (they are never allocatable).
    let tail = geom.frames % 64;
    if tail != 0 && words[(geom.words - 1) as usize] & (!0u64 << tail) != 0 {
        return Err(LayoutError::TailBits { word: geom.words - 1 }.into());
    }

    let mut trees = Vec::with_capacity(geom.trees as usize);
    let mut live = 0u64;
    let mut steps = 0u64;
    for tree in 0..geom.trees {
        let nframes = geom.frames_in_tree(tree);
        let first_word = ((tree * super::layout::TREE_FRAMES) / 64) as usize;
        let tree_words = &words[first_word..first_word + nframes.div_ceil(64) as usize];
        let used: u64 = tree_words.iter().map(|w| u64::from(w.count_ones())).sum();
        let run = lower::max_run(tree_words, nframes) as u32;
        steps += nframes;
        let scanned = (nframes - used) as u32;
        let persisted = space.read_u32(geom.counter_addr(tree))?;
        if persisted != scanned {
            return Err(LayoutError::CounterMismatch { tree, persisted, scanned }.into());
        }
        trees.push((scanned, run));
        live += used;
    }
    Ok((trees, RecoveryStats { scanned_frames: geom.frames, live_frames: live, scan_steps: steps }))
}
