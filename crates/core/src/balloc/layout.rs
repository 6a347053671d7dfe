//! On-media geometry of the bitmap allocator.
//!
//! The managed space is carved into a fixed header, a frame bitmap (one
//! bit per frame, set = allocated), one persisted `u32` free counter per
//! tree, and the frame data region. Everything before the data region is
//! allocator metadata, and all of it lives *inside* the managed
//! [`MemSpace`](crate::MemSpace) — so when the space is a pool's vPM,
//! undo logging rolls allocator state back together with user data
//! (§3.4).
//!
//! ```text
//! | header 64B | bitmap words | tree counters | pad | frames ... |
//!   ^magic/geometry            ^u32 per tree    ^data_start (64-aligned)
//! ```
//!
//! Trees are fixed runs of [`TREE_FRAMES`] frames. With 512 frames per
//! tree and 64-bit bitmap words, a tree is exactly 8 words, so tree
//! boundaries always coincide with word boundaries and per-tree locking
//! never straddles a word.

use crate::PaxError;

/// Identifies a formatted pax-alloc space ("PAXALOC1").
pub const MAGIC: u64 = u64::from_le_bytes(*b"PAXALOC1");

/// On-media format version.
pub const VERSION: u64 = 1;

/// Bytes per allocation frame (the allocation granule).
pub const FRAME_BYTES: u64 = 32;

/// Frames per tree (the per-core claim granule); 512 frames = 16 KiB of
/// data per tree, 8 bitmap words.
pub const TREE_FRAMES: u64 = 512;

/// Fixed header size.
pub const HEADER_BYTES: u64 = 64;

/// Header field offsets (all little-endian `u64`).
pub const OFF_MAGIC: u64 = 0;
/// Format version field.
pub const OFF_VERSION: u64 = 8;
/// Total frame count the space was formatted with.
pub const OFF_FRAMES: u64 = 16;
/// Frame size the space was formatted with.
pub const OFF_FRAME_BYTES: u64 = 24;
/// Tree size the space was formatted with.
pub const OFF_TREE_FRAMES: u64 = 32;
/// First data byte (start of frame 0).
pub const OFF_DATA_START: u64 = 40;
/// User root pointer (0 = unset).
pub const OFF_ROOT: u64 = 48;

/// A layout-level failure: the space is too small, or its persisted
/// header/counters disagree with what a scan of the bitmap says.
///
/// Converted to [`PaxError::Corrupt`] at the public API boundary; kept as
/// a typed enum so tests can assert on the precise failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// The space cannot hold the header, metadata, and at least one frame.
    TooSmall {
        /// Capacity of the offered space.
        capacity: u64,
    },
    /// The magic word is neither zero (fresh) nor [`MAGIC`].
    BadMagic(u64),
    /// The version field is not [`VERSION`].
    BadVersion(u64),
    /// The persisted frame size differs from [`FRAME_BYTES`].
    FrameBytes(u64),
    /// The persisted tree size differs from [`TREE_FRAMES`].
    TreeFrames(u64),
    /// The persisted frame count does not match the recomputed geometry.
    Frames {
        /// Frame count stored in the header.
        persisted: u64,
        /// Frame count recomputed from the space capacity.
        computed: u64,
    },
    /// A persisted per-tree free counter disagrees with the bitmap scan.
    CounterMismatch {
        /// Index of the offending tree.
        tree: u64,
        /// Free count stored on media.
        persisted: u32,
        /// Free count the bitmap scan produced.
        scanned: u32,
    },
    /// A bitmap bit beyond the last frame is set.
    TailBits {
        /// Index of the offending word.
        word: u64,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::TooSmall { capacity } => {
                write!(f, "space of {capacity} bytes is too small for the bitmap allocator")
            }
            LayoutError::BadMagic(m) => write!(f, "bad allocator magic {m:#x}"),
            LayoutError::BadVersion(v) => write!(f, "unsupported allocator version {v}"),
            LayoutError::FrameBytes(b) => write!(f, "persisted frame size {b} != {FRAME_BYTES}"),
            LayoutError::TreeFrames(t) => write!(f, "persisted tree size {t} != {TREE_FRAMES}"),
            LayoutError::Frames { persisted, computed } => {
                write!(f, "persisted frame count {persisted} != computed {computed}")
            }
            LayoutError::CounterMismatch { tree, persisted, scanned } => write!(
                f,
                "tree {tree} free counter {persisted} disagrees with bitmap scan {scanned}"
            ),
            LayoutError::TailBits { word } => {
                write!(f, "bitmap word {word} has bits set beyond the last frame")
            }
        }
    }
}

impl From<LayoutError> for PaxError {
    fn from(e: LayoutError) -> Self {
        PaxError::Corrupt(format!("pax-alloc: {e}"))
    }
}

/// The computed carve-up of a space (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total allocatable frames.
    pub frames: u64,
    /// Number of trees (last one may be partial).
    pub trees: u64,
    /// Number of 64-bit bitmap words.
    pub words: u64,
    /// Byte offset of the first per-tree counter.
    pub counters_off: u64,
    /// Byte offset of frame 0 (64-aligned).
    pub data_start: u64,
    /// Capacity of the managed space.
    pub capacity: u64,
}

impl Geometry {
    /// Solves the carve-up for a space of `capacity` bytes, maximising the
    /// frame count that fits together with its own metadata.
    ///
    /// # Errors
    ///
    /// [`LayoutError::TooSmall`] when not even one frame fits.
    pub fn for_capacity(capacity: u64) -> Result<Geometry, LayoutError> {
        let fits = |frames: u64| {
            let g = Geometry::with_frames(frames, capacity);
            g.data_start + g.frames * FRAME_BYTES <= capacity
        };
        let mut frames = capacity.saturating_sub(HEADER_BYTES) / FRAME_BYTES;
        loop {
            if frames == 0 {
                return Err(LayoutError::TooSmall { capacity });
            }
            let g = Geometry::with_frames(frames, capacity);
            let end = g.data_start + g.frames * FRAME_BYTES;
            if end <= capacity {
                break;
            }
            // Shrink by at least the overshoot; metadata shrinks with the
            // frame count, so this converges in a handful of iterations.
            frames -= ((end - capacity).div_ceil(FRAME_BYTES)).max(1).min(frames);
        }
        // The shrink step may overshoot by a frame or two (it ignores the
        // metadata it frees up); climb back to the maximal fit.
        while fits(frames + 1) {
            frames += 1;
        }
        Ok(Geometry::with_frames(frames, capacity))
    }

    fn with_frames(frames: u64, capacity: u64) -> Geometry {
        let words = frames.div_ceil(64);
        let trees = frames.div_ceil(TREE_FRAMES);
        let counters_off = HEADER_BYTES + words * 8;
        let data_start = (counters_off + trees * 4).next_multiple_of(64);
        Geometry { frames, trees, words, counters_off, data_start, capacity }
    }

    /// Byte address of `frame`.
    pub fn frame_addr(&self, frame: u64) -> u64 {
        self.data_start + frame * FRAME_BYTES
    }

    /// Frame index of byte address `addr`, when `addr` is exactly a frame
    /// start inside the data region.
    pub fn frame_of(&self, addr: u64) -> Option<u64> {
        if addr < self.data_start {
            return None;
        }
        let off = addr - self.data_start;
        if !off.is_multiple_of(FRAME_BYTES) {
            return None;
        }
        let frame = off / FRAME_BYTES;
        (frame < self.frames).then_some(frame)
    }

    /// Tree index of `frame`.
    pub fn tree_of(frame: u64) -> u64 {
        frame / TREE_FRAMES
    }

    /// Frames in tree `tree` (the last tree may be partial).
    pub fn frames_in_tree(&self, tree: u64) -> u64 {
        (self.frames - tree * TREE_FRAMES).min(TREE_FRAMES)
    }

    /// Byte address of bitmap word `word`.
    pub fn word_addr(&self, word: u64) -> u64 {
        HEADER_BYTES + word * 8
    }

    /// Byte address of the persisted free counter of tree `tree`.
    pub fn counter_addr(&self, tree: u64) -> u64 {
        self.counters_off + tree * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_fits_its_capacity() {
        for cap in [4096u64, 1 << 16, 1 << 20, (1 << 20) + 37, 1 << 26] {
            let g = Geometry::for_capacity(cap).unwrap();
            assert!(g.data_start + g.frames * FRAME_BYTES <= cap, "overflow at cap {cap}");
            assert_eq!(g.data_start % 64, 0);
            assert_eq!(g.words, g.frames.div_ceil(64));
            assert_eq!(g.trees, g.frames.div_ceil(TREE_FRAMES));
            // Maximality: one more frame must not fit.
            let g2 = Geometry::with_frames(g.frames + 1, cap);
            assert!(g2.data_start + g2.frames * FRAME_BYTES > cap, "not maximal at cap {cap}");
        }
    }

    #[test]
    fn tiny_spaces_are_rejected() {
        assert_eq!(Geometry::for_capacity(0), Err(LayoutError::TooSmall { capacity: 0 }));
        assert_eq!(Geometry::for_capacity(64), Err(LayoutError::TooSmall { capacity: 64 }));
        // Smallest viable space: header + 1 word + 1 counter padded + 1 frame.
        let g = Geometry::for_capacity(224).unwrap();
        assert!(g.frames >= 1);
    }

    #[test]
    fn frame_addressing_round_trips() {
        let g = Geometry::for_capacity(1 << 20).unwrap();
        for frame in [0, 1, 63, 64, g.frames - 1] {
            assert_eq!(g.frame_of(g.frame_addr(frame)), Some(frame));
        }
        assert_eq!(g.frame_of(g.data_start + 1), None, "misaligned");
        assert_eq!(g.frame_of(0), None, "inside metadata");
        assert_eq!(g.frame_of(g.frame_addr(g.frames)), None, "past the end");
    }

    #[test]
    fn last_tree_may_be_partial() {
        let g = Geometry::for_capacity(1 << 20).unwrap();
        let full: u64 = (0..g.trees).map(|t| g.frames_in_tree(t)).sum();
        assert_eq!(full, g.frames);
        assert!(g.frames_in_tree(g.trees - 1) <= TREE_FRAMES);
    }

    #[test]
    fn layout_error_display_and_conversion() {
        let e = LayoutError::CounterMismatch { tree: 3, persisted: 9, scanned: 8 };
        let p: PaxError = e.into();
        assert!(p.to_string().contains("tree 3"));
    }
}
