//! The lower allocator: contiguous-run search and bit mutation over the
//! persistent frame bitmap.
//!
//! In llfree terms this is the "lower" half — given one tree's (or the
//! whole space's) bitmap words, find a run of clear bits, set it, clear
//! it. All functions here either operate on an in-memory word slice
//! (pure, unit-testable) or perform the read-modify-write against the
//! [`MemSpace`](crate::MemSpace); callers (the upper allocator) hold the
//! owning tree's lock around every media call, which is what makes the
//! non-atomic read-modify-write of a shared word safe.

use crate::{MemSpace, PaxError, Result};

use super::layout::Geometry;

/// Outcome of a run search: the start frame (relative to the scanned
/// slice) if found, plus how many frames were examined (the
/// `alloc_scan_frames` metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scan {
    pub found: Option<u64>,
    pub steps: u64,
}

/// First bit at or after `pos` that is set (`set`) or clear (`!set`),
/// or `words.len() * 64` if none.
fn next_bit(words: &[u64], pos: u64, set: bool) -> u64 {
    let flip = if set { 0 } else { u64::MAX };
    let end = words.len() as u64 * 64;
    let w = (pos / 64) as usize;
    let Some(&word) = words.get(w) else {
        return end;
    };
    // Matching bits become ones; the shift drops those below `pos`.
    let hits = (word ^ flip) >> (pos % 64);
    if hits != 0 {
        return pos + u64::from(hits.trailing_zeros());
    }
    match words[w + 1..].iter().position(|&word| word ^ flip != 0) {
        Some(i) => (w + 1 + i) as u64 * 64 + u64::from((words[w + 1 + i] ^ flip).trailing_zeros()),
        None => end,
    }
}

/// Finds `need` contiguous clear bits among the first `nframes` bits of
/// `words`, preferring run starts at or after `start` (wrapping back to
/// 0 for the tail of the search). Runs never wrap: a hit `p` always has
/// `p + need <= nframes`. The hit is the leftmost run start of the first
/// pass that has one, whole runs are walked a word at a time, and
/// `steps` counts the frames the walk passed over.
pub(crate) fn find_run(words: &[u64], nframes: u64, need: u64, start: u64) -> Scan {
    debug_assert!(need >= 1);
    let mut steps = 0u64;
    if need > nframes {
        return Scan { found: None, steps };
    }
    let start = start.min(nframes - 1);
    // Two passes over run starts: [start..) then [0..start).
    for (lo, hi) in [(start, nframes), (0, start)] {
        let mut pos = lo;
        while pos < hi {
            let run = next_bit(words, pos, false);
            if run >= hi || run + need > nframes {
                pos = run;
                break;
            }
            let end = next_bit(words, run, true).min(nframes);
            if end - run >= need {
                return Scan { found: Some(run), steps: steps + run + need - lo };
            }
            pos = end;
        }
        steps += pos.min(nframes) - lo;
    }
    Scan { found: None, steps }
}

/// The longest run of clear bits among the first `nframes` bits of
/// `words`.
pub(crate) fn max_run(words: &[u64], nframes: u64) -> u64 {
    let (mut pos, mut best) = (0, 0);
    loop {
        let run = next_bit(words, pos, false);
        if run >= nframes {
            return best;
        }
        let end = next_bit(words, run, true).min(nframes);
        best = best.max(end - run);
        pos = end;
    }
}

/// Length of the clear run through frames `[frame, frame + n)`, which
/// must be clear, bounded to frames `[lo, hi)` (`lo` 64-aligned).
/// `word(w)` yields bitmap word `w`; beyond the words holding the
/// frames themselves it is asked only for a neighbour that the run
/// reaches the edge of.
pub(crate) fn run_through(
    frame: u64,
    n: u64,
    lo: u64,
    hi: u64,
    mut word: impl FnMut(u64) -> Result<u64>,
) -> Result<u64> {
    debug_assert!(lo.is_multiple_of(64) && lo <= frame && frame + n <= hi);
    let mut left = frame;
    while left > lo {
        // Clear bits from frame `left - 1` downwards within its word.
        let bit = (left - 1) % 64;
        let clear = u64::from((word((left - 1) / 64)? << (63 - bit)).leading_zeros()).min(bit + 1);
        left -= clear;
        if clear <= bit {
            break;
        }
    }
    let mut right = frame + n;
    while right < hi {
        let bit = right % 64;
        let clear = u64::from((word(right / 64)? >> bit).trailing_zeros()).min(64 - bit);
        right = (right + clear).min(hi);
        if clear < 64 - bit {
            break;
        }
    }
    Ok(right - left)
}

/// Loads the `nframes.div_ceil(64)` bitmap words holding frames
/// `[base, base + nframes)`, where `base` is 64-aligned (tree starts
/// always are).
pub(crate) fn load_words<S: MemSpace>(
    space: &S,
    geom: &Geometry,
    base: u64,
    nframes: u64,
) -> Result<Vec<u64>> {
    debug_assert_eq!(base % 64, 0);
    let first = base / 64;
    let n = nframes.div_ceil(64);
    let mut buf = vec![0u8; (n * 8) as usize];
    space.read_bytes(geom.word_addr(first), &mut buf)?;
    Ok(buf.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
}

/// Checks a run mutation of frames `[frame, frame + n)`: `set = true`
/// marks them allocated, `set = false` frees them. Every touched bit
/// must currently hold the opposite value; a same-value bit means a
/// double free (or handing out live frames) and fails with
/// [`PaxError::Corrupt`]. Reads the words holding the frames and returns
/// their new `(word index, value)` pairs, ascending, for
/// [`write_words`]; writes nothing, so a caller can check a whole run
/// before any word changes.
pub(crate) fn check_run<S: MemSpace>(
    space: &S,
    geom: &Geometry,
    frame: u64,
    n: u64,
    set: bool,
) -> Result<Vec<(u64, u64)>> {
    let first_word = frame / 64;
    let last_word = (frame + n - 1) / 64;
    let mut words = Vec::with_capacity((last_word - first_word + 1) as usize);
    for w in first_word..=last_word {
        let lo = (w * 64).max(frame) % 64;
        let hi = ((w + 1) * 64).min(frame + n) - w * 64;
        let mask = if hi - lo == 64 { u64::MAX } else { ((1u64 << (hi - lo)) - 1) << lo };
        let cur = space.read_u64(geom.word_addr(w))?;
        let expect = if set { 0 } else { mask };
        if cur & mask != expect {
            return Err(PaxError::Corrupt(format!(
                "pax-alloc: frames [{frame}, {}) are not uniformly {} (word {w})",
                frame + n,
                if set { "free" } else { "allocated — double free?" },
            )));
        }
        words.push((w, if set { cur | mask } else { cur & !mask }));
    }
    Ok(words)
}

/// Writes `(word index, value)` pairs to the bitmap.
pub(crate) fn write_words<S: MemSpace>(
    space: &S,
    geom: &Geometry,
    words: &[(u64, u64)],
) -> Result<()> {
    words.iter().try_for_each(|&(w, val)| space.write_u64(geom.word_addr(w), val))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bit(words: &[u64], idx: u64) -> bool {
        words[(idx / 64) as usize] >> (idx % 64) & 1 == 1
    }

    /// The bit-at-a-time search `find_run` replaced: the placement
    /// reference.
    fn find_run_bits(words: &[u64], nframes: u64, need: u64, start: u64) -> Option<u64> {
        if need > nframes {
            return None;
        }
        let start = start.min(nframes - 1);
        for (lo, hi) in [(start, nframes), (0, start)] {
            let mut p = lo;
            while p < hi && p + need <= nframes {
                let mut k = 0;
                while k < need && !bit(words, p + k) {
                    k += 1;
                }
                if k == need {
                    return Some(p);
                }
                p += k + 1;
            }
        }
        None
    }

    /// Clear-run length through `frame`, counted bit by bit within
    /// `[lo, hi)`.
    fn run_at_bits(words: &[u64], frame: u64, lo: u64, hi: u64) -> u64 {
        let left = (lo..frame).rev().take_while(|&f| !bit(words, f)).count() as u64;
        let right = (frame..hi).take_while(|&f| !bit(words, f)).count() as u64;
        left + right
    }

    /// Seeded random bitmaps of every density, slice lengths with a
    /// partial last word, any cursor: the word-level search places runs
    /// exactly where the bit loop does, and `max_run` / `run_through`
    /// agree with bit-by-bit counts.
    #[test]
    fn word_walk_matches_the_bit_loop() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..3000u64 {
            let nframes = rng.gen_range(1..600u64);
            let density = rng.gen_range(0..101u64);
            let mut words: Vec<u64> = (0..nframes.div_ceil(64))
                .map(|_| {
                    (0..64)
                        .fold(0u64, |w, b| w | u64::from(rng.gen_range(0..100u64) < density) << b)
                })
                .collect();
            // Bits past the last frame stay clear, as on media.
            if nframes % 64 != 0 {
                *words.last_mut().unwrap() &= (1u64 << (nframes % 64)) - 1;
            }
            let start = rng.gen_range(0..nframes + 8);
            for need in 1..=20 {
                let scan = find_run(&words, nframes, need, start);
                assert_eq!(
                    scan.found,
                    find_run_bits(&words, nframes, need, start),
                    "case {case}: nframes {nframes}, need {need}, start {start}"
                );
                assert!(scan.steps <= 2 * nframes);
                if let Some(p) = scan.found {
                    assert!(scan.steps >= need, "a hit examines at least its own frames");
                    assert!(p + need <= nframes);
                }
            }
            let best = (0..nframes).map(|f| run_at_bits(&words, f, f, nframes)).max().unwrap();
            assert_eq!(max_run(&words, nframes), best, "case {case}");
            // The free path: the run through a clear stretch, inside a
            // 64-aligned window of the slice.
            let lo = rng.gen_range(0..nframes.div_ceil(64)) * 64;
            let hi = rng.gen_range(lo + 1..nframes + 1);
            let frame = rng.gen_range(lo..hi);
            if !bit(&words, frame) {
                let n = run_at_bits(&words, frame, frame, hi).min(rng.gen_range(1..20u64));
                let mut asked = Vec::new();
                let got = run_through(frame, n, lo, hi, |w| {
                    asked.push(w);
                    Ok(words[w as usize])
                })
                .unwrap();
                assert_eq!(got, run_at_bits(&words, frame, lo, hi), "case {case}");
                // Neighbour words are read only when the run reaches them.
                let (first, last) = (frame / 64, (frame + n - 1) / 64);
                for w in asked.into_iter().filter(|&w| w < first || w > last) {
                    let gap = if w < first { (w + 1) * 64..frame } else { frame + n..w * 64 };
                    assert!(
                        gap.clone().all(|f| !bit(&words, f)),
                        "case {case}: word {w} read early"
                    );
                }
            }
        }
    }

    #[test]
    fn finds_runs_and_counts_steps() {
        // Frames: 0..=2 used, 3..=9 free (10 frames).
        let words = vec![0b111u64];
        let s = find_run(&words, 10, 4, 0);
        assert_eq!(s.found, Some(3));
        assert!(s.steps >= 4);
        assert_eq!(find_run(&words, 10, 7, 0).found, Some(3));
        assert_eq!(find_run(&words, 10, 8, 0).found, None);
        assert_eq!(find_run(&words, 10, 11, 0).found, None, "larger than slice");
    }

    #[test]
    fn cursor_prefers_later_runs_then_wraps() {
        // Free everywhere; cursor at 5 → run starts at 5.
        let words = vec![0u64];
        assert_eq!(find_run(&words, 64, 3, 5).found, Some(5));
        // Only frames 0..3 free: cursor past them still finds them by wrap.
        let words = vec![!0u64 << 3];
        assert_eq!(find_run(&words, 64, 3, 10).found, Some(0));
    }

    #[test]
    fn runs_cross_word_boundaries() {
        // Frames 62..=65 are the only free run, straddling words 0 and 1.
        let words = vec![(1u64 << 62) - 1, !0u64 << 2];
        assert_eq!(find_run(&words, 128, 4, 0).found, Some(62));
        assert_eq!(find_run(&words, 128, 5, 0).found, None);
    }

    #[test]
    fn run_never_wraps_around_the_end() {
        // Frames 0..2 and 8..9 free, 2..8 used: no 4-run exists even
        // though 2 + 2 = 4 frames are free at the edges.
        let words = vec![0b00_1111_1100u64];
        assert_eq!(find_run(&words, 10, 4, 0).found, None);
    }
}
