//! The persist-time snoop filter's switch and the persist write-back
//! batcher.
//!
//! The device is the home agent for its vPM range, so it *already sees*
//! every coherence message the host issues: a line can only become
//! Modified in the host cache through an `RdOwn` at this device, and a
//! modified line can only leave the host through a dirty eviction, a
//! persist-time snoop, or a CLWB invalidate — all of which also pass
//! through the device. Each lane records that knowledge as one bit on
//! the line's entry in its per-epoch line table (the `EpochLog` in
//! `shard.rs`): set by the `RdOwn` that logged (or re-owned) the line,
//! cleared when the device observes the host give it up. `persist()`
//! reads the bit off each logged line it walks and skips the snoop
//! round-trip for lines the host no longer plausibly owns, so persist
//! cost scales with lines *still owned by the host*, not lines logged.
//! [`DirectoryConfig`] turns that filter on or off.
//!
//! The bit is exact for every question the device asks: a line is only
//! ever owned after an `RdOwn` logged it this epoch, and every close
//! snoops (and clears) each owned line it logged before the table
//! empties. It is deliberately conservative and **volatile**:
//!
//! * A line the host silently migrated core-to-core stays owned (the
//!   original `RdOwn` set the bit; peer transfer clears nothing) — a
//!   useless snoop, never a missed one.
//! * Crash consistency never depends on it. It starts empty on open and
//!   is dropped on crash; a filtered persist and an always-snoop persist
//!   produce byte-identical durable state (property-tested in
//!   `tests/snoopfilter.rs`), because a snoop of an unowned line can
//!   only return a clean Shared copy whose value the device already
//!   holds.
//!
//! [`coalesce_runs`] is the second half of the persist pipeline: gathered
//! write-backs are grouped into runs of lines contiguous in lane-local
//! address space (global addresses in a lane stride by the shard count),
//! and each run is issued as one batch — one durable-write step buys up
//! to [`DeviceConfig::persist_wb_batch`](crate::DeviceConfig) line
//! writes, modelling the row-buffer/queue locality a contiguous burst
//! enjoys on real media.

use std::ops::Range;

use pax_pm::LineAddr;

/// Whether persist-time snoops are filtered by the lanes' host-ownership
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryConfig {
    /// When `false`, every logged line is snooped — the pre-directory
    /// behaviour, kept as the ablation baseline.
    pub enabled: bool,
}

impl DirectoryConfig {
    /// The paper-faithful default: the home agent exploits its coherence
    /// vantage and filters persist-time snoops.
    pub const fn enabled() -> Self {
        DirectoryConfig { enabled: true }
    }

    /// Always-snoop mode: every logged line costs a snoop round-trip,
    /// whether or not the host still owns it.
    pub const fn disabled() -> Self {
        DirectoryConfig { enabled: false }
    }
}

impl Default for DirectoryConfig {
    fn default() -> Self {
        Self::enabled()
    }
}

/// Splits `addrs` (in issue order) into maximal runs of lines contiguous
/// in lane-local space — successive global addresses differing by
/// exactly `stride` — capped at `max_batch` lines per run. Returned
/// ranges index into `addrs`, cover it exactly, and preserve order, so
/// batched issue performs the identical writes in the identical order as
/// unbatched issue.
pub fn coalesce_runs(addrs: &[LineAddr], stride: u64, max_batch: usize) -> Vec<Range<usize>> {
    let max_batch = max_batch.max(1);
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=addrs.len() {
        let contiguous = i < addrs.len()
            && i - start < max_batch
            && addrs[i].0 == addrs[i - 1].0.wrapping_add(stride);
        if !contiguous {
            if i > start {
                runs.push(start..i);
            }
            start = i;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_to_enabled() {
        assert!(DirectoryConfig::default().enabled);
        assert!(DirectoryConfig::enabled().enabled);
        assert!(!DirectoryConfig::disabled().enabled);
    }

    fn addrs(raw: &[u64]) -> Vec<LineAddr> {
        raw.iter().map(|&a| LineAddr(a)).collect()
    }

    #[test]
    fn coalesce_finds_stride_contiguous_runs() {
        // Lane 0 of a 2-shard device: lines 0,2,4 are contiguous in
        // lane-local space; 10 breaks the run.
        let a = addrs(&[0, 2, 4, 10, 12]);
        assert_eq!(coalesce_runs(&a, 2, 8), vec![0..3, 3..5]);
    }

    #[test]
    fn coalesce_caps_runs_at_max_batch() {
        let a = addrs(&[0, 1, 2, 3, 4]);
        assert_eq!(coalesce_runs(&a, 1, 2), vec![0..2, 2..4, 4..5]);
        // A zero cap degrades to single-line batches, never an empty one.
        assert_eq!(coalesce_runs(&a, 1, 0).len(), 5);
    }

    #[test]
    fn coalesce_covers_input_exactly_in_order() {
        let a = addrs(&[7, 3, 4, 5, 9]);
        let runs = coalesce_runs(&a, 1, 8);
        let flat: Vec<usize> = runs.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(flat, (0..a.len()).collect::<Vec<_>>());
        assert_eq!(runs, vec![0..1, 1..4, 4..5]);
    }

    #[test]
    fn coalesce_of_empty_input_is_empty() {
        assert!(coalesce_runs(&[], 1, 8).is_empty());
    }
}
