//! Per-lane host-ownership directory (snoop filter) and the persist
//! write-back batcher.
//!
//! The device is the home agent for its vPM range, so it *already sees*
//! every coherence message the host issues: a line can only become
//! Modified in the host cache through an `RdOwn` at this device, and a
//! modified line can only leave the host through a dirty eviction, a
//! persist-time snoop, or a CLWB invalidate — all of which also pass
//! through the device. [`OwnershipDirectory`] records that knowledge per
//! lane: a line is *tracked* from the `RdOwn` that granted ownership
//! until the device observes the host give it up. `persist()` consults
//! the directory and skips the snoop round-trip for lines the host no
//! longer plausibly owns, so persist cost scales with lines *still owned
//! by the host*, not lines logged.
//!
//! The directory is deliberately conservative and **volatile**:
//!
//! * A tracked line that the host silently migrated core-to-core stays
//!   tracked (the original `RdOwn` set the bit; peer transfer clears
//!   nothing) — a useless snoop, never a missed one.
//! * Crash consistency never depends on it. It is rebuilt empty on
//!   open and cleared on crash; a filtered persist and an always-snoop
//!   persist produce byte-identical durable state (property-tested in
//!   `tests/snoopfilter.rs`), because a snoop of an untracked line can
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

use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pax_pm::LineAddr;

/// Whether persist-time snoops consult the ownership directory.
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

/// Number of independently locked stripes in the directory. Tracked
/// lines hash across stripes so concurrent stores on the same lane
/// rarely contend on a directory lock.
const DIR_STRIPES: usize = 16;

/// Tracks, per vPM line of one lane, whether the host plausibly holds
/// the line modified (see module docs). Purely volatile device state:
/// ticks never mutate it, and [`OwnershipDirectory::crash`] empties it.
///
/// The set is striped across `DIR_STRIPES` mutexes with an
/// atomic residency counter, so hot-path `RdOwn`/eviction epilogues can
/// update it through a shared reference (DESIGN.md §15). Each operation touches exactly one stripe lock.
#[derive(Debug)]
pub struct OwnershipDirectory {
    stripes: Vec<Mutex<HashSet<LineAddr>>>,
    resident: AtomicUsize,
}

impl Default for OwnershipDirectory {
    fn default() -> Self {
        Self::new()
    }
}

impl OwnershipDirectory {
    /// An empty directory (nothing tracked — maximally conservative).
    pub fn new() -> Self {
        OwnershipDirectory {
            stripes: (0..DIR_STRIPES).map(|_| Mutex::new(HashSet::new())).collect(),
            resident: AtomicUsize::new(0),
        }
    }

    fn stripe(&self, addr: LineAddr) -> &Mutex<HashSet<LineAddr>> {
        let i = (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize;
        &self.stripes[i % DIR_STRIPES]
    }

    /// Records an `RdOwn`: the host now plausibly holds `addr` modified.
    /// Returns `true` when the line was not already tracked.
    pub fn note_owned(&self, addr: LineAddr) -> bool {
        let new = self.stripe(addr).lock().unwrap_or_else(|e| e.into_inner()).insert(addr);
        if new {
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
        new
    }

    /// Records evidence the host gave `addr` up (dirty eviction, snoop
    /// response, CLWB invalidate, device write-back). Returns `true`
    /// when the line was tracked.
    pub fn clear_line(&self, addr: LineAddr) -> bool {
        let was = self.stripe(addr).lock().unwrap_or_else(|e| e.into_inner()).remove(&addr);
        if was {
            self.resident.fetch_sub(1, Ordering::Relaxed);
        }
        was
    }

    /// Whether the host plausibly holds `addr` modified.
    pub fn holds(&self, addr: LineAddr) -> bool {
        self.stripe(addr).lock().unwrap_or_else(|e| e.into_inner()).contains(&addr)
    }

    /// Lines currently tracked.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Power loss: the directory is volatile and restarts empty.
    pub fn crash(&self) {
        for stripe in &self.stripes {
            let mut set = stripe.lock().unwrap_or_else(|e| e.into_inner());
            let n = set.len();
            set.clear();
            self.resident.fetch_sub(n, Ordering::Relaxed);
        }
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

    #[test]
    fn tracks_own_then_clear_lifecycle() {
        let dir = OwnershipDirectory::new();
        assert!(!dir.holds(LineAddr(3)));
        assert!(dir.note_owned(LineAddr(3)));
        assert!(!dir.note_owned(LineAddr(3)), "re-own of a tracked line is not new");
        assert!(dir.holds(LineAddr(3)));
        assert_eq!(dir.resident(), 1);
        assert!(dir.clear_line(LineAddr(3)));
        assert!(!dir.clear_line(LineAddr(3)), "double clear reports untracked");
        assert!(!dir.holds(LineAddr(3)));
        assert_eq!(dir.resident(), 0);
    }

    #[test]
    fn crash_empties_the_directory() {
        let dir = OwnershipDirectory::new();
        dir.note_owned(LineAddr(1));
        dir.note_owned(LineAddr(2));
        dir.crash();
        assert_eq!(dir.resident(), 0);
        assert!(!dir.holds(LineAddr(1)));
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
