//! What one workload run collects.

use std::collections::BTreeMap;
use std::time::Instant;

use pax_device::RecoveryReport;
use pax_telemetry::{MetricSnapshot, TelemetrySnapshot};

use crate::stats::{least_disturbed_rate, Histogram};
use crate::trace::LayerTimes;

/// Pool counters the per-layer report reads, as `(component, counter)`.
pub const POOL_COUNTERS: &[(&str, &str)] = &[
    ("host_cache", "read_hits"),
    ("host_cache", "read_misses"),
    ("host_cache", "write_upgrades"),
    ("host_cache", "dirty_evictions"),
    ("cxl", "messages"),
    ("cxl", "data_bytes"),
    ("device", "rd_own"),
    ("device", "rd_shared"),
    ("device", "undo_entries"),
    ("device", "hbm_read_hits"),
    ("device", "pm_reads"),
    ("device", "snoops_sent"),
    ("device", "snoop_data_returned"),
    ("device", "dir_hits"),
    ("device", "dir_filtered_snoops"),
    ("device", "device_writebacks"),
    ("device", "wb_batches"),
    ("device", "forced_log_flushes"),
    ("device", "persists"),
    ("media", "line_writes"),
    ("media", "line_reads"),
];

/// Allocator counters the per-layer report reads.
pub const ALLOC_COUNTERS: &[&str] = &["alloc_scan_frames", "alloc_tree_steals"];

/// Counter deltas summed over the measured window, across every pool
/// lifetime in it (a crash ends one lifetime and a reopen starts the
/// next).
#[derive(Debug, Clone, Default)]
pub struct Counters(pub BTreeMap<String, u64>);

impl Counters {
    /// Adds `now − before` for every pool counter of interest.
    pub fn add_pool(&mut self, now: &TelemetrySnapshot, before: &TelemetrySnapshot) {
        for (c, n) in POOL_COUNTERS {
            let d = now.counter(c, n).saturating_sub(before.counter(c, n));
            *self.0.entry(format!("{c}.{n}")).or_default() += d;
        }
    }

    /// Adds `now − before` for every allocator counter of interest.
    pub fn add_alloc(&mut self, now: &MetricSnapshot, before: &MetricSnapshot) {
        for n in ALLOC_COUNTERS {
            let d = now.counter(n).saturating_sub(before.counter(n));
            *self.0.entry(format!("alloc.{n}")).or_default() += d;
        }
    }

    /// A summed counter (0 when never seen).
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }
}

/// Everything a run measured; the report turns it into metrics.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// The full configuration, as `(key, value)` lines.
    pub config: Vec<(String, String)>,
    /// Client operations completed in the window.
    pub ops: u64,
    /// The measured window in slices of [`SLICE_S`] busy seconds.
    pub slices: Vec<Slice>,
    /// Latency of reads over the window.
    pub read: Histogram,
    /// Latency of writes over the window.
    pub write: Histogram,
    /// Wall time of each `persist()` over the window.
    pub persist: Histogram,
    /// Operations that returned an error or a wrong value.
    pub failed: u64,
    /// Oracle mismatches over every crash and reopen.
    pub lost_committed_records: u64,
    /// Keys the oracle read back.
    pub oracle_checked: u64,
    /// Crash to reopened, attached store, per crash, in milliseconds.
    pub recover_ms: Vec<f64>,
    /// Set-up time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Key and value bytes the clients wrote in the window.
    pub user_bytes: u64,
    /// Counter deltas over the window.
    pub counters: Counters,
    /// Allocator fragmentation at the end of the window.
    pub frag_permille: u64,
    /// Device recovery reports, one per crash.
    pub recovery: Vec<RecoveryReport>,
    /// Layer spans of the traced window and its crash cycles (traced
    /// runs only).
    pub layers: Option<LayerTimes>,
    /// Layer spans of the traced set-up (traced runs only).
    pub setup_layers: Option<LayerTimes>,
    /// Wall time the spans in `layers` were recorded over.
    pub traced_s: f64,
    /// Untraced throughput measured in the same traced run, for the
    /// tracing overhead (traced runs only).
    pub untraced_ops_per_s: Option<f64>,
}

/// Busy time of one slice of a measured window, in seconds. Throughput
/// is reported from the least disturbed slices (see
/// [`crate::stats::least_disturbed_rate`]): other work on a shared host
/// slows the program in stretches of seconds, and a slice this short can
/// fall between them, yet it still holds thousands of operations.
pub const SLICE_S: f64 = 0.25;

/// One slice of the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Client operations completed.
    pub ops: u64,
    /// Wall time minus the crash cycles inside the slice.
    pub busy_s: f64,
}

/// Cuts a measured window into slices of [`SLICE_S`] busy seconds. A
/// slice's busy time is the wall time since it opened minus the pauses
/// (crash cycles) inside it. Slices close only between operations, so a
/// pause lies wholly inside one slice, however far it runs past where
/// that slice would have ended on the wall clock, and is taken out of
/// that slice alone.
#[derive(Debug, Clone, Copy)]
pub struct SliceClock {
    opened: Instant,
    paused_s: f64,
}

impl SliceClock {
    /// Opens a slice at `now`.
    pub fn open(now: Instant) -> Self {
        SliceClock { opened: now, paused_s: 0.0 }
    }

    /// Takes a pause of `s` seconds, just ended, out of the open slice.
    pub fn pause(&mut self, s: f64) {
        self.paused_s += s;
    }

    /// Busy time of the open slice at `now`.
    pub fn busy_s(&self, now: Instant) -> f64 {
        (now.duration_since(self.opened).as_secs_f64() - self.paused_s).max(0.0)
    }

    /// Closes the open slice when it has been busy [`SLICE_S`] by `now`,
    /// returning its busy time, and opens the next at `now`.
    pub fn close_if_full(&mut self, now: Instant) -> Option<f64> {
        let busy = self.busy_s(now);
        (busy >= SLICE_S).then(|| {
            *self = SliceClock::open(now);
            busy
        })
    }
}

impl RunResult {
    /// Operations per busy second, per slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .filter(|s| s.ops > 0 && s.busy_s > 0.0)
            .map(|s| s.ops as f64 / s.busy_s)
            .collect()
    }

    /// Throughput of the least disturbed slices (see
    /// [`least_disturbed_rate`]).
    pub fn ops_per_s(&self) -> f64 {
        least_disturbed_rate(&self.slice_rates())
    }
}

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores the host offers.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    fn close_to(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn a_crash_across_a_slice_boundary_counts_only_busy_time() {
        let t0 = Instant::now();
        let mut clock = SliceClock::open(t0);
        // Operations until 240 ms, then a 200 ms crash cycle that runs
        // past where the slice would end on the wall clock.
        assert_eq!(clock.close_if_full(at(t0, 240)), None);
        clock.pause(0.2);
        // At the next loop top the slice has been busy 240 ms, not 250.
        assert_eq!(clock.close_if_full(at(t0, 440)), None);
        // It closes once busy past 250 ms, with its true busy time...
        let busy = clock.close_if_full(at(t0, 460)).expect("busy 260 ms");
        assert!(close_to(busy, 0.26), "{busy}");
        // ...and the next slice opens there and owes nothing to the crash.
        assert!(close_to(clock.busy_s(at(t0, 560)), 0.1));
    }

    #[test]
    fn a_crash_longer_than_a_slice_leaves_the_slice_open() {
        let t0 = Instant::now();
        let mut clock = SliceClock::open(t0);
        clock.pause(0.6);
        assert_eq!(clock.close_if_full(at(t0, 700)), None);
        assert!(close_to(clock.busy_s(at(t0, 700)), 0.1));
        let busy = clock.close_if_full(at(t0, 860)).expect("busy 260 ms");
        assert!(close_to(busy, 0.26), "{busy}");
    }
}
