//! Shared measurement and reporting helpers for the PAX bench harness.
//!
//! Each binary in `src/bin/` regenerates one figure or table of the paper
//! (see DESIGN.md §4 for the index). The helpers here keep the harness
//! honest: event counts come from *running the functional simulation* —
//! the same `PHashMap` + device + cache code the tests exercise — and the
//! timing models convert counts to nanoseconds with the cited constants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Arc, Mutex};

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxPool};
use pax_cache::{CacheConfig, Hierarchy, HierarchyConfig, HierarchyStats};
use pax_device::{DeviceConfig, DeviceMetrics};
use pax_pm::{PoolConfig, LINE_SIZE};
use pax_workloads::{Op, WorkloadSpec};

pub use pax_telemetry::{Json, Report, TelemetrySnapshot};

/// Shared output sink for every bench binary: human tables by default,
/// one schema-consistent JSON [`Report`] on stdout when the binary is
/// invoked with `--json`.
///
/// Binaries route *all* stdout through this sink — [`BenchOut::line`] and
/// [`BenchOut::table`] are suppressed in JSON mode, so `--json` output is
/// exactly one parseable object. Progress chatter belongs on stderr
/// (`eprintln!`), which stays available in both modes.
pub struct BenchOut {
    json: bool,
    report: Report,
}

impl BenchOut {
    /// A sink for the named benchmark; JSON mode when `--json` is among
    /// the process arguments.
    pub fn from_args(bench: &str) -> Self {
        BenchOut { json: std::env::args().any(|a| a == "--json"), report: Report::new(bench) }
    }

    /// Whether `--json` was requested.
    pub fn json(&self) -> bool {
        self.json
    }

    /// Records one configuration knob into the report.
    pub fn config(&mut self, key: &str, value: Json) {
        self.report.set_config(key, value);
    }

    /// Appends one result row (any JSON object) to the report.
    pub fn push_result(&mut self, row: Json) {
        self.report.push_result(row);
    }

    /// Attaches a cross-layer telemetry snapshot to the report.
    pub fn attach_telemetry(&mut self, snapshot: &TelemetrySnapshot) {
        self.report.attach_telemetry(snapshot);
    }

    /// Prints one line of human output (suppressed under `--json`).
    pub fn line(&self, text: impl AsRef<str>) {
        if !self.json {
            println!("{}", text.as_ref());
        }
    }

    /// Prints a blank human line (suppressed under `--json`).
    pub fn blank(&self) {
        self.line("");
    }

    /// Prints a fixed-width human table (suppressed under `--json`).
    pub fn table(&self, rows: &[Vec<String>]) {
        if !self.json {
            print_table(rows);
        }
    }

    /// Emits the report to stdout when in JSON mode. Call last.
    pub fn finish(&self) {
        if self.json {
            println!("{}", self.report.render());
        }
    }
}

/// Whether `name` (e.g. `--measured`) is among the process arguments.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value following `--name` (or inside `--name=value`), if present.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(name) {
            if let Some(v) = v.strip_prefix('=') {
                return Some(v.to_string());
            }
        }
    }
    None
}

/// Parses a `--name 1,2,4,8`-style comma-separated count list, falling
/// back to `default` when the flag is absent.
///
/// # Panics
///
/// Panics on an unparseable or empty list — a bench invocation error.
pub fn arg_counts(name: &str, default: &[usize]) -> Vec<usize> {
    match arg_value(name) {
        None => default.to_vec(),
        Some(v) => {
            let counts: Vec<usize> = v
                .split(',')
                .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("bad count in {name}: {s:?}")))
                .collect();
            assert!(!counts.is_empty(), "{name} needs at least one count");
            counts
        }
    }
}

/// Thread-count series for a scaling bench: `--threads 1,2,4,8` when
/// given, `default` otherwise.
pub fn thread_series(default: &[usize]) -> Vec<usize> {
    arg_counts("--threads", default)
}

/// Resident set size of this process in KiB (`VmRSS` from
/// `/proc/self/status`), or 0 where `/proc` is absent.
pub fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Measured wall-clock store throughput in Mops: `threads` OS threads,
/// each attached to its own tenant pool context and issuing
/// line-granularity stores through its own core's cache against a
/// `shards`-way interleaved device, ending in one per-tenant persist.
///
/// This is the *real-thread* fig2b series: no event model, no virtual
/// clock — just the `Send + Sync` [`PaxPool`] under `std::thread` and an
/// [`std::time::Instant`]. The device traces at its shipped capacity
/// (each thread's tenant records into its own lanes' rings), and the
/// working set per thread exceeds the host cache share so stores keep
/// reaching the device's lanes.
///
/// # Panics
///
/// Panics on simulation errors (they indicate harness bugs, not results).
pub fn measure_threaded_store_mops(threads: usize, shards: usize, ops_per_thread: u64) -> f64 {
    let config = PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(64 << 20).with_log_bytes(128 << 20))
        .with_cores(threads)
        .with_tenants(threads)
        .with_auto_persist_on_log_full()
        .with_device(
            DeviceConfig::default()
                .with_shards(shards)
                // Pump the undo banks in large, infrequent batches: same
                // per-entry durable work, far fewer acquisitions of the
                // global media lock on the store path.
                .with_log_pump_batch(32)
                .with_log_pump_interval(32),
        );
    let pool = PaxPool::create(config).expect("pool creation cannot fail with valid config");
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let tenant = pool.attach(t).expect("attach");
            s.spawn(move || {
                let vpm = tenant.vpm_for_core(t);
                let lines = tenant.vpm_bytes() / LINE_SIZE as u64;
                // 4× the 64 KiB host cache per thread, so the stream keeps
                // evicting into the device instead of parking in the cache.
                let working_set = 4 * (64 << 10) / LINE_SIZE as u64;
                let span = working_set.min(lines);
                for i in 0..ops_per_thread {
                    // A fixed odd stride walks the whole span co-prime to
                    // any power-of-two set count.
                    let line = (i * 17) % span;
                    vpm.write_u64(line * LINE_SIZE as u64, i).expect("store");
                }
                tenant.persist().expect("persist");
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads as u64 * ops_per_thread) as f64 / secs / 1e6
}

/// Prints a fixed-width table; first row is the header.
pub fn print_table(rows: &[Vec<String>]) {
    if rows.is_empty() {
        return;
    }
    let cols = rows[0].len();
    let widths: Vec<usize> = (0..cols)
        .map(|c| rows.iter().map(|r| r.get(c).map_or(0, |s| s.chars().count())).max().unwrap_or(0))
        .collect();
    for (i, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(cell, w)| {
                let pad = w.saturating_sub(cell.chars().count());
                format!("{}{}", " ".repeat(pad), cell)
            })
            .collect();
        println!("  {}", line.join("  "));
        if i == 0 {
            let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            println!("  {}", rule.join("  "));
        }
    }
}

/// Renders `value` as a horizontal bar of `max_width` scaled to `max`.
pub fn bar(value: f64, max: f64, max_width: usize) -> String {
    let n = if max <= 0.0 { 0 } else { ((value / max) * max_width as f64).round() as usize };
    "█".repeat(n.min(max_width))
}

/// A pool sized for workload measurement, with a 22 MiB host cache.
pub fn workload_pool(data_bytes: usize) -> PaxPool {
    let config = PaxConfig::default()
        .with_pool(PoolConfig::small().with_data_bytes(data_bytes).with_log_bytes(8 << 20))
        .with_cache(CacheConfig::tiny((22 << 20) / 64, 11));
    PaxPool::create(config).expect("pool creation cannot fail with valid config")
}

/// A [`MemSpace`] that runs every line an access touches through a
/// tag-only L1/L2/LLC [`Hierarchy`] before it delegates — Fig. 2a's
/// miss-rate instrument, kept off the pool's own access path. Clones
/// share the hierarchy.
#[derive(Debug, Clone)]
pub(crate) struct Instrumented<S> {
    space: S,
    hier: Arc<Mutex<Hierarchy>>,
}

impl<S: MemSpace> Instrumented<S> {
    /// Wraps `space` with an empty hierarchy of geometry `config`.
    fn new(space: S, config: HierarchyConfig) -> Self {
        Instrumented { space, hier: Arc::new(Mutex::new(Hierarchy::new(config))) }
    }

    /// The hierarchy's cumulative per-level statistics.
    fn stats(&self) -> HierarchyStats {
        self.hier.lock().expect("hierarchy lock").stats()
    }

    fn touch(&self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let mut hier = self.hier.lock().expect("hierarchy lock");
        let line = LINE_SIZE as u64;
        for l in (addr / line..=(addr + len as u64 - 1) / line).map(pax_pm::LineAddr) {
            hier.access(l);
        }
    }
}

impl<S: MemSpace> MemSpace for Instrumented<S> {
    fn read_bytes(&self, addr: u64, buf: &mut [u8]) -> libpax::Result<()> {
        self.touch(addr, buf.len());
        self.space.read_bytes(addr, buf)
    }

    fn write_bytes(&self, addr: u64, data: &[u8]) -> libpax::Result<()> {
        self.touch(addr, data.len());
        self.space.write_bytes(addr, data)
    }

    fn capacity_bytes(&self) -> u64 {
        self.space.capacity_bytes()
    }
}

/// Runs `spec` against a `PHashMap` on the given space; returns ops run.
/// `measure_from` is called once the map is attached (and preloaded),
/// right before the first op, so callers can exclude that setup.
///
/// # Panics
///
/// Panics on simulation errors (they indicate harness bugs, not results).
pub fn run_workload<S: MemSpace>(
    space: S,
    spec: &WorkloadSpec,
    measure_from: impl FnOnce(),
) -> u64 {
    let alloc = BitmapAlloc::attach(space).expect("allocator attach");
    let map: PHashMap<u64, u64, S> = PHashMap::attach(alloc).expect("map attach");
    // Preload so reads hit (the paper's read benchmarks run on a loaded
    // table).
    if spec.mix.read_pct > 0 || spec.mix.update_pct > 0 {
        for k in spec.load_keys() {
            map.insert(k, k).expect("load");
        }
    }
    measure_from();
    let mut n = 0;
    for op in spec.ops() {
        match op {
            Op::Get(k) => {
                map.get(k).expect("get");
            }
            Op::Insert(k, v) | Op::Update(k, v) => {
                map.insert(k, v).expect("insert");
            }
            Op::Remove(k) => {
                map.remove(k).expect("remove");
            }
        }
        n += 1;
    }
    n
}

/// Measures Fig. 2a's miss rates: uniform-random `get()`s with 8 B
/// keys/values on a preloaded table, returning the hierarchy statistics
/// of the *measurement phase only* plus the device's event counters
/// after persisting the loaded table (so the figure's JSON captures the
/// run's snoop traffic, including the directory-elided share). The
/// hierarchy is the 1/64-scaled c6420 (`HierarchyConfig::c6420_scaled`)
/// so the scaled-down key space produces c6420-like miss rates.
pub fn measure_fig2a_miss_rates(keys: u64, ops: u64) -> (HierarchyStats, DeviceMetrics) {
    let pool = workload_pool(64 << 20);
    let vpm = Instrumented::new(pool.vpm(), HierarchyConfig::c6420_scaled());
    let spec = WorkloadSpec::fig2a_read_only(keys, 0);
    // Load phase (not measured):
    run_workload(vpm.clone(), &spec, || ());

    // Measurement phase, counted from after the re-attach (the
    // allocator's attach scans its whole bitmap):
    let spec = WorkloadSpec::fig2a_read_only(keys, ops);
    let map: PHashMap<u64, u64, _> =
        PHashMap::attach(BitmapAlloc::attach(vpm.clone()).expect("allocator")).expect("map");
    let loaded = vpm.stats();
    for op in spec.ops() {
        if let Op::Get(k) = op {
            map.get(k).expect("get");
        }
    }
    let total = vpm.stats();
    // Close the load epoch so the snoop counters reflect a full persist.
    pool.persist().expect("persist");
    let metrics = pool.device_metrics().expect("metrics");
    (subtract_stats(total, loaded), metrics)
}

fn subtract_stats(a: HierarchyStats, b: HierarchyStats) -> HierarchyStats {
    use pax_cache::LevelStats;
    let sub = |x: LevelStats, y: LevelStats| LevelStats {
        accesses: x.accesses - y.accesses,
        hits: x.hits - y.hits,
    };
    HierarchyStats { l1: sub(a.l1, b.l1), l2: sub(a.l2, b.l2), llc: sub(a.llc, b.llc) }
}

/// Measures the per-op event profile for write-only inserts by running
/// the functional device simulation, for use by the Fig. 2b recipes.
pub fn measure_insert_profile(keys: u64, ops: u64) -> pax_exec::OpProfile {
    let pool = workload_pool(64 << 20);
    let spec = WorkloadSpec::fig2b_write_only(keys, ops);
    // Counted from after the attach, which formats the allocator.
    let before = std::cell::Cell::new(pax_cache::CacheStats::default());
    let n = run_workload(pool.vpm(), &spec, || before.set(pool.cache_stats()));
    let (cache, before) = (pool.cache_stats(), before.get());
    let upgrades = cache.write_upgrades - before.write_upgrades;
    let misses = (cache.read_misses - before.read_misses + upgrades) as f64 / n as f64;
    let stores = upgrades as f64 / n as f64;
    pax_exec::OpProfile { misses_per_op: misses, stores_per_op: stores, compute_ns: 60 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn instrumentation_counts_accesses() {
        let vpm = Instrumented::new(workload_pool(1 << 20).vpm(), HierarchyConfig::c6420());
        vpm.write_u64(0, 1).unwrap();
        vpm.read_u64(0).unwrap();
        assert_eq!(vpm.stats().total_accesses(), 2);
        // A read spanning two lines touches both; an empty one, none.
        vpm.read_bytes(60, &mut [0u8; 8]).unwrap();
        vpm.read_bytes(60, &mut []).unwrap();
        assert_eq!(vpm.stats().total_accesses(), 4);
        assert_eq!(vpm.stats().l1.hits, 2, "line 0 hits twice");
    }

    #[test]
    fn fig2a_miss_rates_are_plausible() {
        let (s, m) = measure_fig2a_miss_rates(2_000, 4_000);
        assert!(s.total_accesses() > 0);
        // Uniform random gets over a table larger than L1 must miss some.
        assert!(s.l1.miss_ratio() > 0.01, "L1 miss {}", s.l1.miss_ratio());
        assert!(s.l1.miss_ratio() < 1.0);
        // The load epoch persisted, so snoop accounting is live.
        assert!(m.persists >= 1);
        assert_eq!(m.dir_hits + m.dir_filtered_snoops, m.undo_entries);
    }

    #[test]
    fn insert_profile_is_measured_not_invented() {
        let p = measure_insert_profile(500, 1_000);
        assert!(p.misses_per_op > 0.0);
        assert!(p.stores_per_op > 0.0);
        assert!(p.stores_per_op < 50.0);
    }
}
