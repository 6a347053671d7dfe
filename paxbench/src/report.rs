//! Turns a [`RunResult`] into named metrics with units, and prints them.

use crate::run::{peak_rss_mib, RunResult};
use crate::stats::{least_disturbed, median, quantile_of, Histogram};
use crate::trace::{Kind, LayerTimes};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and percentile actually used, for timings.
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit, note: String::new() }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A timing in microseconds from one series: its median, or, with
/// `tail`, the 99th percentile when at least ten samples lie beyond it,
/// else the highest percentile that has ten (see
/// [`crate::stats::tail_percentile`]).
fn timing(name: &str, h: &Histogram, tail: bool) -> Metric {
    let sum = h.summary();
    let (value, note) = if tail {
        (sum.tail_ns, format!("n={}, reported percentile p{:.2}", sum.count, sum.tail_pct))
    } else {
        (sum.p50_ns, format!("n={}", sum.count))
    };
    Metric { name: name.into(), value: value / 1e3, unit: "us", note }
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let rates = r.slice_rates();
    vec![
        Metric {
            name: "ops_per_s".into(),
            value: r.ops_per_s(),
            unit: "1/s",
            note: format!(
                "{} ops; {} slices, rates min {:.0} median {:.0} max {:.0}",
                r.ops,
                rates.len(),
                quantile_of(&rates, 0.0),
                median(&rates),
                quantile_of(&rates, 1.0)
            ),
        },
        Metric {
            name: "write_amp".into(),
            value: ratio(r.counters.get("media.line_writes") * 64, r.user_bytes),
            unit: "B/B",
            note: format!("media bytes written / {} user key+value bytes", r.user_bytes),
        },
        Metric {
            name: "setup_s".into(),
            value: least_disturbed(&r.setup_s),
            unit: "s",
            note: format!("fastest of n={}, median {:.3}", r.setup_s.len(), median(&r.setup_s)),
        },
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Timings every untraced run prints but `BENCHMARK.json` does not
/// bound: on the shared 2-core host the benchmark was written on, their
/// spread over ten seeds reached 12–28%, past or near the largest bound
/// (25%) a metric may have.
pub fn unbounded(r: &RunResult) -> Vec<Metric> {
    let mut m = vec![Metric {
        name: "recover_ms".into(),
        value: least_disturbed(&r.recover_ms),
        unit: "ms",
        note: format!("fastest of n={}, median {:.3}", r.recover_ms.len(), median(&r.recover_ms)),
    }];
    for (pct, tail) in [("p50", false), ("p99", true)] {
        for (series, h) in [("read", &r.read), ("write", &r.write), ("persist", &r.persist)] {
            m.push(timing(&format!("{series}_{pct}_us"), h, tail));
        }
    }
    m
}

/// Correctness figures every run prints; they are zero on a correct run,
/// so they travel in `correct` / `failed` rather than as bounded metrics.
pub fn correctness(r: &RunResult) -> Vec<Metric> {
    vec![
        Metric {
            name: "lost_committed_records".into(),
            value: r.lost_committed_records as f64,
            unit: "count",
            note: format!(
                "{} keys read back over {} crashes",
                r.oracle_checked,
                r.recover_ms.len()
            ),
        },
        metric("failed_op_ratio", ratio(r.failed, r.ops), "ratio"),
    ]
}

fn p50(h: &Histogram, div: f64) -> f64 {
    h.quantile(0.5) / div
}

fn med_of(values: impl Iterator<Item = usize>) -> f64 {
    median(&values.map(|v| v as f64).collect::<Vec<_>>())
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
///
/// # Panics
///
/// Panics when `r` is not from a traced run.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let l = r.layers.as_ref().expect("per-layer metrics need a traced run");
    let setup = r.setup_layers.clone().unwrap_or_default();
    let c = |k: &str| r.counters.get(k);
    let ops = r.ops;
    let persists = c("device.persists");
    let traced_ns = r.traced_s * 1e9;
    let share = |ns: u64| if traced_ns > 0.0 { ns as f64 / traced_ns } else { 0.0 };
    // Allocator timings cover the set-up too: on `kv_update` the
    // allocator only works there.
    let mut allocs = LayerTimes::default();
    allocs.merge(&setup);
    allocs.merge(l);
    let window_allocs = l.calls(Kind::Alloc);
    let self_sum = |kinds: &[Kind]| kinds.iter().map(|&k| l.self_total(k)).sum::<u64>();
    let set_up_included = |mut m: Metric| {
        m.note.push_str(" (set-up included)");
        m
    };

    vec![
        metric("structures.op_self_us_p50", p50(l.series(Kind::Op), 1e3), "us"),
        metric(
            "structures.space_calls_per_op",
            ratio(
                l.calls_in_op(Kind::SpaceRead) + l.calls_in_op(Kind::SpaceWrite),
                l.calls(Kind::Op),
            ),
            "1/op",
        ),
        metric("structures.self_share", share(l.self_total(Kind::Op)), "ratio"),
        set_up_included(timing("balloc.alloc_us_p50", allocs.series(Kind::Alloc), false)),
        set_up_included(timing("balloc.alloc_us_p99", allocs.series(Kind::Alloc), true)),
        set_up_included(timing("balloc.free_us_p50", allocs.series(Kind::Free), false)),
        metric(
            "balloc.scan_frames_per_alloc",
            ratio(c("alloc.alloc_scan_frames"), window_allocs),
            "frames",
        ),
        metric("balloc.tree_steals", c("alloc.alloc_tree_steals") as f64, "count"),
        metric("balloc.frag_permille", r.frag_permille as f64, "permille"),
        metric("balloc.attach_ms", p50(l.top_series(Kind::AttachAlloc), 1e6), "ms"),
        metric("balloc.self_share", share(self_sum(&[Kind::Alloc, Kind::Free])), "ratio"),
        timing("pool.space_read_us_p50", l.series(Kind::SpaceRead), false),
        timing("pool.space_write_us_p50", l.series(Kind::SpaceWrite), false),
        timing("pool.space_write_us_p99", l.series(Kind::SpaceWrite), true),
        metric("pool.space_share", share(self_sum(&[Kind::SpaceRead, Kind::SpaceWrite])), "ratio"),
        metric("pool.persist_share", share(l.self_total(Kind::Persist)), "ratio"),
        metric("pool.open_ms", p50(l.top_series(Kind::Open), 1e6), "ms"),
        metric(
            "pool.recovery_share",
            share(self_sum(&[Kind::Open, Kind::AttachAlloc, Kind::AttachMap])),
            "ratio",
        ),
        metric(
            "cache.read_miss_ratio",
            ratio(
                c("host_cache.read_misses"),
                c("host_cache.read_hits") + c("host_cache.read_misses"),
            ),
            "ratio",
        ),
        metric("cache.write_upgrades_per_op", ratio(c("host_cache.write_upgrades"), ops), "1/op"),
        metric("cache.dirty_evictions_per_op", ratio(c("host_cache.dirty_evictions"), ops), "1/op"),
        metric("device.rd_own_per_op", ratio(c("device.rd_own"), ops), "1/op"),
        metric("device.rd_shared_per_op", ratio(c("device.rd_shared"), ops), "1/op"),
        metric("device.undo_entries_per_op", ratio(c("device.undo_entries"), ops), "1/op"),
        metric(
            "device.hbm_hit_ratio",
            ratio(c("device.hbm_read_hits"), c("device.hbm_read_hits") + c("device.pm_reads")),
            "ratio",
        ),
        metric("device.pm_reads_per_op", ratio(c("device.pm_reads"), ops), "1/op"),
        metric("device.snoops_per_persist", ratio(c("device.snoops_sent"), persists), "1/persist"),
        metric(
            "device.snoop_yield",
            ratio(c("device.snoop_data_returned"), c("device.snoops_sent")),
            "ratio",
        ),
        metric(
            "device.dir_filter_ratio",
            ratio(
                c("device.dir_filtered_snoops"),
                c("device.dir_filtered_snoops") + c("device.dir_hits"),
            ),
            "ratio",
        ),
        metric(
            "device.writebacks_per_persist",
            ratio(c("device.device_writebacks"), persists),
            "1/persist",
        ),
        metric(
            "device.wb_batches_per_persist",
            ratio(c("device.wb_batches"), persists),
            "1/persist",
        ),
        metric("device.forced_log_flushes", c("device.forced_log_flushes") as f64, "count"),
        metric("device.recovery.scanned", med_of(r.recovery.iter().map(|rr| rr.scanned)), "count"),
        metric(
            "device.recovery.rolled_back",
            med_of(r.recovery.iter().map(|rr| rr.rolled_back)),
            "count",
        ),
        metric("cxl.messages_per_op", ratio(c("cxl.messages"), ops), "1/op"),
        metric("cxl.data_bytes_per_op", ratio(c("cxl.data_bytes"), ops), "B/op"),
        metric("media.line_writes_per_op", ratio(c("media.line_writes"), ops), "1/op"),
        metric("media.line_reads_per_op", ratio(c("media.line_reads"), ops), "1/op"),
        metric("harness.oracle_share", share(l.self_total(Kind::Oracle)), "ratio"),
        metric(
            "harness.unattributed_share",
            if traced_ns > 0.0 { (traced_ns - l.top_total() as f64) / traced_ns } else { 0.0 },
            "ratio",
        ),
        metric("harness.traced_ops_per_s", r.ops_per_s(), "1/s"),
        metric("harness.untraced_ops_per_s", r.untraced_ops_per_s.unwrap_or(0.0), "1/s"),
        metric(
            "harness.tracing_overhead",
            r.untraced_ops_per_s.map_or(0.0, |u| 1.0 - r.ops_per_s() / u),
            "ratio",
        ),
    ]
}

/// A JSON number with every digit the value has (non-finite values,
/// which JSON cannot hold, print as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Human-readable lines: the workload's configuration, then each metric
/// with its unit and sample note.
pub fn human(r: &RunResult, metrics: &[Metric]) -> Vec<String> {
    let mut out = vec![format!("workload {}", r.workload)];
    for (k, v) in &r.config {
        out.push(format!("  config {k} = {v}"));
    }
    out.push(format!("  config host_cores = {}", crate::run::host_cores()));
    for m in metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        out.push(format!("  {:<34} {:>16.4} {}{}", m.name, m.value, m.unit, note));
    }
    out
}
