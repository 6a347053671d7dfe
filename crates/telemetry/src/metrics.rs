//! Named counter / histogram registry with snapshot, diff, and merge.
//!
//! Counter and histogram *slots* are atomics: once a handle is
//! registered, recording through it takes `&self`, so components shared
//! across OS threads (the concurrent `PaxPool` hot path) account events
//! without a lock. Registration ([`MetricSet::counter`] /
//! [`MetricSet::histogram`]) still takes `&mut self` — components
//! register at construction, before the set is shared.
//!
//! All slot updates use relaxed ordering: metrics are statistics, not
//! synchronization. A snapshot taken while other threads record is
//! internally consistent per counter but is not a cross-counter fence;
//! conservation-law checks should snapshot at quiescent points.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Handle to a counter slot in a [`MetricSet`].
///
/// Handles are plain indices: incrementing through one is an array add,
/// with no name lookup on the hot path. A handle is only meaningful for
/// the set that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u32);

/// Handle to a histogram slot in a [`MetricSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram(u32);

/// Power-of-two bucket count: bucket `i` holds values whose bit length
/// is `i`, i.e. bucket 0 is exactly zero, bucket 1 is `1`, bucket 2 is
/// `2..=3`, and so on up to bucket 64.
const BUCKETS: usize = 65;

#[derive(Debug)]
struct Hist {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Hist {
    fn new() -> Self {
        Hist {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating add via a CAS loop; overflow is astronomically rare
        // but the non-atomic code saturated, so this does too.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(value);
            match self.sum.compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(cur) => sum = cur,
            }
        }
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[(64 - value.leading_zeros()) as usize].fetch_add(1, Ordering::Relaxed);
    }
}

impl Clone for Hist {
    fn clone(&self) -> Self {
        Hist {
            count: AtomicU64::new(self.count.load(Ordering::Relaxed)),
            sum: AtomicU64::new(self.sum.load(Ordering::Relaxed)),
            min: AtomicU64::new(self.min.load(Ordering::Relaxed)),
            max: AtomicU64::new(self.max.load(Ordering::Relaxed)),
            buckets: std::array::from_fn(|i| {
                AtomicU64::new(self.buckets[i].load(Ordering::Relaxed))
            }),
        }
    }
}

/// A component-owned registry of named counters and histograms.
///
/// Each simulated component (`pm`, `cxl`, `host_cache`, `device`, …)
/// owns exactly one set; the component's legacy typed stats structs are
/// derived views over it, so there is a single copy of every number.
///
/// Recording is `&self` (atomic slots, see module docs) so a set shared
/// behind an `Arc` or embedded in a `Sync` component stays lock-free on
/// the hot path.
#[derive(Debug)]
pub struct MetricSet {
    component: &'static str,
    counter_names: Vec<&'static str>,
    counters: Vec<AtomicU64>,
    histogram_names: Vec<&'static str>,
    histograms: Vec<Hist>,
    /// Times [`MetricSet::sub`] would have driven a counter below zero.
    /// A nonzero value is an accounting bug in the instrumented component
    /// — saturation used to clamp it silently; now debug builds assert
    /// and every build surfaces the count as a synthetic
    /// `metric_underflows` counter in [`MetricSet::snapshot`].
    underflows: AtomicU64,
}

impl Clone for MetricSet {
    fn clone(&self) -> Self {
        MetricSet {
            component: self.component,
            counter_names: self.counter_names.clone(),
            counters: self
                .counters
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            histogram_names: self.histogram_names.clone(),
            histograms: self.histograms.clone(),
            underflows: AtomicU64::new(self.underflows.load(Ordering::Relaxed)),
        }
    }
}

impl MetricSet {
    /// An empty set for the named component.
    pub fn new(component: &'static str) -> Self {
        MetricSet {
            component,
            counter_names: Vec::new(),
            counters: Vec::new(),
            histogram_names: Vec::new(),
            histograms: Vec::new(),
            underflows: AtomicU64::new(0),
        }
    }

    /// The component name this set was created with.
    pub fn component(&self) -> &'static str {
        self.component
    }

    /// Registers (or re-finds) a counter and returns its handle.
    pub fn counter(&mut self, name: &'static str) -> Counter {
        if let Some(i) = self.counter_names.iter().position(|n| *n == name) {
            return Counter(i as u32);
        }
        self.counter_names.push(name);
        self.counters.push(AtomicU64::new(0));
        Counter((self.counters.len() - 1) as u32)
    }

    /// Registers (or re-finds) a histogram and returns its handle.
    pub fn histogram(&mut self, name: &'static str) -> Histogram {
        if let Some(i) = self.histogram_names.iter().position(|n| *n == name) {
            return Histogram(i as u32);
        }
        self.histogram_names.push(name);
        self.histograms.push(Hist::new());
        Histogram((self.histograms.len() - 1) as u32)
    }

    /// Adds one to a counter.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.counters[c.0 as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, delta: u64) {
        self.counters[c.0 as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts `delta` from a counter, saturating at zero.
    ///
    /// Counters are monotone by convention; this exists for the handful
    /// of *occupancy gauges* (e.g. directory residency) that must go
    /// down as well as up. Saturation keeps a missed decrement from
    /// wrapping into an absurdly large value — but an underflow is still
    /// a conservation bug in the caller, so it is **not** silent: debug
    /// builds `debug_assert!`, and every build counts the event into the
    /// synthetic `metric_underflows` counter that
    /// [`MetricSet::snapshot`] emits whenever it is nonzero.
    #[inline]
    pub fn sub(&self, c: Counter, delta: u64) {
        let slot = &self.counters[c.0 as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(delta);
            match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    // Judged on the value the exchange actually replaced,
                    // so a racing add can't produce a phantom underflow.
                    if cur < delta {
                        self.underflows.fetch_add(1, Ordering::Relaxed);
                        debug_assert!(
                            false,
                            "metric underflow: {}/{} at {} minus {}",
                            self.component, self.counter_names[c.0 as usize], cur, delta
                        );
                    }
                    break;
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Overwrites a counter with `value` — for mirroring a count another
    /// structure keeps in its own atomics. Idempotent, so concurrent
    /// mirrors of the same source cannot double-count.
    #[inline]
    pub fn set(&self, c: Counter, value: u64) {
        self.counters[c.0 as usize].store(value, Ordering::Relaxed);
    }

    /// Current value of a counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.0 as usize].load(Ordering::Relaxed)
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn record(&self, h: Histogram, value: u64) {
        self.histograms[h.0 as usize].record(value);
    }

    /// An owned, point-in-time copy of every metric in the set. A set
    /// that has ever underflowed additionally reports a synthetic
    /// `metric_underflows` counter, so release-build accounting bugs
    /// show up in dumps instead of being clamped away.
    pub fn snapshot(&self) -> MetricSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counter_names
            .iter()
            .zip(&self.counters)
            .map(|(n, v)| (n.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let underflows = self.underflows.load(Ordering::Relaxed);
        if underflows > 0 {
            counters.push(("metric_underflows".to_string(), underflows));
        }
        MetricSnapshot {
            component: self.component.to_string(),
            counters,
            histograms: self
                .histogram_names
                .iter()
                .zip(&self.histograms)
                .map(|(n, h)| {
                    let count = h.count.load(Ordering::Relaxed);
                    (
                        n.to_string(),
                        HistogramSnapshot {
                            count,
                            sum: h.sum.load(Ordering::Relaxed),
                            min: if count == 0 { 0 } else { h.min.load(Ordering::Relaxed) },
                            max: h.max.load(Ordering::Relaxed),
                            buckets: h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Saturating sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Power-of-two buckets; index = bit length of the value.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the
    /// power-of-two bucket that holds it, clamped to `[min, max]`; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { u64::MAX >> (64 - i) };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field("count", Json::U64(self.count))
            .field("sum", Json::U64(self.sum))
            .field("min", Json::U64(self.min))
            .field("max", Json::U64(self.max))
            .field("mean", Json::F64(self.mean()))
            .field("p50", Json::U64(self.quantile(0.5)))
            .field("p99", Json::U64(self.quantile(0.99)))
    }
}

/// Point-in-time copy of one component's [`MetricSet`].
///
/// Snapshots support `diff` (what happened between two points) and
/// `merge` (combine parallel components), which together give interval
/// accounting without any extra state in the components themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Component name the metrics belong to.
    pub component: String,
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricSnapshot {
    /// An empty snapshot for a named component (useful as a merge seed).
    pub fn empty(component: impl Into<String>) -> Self {
        MetricSnapshot { component: component.into(), counters: Vec::new(), histograms: Vec::new() }
    }

    /// Value of a named counter; 0 when the counter is absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// A named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// All counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Counters accumulated since `earlier` (saturating, so a component
    /// reset between snapshots reads as zero rather than wrapping).
    /// Histograms are not intervals and are dropped from the diff.
    pub fn diff(&self, earlier: &MetricSnapshot) -> MetricSnapshot {
        MetricSnapshot {
            component: self.component.clone(),
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n))))
                .collect(),
            histograms: Vec::new(),
        }
    }

    /// Sum of this snapshot and `other`, counter by counter. Counters
    /// present in only one side are kept; histograms are combined
    /// bucket-wise.
    pub fn merge(&self, other: &MetricSnapshot) -> MetricSnapshot {
        let mut counters = self.counters.clone();
        for (name, v) in &other.counters {
            match counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => counters.push((name.clone(), *v)),
            }
        }
        let mut histograms = self.histograms.clone();
        for (name, h) in &other.histograms {
            match histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                    mine.min = if mine.count == 0 { 0 } else { mine.min.min(h.min) };
                    mine.max = mine.max.max(h.max);
                    for (a, b) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *a += b;
                    }
                }
                None => histograms.push((name.clone(), h.clone())),
            }
        }
        MetricSnapshot { component: self.component.clone(), counters, histograms }
    }

    /// Merges `other` into this snapshot under a per-source label.
    ///
    /// Every counter `name` of `other` is added as `label/name`
    /// **only** — the plain name is untouched, so labeled rollups
    /// compose with the plain [`merge`](MetricSnapshot::merge) totals
    /// without double counting: after
    /// `total.merge(&s).merge_labeled("shard0", &s)` the conservation
    /// law `sum over labels of "label/name" == counter(name)` holds.
    /// Histograms keep their identity the same way (`label/name`).
    pub fn merge_labeled(&self, label: &str, other: &MetricSnapshot) -> MetricSnapshot {
        let mut counters = self.counters.clone();
        for (name, v) in &other.counters {
            let labeled = format!("{label}/{name}");
            match counters.iter_mut().find(|(n, _)| *n == labeled) {
                Some((_, mine)) => *mine += v,
                None => counters.push((labeled, *v)),
            }
        }
        let mut histograms = self.histograms.clone();
        for (name, h) in &other.histograms {
            let labeled = format!("{label}/{name}");
            match histograms.iter_mut().find(|(n, _)| *n == labeled) {
                Some((_, mine)) => {
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                    mine.min = if mine.count == 0 { 0 } else { mine.min.min(h.min) };
                    mine.max = mine.max.max(h.max);
                    for (a, b) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *a += b;
                    }
                }
                None => histograms.push((labeled, h.clone())),
            }
        }
        MetricSnapshot { component: self.component.clone(), counters, histograms }
    }

    /// Renders the snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (n, v) in &self.counters {
            counters = counters.field(n, Json::U64(*v));
        }
        let mut out = Json::obj().field("component", Json::str(&self.component));
        out = out.field("counters", counters);
        if !self.histograms.is_empty() {
            let mut hists = Json::obj();
            for (n, h) in &self.histograms {
                hists = hists.field(n, h.to_json());
            }
            out = out.field("histograms", hists);
        }
        out
    }
}

/// A cross-layer snapshot: one [`MetricSnapshot`] per component, in
/// stack order (host cache first, media last). This is what
/// `PaxPool::telemetry()` hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-component snapshots in stack order.
    pub components: Vec<MetricSnapshot>,
}

impl TelemetrySnapshot {
    /// A snapshot over the given components.
    pub fn new(components: Vec<MetricSnapshot>) -> Self {
        TelemetrySnapshot { components }
    }

    /// The snapshot for a named component, when present.
    pub fn component(&self, name: &str) -> Option<&MetricSnapshot> {
        self.components.iter().find(|c| c.component == name)
    }

    /// Shorthand: counter `name` in component `component`, else 0.
    pub fn counter(&self, component: &str, name: &str) -> u64 {
        self.component(component).map_or(0, |c| c.counter(name))
    }

    /// Component-wise diff against an earlier cross-layer snapshot.
    pub fn diff(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            components: self
                .components
                .iter()
                .map(|c| match earlier.component(&c.component) {
                    Some(e) => c.diff(e),
                    None => c.clone(),
                })
                .collect(),
        }
    }

    /// Renders the snapshot as a JSON object keyed by component name.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        for c in &self.components {
            out = out.field(&c.component, c.to_json());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> (MetricSet, Counter, Counter) {
        let mut ms = MetricSet::new("dev");
        let a = ms.counter("reads");
        let b = ms.counter("writes");
        (ms, a, b)
    }

    #[test]
    fn registering_twice_returns_same_slot() {
        let (mut ms, a, _) = sample_set();
        assert_eq!(ms.counter("reads"), a);
        ms.inc(a);
        assert_eq!(ms.snapshot().counter("reads"), 1);
    }

    #[test]
    fn sub_decrements_gauges() {
        let (ms, a, _) = sample_set();
        ms.add(a, 3);
        ms.sub(a, 2);
        assert_eq!(ms.get(a), 1);
        ms.sub(a, 1);
        assert_eq!(ms.get(a), 0);
        assert_eq!(
            ms.snapshot().counter("metric_underflows"),
            0,
            "exact accounting trips no alarm"
        );
    }

    /// Underflow is a caller-side conservation bug: debug builds assert,
    /// release builds saturate but count the event and surface it as a
    /// synthetic `metric_underflows` counter in snapshots.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "metric underflow"))]
    fn sub_underflow_is_loud() {
        let (ms, a, _) = sample_set();
        ms.add(a, 3);
        ms.sub(a, 5);
        assert_eq!(ms.get(a), 0, "still saturates instead of wrapping");
        assert_eq!(ms.snapshot().counter("metric_underflows"), 1);
    }

    #[test]
    fn snapshot_diff_isolates_an_interval() {
        let (ms, a, b) = sample_set();
        ms.add(a, 10);
        let before = ms.snapshot();
        ms.add(a, 5);
        ms.inc(b);
        let delta = ms.snapshot().diff(&before);
        assert_eq!(delta.counter("reads"), 5);
        assert_eq!(delta.counter("writes"), 1);
    }

    #[test]
    fn diff_saturates_instead_of_wrapping() {
        let (ms, a, _) = sample_set();
        ms.add(a, 7);
        let high = ms.snapshot();
        let fresh = MetricSet::new("dev").snapshot();
        assert_eq!(fresh.diff(&high).counter("reads"), 0);
    }

    #[test]
    fn merge_adds_shared_and_keeps_disjoint_counters() {
        let (ms1, a, _) = sample_set();
        ms1.add(a, 3);
        let mut ms2 = MetricSet::new("dev");
        let r = ms2.counter("reads");
        let e = ms2.counter("evicts");
        ms2.add(r, 4);
        ms2.inc(e);
        let merged = ms1.snapshot().merge(&ms2.snapshot());
        assert_eq!(merged.counter("reads"), 7);
        assert_eq!(merged.counter("writes"), 0);
        assert_eq!(merged.counter("evicts"), 1);
    }

    #[test]
    fn merge_labeled_preserves_source_identity_and_conserves_totals() {
        let mut shard0 = MetricSet::new("dev");
        let r0 = shard0.counter("reads");
        shard0.add(r0, 3);
        let mut shard1 = MetricSet::new("dev");
        let r1 = shard1.counter("reads");
        shard1.add(r1, 4);

        // The rollup pattern: plain merge for totals, labeled merge for
        // per-source breakdown, on the same snapshot.
        let mut total = MetricSnapshot::empty("dev");
        for (i, s) in [&shard0, &shard1].iter().enumerate() {
            let snap = s.snapshot();
            total = total.merge(&snap);
            total = total.merge_labeled(&format!("shard{i}"), &snap);
        }
        assert_eq!(total.counter("shard0/reads"), 3);
        assert_eq!(total.counter("shard1/reads"), 4);
        // Conservation: labeled parts sum to the plain total.
        assert_eq!(
            total.counter("shard0/reads") + total.counter("shard1/reads"),
            total.counter("reads")
        );
    }

    #[test]
    fn merge_labeled_keeps_histogram_identity() {
        let mut ms = MetricSet::new("dev");
        let h = ms.histogram("batch");
        ms.record(h, 8);
        let labeled = MetricSnapshot::empty("dev").merge_labeled("t0", &ms.snapshot());
        assert!(labeled.histogram("batch").is_none());
        assert_eq!(labeled.histogram("t0/batch").unwrap().count, 1);
    }

    #[test]
    fn histogram_tracks_count_sum_extrema() {
        let mut ms = MetricSet::new("dev");
        let h = ms.histogram("batch");
        for v in [1u64, 2, 3, 100] {
            ms.record(h, v);
        }
        let snap = ms.snapshot();
        let hist = snap.histogram("batch").unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 106);
        assert_eq!(hist.min, 1);
        assert_eq!(hist.max, 100);
        assert!((hist.mean() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_come_from_the_buckets() {
        let mut ms = MetricSet::new("dev");
        let h = ms.histogram("batch");
        assert_eq!(ms.snapshot().histogram("batch").unwrap().quantile(0.5), 0);
        for v in [1u64, 2, 3, 100] {
            ms.record(h, v);
        }
        let snap = ms.snapshot();
        let hist = snap.histogram("batch").unwrap();
        // p50 falls in the 2..=3 bucket; p99 in 64..=127, clamped to max.
        assert_eq!((hist.quantile(0.5), hist.quantile(0.99)), (3, 100));
        let json = snap.to_json().render();
        assert!(json.contains("\"p50\":3") && json.contains("\"p99\":100"), "{json}");
    }

    #[test]
    fn telemetry_snapshot_lookup_and_diff() {
        let (ms, a, _) = sample_set();
        ms.add(a, 2);
        let t0 = TelemetrySnapshot::new(vec![ms.snapshot()]);
        ms.add(a, 3);
        let t1 = TelemetrySnapshot::new(vec![ms.snapshot()]);
        assert_eq!(t1.counter("dev", "reads"), 5);
        assert_eq!(t1.diff(&t0).counter("dev", "reads"), 3);
        assert!(t1.component("nope").is_none());
    }

    #[test]
    fn recording_is_lock_free_across_threads() {
        // Handles registered up front; recording then takes &self, so the
        // set can be shared across OS threads without a lock.
        let mut ms = MetricSet::new("dev");
        let c = ms.counter("events");
        let h = ms.histogram("lat");
        let ms = std::sync::Arc::new(ms);
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ms = std::sync::Arc::clone(&ms);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        ms.inc(c);
                        ms.record(h, t * per_thread + i + 1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(ms.get(c), threads * per_thread);
        let snap = ms.snapshot();
        let hist = snap.histogram("lat").unwrap();
        assert_eq!(hist.count, threads * per_thread);
        assert_eq!(hist.min, 1);
        assert_eq!(hist.max, threads * per_thread);
    }

    #[test]
    fn snapshot_json_contains_all_counters() {
        let (ms, a, b) = sample_set();
        ms.inc(a);
        ms.add(b, 2);
        let rendered = ms.snapshot().to_json().render();
        assert!(rendered.contains("\"reads\":1"));
        assert!(rendered.contains("\"writes\":2"));
        assert!(rendered.contains("\"component\":\"dev\""));
    }
}
