//! Latency histograms and the percentile rule every timing follows.

/// Sub-buckets per power of two: a recorded duration is known to within
/// 1/128 of itself (0.8%).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Durations are recorded up to 2^40 ns (about 18 minutes); longer ones
/// count in the top bucket.
const MAX_BITS: u32 = 40;
/// Buckets per histogram.
const BUCKETS: usize = (MAX_BITS - SUB_BITS + 1) as usize * SUB;

/// The bucket holding `ns`: exact below [`SUB`], log-linear above.
fn bucket(ns: u64) -> usize {
    let v = ns.min((1 << MAX_BITS) - 1);
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + (v >> shift) as usize - SUB
}

/// Lowest value and width of bucket `i`.
fn bucket_bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i >> SUB_BITS) - 1;
    let mantissa = ((i & (SUB - 1)) + SUB) as u64;
    ((mantissa << shift) as f64, (1u64 << shift) as f64)
}

/// A series of durations in nanoseconds, as counts in log-linear
/// buckets: its memory is the same whatever the number of samples, so a
/// faster program does not make the benchmark itself use more memory.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Empty until the first sample, then [`BUCKETS`] long.
    counts: Vec<u64>,
    seen: u64,
}

impl Histogram {
    /// Records one duration.
    pub fn push_ns(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(ns)] += 1;
        self.seen += 1;
    }

    /// Records the duration since `start`.
    pub fn push_since(&mut self, start: std::time::Instant) {
        self.push_ns(start.elapsed().as_nanos() as u64);
    }

    /// Folds another series in (per-thread series merged at the end).
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.seen += other.seen;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Quantile `q` (0 to 1), placed within its bucket by rank; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.seen == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.seen - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let (low, width) = bucket_bounds(i);
                return low + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("the rank lies below the sample count")
    }

    /// The summary of this series under the percentile rule.
    pub fn summary(&self) -> Summary {
        let tail_pct = tail_percentile(self.seen);
        Summary {
            count: self.seen,
            p50_ns: self.quantile(0.5),
            tail_pct,
            tail_ns: self.quantile(tail_pct / 100.0),
        }
    }
}

/// A timing summary: median, the tail percentile the sample supports,
/// and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples the summary covers.
    pub count: u64,
    /// Median, in nanoseconds.
    pub p50_ns: f64,
    /// The tail percentile actually reported (99 when the sample
    /// supports it, lower otherwise; see [`tail_percentile`]).
    pub tail_pct: f64,
    /// Value at `tail_pct`, in nanoseconds.
    pub tail_ns: f64,
}

/// The highest percentile, at most 99, that has at least ten samples
/// beyond it among `n` samples; 50 when even the median does not.
pub fn tail_percentile(n: u64) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let pct = 100.0 * (1.0 - 10.0 / n as f64);
    pct.clamp(50.0, 99.0)
}

/// Median of floating-point values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Linear-interpolated quantile `q` of floating-point values; 0 when
/// empty.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The figure a run reports from repeated samples of one cost (such as
/// one recovery per crash): the cheapest. Other work on a shared host
/// only ever adds time, so the least disturbed sample is the closest to
/// the program's own cost.
pub fn least_disturbed(costs: &[f64]) -> f64 {
    quantile_of(costs, 0.0)
}

/// The figure a run reports from per-slice throughputs: their 90th
/// percentile. Slices that other work on the host slowed down fall
/// below it; the highest slices are left out too, since a short slice
/// can be fast by drawing few expensive operations.
pub fn least_disturbed_rate(rates: &[f64]) -> f64 {
    quantile_of(rates, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(100_000), 99.0);
        assert!((tail_percentile(200) - 95.0).abs() < 1e-9);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn buckets_hold_their_values_to_within_one_part_in_128() {
        for v in (0..200u64).chain((7..40).flat_map(|e| [(1 << e) - 1, 1 << e, (3 << e) / 2])) {
            let (low, width) = bucket_bounds(bucket(v));
            assert!(low <= v as f64 && (v as f64) < low + width, "{v}: {low} + {width}");
            assert!(width <= 1f64.max(low / 128.0), "{v}: width {width}");
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_the_exact_ones_in_fixed_memory() {
        let mut h = Histogram::default();
        let mut exact = Vec::new();
        for i in 0..200_000u64 {
            let ns = 1_000 + (i * 7919) % 99_000;
            h.push_ns(ns);
            exact.push(ns as f64);
        }
        assert_eq!(h.count(), 200_000);
        assert_eq!(h.counts.len(), BUCKETS);
        for q in [0.5, 0.9, 0.99] {
            let want = quantile_of(&exact, q);
            assert!((h.quantile(q) - want).abs() <= want / 100.0, "q{q}: {}", h.quantile(q));
        }
        let mut merged = Histogram::default();
        merged.merge(&h);
        merged.merge(&Histogram::default());
        assert_eq!(merged.summary(), h.summary());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn least_disturbed_sits_near_the_cheap_end() {
        let costs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(least_disturbed(&costs), 1.0);
        assert_eq!(least_disturbed_rate(&costs), 19.0);
    }
}
