//! Running statistics used by testbenches and experiment harnesses.
//!
//! Latency and throughput measurements accumulate over millions of cycles, so
//! everything here is O(1) per sample and allocation-free on the hot path
//! (the histogram allocates once at construction).

use std::fmt;

/// Streaming mean / variance / extrema via Welford's algorithm.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator (parallel reduction), exact for mean/m2.
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Running {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// Fixed-width histogram over `[0, bucket_width * buckets)` with an overflow
/// bucket; used for latency distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `buckets` buckets of width `bucket_width` (both must be non-zero).
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Self {
            bucket_width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Total samples recorded (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples that exceeded the covered range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of in-range buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// Smallest value `v` such that at least `q` (0..=1) of samples are
    /// `<= v`, resolved to bucket upper bounds. `None` when empty or the
    /// quantile falls in the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some((i as u64 + 1) * self.bucket_width - 1);
            }
        }
        None
    }
}

/// A latency distribution in cycles: O(1) per sample, allocation-free on
/// the hot path, summarised as min / mean / p50 / p95 / max.
///
/// This is the telemetry unit behind per-stream service accounting (the
/// `Fabric` API's `StreamStats`): a [`Running`] accumulator supplies exact
/// min/mean/max while a fixed-width [`Histogram`] resolves quantiles.
/// Samples beyond the histogram's covered range land in its overflow
/// bucket; quantiles that fall there are conservatively reported as the
/// exact maximum, so p95 never silently under-reports a congested stream.
///
/// ```
/// use noc_sim::stats::LatencyHistogram;
///
/// let mut lat = LatencyHistogram::new();
/// for cycles in [4u64, 6, 6, 8, 120] {
///     lat.record(cycles);
/// }
/// assert_eq!(lat.count(), 5);
/// assert_eq!(lat.min(), Some(4));
/// assert_eq!(lat.max(), Some(120));
/// assert!(lat.p50().unwrap() <= lat.p95().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    running: Running,
    hist: Histogram,
}

impl LatencyHistogram {
    /// Bucket width (cycles) of the default quantile resolution.
    pub const BUCKET_WIDTH: u64 = 4;
    /// In-range buckets of the default histogram (covers
    /// `BUCKET_WIDTH * BUCKETS` cycles before overflowing).
    pub const BUCKETS: usize = 512;

    /// An empty latency accumulator with the default resolution
    /// (4-cycle buckets covering 2048 cycles, overflow beyond).
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            running: Running::new(),
            hist: Histogram::new(Self::BUCKET_WIDTH, Self::BUCKETS),
        }
    }

    /// Record one latency sample in cycles.
    #[inline]
    pub fn record(&mut self, cycles: u64) {
        self.running.push(cycles as f64);
        self.hist.record(cycles);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.running.count()
    }

    /// Exact smallest sample; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.running.min().map(|v| v as u64)
    }

    /// Exact largest sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.running.max().map(|v| v as u64)
    }

    /// Exact mean in cycles; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.running.mean()
    }

    /// Median latency resolved to bucket bounds; `None` when empty.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th-percentile latency resolved to bucket bounds; `None` when
    /// empty.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// Any quantile `q` in `0..=1`. Quantiles falling in the overflow
    /// bucket report the exact maximum; in-range quantiles are clamped to
    /// it (a bucket's upper bound can exceed the largest sample in it).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let max = self.max()?;
        Some(self.hist.quantile(q).map_or(max, |v| v.min(max)))
    }

    /// Merge another accumulator (parallel or per-plane reduction).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.running.merge(&other.running);
        for (i, &c) in other.hist.counts.iter().enumerate() {
            self.hist.counts[i] += c;
        }
        self.hist.overflow += other.hist.overflow;
        self.hist.total += other.hist.total;
    }
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.min() {
            None => write!(f, "n=0"),
            Some(min) => write!(
                f,
                "n={} min={} mean={:.1} p50={} p95={} max={}",
                self.count(),
                min,
                self.mean(),
                self.p50().unwrap_or(0),
                self.p95().unwrap_or(0),
                self.max().unwrap_or(0),
            ),
        }
    }
}

/// A monotonically increasing event counter with a rate helper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn bump(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Events per cycle over a window of `cycles` cycles.
    pub fn rate(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.0 as f64 / cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_basic() {
        let mut r = Running::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 4);
        assert!((r.mean() - 2.5).abs() < 1e-12);
        assert!((r.variance() - 1.25).abs() < 1e-12);
        assert_eq!(r.min(), Some(1.0));
        assert_eq!(r.max(), Some(4.0));
    }

    #[test]
    fn running_empty() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.min(), None);
        assert_eq!(r.max(), None);
    }

    #[test]
    fn running_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = Running::new();
        for &x in &data {
            seq.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.variance() - seq.variance()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn running_merge_with_empty() {
        let mut a = Running::new();
        a.push(5.0);
        let b = Running::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Running::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 5.0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10, 5);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(49);
        h.record(50); // overflow
        assert_eq!(h.total(), 5);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(4), 1);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(1, 100);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(49));
        assert_eq!(h.quantile(1.0), Some(99));
        assert_eq!(h.quantile(0.0), Some(0));
    }

    #[test]
    fn histogram_quantile_empty() {
        let h = Histogram::new(1, 10);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn histogram_zero_width_panics() {
        let _ = Histogram::new(0, 10);
    }

    #[test]
    fn latency_histogram_summary() {
        let mut lat = LatencyHistogram::new();
        for v in 1..=100u64 {
            lat.record(v);
        }
        assert_eq!(lat.count(), 100);
        assert_eq!(lat.min(), Some(1));
        assert_eq!(lat.max(), Some(100));
        assert!((lat.mean() - 50.5).abs() < 1e-9);
        // Quantiles resolve to 4-cycle bucket bounds.
        let p50 = lat.p50().unwrap();
        assert!((48..=52).contains(&p50), "p50 {p50}");
        let p95 = lat.p95().unwrap();
        assert!((94..=98).contains(&p95), "p95 {p95}");
    }

    #[test]
    fn latency_histogram_overflow_reports_max() {
        let mut lat = LatencyHistogram::new();
        lat.record(1);
        lat.record(1_000_000); // far past the covered range
        assert_eq!(lat.p95(), Some(1_000_000), "overflow quantile = exact max");
        assert_eq!(lat.max(), Some(1_000_000));
    }

    /// The overflow boundary sits at exactly
    /// `BUCKET_WIDTH * BUCKETS` = 2048 cycles: 2047 is the last in-range
    /// value, 2048 the first overflow. On either side of it, no quantile
    /// may exceed the tracked exact `max` — the congested-stream p95 bug
    /// this clamp guards against.
    #[test]
    fn latency_histogram_quantile_clamps_at_overflow_boundary() {
        let range = LatencyHistogram::BUCKET_WIDTH * LatencyHistogram::BUCKETS as u64;
        assert_eq!(range, 2048, "default covered range");

        // Last in-range value: its bucket's upper bound (2047) happens to
        // coincide with the sample, but a sample of 2045 would share the
        // bucket — the quantile must clamp to the exact max, not report
        // the bound.
        let mut edge = LatencyHistogram::new();
        for _ in 0..99 {
            edge.record(1);
        }
        edge.record(range - 3); // 2045, in the final bucket [2044, 2048)
        assert_eq!(edge.max(), Some(2045));
        assert_eq!(edge.quantile(1.0), Some(2045), "clamped to max, not 2047");
        assert!(edge.hist.overflow() == 0, "2045 is in range");

        // First overflow value: exactly 2048 lands in the overflow bucket
        // and every quantile that resolves there reports the exact max.
        let mut over = LatencyHistogram::new();
        for _ in 0..99 {
            over.record(1);
        }
        over.record(range); // exactly 2048
        assert_eq!(over.hist.overflow(), 1, "2048 is the first overflow value");
        assert_eq!(over.quantile(1.0), Some(2048));
        assert_eq!(over.p95().unwrap(), 3, "p95 still resolves in range");
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert!(
                over.quantile(q).unwrap() <= over.max().unwrap(),
                "quantile({q}) exceeded max"
            );
        }
    }

    #[test]
    fn latency_histogram_empty() {
        let lat = LatencyHistogram::new();
        assert_eq!(lat.count(), 0);
        assert_eq!(lat.p50(), None);
        assert_eq!(lat.p95(), None);
        assert_eq!(lat.to_string(), "n=0");
    }

    #[test]
    fn latency_histogram_merge_matches_sequential() {
        let mut whole = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 0..200u64 {
            whole.record(v * 3);
            if v < 77 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.p50(), whole.p50());
        assert_eq!(a.p95(), whole.p95());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn counter_rate() {
        let mut c = Counter::default();
        c.add(80);
        c.bump();
        assert_eq!(c.0, 81);
        assert!((c.rate(100) - 0.81).abs() < 1e-12);
        assert_eq!(c.rate(0), 0.0);
    }
}
