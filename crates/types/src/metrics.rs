//! Lock-free metric primitives used by every runtime component.
//!
//! These are intentionally minimal — counters, gauges and a fixed-layout
//! log-bucketed histogram for latency percentiles. Aggregation, naming and
//! scraping live in the [`crate::registry`] module; components just hold
//! `Arc`s to these primitives and bump them on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero, wrapped for sharing.
    pub fn shared() -> Arc<Counter> {
        Arc::new(Counter::default())
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge that can move in both directions (stored as `u64`, saturating
/// at zero on decrement — resident-bytes style semantics).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero, wrapped for sharing.
    pub fn shared() -> Arc<Gauge> {
        Arc::new(Gauge::default())
    }

    /// Increase by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrease by `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.value.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: value `v` lands in bucket
/// `min(63, bit_length(v))`, i.e. bucket `i` covers `[2^(i−1), 2^i)`.
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (latencies in ms or µs).
///
/// Recording is one atomic add; percentile queries interpolate within the
/// winning bucket, giving ≤ 2× relative error — plenty for the latency
/// plots the evaluation needs, at zero coordination cost.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh histogram, wrapped for sharing.
    pub fn shared() -> Arc<Histogram> {
        Arc::new(Histogram::default())
    }

    /// Bucket index for a sample.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the per-bucket counts. Bucket `i` holds the
    /// samples whose bit length is `i` — values in `[2^(i−1), 2^i)` — so
    /// bucket 0 holds only zeros and the last bucket is open-ended.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Inclusive upper bound of bucket `i` for `le="…"`-style rendering,
    /// or `None` for the open-ended last bucket (`+Inf`).
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        if i >= BUCKETS - 1 {
            None
        } else {
            Some((1u64 << i) - 1)
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the winning log bucket. Returns 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                // Interpolate within [lo, hi) of this bucket, clamped to
                // the largest recorded sample: a bucket's upper edge must
                // never report a percentile above the true maximum.
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i >= 63 { u64::MAX } else { 1u64 << i };
                let frac = (target - seen) as f64 / c as f64;
                return (lo + ((hi - lo) as f64 * frac) as u64).min(self.max());
            }
            seen += c;
        }
        self.max()
    }

    /// Snapshot the common percentiles for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// A windowed event-rate meter over virtual or wall time: counts events
/// into fixed one-second buckets and reports the mean rate over the last
/// `window_secs` full buckets.
///
/// The thesis assigns routers the job of "maintaining statistics related
/// to input data, such as rate of events per second"; this is that
/// statistic, timebase-agnostic so the simulator and the live runtime
/// share it. Not thread-safe by design (each router owns one).
#[derive(Debug, Clone)]
pub struct RateMeter {
    /// Ring of per-second counts; index = second % len.
    buckets: Vec<u64>,
    /// The absolute second each bucket currently represents.
    seconds: Vec<u64>,
    window_secs: usize,
}

impl RateMeter {
    /// A meter averaging over the last `window_secs` seconds (≥ 1).
    pub fn new(window_secs: usize) -> RateMeter {
        let n = window_secs.max(1);
        RateMeter { buckets: vec![0; n + 1], seconds: vec![u64::MAX; n + 1], window_secs: n }
    }

    /// Record one event at time `now_ms`.
    pub fn record(&mut self, now_ms: u64) {
        let sec = now_ms / 1_000;
        let i = (sec % self.buckets.len() as u64) as usize;
        if self.seconds[i] != sec {
            self.seconds[i] = sec;
            self.buckets[i] = 0;
        }
        self.buckets[i] += 1;
    }

    /// Mean events/second over the window ending at `now_ms` (the bucket
    /// containing `now_ms` is excluded — it is still filling).
    pub fn rate_per_sec(&self, now_ms: u64) -> f64 {
        let current = now_ms / 1_000;
        let lo = current.saturating_sub(self.window_secs as u64);
        let mut total = 0u64;
        for (i, &sec) in self.seconds.iter().enumerate() {
            if sec >= lo && sec < current {
                total += self.buckets[i];
            }
        }
        let span = (current - lo).max(1);
        total as f64 / span as f64
    }
}

/// The final scrape-before-teardown both harnesses take: scrape
/// `registry` at `at` and append it to the run's sampled series. This is
/// the single entry point that hands the perf analyzer, the SLO engine
/// and the stall watchdog the same finalized series — the simulator calls
/// it in place of a trailing forced sample, the live pipeline in place of
/// its ad-hoc pre-teardown scrape (which must happen *before* queues are
/// deleted, or the terminal reading loses every per-queue series).
pub fn finalize_scrape_series(
    registry: &crate::registry::MetricsRegistry,
    at: crate::time::Ts,
    mut series: Vec<crate::registry::RegistrySnapshot>,
) -> Vec<crate::registry::RegistrySnapshot> {
    series.push(registry.scrape(at));
    series
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Median (approximate).
    pub p50: u64,
    /// 95th percentile (approximate).
    pub p95: u64,
    /// 99th percentile (approximate).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways_and_saturates() {
        let g = Gauge::default();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_mean_max_exact() {
        let h = Histogram::default();
        for v in [1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 22.0);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn histogram_quantiles_within_2x() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((250..=1000).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((495..=1024).contains(&p99), "p99={p99}");
        // Quantiles are monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // 1000 lands in bucket [512, 1024); uninterpolated upper-edge
        // arithmetic used to report p99 = 1024 > max.
        assert!(h.quantile(0.99) <= h.max(), "p99={} max={}", h.quantile(0.99), h.max());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn bucket_counts_partition_the_samples() {
        let h = Histogram::default();
        for v in [0u64, 1, 3, 100] {
            h.record(v);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts.iter().sum::<u64>(), h.count());
        assert_eq!(counts[0], 1, "zero lands in bucket 0");
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[7], 1, "100 has bit length 7");
        assert_eq!(Histogram::bucket_upper_bound(0), Some(0));
        assert_eq!(Histogram::bucket_upper_bound(2), Some(3));
        assert_eq!(Histogram::bucket_upper_bound(63), None, "last bucket is +Inf");
    }

    #[test]
    fn rate_meter_reports_steady_rate() {
        let mut m = RateMeter::new(5);
        // 100 events/second for 6 seconds.
        for ms in 0..6_000u64 {
            if ms % 10 == 0 {
                m.record(ms);
            }
        }
        let r = m.rate_per_sec(6_000);
        assert!((r - 100.0).abs() < 1.0, "rate {r}");
    }

    #[test]
    fn rate_meter_excludes_the_filling_bucket_and_ages_out() {
        let mut m = RateMeter::new(2);
        for _ in 0..50 {
            m.record(500); // 50 events in second 0
        }
        // Mid-second: second 0 is still filling, rate sees nothing.
        assert_eq!(m.rate_per_sec(900), 0.0);
        // One second later, second 0 is complete: 50/2 window mean.
        assert_eq!(m.rate_per_sec(2_000), 25.0);
        // Far in the future the events have aged out of the window.
        assert_eq!(m.rate_per_sec(60_000), 0.0);
    }

    #[test]
    fn rate_meter_handles_bursts_and_gaps() {
        let mut m = RateMeter::new(4);
        for _ in 0..400 {
            m.record(1_500);
        }
        // Burst second (1) complete; window [1..5): 400 events / 4 s.
        assert_eq!(m.rate_per_sec(5_000), 100.0);
        // Ring reuse: a new burst 10 s later fully replaces the old one.
        for _ in 0..80 {
            m.record(15_200);
        }
        assert_eq!(m.rate_per_sec(17_000), 20.0);
    }

    #[test]
    fn snapshot_carries_all_fields() {
        let h = Histogram::default();
        h.record(8);
        h.record(16);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 16);
        assert!(s.p50 >= 4 && s.p50 <= 16);
    }
}
