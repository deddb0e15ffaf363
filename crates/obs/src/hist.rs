//! Lock-free log-bucketed histograms.
//!
//! Layout (HDR-style log-linear): values below 32 get one exact bucket
//! each; above that, every power-of-two octave is split into 16
//! sub-buckets, so any recorded value lands in a bucket whose width is
//! at most 1/16 of its lower bound. Percentile estimates read from
//! bucket midpoints are therefore within ≈ 6.25 % (≈ 3.2 % at the
//! midpoint) of the true sample — far tighter than the run-to-run noise
//! of any latency experiment in the paper.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave (16 ⇒ ≤ 6.25 % relative error).
const SUBS: usize = 16;
/// Values below this threshold get exact unit buckets.
const LINEAR_MAX: u64 = 32;
/// First octave that uses log-linear buckets (`log2(LINEAR_MAX)`).
const FIRST_OCTAVE: usize = 5;
/// Total bucket count: 32 exact + 16 per octave for octaves 5..=63.
const BUCKETS: usize = LINEAR_MAX as usize + (64 - FIRST_OCTAVE) * SUBS;

/// A fixed-size, lock-free histogram over `u64` samples (typically
/// nanoseconds or set sizes).
///
/// `record` is wait-free: one relaxed `fetch_add` on the bucket plus
/// relaxed updates of count/sum/max. Snapshots are taken concurrently
/// with writers and are weakly consistent (they may miss in-flight
/// increments, never corrupt).
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .field("max", &s.max)
            .finish()
    }
}

/// The index of the bucket `value` falls into.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros() as usize; // >= FIRST_OCTAVE
        let sub = ((value >> (msb - 4)) & 0xF) as usize;
        LINEAR_MAX as usize + (msb - FIRST_OCTAVE) * SUBS + sub
    }
}

/// Inclusive `[low, high]` value range of bucket `idx`.
///
/// # Panics
///
/// Panics if `idx >= Histogram::bucket_count()`.
#[inline]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    assert!(idx < BUCKETS, "bucket index out of range");
    if idx < LINEAR_MAX as usize {
        (idx as u64, idx as u64)
    } else {
        let rel = idx - LINEAR_MAX as usize;
        let octave = FIRST_OCTAVE + rel / SUBS;
        let sub = (rel % SUBS) as u64;
        let width = 1u64 << (octave - 4);
        let low = (16 + sub) << (octave - 4);
        // `low + (width - 1)`, not `low + width - 1`: the top bucket's
        // upper bound is exactly `u64::MAX`, so adding `width` first
        // would overflow.
        (low, low + (width - 1))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the boxed array in place.
        let buckets: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .try_into()
            .unwrap_or_else(|_| unreachable!("length is BUCKETS by construction"));
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Number of buckets (fixed at compile time).
    pub const fn bucket_count() -> usize {
        BUCKETS
    }

    /// Record one sample. Wait-free; safe from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record `n` occurrences of one sample value.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A weakly consistent snapshot with percentile estimates and the
    /// (sparse) bucket cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cells: Vec<(u16, u64)> = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c != 0 {
                cells.push((i as u16, c));
            }
        }
        let max = self.max.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramSnapshot::from_cells(cells, sum, max)
    }
}

/// Point-in-time summary of a [`Histogram`]: percentile estimates plus
/// the sparse non-empty bucket cells `(bucket index, count)`, sorted by
/// bucket index, from which [`HistogramSnapshot::quantile`] reads any
/// other percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wraps only after ~584 years of nanoseconds).
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate (bucket midpoint).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Maximum recorded value (exact).
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending index.
    pub cells: Vec<(u16, u64)>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::from_cells(Vec::new(), 0, 0)
    }
}

impl HistogramSnapshot {
    /// Build a snapshot from sparse cells sorted by bucket index plus
    /// exact `sum` and `max`; `count`, `mean` and the percentile fields
    /// are derived from the cells.
    fn from_cells(cells: Vec<(u16, u64)>, sum: u64, max: u64) -> Self {
        let count: u64 = cells.iter().map(|&(_, c)| c).sum();
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        let mut s = Self {
            count,
            sum,
            mean,
            p50: 0,
            p90: 0,
            p99: 0,
            max,
            cells,
        };
        (s.p50, s.p90, s.p99) = (s.quantile(50.0), s.quantile(90.0), s.quantile(99.0));
        s
    }

    /// Arbitrary quantile estimate (`p` in 0–100) from the cells.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, c) in &self.cells {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i as usize);
                return (lo + (hi - lo) / 2).min(self.max);
            }
        }
        self.max
    }

    /// Render a nanosecond-valued snapshot as human-readable text.
    pub fn format_ns(&self) -> String {
        fn t(ns: u64) -> String {
            let ns = ns as f64;
            if ns >= 1e9 {
                format!("{:.2}s", ns / 1e9)
            } else if ns >= 1e6 {
                format!("{:.2}ms", ns / 1e6)
            } else if ns >= 1e3 {
                format!("{:.1}µs", ns / 1e3)
            } else {
                format!("{ns:.0}ns")
            }
        }
        format!(
            "n={} p50={} p90={} p99={} max={}",
            self.count,
            t(self.p50),
            t(self.p90),
            t(self.p99),
            t(self.max)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, LINEAR_MAX);
        assert_eq!(s.max, LINEAR_MAX - 1);
        // Exact buckets => p50 is the exact median bucket value.
        assert_eq!(s.p50, 15);
    }

    #[test]
    fn bucket_index_is_monotone_and_contiguous() {
        let mut prev = 0usize;
        let mut v = 1u64;
        while v < u64::MAX / 2 {
            let i = bucket_index(v);
            assert!(i >= prev, "index decreased at {v}");
            prev = i;
            v = v.saturating_mul(2).saturating_add(1);
        }
        // Octave boundary continuity.
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 47);
        assert_eq!(bucket_index(64), 48);
    }

    #[test]
    fn bounds_contain_their_values() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            123_456,
            u64::MAX / 3,
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.max, 10_000);
        let within = |got: u64, want: f64| (got as f64 - want).abs() / want < 0.07;
        assert!(within(s.p50, 5_000.0), "p50 {}", s.p50);
        assert!(within(s.p90, 9_000.0), "p90 {}", s.p90);
        assert!(within(s.p99, 9_900.0), "p99 {}", s.p99);
        assert!((s.mean - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(
            (s.count, s.sum, s.p50, s.p90, s.p99, s.max),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_n(777, 5);
        for _ in 0..5 {
            b.record(777);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
