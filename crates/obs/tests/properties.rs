//! Property tests for the histogram bucket scheme and registry, plus a
//! multi-writer hammer test for the lock-free record path.

use std::sync::Arc;

use proptest::prelude::*;
use xar_obs::hist::{bucket_bounds, bucket_index};
use xar_obs::{Histogram, Registry};

proptest! {
    /// Every value lands in a bucket whose bounds contain it.
    #[test]
    fn bucket_contains_value(v in 0u64..u64::MAX) {
        let idx = bucket_index(v);
        let (lo, hi) = bucket_bounds(idx);
        prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}] (bucket {idx})");
    }

    /// Bucket index is monotone: larger values never map to earlier
    /// buckets.
    #[test]
    fn bucket_index_monotone(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
    }

    /// Bucket relative width is bounded by 1/16 of the lower bound, so
    /// any percentile read from a bucket midpoint is within 6.25 % of
    /// the true sample.
    #[test]
    fn bucket_relative_error_bound(v in 1u64..u64::MAX / 2) {
        let (lo, hi) = bucket_bounds(bucket_index(v));
        let width = hi - lo;
        prop_assert!(
            width as f64 <= lo as f64 / 16.0 + 1.0,
            "bucket [{lo}, {hi}] too wide for {v}"
        );
    }

    /// Record → percentile round trip: recording one value and reading
    /// any percentile returns a value within the bucket error bound
    /// (6.25 % relative, ±1 absolute for small values).
    #[test]
    fn record_percentile_round_trip(v in 0u64..1 << 62) {
        let h = Histogram::new();
        h.record(v);
        let s = h.snapshot();
        prop_assert_eq!(s.count, 1);
        prop_assert_eq!(s.max, v);
        for got in [s.p50, s.p90, s.p99] {
            let err = got.abs_diff(v) as f64;
            prop_assert!(
                err <= v as f64 / 16.0 + 1.0,
                "percentile {} too far from recorded {}", got, v
            );
        }
    }

    /// Percentiles are monotone in rank and bounded by the exact max.
    #[test]
    fn percentiles_ordered_and_bounded(vals in proptest::collection::vec(0u64..1 << 40, 1..200)) {
        let h = Histogram::new();
        for &v in &vals {
            h.record(v);
        }
        let s = h.snapshot();
        let true_max = vals.iter().copied().max().unwrap();
        prop_assert_eq!(s.count, vals.len() as u64);
        prop_assert_eq!(s.max, true_max);
        prop_assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        prop_assert!(s.p99 <= s.max);
        let true_sum: u64 = vals.iter().sum();
        prop_assert_eq!(s.sum, true_sum);
    }
}

/// 8 concurrent writers, no lost increments: the wait-free record path
/// must account for every sample.
#[test]
fn hammer_no_lost_increments() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 50_000;
    let h = Arc::new(Histogram::new());
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let h = Arc::clone(&h);
            scope.spawn(move || {
                // Distinct value streams per writer, spanning several
                // octaves, so writers collide on some buckets and not
                // on others.
                for i in 0..PER_WRITER {
                    h.record(i.wrapping_mul(2 * w as u64 + 1) % 1_000_000);
                }
            });
        }
    });
    let s = h.snapshot();
    assert_eq!(s.count, (WRITERS as u64) * PER_WRITER, "lost increments");
    assert!(s.max < 1_000_000);
}

/// Same hammer against a registry: concurrent get-or-create of the same
/// named metrics plus concurrent recording.
#[test]
fn hammer_registry_concurrent_access() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 10_000;
    let reg = Arc::new(Registry::new());
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let reg = Arc::clone(&reg);
            scope.spawn(move || {
                let hist = reg.histogram("hammer.lat_ns");
                let ctr = reg.counter("hammer.ops");
                for i in 0..PER_WRITER {
                    hist.record(i);
                    ctr.inc();
                }
            });
        }
    });
    assert_eq!(
        reg.counter("hammer.ops").get(),
        (WRITERS as u64) * PER_WRITER
    );
    assert_eq!(
        reg.histogram("hammer.lat_ns").count(),
        (WRITERS as u64) * PER_WRITER
    );
}
