//! Order statistics over latency samples.

/// Nearest-rank percentile of `sorted` (ascending): the smallest
/// sample with at least `p` % of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail percentile the guide allows: `p`, lowered until at least
/// ten samples lie beyond it (never below the median). Returns the
/// value and the percentile actually used.
pub fn tail(sorted: &[u64], p: f64) -> (u64, f64) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let r = rank(n, p).min(n.saturating_sub(10)).max(rank(n, 50.0));
    (sorted[r - 1], 100.0 * r as f64 / n as f64)
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nanoseconds → microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 5 samples: p50 is the 3rd, p90 the 5th.
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 50.0), 3);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 90.0), 5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2 000 samples: p99 is rank 1 980, 20 beyond — kept.
        let s: Vec<u64> = (1..=2000).collect();
        assert_eq!(tail(&s, 99.0), (1980, 99.0));
        // 1 000 samples: exactly ten beyond — kept.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&s, 99.0), (990, 99.0));
        // 500 samples: only five beyond p99, so rank 490 (p98).
        let s: Vec<u64> = (1..=500).collect();
        assert_eq!(tail(&s, 99.0), (490, 98.0));
        // 12 samples: ten beyond would be rank 2; the median floors it.
        let s: Vec<u64> = (1..=12).collect();
        assert_eq!(tail(&s, 99.0), (6, 50.0));
    }

    #[test]
    fn median_of_even_count_is_the_lower_middle() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
