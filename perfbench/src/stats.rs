//! Summary statistics: percentiles that the sample supports, aggregate
//! throughput and medians.

use std::time::Duration;

/// Bytes in one MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let exact = p / 100.0 * n as f64;
    // Absorb rounding error (99.9% of 10000 is 9990.000000000002).
    (exact - 1e-9 * exact.max(1.0)).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted` samples.
///
/// # Panics
///
/// On an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of [`TAIL_PERCENTILES`] with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, or `None` when even the
/// median is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Aggregate throughput: all input bytes over all busy time, in MiB/s.
///
/// This is deliberately not the median of per-document rates: the host
/// alternates between a fast and a slow mode, and an aggregate weighs
/// each mode by the time actually spent in it, where a median jumps with
/// the mode mix.
pub fn throughput_mib_s(bytes: u64, busy: Duration) -> f64 {
    let secs = busy.as_secs_f64();
    if secs == 0.0 {
        return 0.0;
    }
    bytes as f64 / MIB / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
        for n in 0..3000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_TAIL_SAMPLES, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn throughput_is_total_bytes_over_total_busy_time() {
        let mib = 1u64 << 20;
        assert_eq!(throughput_mib_s(3 * mib, Duration::from_millis(1500)), 2.0);
        // Two fast documents and one slow one: the aggregate weighs the
        // slow one by its time, unlike the median per-document rate.
        let docs = [(mib, 10u64), (mib, 10), (mib, 40)];
        let bytes: u64 = docs.iter().map(|d| d.0).sum();
        let busy = Duration::from_millis(docs.iter().map(|d| d.1).sum());
        let aggregate = throughput_mib_s(bytes, busy);
        assert!((aggregate - 50.0).abs() < 1e-9);
        let rates: Vec<f64> = docs
            .iter()
            .map(|&(b, ms)| throughput_mib_s(b, Duration::from_millis(ms)))
            .collect();
        assert_eq!(median(&rates), 100.0);
        assert_eq!(throughput_mib_s(mib, Duration::ZERO), 0.0);
    }
}
