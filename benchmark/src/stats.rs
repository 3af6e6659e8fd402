//! Order statistics for latency samples.
//!
//! Every timing the benchmark reports is a median or a percentile with at
//! least [`MIN_BEYOND`] samples beyond it; these helpers are the one place
//! that rule is computed.

/// A percentile is reported only when at least this many samples lie
/// beyond it (a p99 of 100 samples is one sample, not a percentile).
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile (`p` in `0..=100`) of `sorted`, which
/// must be ascending and non-empty. Matches the "inclusive" method:
/// `p = 0` is the minimum, `p = 100` the maximum.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Sort `samples` ascending in place (total order; NaN sorts last).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    sort(&mut s);
    percentile_sorted(&s, 50.0)
}

/// Number of samples strictly beyond the `p`-th percentile of a sample
/// of size `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // Rounded before the division: 10 000 × (100 − 99.9) is 999.99… in
    // floating point, and that is ten samples, not nine.
    (n as f64 * (100.0 - p)).round() as usize / 100
}

/// The highest of the candidate percentiles that still has
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median does
/// not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Median over cycles of a per-cycle rate (`count / seconds`). A cycle
/// that took no measurable time is skipped rather than reported as an
/// infinite rate.
pub fn median_rate(cycles: &[(u64, f64)]) -> Option<f64> {
    let rates: Vec<f64> = cycles
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(n, secs)| *n as f64 / secs)
        .collect();
    (!rates.is_empty()).then(|| median(&rates))
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&s, 0.0), 10.0);
        assert_eq!(percentile_sorted(&s, 100.0), 40.0);
        assert_eq!(percentile_sorted(&s, 50.0), 25.0);
        assert!((percentile_sorted(&s, 90.0) - 37.0).abs() < 1e-9);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn median_is_order_independent_and_robust_to_one_stall() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 1e9]), 2.5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(138, 90.0), 13);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_of_cycle_rates_skips_empty_cycles() {
        // 100/s, 200/s, 400/s -> median 200/s; the zero-length cycle is
        // ignored.
        let cycles = [(100, 1.0), (400, 1.0), (200, 1.0), (5, 0.0)];
        assert_eq!(median_rate(&cycles), Some(200.0));
        assert_eq!(median_rate(&[(5, 0.0)]), None);
        assert_eq!(median_rate(&[]), None);
    }
}
