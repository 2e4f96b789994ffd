//! Order statistics shared by every workload.
//!
//! Percentiles use the nearest-rank definition: the q-th percentile of n
//! sorted samples is the sample at rank ⌈q·n⌉ (1-based). A percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! "p99" is never one unlucky sample.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of already-sorted samples; `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Whether `n` samples support the q-th percentile: at least
/// [`MIN_BEYOND`] samples rank above it.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n > 0 && n.saturating_sub(rank.max(1)) >= MIN_BEYOND
}

/// The highest of p99.9, p99, p90 and p50 that `n` samples support.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5].into_iter().find(|&q| supports(n, q))
}

/// Sorts a sample set in place (NaN-free input assumed: every sample is
/// a measured duration or rate).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of a sample set (nearest rank, so always a measured value).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    sort(&mut s);
    nearest_rank(&s, 0.5)
}

/// `part / whole`, or 0 when there is no whole to divide.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&s, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0), "rank clamps to the first sample");
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[3.5], 0.99), Some(3.5));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        // p50 of 20 samples is rank 10, with exactly 10 above it.
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        // p99 needs 1000 samples (rank 990, 10 above).
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(5_000), Some(0.99));
        assert_eq!(tail_quantile(150), Some(0.9));
        assert_eq!(tail_quantile(40), Some(0.5));
        assert_eq!(tail_quantile(12), None);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0), "nearest rank, not interpolated");
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
