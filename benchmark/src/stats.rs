//! Order statistics used for every reported timing.
//!
//! The percentile rule (choosing-metrics §1): a timing is reported as its
//! median and the highest percentile that still has at least ten samples
//! beyond it; anything higher is one or two outliers, not a percentile.

/// Percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sort ascending (timings are never NaN; a NaN sorts last).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    xs
}

/// 1-based nearest-rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps 99.9 % of 1000 at rank 999 despite 99.9 not being
    // representable in binary.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples strictly beyond the nearest-rank position of `pct`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// Median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail percentile to report for `n` samples: `wanted` when it has
/// [`MIN_BEYOND`] samples beyond it, otherwise the highest [`LADDER`] step
/// below it that has, otherwise the median. Workloads pass the percentile
/// their sample count was designed for, so the choice does not flip between
/// runs whose counts straddle a threshold.
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= wanted && beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Geometric mean (1.0 for an empty slice, the neutral speed-up).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 has 1.
        assert_eq!(tail_percentile(1000, 99.9), 99.0);
        assert_eq!(tail_percentile(999, 99.9), 95.0);
        // 200 samples: p95 has 10 beyond.
        assert_eq!(tail_percentile(200, 99.0), 95.0);
        assert_eq!(tail_percentile(199, 99.0), 90.0);
        // The designed percentile caps the choice even with samples to spare.
        assert_eq!(tail_percentile(100_000, 95.0), 95.0);
        // 40 samples: p75 has 10 beyond; 39 leave only the median.
        assert_eq!(tail_percentile(40, 99.0), 75.0);
        assert_eq!(tail_percentile(39, 99.0), 50.0);
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail_percentile(9, 99.0), 50.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
