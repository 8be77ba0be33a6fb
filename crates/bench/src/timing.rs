//! Minimal std-only timing harness — the offline replacement for the
//! Criterion dev-dependency. Each `[[bench]]` target is a plain `main`
//! (`harness = false`) that calls [`bench`] per case.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of a sample set: the middle element for odd n, the average of
/// the two middle elements for even n. Sorts `samples` in place.
///
/// # Panics
/// On an empty slice.
pub fn median_f64(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample set");
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// [`median_f64`] over wall-clock samples. Goes through seconds-as-f64
/// (sub-nanosecond precision loss only, far below timer noise) so both
/// median consumers share one implementation.
pub fn median_duration(times: &[Duration]) -> Duration {
    let mut secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    Duration::from_secs_f64(median_f64(&mut secs))
}

/// Measured summary of one benchmark case.
#[derive(Debug, Clone, Copy)]
pub struct Sampled {
    /// Number of timed samples.
    pub samples: usize,
    /// Median per-iteration time.
    pub median: Duration,
    /// Mean per-iteration time.
    pub mean: Duration,
    /// Fastest sample.
    pub min: Duration,
}

/// Time `f` for `samples` samples after one warm-up call, printing a
/// Criterion-style line. Returns the summary for programmatic use. The
/// closure's return value is passed through [`black_box`] so the work is
/// not optimized away.
pub fn bench<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> Sampled {
    black_box(f());
    let mut times: Vec<Duration> = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        black_box(f());
        times.push(start.elapsed());
    }
    let median = median_duration(&times);
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    let min = *times.iter().min().expect("at least one sample");
    println!(
        "{name:<28} median {median:>12?}  mean {mean:>12?}  min {min:>12?}  ({} samples)",
        times.len()
    );
    Sampled {
        samples: times.len(),
        median,
        mean,
        min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_all_samples() {
        let mut calls = 0u32;
        let s = bench("noop", 5, || {
            calls += 1;
            calls
        });
        assert_eq!(s.samples, 5);
        // Warm-up + 5 samples.
        assert_eq!(calls, 6);
        assert!(s.min <= s.median);
    }

    #[test]
    fn median_odd_takes_the_middle() {
        let mut s = [5.0, 1.0, 3.0];
        assert_eq!(median_f64(&mut s), 3.0);
        let mut s = [9.0];
        assert_eq!(median_f64(&mut s), 9.0);
    }

    #[test]
    fn median_even_averages_the_middle_pair() {
        let mut s = [4.0, 1.0, 2.0, 100.0];
        assert_eq!(median_f64(&mut s), 3.0);
        let mut s = [2.0, 1.0];
        assert_eq!(median_f64(&mut s), 1.5);
    }

    #[test]
    fn median_duration_matches_both_parities() {
        let ms = Duration::from_millis;
        assert_eq!(median_duration(&[ms(30), ms(10), ms(20)]), ms(20));
        // Even n: average of the middle pair, not the upper-middle sample.
        assert_eq!(median_duration(&[ms(10), ms(20), ms(30), ms(400)]), ms(25));
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn median_of_empty_set_panics() {
        median_f64(&mut []);
    }
}
