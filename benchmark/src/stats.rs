//! Order statistics for repetition samples and span durations.

pub use relaxfault_util::stats::median;

/// The three quartile cut points of `xs`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method), so the
/// spreads this benchmark reports match the ones its acceptance check
/// computes. A single sample, which Python rejects, is its own quartiles.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a non-finite value.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut data = xs.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    // Signed: at the clamped ends `delta` goes negative or past `n`, which
    // is how the exclusive method extrapolates.
    let (n, m) = (4i64, ld as i64 + 1);
    [1i64, 2, 3].map(|i| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    })
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4) == [2.5, 5.0, 7.5]
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.5, 5.0, 7.5]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[9], 99.0), 9);
    }
}
