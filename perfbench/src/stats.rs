//! Order statistics over a run's samples.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)`
//! (the default "exclusive" method), so the spreads this benchmark
//! prints are the ones a reader recomputes from its result files with
//! the standard library.

/// Sorted copy of `xs`, NaNs excluded.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count; 0 when
/// there are no samples).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(xs, n=4)` computes them. One sample gives
/// three equal values; no samples give zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0 for a zero
/// median) — the spread the benchmark's bounds are set against.
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let mid = median(xs);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid
    }
}

/// The highest tail percentile worth reporting: of 90, 99 and 99.9, the
/// largest that still has at least ten samples beyond it. Returns the
/// percentile and its nearest-rank value, or `None` when even the 90th
/// has fewer than ten samples above it (fewer than 100 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    // Percentiles in per-mille, so the rank arithmetic is exact.
    [999usize, 990, 900].into_iter().find_map(|pm| {
        // Nearest rank: the smallest value with at least pm/1000 of the
        // samples at or below it.
        let rank = (pm * n).div_ceil(1000);
        let beyond = n.saturating_sub(rank);
        (rank >= 1 && beyond >= 10).then(|| (pm as f64 / 10.0, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of small samples.
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([7, 1, 4, 9, 3], n=4) == [2.0, 4.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 9.0, 3.0]), [2.0, 4.0, 8.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), None, "99 samples: only 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 9990.0)));
    }
}
