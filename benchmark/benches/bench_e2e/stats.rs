//! Order statistics for the reported timings.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice — every metric is backed by at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by nearest rank: the smallest sample
/// with at least `p · n` samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentile a timing may be reported at: the highest one, not
/// above `cap`, that still has at least ten samples beyond it
/// (`p ≤ 1 − 10/n`); with too few samples for any tail it degrades to the
/// median. At `n ≥ 100` and `cap = 0.9` this is p90.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(cap).max(0.5)
}

/// `(tail value, percentile used)` of `values` under [`tail_percentile`].
pub fn tail(values: &[f64], cap: f64) -> (f64, f64) {
    let p = tail_percentile(values.len(), cap);
    if p == 0.5 {
        (median(values), p)
    } else {
        (percentile(values, p), p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 120 samples: 1 - 10/120 = 0.9167 -> capped at p90, which
        // leaves 12 samples beyond it.
        assert_eq!(tail_percentile(120, 0.9), 0.9);
        // 40 samples: p75 is the highest percentile with 10 beyond.
        assert_eq!(tail_percentile(40, 0.9), 0.75);
        // Too few samples for any tail: the median.
        assert_eq!(tail_percentile(4, 0.9), 0.5);
        assert_eq!(tail_percentile(20, 0.9), 0.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, p) = tail(&v, 0.9);
        assert_eq!(p, 0.75);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }
}
