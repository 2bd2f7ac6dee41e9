//! The statistics every report uses: median, quartiles, nearest-rank
//! percentiles and the "highest percentile the sample supports" rule.

/// Five-number summary of one metric's repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (the spread the
    /// benchmark contract judges).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

/// Summarises `values` (any order). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), because
/// that is what the acceptance procedure computes; with fewer than two
/// values the quartiles collapse onto the single value.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarise");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    let quartile = |i: usize| -> f64 {
        if n < 2 {
            return v[0];
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min: v[0],
        q1: quartile(1),
        median: quartile(2),
        q3: quartile(3),
        max: v[n - 1],
    }
}

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "no samples");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles a report may quote, ascending.
pub const TAILS: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

/// The highest of [`TAILS`] that still has at least ten of `n` samples
/// beyond it, or `None` when even p90 does not (n < 100).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .find(|&&p| samples_beyond(n, p) >= 10)
        .copied()
}

/// How many of `n` samples rank strictly above the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((n as f64 * p).ceil() as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // [1, 2, 3, 4, 5, 6, 7] -> [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
    }

    #[test]
    fn single_value_collapses() {
        let s = summarize(&[4.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.5, 4.5, 4.5, 1));
        assert_eq!(s.iqr_share(), 0.0);
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(summarize(&v).iqr_share(), 1.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(highest_supported_tail(99_999), Some(0.999));
        assert_eq!(highest_supported_tail(100_000), Some(0.9999));
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(samples_beyond(10, 0.99), 0);
    }
}
