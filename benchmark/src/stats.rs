//! Order statistics for the reports: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" tail rule,
//! and the quartile spread the regression bounds are judged against.

/// Tail rungs, lowest first. A timing reports the highest rung that
/// still has at least [`MIN_BEYOND`] samples beyond it.
const TAIL_RUNGS: [f64; 5] = [0.50, 0.75, 0.90, 0.99, 0.999];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank `q`-quantile of an ascending slice (`0` when empty).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest tail rung not above `preferred` that has at least ten of
/// `n` samples beyond it (the median when even p75 has too few).
pub fn tail_quantile(n: usize, preferred: f64) -> f64 {
    TAIL_RUNGS
        .iter()
        .rev()
        .copied()
        .find(|&q| q <= preferred && n as f64 * (1.0 - q) >= MIN_BEYOND)
        .unwrap_or(TAIL_RUNGS[0])
}

/// A latency sample set reduced to what the reports print.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median, nanoseconds.
    pub p50: u64,
    /// Tail value, nanoseconds, at [`Summary::tail_q`].
    pub tail: u64,
    /// The percentile the tail was taken at (see [`tail_quantile`]).
    pub tail_q: f64,
}

/// Sorts `samples` in place and summarises them; `preferred_tail` is
/// the rung the tail is taken at when the sample count allows it.
pub fn summarize(samples: &mut [u64], preferred_tail: f64) -> Summary {
    samples.sort_unstable();
    let tail_q = tail_quantile(samples.len(), preferred_tail);
    Summary {
        n: samples.len(),
        p50: percentile(samples, 0.5),
        tail: percentile(samples, tail_q),
        tail_q,
    }
}

/// Median of a float sample (`0` when empty).
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
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the rule the acceptance pipeline applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (`0` when the
/// median is zero).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / m).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 160 plans: p90 leaves 16 beyond, p99 only 1.6.
        assert_eq!(tail_quantile(160, 0.99), 0.90);
        // 1000 samples: exactly ten beyond p99.
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(999, 0.99), 0.90);
        // Never above the preferred rung, however many samples.
        assert_eq!(tail_quantile(1_000_000, 0.99), 0.99);
        // Too few for p90, enough for p75; too few for anything.
        assert_eq!(tail_quantile(50, 0.99), 0.75);
        assert_eq!(tail_quantile(12, 0.99), 0.50);
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let mut v: Vec<u64> = (1..=2000).rev().collect();
        let s = summarize(&mut v, 0.99);
        assert_eq!((s.n, s.p50, s.tail), (2000, 1000, 1980));
        assert_eq!(s.tail_q, 0.99);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }
}
