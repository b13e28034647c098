//! Order statistics and the segment-median rule.
//!
//! Every timing the benchmark reports is a *median of segment values*: the
//! measured phase is cut into [`SEGMENTS`] runs of consecutive blocks, the
//! figure is computed inside each, and the median of those is the result.
//! A neighbour's burst on a shared box then spoils a few segments, not the
//! run.

/// Segments a measured phase is cut into.
pub const SEGMENTS: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`): the
/// smallest element with at least `q` of the samples at or below it.
/// Empty input gives 0.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns its nearest-rank percentile.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, q)
}

/// Median with the usual mean-of-middle-two rule for even counts.
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

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) gives them — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (the spread the
/// driver holds against each metric's bound).
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Cuts `blocks` consecutive blocks into at most [`SEGMENTS`] contiguous
/// ranges whose sizes differ by at most one block. Returns half-open
/// `(first_block, end_block)` pairs; fewer blocks than segments gives one
/// segment per block.
pub fn segment_ranges(blocks: usize) -> Vec<(usize, usize)> {
    let segments = SEGMENTS.min(blocks);
    (0..segments)
        .map(|i| (i * blocks / segments, (i + 1) * blocks / segments))
        .filter(|(a, b)| b > a)
        .collect()
}

/// `(max - min) / median` of the values — how uneven the segments were.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_by_hand() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.95), 10.0);
        assert_eq!(percentile_sorted(&v, 0.90), 9.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&hundred, 0.95), 95.0);
        assert_eq!(percentile_sorted(&hundred, 0.99), 99.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        let mut unsorted = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&mut unsorted, 0.5), 2.0);
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 10], n=4) == [3.0, 4.0, 7.5]
        assert_eq!(quartiles(&[2.0, 4.0, 4.0, 5.0, 10.0]), [3.0, 4.0, 7.5]);
        assert_eq!(iqr_share(&v), 1.0);
    }

    #[test]
    fn segment_median_ignores_a_burst() {
        // 10 segments, two of them hit by a 3x stall: the median is the
        // undisturbed value, the mean is not.
        let mut per_segment = vec![100.0; 10];
        per_segment[3] = 33.0;
        per_segment[4] = 35.0;
        assert_eq!(median(&per_segment), 100.0);
        assert!((spread(&per_segment) - 0.67).abs() < 1e-9);
    }

    #[test]
    fn segment_ranges_cover_all_blocks_evenly() {
        assert_eq!(segment_ranges(50)[0], (0, 5));
        assert_eq!(segment_ranges(50).len(), 10);
        let r = segment_ranges(147);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, 0);
        assert_eq!(r[9].1, 147);
        for w in r.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        let sizes: Vec<usize> = r.iter().map(|(a, b)| b - a).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        assert_eq!(segment_ranges(3), vec![(0, 1), (1, 2), (2, 3)]);
        assert!(segment_ranges(0).is_empty());
    }
}
