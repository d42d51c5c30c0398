//! Order statistics over repetitions.

/// Sorts `values` ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `p`-th percentile (0–100) of ascending `sorted`, linearly
/// interpolated between the two nearest ranks. Empty input reads as 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The value a timing is reported as, given its per-rep `values`: their
/// **lower decile**.
///
/// Not the median, because the reference host's noise is one-sided and
/// comes in episodes: for seconds at a time a neighbour on the shared
/// cores makes every process 1.4–1.9× slower (CPU time and wall alike),
/// and never faster. Over 200 s of back-to-back `rsq` runs cut into 10 s
/// windows, the windows' medians spread by 16 % of their median (distance
/// between quartiles), their first quartiles by 6–8 %, their lower deciles
/// by 4–5 % and their minima by 2–4 %. The decile keeps most of the
/// minimum's steadiness without resting on a single rep, and a slower
/// program moves it exactly as it moves the median.
pub fn typical(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 10.0)
}

/// Inter-quartile distance of unsorted `values`, with the quartiles
/// Python's `statistics.quantiles(values, n=4)` returns (the "exclusive"
/// method: rank `p·(n+1)`), because that is what the PR driver computes.
pub fn iqr(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let q = |p: f64| {
        let rank = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(n);
        s[lo - 1] + (s[hi - 1] - s[lo - 1]) * (rank - lo as f64)
    };
    q(0.75) - q(0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = sorted(vec![40.0, 10.0, 30.0, 20.0]);
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 50.0), 25.0);
        assert_eq!(percentile(&s, 100.0), 40.0);
        assert!((percentile(&s, 90.0) - 37.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_reps_ignores_one_outlier() {
        assert_eq!(median(&[5.0, 1000.0, 4.0, 6.0, 5.5]), 5.5);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn typical_is_the_lower_decile_and_shrugs_off_slow_reps() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(typical(&v), 1.0);
        // Half the reps hit a slow episode: the estimate stays put.
        assert!(typical(&[5.0, 9.0, 5.2, 9.5, 5.1, 9.1, 5.3, 9.9]) < 5.2);
        // One lucky rep does not decide it alone.
        assert!(typical(&[1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]) == 5.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&v) - 5.5).abs() < 1e-9);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((iqr(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(iqr(&[1.0]), 0.0);
    }
}
