//! Order statistics the ledger reports: nearest-rank percentiles with the
//! "enough samples beyond" rule, medians over rounds, and the quartile
//! spread the driver computes with Python's `statistics.quantiles`.

/// Sorted copy (NaN-free inputs; `total_cmp` keeps it total anyway).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` in `n` samples: `ceil(p·n)`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[nearest_rank(n, p) - 1],
    }
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// Median; the mean of the middle two for an even count, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as `statistics.quantiles(values, n=4)` gives them (the
/// default "exclusive" method). Fewer than two values: all three equal.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The best of the values: the largest rate, the smallest time; 0 when
/// empty. See `run::aggregate` for why rounds are summed up this way.
pub fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver holds against a metric's bound.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Largest pairwise relative difference: `(max − min) / min`.
pub fn max_pairwise_rel_diff(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(&lo), Some(&hi)) if lo > 0.0 => (hi - lo) / lo,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn samples_beyond_rule() {
        // 150 samples: p90 is rank 135, leaving 15 beyond; p99 leaves 1.
        assert_eq!(beyond(150, 0.90), 15);
        assert_eq!(beyond(150, 0.99), 1);
        // Pooled over seven rounds p99 has its ten.
        assert_eq!(beyond(7 * 150, 0.99), 10);
        assert_eq!(beyond(10, 0.5), 5);
        assert_eq!(beyond(1, 0.9), 0);
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn median_over_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Three disturbed rounds out of seven move nothing.
        assert_eq!(median(&[1.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0]), 1.0);
    }

    #[test]
    fn best_round() {
        // Six disturbed rounds out of seven move nothing.
        let times = [9.0, 8.0, 9.5, 9.0, 1.0, 9.0, 9.0];
        assert_eq!(best(&times, false), 1.0);
        let rates = [1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(best(&rates, true), 5.0);
        // A change to the program moves every round, the best one too.
        let slower: Vec<f64> = times.iter().map(|t| t * 1.1).collect();
        assert!((best(&slower, false) - 1.1).abs() < 1e-12);
        assert_eq!(best(&[], false), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_difference() {
        assert!((max_pairwise_rel_diff(&[1.0, 1.1, 1.05]) - 0.1).abs() < 1e-12);
        assert_eq!(max_pairwise_rel_diff(&[2.0]), 0.0);
        assert_eq!(max_pairwise_rel_diff(&[]), 0.0);
    }
}
