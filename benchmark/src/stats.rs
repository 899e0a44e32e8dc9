//! Order statistics the reports are built from.

/// The `q`-th percentile (0–100) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` % of the samples at or below it.
/// Always one of the measured values, never an interpolation.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so a spread computed here reads the
/// same as one computed by the driver.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two values (one run says nothing about spread).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndirect_support::Rng64;

    /// The definition, spelled out: count the samples at or below each
    /// candidate and take the first that covers `q` %.
    fn percentile_oracle(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        for &candidate in &sorted {
            let at_or_below = samples.iter().filter(|&&s| s <= candidate).count();
            if at_or_below as f64 * 100.0 >= q * samples.len() as f64 {
                return candidate;
            }
        }
        *sorted.last().unwrap()
    }

    #[test]
    fn percentile_matches_the_sort_oracle() {
        let mut rng = Rng64::seed_from_u64(7);
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let samples: Vec<f64> = (0..len).map(|_| rng.next_f64() * 100.0).collect();
            for q in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    percentile(&samples, q),
                    percentile_oracle(&samples, q),
                    "len {len} q {q}"
                );
            }
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn geomean_weights_values_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }
}
