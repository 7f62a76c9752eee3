//! Sample statistics over raw measurements.
//!
//! Quantiles are nearest-rank over the raw samples: the reported value is
//! always one that was actually measured, never an interpolation or a
//! histogram bucket bound.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it (the workspace's
/// experiment harness implementation, tested here for this use).
pub use sdx_bench::quantile;

/// Sorts a copy of `values` ascending (total order; NaN never occurs in
/// timings).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How many samples lie strictly above the nearest-rank `q` quantile —
/// the check that a reported tail percentile rests on at least ten
/// samples beyond it.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let cut = quantile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= cut)
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        // Ranks round up: 0.5 of 5 samples is rank 3.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        // A single sample is every quantile.
        assert_eq!(quantile(&[7.5], 0.01), 7.5);
        assert_eq!(quantile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn quantiles_never_interpolate() {
        let v = sorted(&[10.0, 0.5, 3.0, 1_000.0]);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            assert!(v.contains(&quantile(&v, q)), "q={q}");
        }
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_support_counts_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&v, 0.99), 10);
        assert_eq!(beyond(&v, 0.9), 100);
        // Ties at the cut do not count as beyond it.
        assert_eq!(beyond(&[1.0, 2.0, 2.0, 2.0], 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_a_bug() {
        quantile(&[], 0.5);
    }

    #[test]
    fn quantile_rank_rounds_up_and_clamps() {
        // Rank ceil(n·q), clamped into 1..=n.
        let v = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&v, 0.34), 20.0);
        assert_eq!(quantile(&v, 0.33), 10.0);
        assert_eq!(quantile(&v, 0.0), 10.0);
    }

    #[test]
    fn means_and_ratios() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
