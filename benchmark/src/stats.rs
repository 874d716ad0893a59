//! Order statistics under the benchmark's sample-count rule.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q` quantile (nearest rank), or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it: a p99 needs 1,000 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.is_empty() {
        return None;
    }
    let idx = rank(v.len(), q);
    (v.len() - 1 - idx >= MIN_BEYOND).then(|| v[idx])
}

/// The highest quantile not above `q` that the sample supports, for
/// per-layer tails whose sample count varies with the workload.
/// `None` only when there are not more than [`MIN_BEYOND`] samples.
pub fn percentile_supported(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    if v.len() <= MIN_BEYOND {
        return None;
    }
    Some(v[rank(v.len(), q).min(v.len() - 1 - MIN_BEYOND)])
}

/// The median (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method the driver uses), or `None` for fewer than two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the first and third quartile.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    quartiles(samples).map(|(q1, q3)| q3 - q1)
}

/// The value the better quarter of the samples reached: the third
/// quartile when more is better, the first when less is; a lone sample
/// is its own.
pub fn better_quartile(samples: &[f64], more_is_better: bool) -> Option<f64> {
    let Some((q1, q3)) = quartiles(samples) else {
        return samples.first().copied();
    };
    // (the exclusive method extrapolates beyond a sample of two)
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    Some(if more_is_better { q3 } else { q1 }.clamp(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1,000: rank 990, ten beyond -> reported
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // one sample fewer leaves nine beyond
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p50 of 20 has exactly ten beyond; of 19 only nine
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn supported_percentile_falls_back_to_the_highest_the_sample_carries() {
        // 100 samples cannot carry a p99; the highest supported rank
        // leaves ten beyond
        assert_eq!(percentile_supported(&ramp(100), 0.99), Some(90.0));
        assert_eq!(percentile_supported(&ramp(2000), 0.99), Some(1980.0));
        assert_eq!(percentile_supported(&ramp(10), 0.99), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartile_spread(&ramp(10)), Some(5.5));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartile_spread(&[8.0, 1.0, 4.0, 2.0]), Some(5.75));
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn better_quartile_takes_the_fast_end() {
        // statistics.quantiles(range(1, 10), n=4) == [2.5, 5.0, 7.5]
        assert_eq!(better_quartile(&ramp(9), true), Some(7.5));
        assert_eq!(better_quartile(&ramp(9), false), Some(2.5));
        // of three passes, the best one
        assert_eq!(better_quartile(&[5.0, 9.0, 7.0], true), Some(9.0));
        assert_eq!(better_quartile(&[5.0, 9.0, 7.0], false), Some(5.0));
        assert_eq!(better_quartile(&[4.0, 8.0], true), Some(8.0));
        assert_eq!(better_quartile(&[4.0], true), Some(4.0));
        assert_eq!(better_quartile(&[], true), None);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
