//! Order statistics over a sample. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), because
//! that is what the acceptance check applies to this benchmark's output.

/// Median, quartiles and range of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, exclusive method. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // `delta` may exceed 4 at the clamped ends; the interpolation then
        // extrapolates, exactly as the Python implementation does.
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The reported value of a repeated timing: its lower quartile. On a
/// shared machine interference only ever adds time, in bursts that last
/// seconds; the lower quartile stays inside the undisturbed samples until
/// three quarters of them are hit, where the median gives way at half.
/// Measured over ten runs in a noisy quarter of an hour, it halved the
/// run-to-run spread of the sub-3 ms queries (0.19-0.24 against
/// 0.28-0.41) and never widened one. The median and both quartiles are
/// printed beside every value reported this way.
pub fn quiet_time(samples: &[f64]) -> f64 {
    quartiles(samples).0
}

/// The reported value of a repeated rate: its upper quartile, for the
/// reason [`quiet_time`] gives.
pub fn quiet_rate(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// Everything at once.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = quartiles(&v);
    Summary {
        n: v.len(),
        min: v[0],
        q1,
        median: median(&v),
        q3,
        max: v[v.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn quiet_values_are_the_quartile_on_the_undisturbed_side() {
        // Seven quiet samples and three hit by a burst.
        let times = [10.0, 10.2, 9.9, 10.1, 10.0, 30.0, 25.0, 10.3, 40.0, 9.8];
        assert!((9.8..=10.1).contains(&quiet_time(&times)));
        let rates: Vec<f64> = times.iter().map(|t| 1000.0 / t).collect();
        assert!((99.0..=102.1).contains(&quiet_rate(&rates)));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
