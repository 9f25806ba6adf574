//! Order statistics of samples and the run-set comparison behind
//! `benchmark agree`.

/// Linear-interpolated percentile (`q ∈ [0, 1]`) of an ascending slice;
/// `NaN` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes its cut points. With fewer than two values every quartile is
/// that value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile.
fn iqr(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    q3 - q1
}

/// How two sets of runs of one `(workload, metric)` compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by no more than the allowance.
    Agree,
    /// The medians differ by more than the allowance, and each set's
    /// interquartile range is within it.
    Differs,
    /// A set's interquartile range is wider than the allowance, so the runs
    /// cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Differs => "differs",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares set `b` against set `a`. The allowance is `bound` (a share of
/// `a`'s median) or the absolute `floor`, whichever is larger.
///
/// A zero allowance means any increase counts, and spread is not consulted:
/// the sets differ as soon as `b` holds a value above the largest of `a`, or
/// `b`'s median is above `a`'s.
pub fn compare(a: &[f64], b: &[f64], bound: f64, floor: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let allowed = (bound * ma.abs()).max(floor);
    if allowed == 0.0 {
        let largest = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        return if largest(b) > largest(a) || mb > ma {
            Verdict::Differs
        } else {
            Verdict::Agree
        };
    }
    if iqr(a) > allowed || iqr(b) > allowed {
        Verdict::Unresolved
    } else if (mb - ma).abs() <= allowed {
        Verdict::Agree
    } else {
        Verdict::Differs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn relative_bound_decides_agree_and_differs() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let within = [104.0, 105.0, 103.0, 104.0, 104.5];
        let beyond = [115.0, 116.0, 114.0, 115.0, 115.5];
        assert_eq!(compare(&a, &within, 0.10, 0.0), Verdict::Agree);
        assert_eq!(compare(&a, &beyond, 0.10, 0.0), Verdict::Differs);
        // Improvements beyond the bound differ too: the sets disagree.
        assert_eq!(compare(&beyond, &a, 0.10, 0.0), Verdict::Differs);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(compare(&a, &noisy, 0.10, 0.0), Verdict::Unresolved);
        assert_eq!(compare(&noisy, &a, 0.10, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn absolute_floor_widens_a_small_relative_bound() {
        // Set-up times of a few milliseconds: 10% is 0.2 ms, below their
        // run-to-run spread, so without a floor no comparison resolves.
        let a = [0.0015, 0.0019, 0.0026, 0.0014, 0.0021];
        let slower = [0.0030, 0.0041, 0.0035, 0.0052, 0.0038];
        assert_eq!(compare(&a, &a, 0.10, 0.0), Verdict::Unresolved);
        assert_eq!(compare(&a, &slower, 0.10, 0.0), Verdict::Unresolved);
        // With the 0.05 s floor, a millisecond more is within the allowance.
        assert_eq!(compare(&a, &slower, 0.10, 0.05), Verdict::Agree);
        let much_slower = slower.map(|s| s + 0.06);
        assert_eq!(compare(&a, &much_slower, 0.10, 0.05), Verdict::Differs);
        // Above the floor the relative bound decides again.
        let big = [1.00, 1.01, 0.99, 1.00, 1.005];
        let big_slower = big.map(|s| s * 1.15);
        assert_eq!(compare(&big, &big_slower, 0.10, 0.05), Verdict::Differs);
        assert_eq!(
            compare(&big, &big.map(|s| s * 1.08), 0.10, 0.05),
            Verdict::Agree
        );
    }

    #[test]
    fn zero_bound_flags_any_increase() {
        let clean = [0.0; 5];
        assert_eq!(compare(&clean, &clean, 0.0, 0.0), Verdict::Agree);
        // Three of five runs failing is an increase, however wide the
        // spread of the failing set.
        assert_eq!(
            compare(&clean, &[0.0, 0.0, 0.01, 0.01, 0.01], 0.0, 0.0),
            Verdict::Differs
        );
        // So is one run of five.
        assert_eq!(
            compare(&clean, &[0.0, 0.0, 0.0, 0.0, 0.01], 0.0, 0.0),
            Verdict::Differs
        );
        assert_eq!(compare(&clean, &[0.01; 5], 0.0, 0.0), Verdict::Differs);
        // Fewer failures is no increase.
        assert_eq!(
            compare(&[0.0, 0.0, 0.0, 0.01, 0.02], &clean, 0.0, 0.0),
            Verdict::Agree
        );
    }
}
