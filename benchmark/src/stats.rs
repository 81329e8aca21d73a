//! Order statistics and the regression-bound arithmetic.

/// A copy of `xs` in ascending order.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method, which
/// extrapolates for small samples), so calibration spreads read the same
/// as a Python script's. A single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |p: f64| {
        let h = p * (n + 1) as f64;
        let j = (h.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (h - j as f64)
    };
    (q(0.25), q(0.5), q(0.75))
}

/// The interquartile range as a share of the median; 0 when the median is.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Largest bound a metric may carry in `BENCHMARK.json`.
pub const MAX_BOUND: f64 = 0.25;

/// The regression bound for a metric with this relative `spread` and
/// `median`: three spreads, so that the run-to-run spread stays under a
/// third of the bound, at least 3 %, and at least the absolute floor
/// (`floor`, in the metric's unit) relative to the median, capped at
/// [`MAX_BOUND`].
pub fn bound(spread: f64, median: f64, floor: f64) -> f64 {
    let floor_rel = if median > 0.0 { floor / median } else { 0.0 };
    (3.0 * spread).max(0.03).max(floor_rel).min(MAX_BOUND)
}

/// The absolute floor of a bound for a metric in `unit`: 0.05 s for times
/// and 2 MB for memory, so a near-zero quantity does not flap.
pub fn floor_for(unit: &str) -> f64 {
    match unit {
        "s" => 0.05,
        "MB" => 2.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, m, q3) = quartiles(&xs);
        assert!(close(q1, 2.75) && close(m, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, m, q3) = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(m, 1.5) && close(q3, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&xs), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn bound_takes_the_largest_rule_and_caps() {
        assert!(close(bound(0.02, 10.0, 0.05), 0.06));
        assert!(close(bound(0.001, 10.0, 0.0), 0.03));
        // 0.05 s on a 0.5 s median is a 10 % floor.
        assert!(close(bound(0.001, 0.5, floor_for("s")), 0.1));
        assert_eq!(bound(0.5, 10.0, 0.0), MAX_BOUND);
        assert!(close(bound(0.0, 0.0, 2.0), 0.03));
    }
}
