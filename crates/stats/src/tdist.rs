//! The Student-t distribution.
//!
//! The paper computes per-path 95 % confidence intervals as
//! `x̄ − ȳ ± t[.975; ν] · s` following Jain \[Jai91\] (§6.2). That requires the
//! `(1 − α/2)`-quantile of the t distribution with ν degrees of freedom.
//! We implement the t CDF through the regularized incomplete beta function
//! (Lanczos log-gamma + Lentz continued fraction) and invert it by bisection
//! — no lookup tables, valid for any ν ≥ 1.

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Accurate to ~1e-13 for positive arguments, which is far more than the
/// statistics here require.
pub fn ln_gamma(x: f64) -> f64 {
    // Coefficients for the g=7, n=9 Lanczos approximation, kept at their
    // published precision (the trailing digits round away in f64).
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula keeps small arguments accurate.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Uses the continued-fraction expansion (modified Lentz), with the standard
/// symmetry switch for fast convergence.
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "inc_beta requires positive shape parameters"
    );
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (Numerical Recipes `betacf`).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-14;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the Student-t distribution with `df` degrees of freedom.
pub fn t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if t == 0.0 {
        return 0.5;
    }
    let x = df / (df + t * t);
    let p = 0.5 * inc_beta(df / 2.0, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Quantile (inverse CDF) of the Student-t distribution: the value `t` such
/// that `P(T <= t) = p`.
///
/// `t_quantile(0.975, v)` is the paper's `t[.975; v]`.
pub fn t_quantile(p: f64, df: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&p) && p > 0.0,
        "p must be in (0, 1), got {p}"
    );
    assert!(df > 0.0);
    if (p - 0.5).abs() < 1e-15 {
        return 0.0;
    }
    // Bracket then bisect; the t CDF is strictly increasing.
    let (mut lo, mut hi) = (-1.0f64, 1.0f64);
    while t_cdf(lo, df) > p {
        lo *= 2.0;
        assert!(lo > -1e12, "failed to bracket t quantile");
    }
    while t_cdf(hi, df) < p {
        hi *= 2.0;
        assert!(hi < 1e12, "failed to bracket t quantile");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Gamma(n) = (n-1)!
        let cases = [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (5.0, 24.0),
            (7.0, 720.0),
        ];
        for (x, expect) in cases {
            assert!(
                (ln_gamma(x).exp() - expect).abs() / expect < 1e-10,
                "Gamma({x})"
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Gamma(1/2) = sqrt(pi)
        let g = ln_gamma(0.5).exp();
        assert!((g - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn inc_beta_boundaries() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn inc_beta_uniform_case() {
        // I_x(1, 1) = x.
        for i in 1..10 {
            let x = i as f64 / 10.0;
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn t_cdf_is_symmetric() {
        for &df in &[1.0, 3.0, 10.0, 30.0] {
            for &t in &[0.5, 1.0, 2.5] {
                let p = t_cdf(t, df) + t_cdf(-t, df);
                assert!((p - 1.0).abs() < 1e-10, "df={df} t={t}");
            }
        }
    }

    #[test]
    fn t_quantiles_match_tables() {
        // Classic t-table values for t[.975; v].
        let table = [
            (1.0, 12.706),
            (2.0, 4.303),
            (5.0, 2.571),
            (10.0, 2.228),
            (30.0, 2.042),
            (120.0, 1.980),
        ];
        for (df, expect) in table {
            let got = t_quantile(0.975, df);
            assert!(
                (got - expect).abs() < 2e-3,
                "df={df}: got {got}, want {expect}"
            );
        }
    }

    #[test]
    fn t_quantile_approaches_normal_for_large_df() {
        let got = t_quantile(0.975, 1e6);
        assert!((got - 1.959_96).abs() < 1e-3, "got {got}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &df in &[2.0, 7.0, 29.0] {
            for &p in &[0.05, 0.25, 0.5, 0.9, 0.975] {
                let t = t_quantile(p, df);
                assert!((t_cdf(t, df) - p).abs() < 1e-9, "df={df} p={p}");
            }
        }
    }
}
