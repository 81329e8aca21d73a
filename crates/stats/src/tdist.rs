//! The Student-t distribution.
//!
//! The paper computes per-path 95 % confidence intervals as
//! `x̄ − ȳ ± t[.975; ν] · s` following Jain \[Jai91\] (§6.2). That requires the
//! `(1 − α/2)`-quantile of the t distribution with ν degrees of freedom.
//! We implement the t CDF through the regularized incomplete beta function
//! (Lanczos log-gamma + Lentz continued fraction) and invert it by
//! safeguarded Newton steps from Hill's closed-form start — no lookup tables,
//! valid for any ν ≥ 1, and about three CDF evaluations per quantile.

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
    inc_beta_split(a, b, x, 1.0 - x)
}

/// `I_x(a, b)` from `x ∈ (0, 1)` and its complement `y = 1 − x`, each to
/// its own relative precision. Near `x = 1` the symmetry switch works from
/// `I_y(b, a)`, and the logs take whichever of `x` and `y` is smaller, so
/// neither ever forms `1 − x` by subtraction: a caller that knows `y`
/// directly loses nothing to cancellation.
fn inc_beta_split(a: f64, b: f64, x: f64, y: f64) -> f64 {
    // `ln v` for `v = 1 − w`, from the smaller of the two.
    let ln = |v: f64, w: f64| if v < 0.5 { v.ln() } else { (-w).ln_1p() };
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * ln(x, y) + b * ln(y, x);
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, y) / b
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
    // The lower tail is `½ I_x(ν/2, ½)` with `x = ν / (ν + t²)`. Near the
    // centre `x` is within `t²/ν` of 1, so the tail comes from
    // `y = t² / (ν + t²)` as `½ (1 − I_y(½, ν/2))` instead of from `1 − x`.
    let t2 = t * t;
    let p = 0.5 * inc_beta_split(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2));
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
    solve_quantile(p, df).0
}

/// [`t_quantile`] and the number of [`t_cdf`] evaluations it took.
///
/// By symmetry it solves for `q ≥ 0` with `t_cdf(−q) = min(p, 1 − p)`: the
/// lower tail is what [`t_cdf`] computes directly, and `1 − p` is exact for
/// `p ≥ ½`. Hill's closed form starts the search; each step is Newton's with
/// the second-order Taylor term (the t density is the derivative, and its log
/// derivative is `−(ν + 1) q / (ν + q²)`), and must land inside the bracket
/// that the evaluations so far have established, or the bracket is bisected
/// instead (the `rtsafe` shape). Once a step moves `q` by less than
/// `1e-9 · q`, the third-order convergence leaves nothing but the rounding
/// of [`t_cdf`] itself, so that step is the last. A bracket that narrow
/// also ends the search, in case that rounding keeps the steps from ever
/// getting that small.
fn solve_quantile(p: f64, df: f64) -> (f64, u32) {
    const TOL: f64 = 1e-9;
    assert!(
        (0.0..1.0).contains(&p) && p > 0.0,
        "p must be in (0, 1), got {p}"
    );
    assert!(df > 0.0);
    if (p - 0.5).abs() < 1e-15 {
        return (0.0, 0);
    }
    let tail = p.min(1.0 - p);
    let ln_norm =
        ln_gamma((df + 1.0) / 2.0) - ln_gamma(df / 2.0) - 0.5 * (df * std::f64::consts::PI).ln();
    let start = hill_start(2.0 * tail, df);
    let mut q = if start.is_finite() && start > 0.0 {
        start
    } else {
        1.0
    };
    // The root lies in (lo, hi): t_cdf(−q) falls as q grows.
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    let mut evals = 0;
    loop {
        let excess = t_cdf(-q, df) - tail;
        evals += 1;
        if excess == 0.0 {
            break;
        }
        if excess > 0.0 {
            lo = q;
        } else {
            hi = q;
        }
        let density = (ln_norm - 0.5 * (df + 1.0) * (q * q / df).ln_1p()).exp();
        let x = excess / density;
        let step = x * (1.0 + x * q * (df + 1.0) / (2.0 * (df + q * q)));
        if step.abs() <= TOL * q {
            q += step;
            break;
        }
        let next = q + step;
        q = if next > lo && next < hi {
            next
        } else if hi.is_finite() {
            0.5 * (lo + hi)
        } else {
            2.0 * q
        };
        if hi.is_finite() && hi - lo <= TOL * hi {
            break;
        }
    }
    (if p < 0.5 { -q } else { q }, evals)
}

/// Hill's (1970, CACM Algorithm 396) closed-form approximation to the upper
/// point `q > 0` with two-sided tail probability `P(|T| > q) = two_sided`:
/// an expansion about the normal quantile for moderate tails, and one in
/// powers of `two_sided^(2/ν)` for the far tail. It is within a few parts in
/// 10³ of the root for ν ≥ 1.7 (often 10⁻⁵), and within 30 % down to ν = 1,
/// which leaves [`solve_quantile`] one to three steps.
fn hill_start(two_sided: f64, df: f64) -> f64 {
    let a = 1.0 / (df - 0.5);
    let b = 48.0 / (a * a);
    let mut c = ((20_700.0 * a / b - 98.0) * a - 16.0) * a + 96.36;
    let d = ((94.5 / (b + c) - 3.0) / b + 1.0) * (a * std::f64::consts::FRAC_PI_2).sqrt() * df;
    let y = (d * two_sided).powf(2.0 / df);
    let y = if (df < 2.1 && two_sided > 0.5) || y > 0.05 + a {
        let x = -normal_upper_quantile(0.5 * two_sided);
        let x2 = x * x;
        if df < 5.0 {
            c += 0.3 * (df - 4.5) * (x + 0.6);
        }
        c += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b;
        let y = (((((0.4 * x2 + 6.3) * x2 + 36.0) * x2 + 94.5) / c - x2 - 3.0) / b + 1.0) * x;
        (a * y * y).exp_m1()
    } else {
        ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
            + 0.5 / (df + 4.0))
            * y
            - 1.0)
            * (df + 1.0)
            / (df + 2.0)
            + 1.0 / y
    };
    (df * y).sqrt()
}

/// The standard normal's upper-tail point `z` with `P(Z > z) = tail`, for
/// `tail ≤ ½` (Abramowitz & Stegun 26.2.23; absolute error below 4.5e-4).
fn normal_upper_quantile(tail: f64) -> f64 {
    let t = (-2.0 * tail.ln()).sqrt();
    t - (2.515_517 + (0.802_853 + 0.010_328 * t) * t)
        / (1.0 + (1.432_788 + (0.189_269 + 0.001_308 * t) * t) * t)
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

    /// The reference quantile: bracket by doubling, then halve `[lo, hi]`
    /// until it is narrower than 1e-12 (or 200 halvings). About 50 `t_cdf`
    /// evaluations, but it assumes nothing about `t_cdf` beyond
    /// monotonicity.
    fn bisection_quantile(p: f64, df: f64) -> f64 {
        let (mut lo, mut hi) = (-1.0f64, 1.0f64);
        while t_cdf(lo, df) > p {
            lo *= 2.0;
        }
        while t_cdf(hi, df) < p {
            hi *= 2.0;
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

    const GRID_P: [f64; 6] = [1e-6, 0.01, 0.25, 0.6, 0.975, 0.999_999];
    const GRID_DF: [f64; 9] = [1.0, 1.0001, 1.7, 2.37, 5.0, 29.6, 279.0, 1e4, 1e6];

    /// Probabilities from 1e-6 to 1 − 1e-6: log-spaced in both tails, in
    /// steps of 0.05 between 0.1 and 0.9.
    fn probability_sweep() -> Vec<f64> {
        let lower: Vec<f64> = (0..20).map(|j| 1e-6 * 10f64.powf(j as f64 / 4.0)).collect();
        let mut ps = lower.clone();
        ps.extend((2..=18).map(|k| k as f64 / 20.0));
        ps.extend(lower.iter().rev().map(|&p| 1.0 - p));
        ps
    }

    #[test]
    fn quantile_matches_the_closed_forms_at_one_and_two_df() {
        let pi = std::f64::consts::PI;
        for p in probability_sweep() {
            let cauchy = (pi * (p - 0.5)).tan();
            let two = (2.0 * p - 1.0) / (2.0 * p * (1.0 - p)).sqrt();
            // Near the pole, tan magnifies the rounding of π(p − ½) by about
            // 1 / min(p, 1 − p): that is the oracle's precision, not ours.
            let tol = 1e-13 + 1e-16 / p.min(1.0 - p);
            let got = t_quantile(p, 1.0);
            assert!(
                (got - cauchy).abs() <= tol * cauchy.abs().max(1.0),
                "df=1 p={p}: got {got}, want {cauchy}"
            );
            let got = t_quantile(p, 2.0);
            assert!(
                (got - two).abs() <= 1e-13 * two.abs().max(1.0),
                "df=2 p={p}: got {got}, want {two}"
            );
        }
    }

    #[test]
    fn quantile_inverts_the_cdf_and_agrees_with_bisection_on_a_grid() {
        for &df in &GRID_DF {
            for &p in &GRID_P {
                let q = t_quantile(p, df);
                let resid = (t_cdf(q, df) - p).abs();
                assert!(resid <= 1e-12, "df={df} p={p}: |t_cdf(q) − p| = {resid:e}");
                // Near p = 1, t_cdf(t) − p steps in ulps of 1, so bisection
                // resolves t only to about 1e-16 / density; 1e-10 covers it.
                let oracle = bisection_quantile(p, df);
                let dist = (q - oracle).abs() / q.abs().max(1.0);
                assert!(dist <= 1e-10, "df={df} p={p}: {q} vs bisection {oracle}");
            }
        }
    }

    #[test]
    fn quantile_converges_below_one_df_where_hill_gives_no_start() {
        for df in [0.1, 0.3, 0.7] {
            for &p in &GRID_P {
                let q = t_quantile(p, df);
                let resid = (t_cdf(q, df) - p).abs();
                assert!(resid <= 1e-12, "df={df} p={p}: |t_cdf(q) − p| = {resid:e}");
            }
        }
    }

    #[test]
    fn quantile_needs_few_cdf_evaluations() {
        let mut dfs = GRID_DF.to_vec();
        dfs.extend([2.0, 7.5, 63.2]);
        for &df in &dfs {
            for p in probability_sweep().into_iter().chain(GRID_P) {
                let (_, evals) = solve_quantile(p, df);
                assert!(evals <= 4, "df={df} p={p}: {evals} t_cdf evaluations");
            }
        }
        // The paper's t[.975; ν] at its usual Welch degrees of freedom.
        for df in [5.0, 17.3, 41.0, 280.0] {
            let (_, evals) = solve_quantile(0.975, df);
            assert!(evals <= 3, "df={df}: {evals} t_cdf evaluations");
        }
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
