//! Property-based tests for the statistics substrate, on the in-tree
//! deterministic harness (`detour_prng::check`).

use detour_prng::check::check;
use detour_prng::{Rng, Xoshiro256pp};
use detour_stats::ci::MeanEstimate;
use detour_stats::convolve::BinCounts;
use detour_stats::quantile::{median, quantile};
use detour_stats::tdist::{t_cdf, t_quantile};
use detour_stats::{Cdf, Summary};
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "support/float_convolution.rs"]
mod float_convolution;
use float_convolution::SampleDist;

fn samples(rng: &mut Xoshiro256pp) -> Vec<f64> {
    let n = rng.gen_range(1..60usize);
    (0..n).map(|_| rng.gen_range(-1e4..1e4f64)).collect()
}

#[test]
fn welford_matches_naive_mean() {
    check("welford_matches_naive_mean", |rng| {
        let xs = samples(rng);
        let s = Summary::from_slice(&xs).unwrap();
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        assert!(s.variance >= 0.0);
    });
}

#[test]
fn quantile_is_monotone_and_bounded() {
    check("quantile_is_monotone_and_bounded", |rng| {
        let xs = samples(rng);
        let (qa, qb) = (rng.gen_range(0.0..1.0f64), rng.gen_range(0.0..1.0f64));
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let vlo = quantile(&xs, lo).unwrap();
        let vhi = quantile(&xs, hi).unwrap();
        assert!(vlo <= vhi + 1e-12);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(vlo >= min - 1e-12 && vhi <= max + 1e-12);
    });
}

#[test]
fn median_is_between_extremes() {
    check("median_is_between_extremes", |rng| {
        let xs = samples(rng);
        let m = median(&xs).unwrap();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((min..=max).contains(&m));
    });
}

#[test]
fn cdf_eval_is_monotone() {
    check("cdf_eval_is_monotone", |rng| {
        let xs = samples(rng);
        let (a, b) = (rng.gen_range(-1e4..1e4f64), rng.gen_range(-1e4..1e4f64));
        let cdf = Cdf::from_samples(xs);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(cdf.eval(lo) <= cdf.eval(hi));
        assert!((0.0..=1.0).contains(&cdf.eval(lo)));
    });
}

#[test]
fn cdf_fraction_above_complements() {
    check("cdf_fraction_above_complements", |rng| {
        let xs = samples(rng);
        let x = rng.gen_range(-1e4..1e4f64);
        let cdf = Cdf::from_samples(xs);
        assert!((cdf.eval(x) + cdf.fraction_above(x) - 1.0).abs() < 1e-12);
    });
}

/// One leg of a two-hop path: 1–40 samples spread over `0..500`, or a
/// single sample, or every sample in one bin, or whole numbers from a small
/// range (so that running counts often land exactly on half the total).
fn leg(rng: &mut Xoshiro256pp, width: f64) -> Vec<f64> {
    let n = rng.gen_range(1..40usize);
    match rng.gen_range(0..4u32) {
        0 => (0..n).map(|_| rng.gen_range(0.0..500.0f64)).collect(),
        1 => vec![rng.gen_range(0.0..500.0f64)],
        2 => {
            let bin = rng.gen_range(0..100u32) as f64 * width;
            (0..n).map(|_| bin + rng.gen_range(0.0..width)).collect()
        }
        _ => (0..n)
            .map(|_| rng.gen_range(0..6u32) as f64 * 4.0)
            .collect(),
    }
}

#[test]
fn prefix_count_median_is_exact() {
    let exact_halves = AtomicUsize::new(0);
    check("prefix_count_median_is_exact", |rng| {
        let width = [0.5, 1.0, 2.0, 4.0][rng.gen_range(0..4usize)];
        let (xs, ys) = (leg(rng, width), leg(rng, width));
        let (a, b) = (
            BinCounts::from_samples(&xs, width).unwrap(),
            BinCounts::from_samples(&ys, width).unwrap(),
        );
        let (got, _) = a.median_of_sum(&b);

        let oracle = SampleDist::from_samples(&xs, width)
            .unwrap()
            .convolve(&SampleDist::from_samples(&ys, width).unwrap())
            .median();
        assert_eq!(got.to_bits(), oracle.to_bits(), "float convolution");

        // Every binned pairwise sum, sorted: the median bin is the first
        // whose running count reaches half of them.
        let origin =
            |v: &[f64]| (v.iter().copied().fold(f64::INFINITY, f64::min) / width).floor() * width;
        let bin = |x: f64, o: f64| ((x - o) / width).floor() as usize;
        let (oa, ob) = (origin(&xs), origin(&ys));
        let mut sums: Vec<usize> = xs
            .iter()
            .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
            .map(|(x, y)| bin(x, oa) + bin(y, ob))
            .collect();
        sums.sort_unstable();
        let k = sums[sums.len().div_ceil(2) - 1];
        if sums.len().is_multiple_of(2) && sums[sums.len() / 2] != k {
            exact_halves.fetch_add(1, Ordering::Relaxed);
        }
        let brute = oa + ob + (k as f64 + 0.5) * width;
        assert_eq!(got.to_bits(), brute.to_bits(), "brute force");
    });
    assert!(
        exact_halves.into_inner() > 0,
        "no case put exactly half of the sums at or below the median bin"
    );
}

#[test]
fn t_quantile_inverts_cdf() {
    check("t_quantile_inverts_cdf", |rng| {
        let p = rng.gen_range(0.01..0.99f64);
        let df = rng.gen_range(1.0..1e4f64);
        let t = t_quantile(p, df);
        let resid = (t_cdf(t, df) - p).abs();
        assert!(resid < 1e-12, "df={df} p={p}: |t_cdf(t) − p| = {resid:e}");
    });
}

#[test]
fn t_cdf_is_monotone() {
    check("t_cdf_is_monotone", |rng| {
        let df = rng.gen_range(1.0..100.0f64);
        let (a, b) = (rng.gen_range(-50.0..50.0f64), rng.gen_range(-50.0..50.0f64));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(t_cdf(lo, df) <= t_cdf(hi, df) + 1e-12);
    });
}

#[test]
fn ci_widens_with_level() {
    check("ci_widens_with_level", |rng| {
        let est = MeanEstimate {
            mean: rng.gen_range(-100.0..100.0f64),
            var_of_mean: rng.gen_range(0.001..100.0f64),
            df: rng.gen_range(1.0..60.0f64),
        };
        let narrow = est.ci(0.5);
        let wide = est.ci(0.99);
        assert!(wide.half_width >= narrow.half_width);
        assert!((narrow.center - est.mean).abs() < 1e-12);
    });
}

#[test]
fn composed_estimates_add_means() {
    check("composed_estimates_add_means", |rng| {
        let n = rng.gen_range(1..6usize);
        let parts: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(-100.0..100.0f64),
                    rng.gen_range(0.001..10.0f64),
                    rng.gen_range(1.0..50.0f64),
                )
            })
            .collect();
        let ests: Vec<MeanEstimate> = parts
            .iter()
            .map(|&(m, v, d)| MeanEstimate {
                mean: m,
                var_of_mean: v,
                df: d,
            })
            .collect();
        let sum = MeanEstimate::sum(&ests).unwrap();
        let expect_mean: f64 = parts.iter().map(|p| p.0).sum();
        let expect_var: f64 = parts.iter().map(|p| p.1).sum();
        assert!((sum.mean - expect_mean).abs() < 1e-9);
        assert!((sum.var_of_mean - expect_var).abs() < 1e-9);
        // Welch-Satterthwaite df is between min component df and the sum.
        let min_df = parts.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
        let sum_df: f64 = parts.iter().map(|p| p.2).sum();
        assert!(sum.df >= min_df - 1e-9);
        assert!(sum.df <= sum_df + 1e-6);
    });
}
