//! Mean vs. median robustness check (Figure 6).
//!
//! §6.1: the mean is the paper's characteristic statistic for its additive
//! property, but a skewed distribution could mislead it. "We combine
//! medians by convolving the distributions of the round-trip times in each
//! path, and using the median of the resulting distribution. … To keep the
//! computational costs reasonable we limit the length of alternate paths
//! for both means and medians to one hop." The finding: the difference is
//! negligible.
//!
//! Each directed pair's RTT histogram is built once per analysis, as
//! integer prefix counts ([`BinCounts`]), and every relay's two-leg median
//! comes from bisecting those counts ([`BinCounts::median_of_sum`]) rather
//! than from a materialized convolution. The current `detour-obs` recorder
//! gets the work: `median/relay_medians` (two-leg medians computed) and
//! `median/cdf_steps` (prefix counts the bisections evaluated).

use crate::altpath::SearchDepth;
use crate::analysis::cdf::{compare_all_pairs, improvement_cdf};
use crate::context::AnalysisContext;
use crate::metric::Rtt;
use detour_measure::PairTable;
use detour_stats::convolve::BinCounts;
use detour_stats::quantile::median;
use detour_stats::Cdf;

/// Bin width (ms) of the convolution grid. Sub-millisecond RTT
/// structure is irrelevant at the 10–100 ms scale of the figures.
pub const CONVOLUTION_BIN_MS: f64 = 1.0;

/// The two Figure-6 curves.
#[derive(Debug, Clone)]
pub struct MeanMedianComparison {
    /// Improvement CDF using means (one-hop alternates).
    pub mean_based: Cdf,
    /// Improvement CDF using convolved medians (one-hop alternates).
    pub median_based: Cdf,
}

/// Every directed pair's RTT histogram on the convolution grid, per
/// `i * n + j` cell; `None` for a pair without samples.
fn histograms(t: &PairTable) -> Vec<Option<BinCounts>> {
    let n = t.len();
    (0..n * n)
        .map(|c| BinCounts::from_samples(t.rtt_samples(c / n, c % n), CONVOLUTION_BIN_MS))
        .collect()
}

/// Two-leg medians computed and prefix counts evaluated, for the
/// `median/*` counters.
#[derive(Default)]
struct Work {
    relay_medians: u64,
    cdf_steps: u64,
}

/// Best one-hop alternate for `s → d` judged by median (via convolution);
/// returns the improvement `default_median − best_alternate_median`.
/// Unmeasured legs have no samples and drop out.
fn median_improvement(
    t: &PairTable,
    hist: &[Option<BinCounts>],
    s: usize,
    d: usize,
    work: &mut Work,
) -> Option<f64> {
    let default_median = median(t.rtt_samples(s, d))?;
    let n = t.len();
    let mut best: Option<f64> = None;
    for m in 0..n {
        if m == s || m == d {
            continue;
        }
        let (Some(d1), Some(d2)) = (&hist[s * n + m], &hist[m * n + d]) else {
            continue;
        };
        let (med, steps) = d1.median_of_sum(d2);
        work.relay_medians += 1;
        work.cdf_steps += u64::from(steps);
        if best.is_none_or(|b| med < b) {
            best = Some(med);
        }
    }
    Some(default_median - best?)
}

/// Runs the Figure-6 analysis over a dataset's context.
pub fn analyze(cx: &AnalysisContext) -> MeanMedianComparison {
    let mean_based = improvement_cdf(&compare_all_pairs(cx, &Rtt, SearchDepth::OneHop));
    let t = cx.table();
    let hist = histograms(t);
    let mut work = Work::default();
    let median_based = Cdf::from_samples(
        t.measured_pairs()
            .filter_map(|(s, d)| median_improvement(t, &hist, s, d, &mut work)),
    );
    let rec = detour_obs::current();
    rec.add("median/relay_medians", work.relay_medians);
    rec.add("median/cdf_steps", work.cdf_steps);
    MeanMedianComparison {
        mean_based,
        median_based,
    }
}

/// Maximum vertical gap between the two CDFs sampled on `[lo, hi]` — the
/// figure's "the difference is negligible" check, quantified
/// (a Kolmogorov–Smirnov-style statistic).
pub fn max_cdf_gap(cmp: &MeanMedianComparison, lo: f64, hi: f64, grid: usize) -> f64 {
    (0..=grid)
        .map(|i| {
            let x = lo + (hi - lo) * i as f64 / grid as f64;
            (cmp.mean_based.eval(x) - cmp.median_based.eval(x)).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_measure::Dataset;
    use detour_prng::Rng;
    use detour_prng::Xoshiro256pp;

    /// Triangle dataset with symmetric RTT noise around the given bases.
    fn dataset(skewed: bool) -> Dataset {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut b = Dataset::builder("M");
        b.hosts(3);
        for (s, d, base) in [(0, 2, 100.0f64), (0, 1, 25.0), (1, 2, 25.0)] {
            for k in 0..200 {
                // Symmetric noise, plus (optionally) rare huge outliers that
                // drag the mean but not the median.
                let mut rtt = base + rng.gen_range(-5.0..5.0);
                if skewed && k % 25 == 0 {
                    rtt += 500.0;
                }
                b.probe(s, d, k as f64, Some(rtt));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn symmetric_noise_gives_negligible_gap() {
        let cx = AnalysisContext::from_dataset(&dataset(false));
        let cmp = analyze(&cx);
        assert_eq!(cmp.mean_based.len(), cmp.median_based.len());
        // Mean-based improvement ≈ median-based ≈ 100 − 50 = 50 ms.
        let m = cmp.mean_based.inverse(0.5).unwrap();
        let md = cmp.median_based.inverse(0.5).unwrap();
        assert!((m - md).abs() < 3.0, "mean {m} vs median {md}");
    }

    #[test]
    fn median_resists_outliers_the_mean_does_not() {
        let cx = AnalysisContext::from_dataset(&dataset(true));
        let cmp = analyze(&cx);
        // Outliers inflate the default path's *mean* (and both detour legs'
        // means) by 20 ms each; medians barely move. The median-based
        // improvement stays ≈ 50; the mean-based improvement becomes
        // 120 − 2·45 ≈ 30... either way the two curves now differ.
        let gap = max_cdf_gap(&cmp, -50.0, 150.0, 400);
        assert!(gap > 0.3, "expected visible separation, gap {gap}");
    }

    #[test]
    fn convolved_median_matches_exhaustive_for_point_masses() {
        // When every sample on each leg is constant, the convolved median
        // must equal the sum of the constants.
        let mut ds = dataset(false);
        ds.probes = ds
            .probes
            .iter()
            .map(|mut p| {
                let base = match (p.src.0, p.dst.0) {
                    (0, 2) => 100.0,
                    _ => 25.0,
                };
                p.rtt_ms = Some(base);
                p
            })
            .collect();
        let cx = AnalysisContext::from_dataset(&ds);
        let cmp = analyze(&cx);
        let med_impr = cmp.median_based.inverse(0.5).unwrap();
        assert!(
            (med_impr - 50.0).abs() <= 2.0 * CONVOLUTION_BIN_MS,
            "got {med_impr}"
        );
    }
}
