//! Confidence intervals and t-test classification (Figures 7–8, Tables 2–3).
//!
//! §6.2: for each pair, a 95 % confidence interval is placed on the
//! difference between the default path's mean and the best alternate's
//! composed mean (`ū − v̄ ± t[.975; ν]·s`, per Jain). Pairs are then
//! classified better / indeterminate / worse by whether the interval clears
//! zero — "roughly speaking, the percentage of paths for which a better
//! alternate path can be found at the 95 % confidence level represents
//! those paths whose improvement cannot be well explained simply by
//! variation."
//!
//! Composed-path variance: RTT means add, so variances of the means add and
//! Welch–Satterthwaite gives the degrees of freedom. Loss composes as
//! `1 − Π(1 − pᵢ)`; its variance is propagated by the delta method, which
//! for the small per-path rates here reduces to the same sum of variances
//! (each `Π_{j≠i}(1 − pⱼ)` factor is ≈ 1).

use crate::altpath::{PathComparison, SearchDepth};
use crate::analysis::cdf::compare_all_pairs;
use crate::context::AnalysisContext;
use crate::metric::MetricKind;
use detour_measure::PairTable;
use detour_stats::ci::MeanEstimate;
use detour_stats::ttest::{welch_classify, TTestVerdict, VerdictCounts};

/// The paper's confidence level (§6.2), the level of the context's
/// [`AnalysisContext::intervals`] artifact.
pub const PAPER_LEVEL: f64 = 0.95;

/// One pair's interval data: the Figure-7/8 plotting record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairInterval {
    /// Point estimate of the improvement (default − alternate).
    pub improvement: f64,
    /// Half-width of the 95 % CI on that difference.
    pub half_width: f64,
    /// The t-test verdict.
    pub verdict: TTestVerdict,
}

/// Builds the composed [`MeanEstimate`] of an already-found best alternate
/// (`cmp`), together with the default path's estimate.
fn pair_estimates(
    t: &PairTable,
    cmp: &PathComparison,
    metric: &MetricKind,
) -> Option<(MeanEstimate, MeanEstimate)> {
    let hops: Vec<usize> = cmp.hops().map(|h| t.host_index(h)).collect::<Option<_>>()?;
    let (s, d) = (hops[0], hops[hops.len() - 1]);
    let default_est = MeanEstimate::from_summary(&metric.summary(t, s, d)?);

    // Walk the alternate's hops and sum the per-edge estimates.
    let parts: Option<Vec<MeanEstimate>> = hops
        .windows(2)
        .map(|w| {
            metric
                .summary(t, w[0], w[1])
                .map(|s| MeanEstimate::from_summary(&s))
        })
        .collect();
    let mut alt_est = MeanEstimate::sum(&parts?)?;
    // Replace the summed mean with the metric's true composition (identical
    // for RTT; the delta-method point estimate for loss).
    alt_est.mean = cmp.alternate_value;
    Some((default_est, alt_est))
}

/// Per-pair intervals for a whole dataset at the given confidence level.
///
/// The best-alternate searches run as one kernel sweep
/// ([`compare_all_pairs`]); only the surviving comparisons pay for the
/// per-edge summary walks.
pub fn pair_intervals(cx: &AnalysisContext, metric: &MetricKind, level: f64) -> Vec<PairInterval> {
    compare_all_pairs(cx, metric, SearchDepth::Unrestricted)
        .iter()
        .filter_map(|cmp| {
            let (default_est, alt_est) = pair_estimates(cx.table(), cmp, metric)?;
            let ci = default_est.diff(&alt_est).ci(level);
            Some(PairInterval {
                improvement: ci.center,
                half_width: ci.half_width,
                verdict: welch_classify(&default_est, &alt_est, &ci),
            })
        })
        .collect()
}

/// One Table-2/3 row: verdict counts over a dataset's pair intervals.
pub fn verdict_table(intervals: &[PairInterval]) -> VerdictCounts {
    let mut counts = VerdictCounts::default();
    for pi in intervals {
        counts.record(pi.verdict);
    }
    counts
}

/// The Figure-7/8 series: improvements sorted ascending with their CDF
/// fraction and interval half-width, `(improvement, fraction, half_width)`.
pub fn interval_cdf_series(intervals: &[PairInterval]) -> Vec<(f64, f64, f64)> {
    let mut pis = intervals.to_vec();
    pis.sort_by(|a, b| a.improvement.partial_cmp(&b.improvement).unwrap());
    let n = pis.len() as f64;
    pis.iter()
        .enumerate()
        .map(|(i, p)| (p.improvement, (i + 1) as f64 / n, p.half_width))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use crate::metric::{Loss, Rtt};
    use detour_measure::Dataset;
    use detour_prng::Rng;
    use detour_prng::Xoshiro256pp;

    /// Dataset with noisy RTTs: direct 0→2 slow, detour via 1 fast. Each
    /// sample adds up to `noise` ms of queuing to its path's base, so RTTs
    /// stay positive however large the noise.
    fn noisy_dataset(noise: f64, n_probes: usize) -> Dataset {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let mut b = Dataset::builder("N");
        b.hosts(3);
        for (src, dst, base) in [(0, 2, 100.0), (0, 1, 20.0), (1, 2, 20.0)] {
            for k in 0..n_probes {
                b.probe(src, dst, k as f64, Some(base + rng.gen_range(0.0..noise)));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn clear_improvement_is_classified_better() {
        let cx = AnalysisContext::from_dataset(&noisy_dataset(5.0, 50));
        let table = verdict_table(cx.intervals(&Rtt));
        // Only 0→2 has an alternate (other pairs lack detours with both
        // edges); that one is decisively better.
        assert_eq!(table.better, 1);
        assert_eq!(table.worse + table.indeterminate + table.zero, 0);
    }

    #[test]
    fn huge_noise_turns_indeterminate() {
        // Noise swamping the 60 ms gap with only a handful of samples.
        let cx = AnalysisContext::from_dataset(&noisy_dataset(400.0, 4));
        let table = verdict_table(cx.intervals(&Rtt));
        assert_eq!(table.indeterminate, 1, "{table:?}");
    }

    #[test]
    fn interval_series_is_sorted_and_fractions_reach_one() {
        let cx = AnalysisContext::from_dataset(&noisy_dataset(5.0, 30));
        let series = interval_cdf_series(cx.intervals(&Rtt));
        assert!(!series.is_empty());
        for w in series.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((series.last().unwrap().1 - 1.0).abs() < 1e-12);
        for &(_, _, hw) in &series {
            assert!(hw >= 0.0);
        }
    }

    #[test]
    fn lossless_pairs_classify_as_zero() {
        // All probes return: loss 0 everywhere → Zero verdict.
        let cx = AnalysisContext::from_dataset(&noisy_dataset(5.0, 40));
        let table = verdict_table(cx.intervals(&Loss));
        assert_eq!(table.zero, 1, "{table:?}");
    }
}
