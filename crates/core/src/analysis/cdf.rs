//! Improvement and ratio CDFs — the paper's standard presentation.
//!
//! §5: "Each graph presented in this section is a cumulative distribution
//! function across all pairs of hosts of the difference between the mean
//! value for the metric in question and the mean value derived for the best
//! alternate path for that metric." Values above zero (above one for
//! ratios) mean the best alternate was superior.

use crate::altpath::{PathComparison, SearchDepth};
use crate::compose::LossComposition;
use crate::context::AnalysisContext;
use crate::kernel::{self, WeightMatrix};
use crate::metric::MetricKind;
use detour_measure::PairTable;
use detour_stats::Cdf;

/// Per-pair comparisons for a whole dataset under an additive metric.
///
/// Borrows the context's cached [`WeightMatrix`] (built at most once per
/// metric family) and rides the source-batched sweep: one SSSP tree per
/// source fanned out over [`crate::pool`] (one reusable scratch per
/// worker), re-settling a tree only for pairs whose tree path is the
/// direct edge. Results merge in pair order, so the result is identical
/// at every thread count — and bit-identical to one textbook Dijkstra per
/// pair, which `tests/batched_kernel.rs` checks.
pub fn compare_all_pairs(
    cx: &AnalysisContext,
    metric: &MetricKind,
    depth: SearchDepth,
) -> Vec<PathComparison> {
    kernel::sweep(cx.weights(metric), depth)
}

/// Per-pair comparisons for an ad-hoc table (a time-of-day slice or an
/// episode from [`PairTable::build_partitioned`], a host-restricted
/// what-if) that has no backing context. Builds a throwaway [`WeightMatrix`];
/// prefer [`compare_all_pairs`] whenever a context exists.
pub fn compare_graph(
    table: &PairTable,
    metric: &MetricKind,
    depth: SearchDepth,
) -> Vec<PathComparison> {
    kernel::sweep(&WeightMatrix::build(table, metric), depth)
}

/// Per-pair comparisons for the bandwidth metric (one-hop, Mathis model),
/// using the context's cached [`kernel::BandwidthMatrix`]. Parallel and
/// order-deterministic like [`compare_all_pairs`].
pub fn compare_all_pairs_bandwidth(
    cx: &AnalysisContext,
    mode: LossComposition,
) -> Vec<PathComparison> {
    kernel::sweep_bandwidth(cx.bandwidth_matrix(), mode)
}

/// CDF of signed improvements (positive = alternate better): Figures 1, 3, 4.
pub fn improvement_cdf(comparisons: &[PathComparison]) -> Cdf {
    Cdf::from_samples(comparisons.iter().map(|c| c.improvement()))
}

/// CDF of quality ratios (> 1 = alternate better): Figures 2 and 5.
pub fn ratio_cdf(comparisons: &[PathComparison]) -> Cdf {
    Cdf::from_samples(
        comparisons
            .iter()
            .map(|c| c.ratio())
            .filter(|r| r.is_finite()),
    )
}

/// Headline summary of one improvement CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprovementSummary {
    /// Pairs compared.
    pub pairs: usize,
    /// Fraction of pairs whose best alternate is strictly better.
    pub frac_better: f64,
    /// Fraction better by at least the "significant" threshold.
    pub frac_significantly_better: f64,
    /// Median improvement.
    pub median: f64,
}

/// Summarizes comparisons with a significance threshold in metric units
/// (the paper uses 20 ms for RTT and 5 percentage points for loss).
pub fn summarize(comparisons: &[PathComparison], significant: f64) -> ImprovementSummary {
    let cdf = improvement_cdf(comparisons);
    ImprovementSummary {
        pairs: comparisons.len(),
        frac_better: cdf.fraction_above(0.0),
        frac_significantly_better: cdf.fraction_above(significant),
        median: cdf.inverse(0.5).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::altpath::Pair;
    use detour_measure::HostId;

    fn cmp(default: f64, alt: f64, lower: bool) -> PathComparison {
        PathComparison {
            pair: Pair {
                src: HostId(0),
                dst: HostId(1),
            },
            default_value: default,
            alternate_value: alt,
            via: vec![],
            lower_is_better: lower,
        }
    }

    #[test]
    fn improvement_cdf_orientation() {
        // Two winners, one loser (lower-is-better metric).
        let cs = vec![
            cmp(100.0, 60.0, true),
            cmp(50.0, 45.0, true),
            cmp(30.0, 90.0, true),
        ];
        let cdf = improvement_cdf(&cs);
        assert!((cdf.fraction_above(0.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cdf.fraction_above(20.0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_cdf_orientation_for_bandwidth() {
        // Higher-is-better: alternate at 3× default.
        let cs = vec![cmp(100.0, 300.0, false)];
        let cdf = ratio_cdf(&cs);
        assert!((cdf.fraction_above(2.9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_ratios_are_dropped() {
        let cs = vec![cmp(10.0, 0.0, true)];
        assert_eq!(ratio_cdf(&cs).len(), 0);
    }

    #[test]
    fn summary_counts_match() {
        let cs = vec![
            cmp(100.0, 60.0, true),  // +40
            cmp(100.0, 95.0, true),  // +5
            cmp(100.0, 120.0, true), // −20
        ];
        let s = summarize(&cs, 20.0);
        assert_eq!(s.pairs, 3);
        assert!((s.frac_better - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.frac_significantly_better - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.median - 5.0).abs() < 1e-12);
    }
}
