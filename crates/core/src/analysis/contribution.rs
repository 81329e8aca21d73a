//! Per-host improvement contribution (Figure 13).
//!
//! §7.1: "We next measure the number of times each host appears as an
//! intermediate host in some superior alternate path (not necessarily the
//! very best alternate), weighted by the degree to which the alternate
//! path is better … the distribution lacks the heavy tail that would
//! indicate the existence of a few hosts with abnormally large
//! contributions."
//!
//! Enumeration of *all* superior paths is exponential; like the paper's
//! one-hop restrictions elsewhere, we enumerate all one-intermediate
//! detours per pair — every host gets credit for every pair it can improve,
//! whether or not it is the single best.

use std::collections::HashMap;

use crate::context::AnalysisContext;
use crate::metric::MetricKind;
use detour_measure::HostId;
use detour_stats::Cdf;

/// Per-host contribution tallies.
#[derive(Debug, Clone)]
pub struct ContributionAnalysis {
    /// Summed improvement contributed per host, normalized so the mean
    /// across hosts is 100.
    pub normalized: HashMap<HostId, f64>,
    /// CDF across hosts of the normalized contribution — the Figure-13
    /// curve.
    pub cdf: Cdf,
}

/// Runs the Figure-13 analysis.
///
/// The triple loop runs on the context's cached weight matrix of
/// precomputed metric values — `O(n³)` lookups but each metric value
/// derived only once per run.
pub fn analyze(cx: &AnalysisContext, metric: &MetricKind) -> ContributionAnalysis {
    let w = cx.weights(metric);
    let mut raw: HashMap<HostId, f64> = w.hosts().iter().map(|&h| (h, 0.0)).collect();
    let n = w.len();
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            let default_value = w.value(s, d);
            if default_value.is_nan() {
                continue;
            }
            for m in 0..n {
                if m == s || m == d {
                    continue;
                }
                let (v1, v2) = (w.value(s, m), w.value(m, d));
                if v1.is_nan() || v2.is_nan() {
                    continue;
                }
                let improvement = default_value - metric.compose(&[v1, v2]);
                if improvement > 0.0 {
                    *raw.get_mut(&w.hosts()[m]).unwrap() += improvement;
                }
            }
        }
    }
    let mean = raw.values().sum::<f64>() / raw.len().max(1) as f64;
    let normalized: HashMap<HostId, f64> = if mean > 0.0 {
        raw.into_iter()
            .map(|(h, v)| (h, 100.0 * v / mean))
            .collect()
    } else {
        raw
    };
    let cdf = Cdf::from_samples(normalized.values().copied());
    ContributionAnalysis { normalized, cdf }
}

/// Heavy-tail statistic: the largest single host's share of the total
/// contribution (0–1). The paper's conclusion corresponds to this staying
/// far below 1.
pub fn max_share(a: &ContributionAnalysis) -> f64 {
    let total: f64 = a.normalized.values().sum();
    if total == 0.0 {
        return 0.0;
    }
    a.normalized.values().fold(0.0f64, |m, &v| m.max(v)) / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rtt;
    use crate::testkit::rtt_matrix_dataset;
    use detour_measure::Dataset;

    /// Full mesh where every edge costs `via`, except a slow clique where
    /// both ends are odd ids: those direct edges cost `direct`.
    fn uniform_mesh(n: usize, direct: f64, via: f64) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|s| {
                (0..n)
                    .map(|d| {
                        if s % 2 == 1 && d % 2 == 1 {
                            direct
                        } else {
                            via
                        }
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        rtt_matrix_dataset(&refs, 2)
    }

    #[test]
    fn even_hosts_share_contribution_evenly() {
        // Odd→odd pairs (100 ms direct) improve via any even host
        // (25+25 ms). Every even host contributes equally; odd hosts
        // contribute nothing.
        let cx = AnalysisContext::from_dataset(&uniform_mesh(6, 100.0, 25.0));
        let a = analyze(&cx, &Rtt);
        let evens: Vec<f64> = (0..6)
            .step_by(2)
            .map(|i| a.normalized[&HostId(i)])
            .collect();
        let odds: Vec<f64> = (1..6)
            .step_by(2)
            .map(|i| a.normalized[&HostId(i)])
            .collect();
        for &o in &odds {
            assert_eq!(o, 0.0);
        }
        for w in evens.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "evens unequal: {evens:?}");
        }
        assert!(max_share(&a) < 0.5, "no single dominant host");
    }

    #[test]
    fn normalization_makes_the_mean_100() {
        let cx = AnalysisContext::from_dataset(&uniform_mesh(6, 100.0, 25.0));
        let a = analyze(&cx, &Rtt);
        let mean: f64 = a.normalized.values().sum::<f64>() / a.normalized.len() as f64;
        assert!((mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn no_improvements_means_zero_contributions() {
        // Uniform mesh where detours always cost double: nobody contributes.
        let cx = AnalysisContext::from_dataset(&uniform_mesh(5, 30.0, 30.0));
        let a = analyze(&cx, &Rtt);
        assert!(a.normalized.values().all(|&v| v == 0.0));
        assert_eq!(max_share(&a), 0.0);
    }
}
