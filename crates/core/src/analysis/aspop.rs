//! AS popularity in default vs. alternate paths (Figure 14).
//!
//! §7.1: "For each AS that appeared in any trace in the dataset, we compute
//! the number of default paths in which that AS appears and the number of
//! best alternate paths in which it appears" — a scatter plot, one point
//! per AS. No AS far off the diagonal means the alternate-path effect is
//! not driven by "a small number of either good or poor ASes".
//!
//! Default paths contribute their observed (modal) traceroute AS path; a
//! best alternate contributes the union of its constituent edges' AS paths.

use std::collections::{HashMap, HashSet};

use crate::altpath::SearchDepth;
use crate::analysis::cdf::compare_all_pairs;
use crate::context::AnalysisContext;
use crate::metric::MetricKind;

/// One scatter point: an AS's appearance counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsPoint {
    /// AS number.
    pub asn: u16,
    /// Default paths containing the AS.
    pub default_count: usize,
    /// Best alternate paths containing the AS.
    pub alternate_count: usize,
}

/// Computes the Figure-14 scatter for `metric`-selected alternates.
pub fn analyze(cx: &AnalysisContext, metric: &MetricKind) -> Vec<AsPoint> {
    let t = cx.table();
    let mut default_counts: HashMap<u16, usize> = HashMap::new();
    let mut alternate_counts: HashMap<u16, usize> = HashMap::new();

    // Default paths: every measured pair contributes its modal AS path —
    // including pairs with no usable `metric` value, so this stays on the
    // table's measured pairs rather than the metric's.
    for (i, j) in t.measured_pairs() {
        for &asn in cx.modal_as_path(i, j).iter().collect::<HashSet<_>>() {
            *default_counts.entry(asn).or_default() += 1;
        }
    }
    // Alternates: one kernel sweep; winning comparisons contribute the
    // union of their constituent edges' AS paths.
    for cmp in compare_all_pairs(cx, metric, SearchDepth::Unrestricted) {
        if cmp.alternate_wins() {
            let hops: Vec<usize> = cmp.hops().filter_map(|h| t.host_index(h)).collect();
            let mut ases: HashSet<u16> = HashSet::new();
            for w in hops.windows(2) {
                ases.extend(cx.modal_as_path(w[0], w[1]).iter().copied());
            }
            for asn in ases {
                *alternate_counts.entry(asn).or_default() += 1;
            }
        }
    }

    let mut all: Vec<u16> = default_counts
        .keys()
        .chain(alternate_counts.keys())
        .copied()
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    all.sort_unstable();
    all.into_iter()
        .map(|asn| AsPoint {
            asn,
            default_count: default_counts.get(&asn).copied().unwrap_or(0),
            alternate_count: alternate_counts.get(&asn).copied().unwrap_or(0),
        })
        .collect()
}

/// Pearson correlation between log-scaled default and alternate counts —
/// the quantified "points hug the diagonal" check. Returns `None` with
/// fewer than 3 points or zero variance.
pub fn log_correlation(points: &[AsPoint]) -> Option<f64> {
    if points.len() < 3 {
        return None;
    }
    let xs: Vec<f64> = points
        .iter()
        .map(|p| (1.0 + p.default_count as f64).ln())
        .collect();
    let ys: Vec<f64> = points
        .iter()
        .map(|p| (1.0 + p.alternate_count as f64).ln())
        .collect();
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rtt;
    use detour_measure::Dataset;

    /// Triangle where every edge's AS path is its endpoints plus a shared
    /// transit AS 99; direct 0→2 is slow.
    fn dataset() -> Dataset {
        let mut b = Dataset::builder("A");
        b.hosts(3).as_paths(vec![
            vec![0, 99, 1], // 0→1
            vec![1, 99, 2], // 1→2
            vec![0, 99, 2], // 0→2
        ]);
        for (s, d, rtt, idx) in [(0, 1, 20.0, 0), (1, 2, 20.0, 1), (0, 2, 100.0, 2)] {
            for k in 0..3 {
                b.probe_with(s, d, k as f64, Some(rtt), |p| p.path_idx = idx);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn default_counts_use_observed_paths() {
        let cx = AnalysisContext::from_dataset(&dataset());
        let pts = analyze(&cx, &Rtt);
        let transit = pts
            .iter()
            .find(|p| p.asn == 99)
            .expect("transit AS present");
        // AS 99 appears in all 3 default paths.
        assert_eq!(transit.default_count, 3);
    }

    #[test]
    fn alternate_counts_union_constituents() {
        let cx = AnalysisContext::from_dataset(&dataset());
        let pts = analyze(&cx, &Rtt);
        // The only winning alternate is 0→1→2, whose constituent paths
        // cover ASes {0, 99, 1, 2} — each counted once.
        for asn in [0u16, 1, 2, 99] {
            let p = pts.iter().find(|p| p.asn == asn).unwrap();
            assert_eq!(p.alternate_count, 1, "asn {asn}");
        }
    }

    #[test]
    fn correlation_needs_variance() {
        let pts = vec![
            AsPoint {
                asn: 1,
                default_count: 5,
                alternate_count: 5,
            },
            AsPoint {
                asn: 2,
                default_count: 5,
                alternate_count: 1,
            },
        ];
        assert!(log_correlation(&pts).is_none(), "too few points");
        let pts = vec![
            AsPoint {
                asn: 1,
                default_count: 1,
                alternate_count: 1,
            },
            AsPoint {
                asn: 2,
                default_count: 10,
                alternate_count: 9,
            },
            AsPoint {
                asn: 3,
                default_count: 100,
                alternate_count: 110,
            },
        ];
        let r = log_correlation(&pts).unwrap();
        assert!(r > 0.95, "diagonal points correlate strongly: {r}");
    }
}
