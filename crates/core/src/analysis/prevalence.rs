//! Route prevalence.
//!
//! Paper §2, citing \[Pax96\]: "Internet paths are generally dominated by a
//! single route, but some networks do experience significant route
//! fluctuation." The paper's long-term-average methodology quietly relies
//! on that dominance (a path's mean is meaningful only if the path mostly
//! *is* one route). This analysis checks it in a dataset: per directed
//! pair, the fraction of probes that observed the pair's most common AS
//! path.

use std::collections::HashMap;

use crate::context::AnalysisContext;
use detour_measure::HostId;
use detour_stats::Cdf;

/// Prevalence analysis output.
#[derive(Debug, Clone)]
pub struct PrevalenceReport {
    /// Per directed pair: fraction of probes on the dominant route.
    pub dominance: HashMap<(HostId, HostId), f64>,
    /// Per directed pair: number of distinct routes observed.
    pub route_counts: HashMap<(HostId, HostId), usize>,
    /// CDF across pairs of the dominant-route fraction.
    pub dominance_cdf: Cdf,
}

impl PrevalenceReport {
    /// Fraction of pairs whose dominant route carries at least `threshold`
    /// of their probes.
    pub fn dominated_fraction(&self, threshold: f64) -> f64 {
        if self.dominance.is_empty() {
            return 0.0;
        }
        self.dominance.values().filter(|&&d| d >= threshold).count() as f64
            / self.dominance.len() as f64
    }

    /// Pairs that saw more than one distinct route.
    pub fn fluctuating_pairs(&self) -> usize {
        self.route_counts.values().filter(|&&c| c > 1).count()
    }
}

/// Computes route prevalence from per-invocation AS-path observations.
pub fn analyze(cx: &AnalysisContext) -> PrevalenceReport {
    let ds = cx.dataset();
    // Count path observations per pair (per invocation: use the row's
    // first probe so the three probes of one traceroute don't
    // triple-count one observation).
    let mut votes: HashMap<(HostId, HostId), HashMap<u32, usize>> = HashMap::new();
    for r in ds.probes.rows().iter().filter(|r| r.has_slot(0)) {
        *votes
            .entry((r.src, r.dst))
            .or_default()
            .entry(r.path_idx)
            .or_default() += 1;
    }
    let mut dominance = HashMap::new();
    let mut route_counts = HashMap::new();
    for (pair, counts) in votes {
        let total: usize = counts.values().sum();
        let top = counts.values().copied().max().unwrap_or(0);
        if total > 0 {
            dominance.insert(pair, top as f64 / total as f64);
            route_counts.insert(pair, counts.len());
        }
    }
    let dominance_cdf = Cdf::from_samples(dominance.values().copied());
    PrevalenceReport {
        dominance,
        route_counts,
        dominance_cdf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_measure::{Dataset, DatasetBuilder};

    /// Four hosts and one first probe per `(src, dst, path)` observation.
    fn builder(observations: &[(u32, u32, u32)]) -> DatasetBuilder {
        let mut b = Dataset::builder("P");
        b.hosts(4)
            .as_paths(vec![vec![0, 1], vec![0, 2, 1], vec![0, 3, 1]]);
        for (k, &(s, d, path)) in observations.iter().enumerate() {
            b.probe_with(s, d, k as f64, Some(10.0), |p| p.path_idx = path);
        }
        b
    }

    fn dataset(observations: &[(u32, u32, u32)]) -> Dataset {
        builder(observations).build().unwrap()
    }

    #[test]
    fn single_route_pair_has_full_dominance() {
        let ds = dataset(&[(0, 1, 0), (0, 1, 0), (0, 1, 0)]);
        let r = analyze(&AnalysisContext::from_dataset(&ds));
        assert_eq!(r.dominance[&(HostId(0), HostId(1))], 1.0);
        assert_eq!(r.route_counts[&(HostId(0), HostId(1))], 1);
        assert_eq!(r.fluctuating_pairs(), 0);
        assert_eq!(r.dominated_fraction(0.9), 1.0);
    }

    #[test]
    fn flapping_pair_shows_partial_dominance() {
        // 8 observations on route 0, 2 on route 1.
        let mut obs = vec![(0, 1, 0); 8];
        obs.extend(vec![(0, 1, 1); 2]);
        let ds = dataset(&obs);
        let r = analyze(&AnalysisContext::from_dataset(&ds));
        assert!((r.dominance[&(HostId(0), HostId(1))] - 0.8).abs() < 1e-12);
        assert_eq!(r.route_counts[&(HostId(0), HostId(1))], 2);
        assert_eq!(r.fluctuating_pairs(), 1);
        assert_eq!(r.dominated_fraction(0.9), 0.0);
        assert_eq!(r.dominated_fraction(0.5), 1.0);
    }

    #[test]
    fn follow_up_probes_do_not_triple_count() {
        // One invocation = 3 probes sharing a timestamp & path; only probe
        // index 0 should vote. Fake it: add probe_index 1/2 rows on a
        // different path; they must be ignored.
        let ds = builder(&[(0, 1, 0), (0, 1, 0)])
            .probe_with(0, 1, 99.0, Some(10.0), |p| {
                p.probe_index = 1;
                p.path_idx = 1;
            })
            .build()
            .unwrap();
        let r = analyze(&AnalysisContext::from_dataset(&ds));
        assert_eq!(r.dominance[&(HostId(0), HostId(1))], 1.0);
    }

    #[test]
    fn cdf_covers_all_pairs() {
        let ds = dataset(&[(0, 1, 0), (0, 1, 1), (2, 3, 0), (2, 3, 0)]);
        let r = analyze(&AnalysisContext::from_dataset(&ds));
        assert_eq!(r.dominance_cdf.len(), 2);
    }
}
