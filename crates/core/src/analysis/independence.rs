//! Temporal-dependence audit (paper §4.1's independence assumption).
//!
//! Long-term averages treat a path's samples as independent; diurnal load
//! makes them anything but. This analysis measures, per directed path, the
//! lag-1 autocorrelation of its RTT series (in measurement order) and the
//! effective sample size — the honest `n` behind the paper's confidence
//! intervals. The paper argues the bias is conservative; this module lets
//! a user of this library *see* the dependence instead of assuming it.

use crate::context::AnalysisContext;
use detour_measure::HostId;
use detour_stats::autocorr::{autocorrelation, effective_sample_size};
use detour_stats::Cdf;
use std::collections::HashMap;

/// Per-path dependence measurements.
#[derive(Debug, Clone)]
pub struct IndependenceReport {
    /// Lag-1 autocorrelation per directed pair (where computable).
    pub lag1: HashMap<(HostId, HostId), f64>,
    /// Effective-to-nominal sample-size ratio per pair (1.0 = independent).
    pub ess_ratio: HashMap<(HostId, HostId), f64>,
    /// CDF across pairs of the lag-1 autocorrelation.
    pub lag1_cdf: Cdf,
    /// CDF across pairs of the ESS ratio.
    pub ess_ratio_cdf: Cdf,
}

impl IndependenceReport {
    /// Median lag-1 autocorrelation across pairs.
    pub fn median_lag1(&self) -> f64 {
        self.lag1_cdf.inverse(0.5).unwrap_or(0.0)
    }

    /// Median effective-to-nominal sample-size ratio.
    pub fn median_ess_ratio(&self) -> f64 {
        self.ess_ratio_cdf.inverse(0.5).unwrap_or(1.0)
    }
}

/// Computes the dependence audit over `ds`, using each pair's RTT samples
/// in time order.
pub fn analyze(cx: &AnalysisContext) -> IndependenceReport {
    let ds = cx.dataset();
    let mut series: HashMap<(HostId, HostId), Vec<(f64, f64)>> = HashMap::new();
    for r in ds.probes.rows() {
        let samples = series.entry((r.src, r.dst)).or_default();
        samples.extend((0..3).filter_map(|k| r.rtt(k)).map(|rtt| (r.t_s, rtt)));
    }
    let mut lag1 = HashMap::new();
    let mut ess_ratio = HashMap::new();
    for (pair, mut samples) in series {
        if samples.len() < 8 {
            continue;
        }
        // Timestamps are finite (`Dataset::new` checks them); `total_cmp`
        // orders them without an `unwrap`.
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let xs: Vec<f64> = samples.into_iter().map(|(_, r)| r).collect();
        if let Some(r1) = autocorrelation(&xs, 1) {
            lag1.insert(pair, r1);
            ess_ratio.insert(pair, effective_sample_size(&xs) / xs.len() as f64);
        }
    }
    IndependenceReport {
        lag1_cdf: Cdf::from_samples(lag1.values().copied()),
        ess_ratio_cdf: Cdf::from_samples(ess_ratio.values().copied()),
        lag1,
        ess_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_measure::Dataset;

    /// One path, 0→1, with the given RTTs at `t = 0, 1, …`, in `order`.
    fn dataset_in(rtts: &[f64], order: impl Iterator<Item = usize>) -> Dataset {
        let mut b = Dataset::builder("I");
        b.hosts(2);
        for k in order {
            b.probe(0, 1, k as f64, Some(rtts[k]));
        }
        b.build().unwrap()
    }

    fn dataset(rtts: &[f64]) -> Dataset {
        dataset_in(rtts, 0..rtts.len())
    }

    #[test]
    fn drifting_path_shows_dependence() {
        // Slow ramp: adjacent samples strongly correlated.
        let rtts: Vec<f64> = (0..200).map(|i| 50.0 + (i as f64) * 0.5).collect();
        let r = analyze(&AnalysisContext::from_dataset(&dataset(&rtts)));
        assert!(r.lag1[&(HostId(0), HostId(1))] > 0.9);
        assert!(r.ess_ratio[&(HostId(0), HostId(1))] < 0.2);
        assert!(r.median_lag1() > 0.9);
    }

    #[test]
    fn alternating_path_shows_no_positive_dependence() {
        let rtts: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 40.0 } else { 60.0 })
            .collect();
        let r = analyze(&AnalysisContext::from_dataset(&dataset(&rtts)));
        assert!(r.lag1[&(HostId(0), HostId(1))] < 0.0);
        assert!(r.median_ess_ratio() >= 0.9, "{}", r.median_ess_ratio());
    }

    #[test]
    fn thin_pairs_are_skipped() {
        let r = analyze(&AnalysisContext::from_dataset(&dataset(&[
            50.0, 51.0, 52.0,
        ])));
        assert!(r.lag1.is_empty());
    }

    #[test]
    fn samples_are_ordered_by_time_not_insertion() {
        // Reverse insertion order; a ramp must still register as dependent.
        let rtts: Vec<f64> = (0..100).map(|k| 50.0 + k as f64).collect();
        let ds = dataset_in(&rtts, (0..rtts.len()).rev());
        let r = analyze(&AnalysisContext::from_dataset(&ds));
        assert!(r.lag1[&(HostId(0), HostId(1))] > 0.9);
    }
}
