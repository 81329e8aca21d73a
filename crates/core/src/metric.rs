//! Path-quality metrics and their composition laws.
//!
//! Each figure of the paper selects and judges alternate paths by a
//! different metric:
//!
//! * **round-trip time** (Figures 1, 2, 7, 9, 11, 12, …) — means compose by
//!   addition;
//! * **loss rate** (Figures 3, 8, 10) — "loss rates on synthetic alternate
//!   paths are formed by assuming that losses on the constituent 'hops' are
//!   uncorrelated", i.e. `1 − Π(1 − pᵢ)`; shortest-path search uses the
//!   equivalent additive weight `−ln(1 − p)`;
//! * **propagation delay** (Figures 15, 16) — estimated as the 10th
//!   percentile of a path's RTT samples (§7.2), composed by addition;
//! * **bandwidth** (Figures 4, 5) — not additive at all; handled by the
//!   dedicated one-hop search in [`crate::altpath`] using the Mathis model.
//!
//! The three additive metrics are the variants of one enum,
//! [`MetricKind`]; each law (edge value, search weight, composition,
//! sample summary) is one `match` over it.

use detour_measure::PairTable;
use detour_stats::quantile::percentile;
use detour_stats::Summary;

/// A metric over the measurement graph's directed edges — the cells
/// `(i, j)` of a [`PairTable`] — that composes along synthetic paths.
///
/// The enum is the whole metric: an
/// [`crate::context::AnalysisContext`] keys its lazily built weight
/// matrices by it, each [`crate::WeightMatrix`] carries the one it was
/// built from, and the experiment registry declares its needs in its
/// terms. Its variants are re-exported, so `&Rtt` names the metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Mean round-trip time, milliseconds.
    Rtt,
    /// Mean loss rate, assuming independent losses per hop.
    Loss,
    /// Propagation-delay estimate: the 10th percentile of RTT samples
    /// (§7.2) — low enough to shed queuing, robust to route-change minima.
    PropDelay,
}

pub use MetricKind::{Loss, PropDelay, Rtt};

impl MetricKind {
    /// The figure-facing value of edge `i → j` (e.g. mean RTT in ms), or
    /// `None` when the edge lacks the needed measurements.
    pub fn value(&self, t: &PairTable, i: usize, j: usize) -> Option<f64> {
        match self {
            Rtt => t.rtt(i, j).map(|s| s.mean),
            Loss => t.loss(i, j).map(|s| s.mean),
            PropDelay => percentile(t.rtt_samples(i, j), 10.0),
        }
    }

    /// The additive shortest-path weight of edge `i → j`: a monotone
    /// transform of `value`, so that minimizing summed weights minimizes
    /// the composed value.
    pub fn weight(&self, t: &PairTable, i: usize, j: usize) -> Option<f64> {
        match self {
            // −ln(1−p) is additive where survival probabilities multiply;
            // clamp p away from 1 so a fully black edge stays finite but
            // terrible.
            Loss => {
                let p = self.value(t, i, j)?.min(0.999_999);
                Some(-(1.0 - p).ln())
            }
            Rtt | PropDelay => self.value(t, i, j),
        }
    }

    /// Composes edge values along a path into the path's value.
    pub fn compose(&self, values: &[f64]) -> f64 {
        match self {
            Loss => 1.0 - values.iter().map(|p| 1.0 - p).product::<f64>(),
            Rtt | PropDelay => values.iter().sum(),
        }
    }

    /// The full sample summary behind `value`, where the metric has one —
    /// the confidence-interval analyses (Figures 7–8, Tables 2–3) need
    /// variances and sample counts, not just means.
    pub fn summary(&self, t: &PairTable, i: usize, j: usize) -> Option<Summary> {
        match self {
            Rtt => t.rtt(i, j),
            Loss => t.loss(i, j),
            PropDelay => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_measure::Dataset;

    /// A two-host table whose only edge, 0 → 1, saw one probe per outcome
    /// (`Some(rtt)` returned, `None` lost).
    fn edge(outcomes: &[Option<f64>]) -> PairTable {
        let mut b = Dataset::builder("E");
        b.hosts(2);
        for (k, &rtt_ms) in outcomes.iter().enumerate() {
            b.probe(0, 1, k as f64, rtt_ms);
        }
        PairTable::build(&b.build().unwrap())
    }

    /// An edge with `lost` of `total` probes lost (loss rate `lost/total`).
    fn lossy(lost: usize, total: usize) -> PairTable {
        let outcomes: Vec<Option<f64>> = (0..total).map(|k| (k >= lost).then_some(50.0)).collect();
        edge(&outcomes)
    }

    #[test]
    fn rtt_value_is_mean_and_composes_by_sum() {
        let t = edge(&[Some(10.0), Some(20.0), Some(30.0)]);
        assert_eq!(Rtt.value(&t, 0, 1), Some(20.0));
        assert_eq!(Rtt.compose(&[20.0, 35.0]), 55.0);
    }

    #[test]
    fn missing_measurements_yield_none() {
        let t = edge(&[Some(10.0)]);
        assert!(Rtt.value(&t, 1, 0).is_none());
        assert!(Loss.value(&t, 1, 0).is_none());
        assert!(PropDelay.value(&t, 1, 0).is_none());
        let black = edge(&[None, None]);
        assert!(Rtt.value(&black, 0, 1).is_none(), "no returned probe");
        assert!(PropDelay.value(&black, 0, 1).is_none());
    }

    #[test]
    fn loss_composes_by_independence() {
        let p = Loss.compose(&[0.1, 0.2]);
        assert!((p - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
        assert_eq!(Loss.compose(&[0.0, 0.0]), 0.0);
        assert_eq!(Loss.compose(&[1.0, 0.0]), 1.0);
    }

    #[test]
    fn loss_weight_is_monotone_transform() {
        let (lo, hi) = (lossy(1, 100), lossy(10, 100));
        assert!(Loss.weight(&lo, 0, 1).unwrap() < Loss.weight(&hi, 0, 1).unwrap());
        // Zero loss → zero weight (identity of the additive domain).
        assert_eq!(Loss.weight(&lossy(0, 10), 0, 1), Some(0.0));
    }

    #[test]
    fn loss_weight_additivity_matches_composition() {
        // w(p1) + w(p2) == w(compose(p1, p2)) — the transform's whole point.
        let (e1, e2) = (lossy(1, 20), lossy(3, 20));
        let sum = Loss.weight(&e1, 0, 1).unwrap() + Loss.weight(&e2, 0, 1).unwrap();
        let composed = Loss.compose(&[
            Loss.value(&e1, 0, 1).unwrap(),
            Loss.value(&e2, 0, 1).unwrap(),
        ]);
        let direct = -(1.0f64 - composed).ln();
        assert!((sum - direct).abs() < 1e-12);
    }

    #[test]
    fn total_loss_stays_finite() {
        let w = Loss.weight(&lossy(5, 5), 0, 1).unwrap();
        assert!(w.is_finite());
        assert!(w > 10.0, "a black hole must be strongly avoided");
    }

    #[test]
    fn prop_delay_is_tenth_percentile() {
        let samples: Vec<Option<f64>> = (1..=100).map(|i| Some(i as f64)).collect();
        let t = edge(&samples);
        let v = PropDelay.value(&t, 0, 1).unwrap();
        assert!((v - 10.9).abs() < 0.2, "got {v}");
        assert!(
            v < Rtt.value(&t, 0, 1).unwrap(),
            "prop delay below the mean"
        );
    }
}
