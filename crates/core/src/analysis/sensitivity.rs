//! Best-alternate sensitivity.
//!
//! Paper §6.4: "not only are different alternate paths being selected as
//! best in each episode, the difference between the best alternate path
//! and the default path is highly variable." A detour-based system needs
//! to know how fragile "the best" is: how much worse is the runner-up, and
//! does it route through a different host? This analysis answers with the
//! k-best machinery.

use crate::altpath::Pair;
use crate::context::AnalysisContext;
use crate::kbest::k_best;
use crate::kernel::{DijkstraScratch, Forest};
use crate::metric::MetricKind;
use crate::pool;
use detour_stats::Cdf;

/// Per-pair fragility of the best alternate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSensitivity {
    /// The pair analyzed.
    pub pair: Pair,
    /// Best alternate's metric value.
    pub best: f64,
    /// Runner-up alternate's metric value.
    pub second: f64,
    /// Whether the runner-up avoids every intermediate of the best path
    /// (a genuinely diverse backup).
    pub disjoint_backup: bool,
}

impl PairSensitivity {
    /// Relative gap `(second − best) / best`: 0 means an equally good
    /// runner-up exists, large means the best detour is irreplaceable.
    pub fn relative_gap(&self) -> f64 {
        if self.best == 0.0 {
            0.0
        } else {
            (self.second - self.best) / self.best
        }
    }
}

/// Sensitivity analysis over a graph.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// Pairs with at least two distinct alternates.
    pub pairs: Vec<PairSensitivity>,
    /// CDF of the relative gap across pairs.
    pub gap_cdf: Cdf,
    /// Fraction of pairs whose runner-up shares no intermediate with the
    /// best.
    pub disjoint_fraction: f64,
}

/// Runs the sensitivity analysis for `metric` (lower-is-better metrics).
///
/// Borrows the context's cached weight matrix and fans the per-pair Yen
/// searches out over [`crate::pool`]; every pair's searches re-settle the
/// same per-host trees, each grown once. Results merge in pair order, so
/// the report is identical at every thread count.
pub fn analyze(cx: &AnalysisContext, metric: &MetricKind) -> SensitivityReport {
    let m = cx.weights(metric);
    let idx_pairs = m.measured_pairs();
    let forest = Forest::new(m);
    let pairs: Vec<PairSensitivity> =
        pool::parallel_map_init(&idx_pairs, DijkstraScratch::default, |scratch, &(s, d)| {
            let kb = k_best(&forest, s, d, 2, scratch);
            if kb.len() < 2 {
                return None;
            }
            let best_set: std::collections::HashSet<_> = kb[0].via.iter().copied().collect();
            let disjoint_backup = kb[1].via.iter().all(|h| !best_set.contains(h));
            Some(PairSensitivity {
                pair: Pair {
                    src: m.hosts()[s],
                    dst: m.hosts()[d],
                },
                best: kb[0].alternate_value,
                second: kb[1].alternate_value,
                disjoint_backup,
            })
        })
        .into_iter()
        .flatten()
        .collect();
    let gap_cdf = Cdf::from_samples(pairs.iter().map(|p| p.relative_gap()));
    let disjoint_fraction = if pairs.is_empty() {
        0.0
    } else {
        pairs.iter().filter(|p| p.disjoint_backup).count() as f64 / pairs.len() as f64
    };
    SensitivityReport {
        pairs,
        gap_cdf,
        disjoint_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rtt;
    use crate::testkit::rtt_matrix_dataset;
    use detour_measure::HostId;

    const X: f64 = f64::NAN;

    #[test]
    fn two_parallel_relays_give_disjoint_backup() {
        // 0→3 direct 100; via 1: 30; via 2: 36 — disjoint runner-up 20%
        // worse.
        let cx = AnalysisContext::from_dataset(&rtt_matrix_dataset(
            &[
                &[0.0, 15.0, 18.0, 100.0],
                &[X, 0.0, X, 15.0],
                &[X, X, 0.0, 18.0],
                &[X, X, X, 0.0],
            ],
            1,
        ));
        let r = analyze(&cx, &Rtt);
        let pair = r
            .pairs
            .iter()
            .find(|p| {
                p.pair
                    == Pair {
                        src: HostId(0),
                        dst: HostId(3),
                    }
            })
            .expect("0→3 analyzed");
        assert_eq!(pair.best, 30.0);
        assert_eq!(pair.second, 36.0);
        assert!(pair.disjoint_backup);
        assert!((pair.relative_gap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn single_alternate_pairs_are_excluded() {
        // Triangle: each pair has exactly one alternate (the third vertex).
        let cx = AnalysisContext::from_dataset(&rtt_matrix_dataset(
            &[&[0.0, 10.0, 20.0], &[10.0, 0.0, 10.0], &[20.0, 10.0, 0.0]],
            1,
        ));
        let r = analyze(&cx, &Rtt);
        assert!(r.pairs.is_empty(), "triangles have no runner-up alternates");
        assert_eq!(r.disjoint_fraction, 0.0);
    }

    #[test]
    fn gap_is_nonnegative_and_second_dominates_best() {
        let cx = AnalysisContext::from_dataset(&rtt_matrix_dataset(
            &[
                &[0.0, 15.0, 18.0, 100.0, 25.0],
                &[X, 0.0, 5.0, 15.0, X],
                &[X, 5.0, 0.0, 18.0, X],
                &[X, X, X, 0.0, 30.0],
                &[X, X, X, 30.0, 0.0],
            ],
            1,
        ));
        let r = analyze(&cx, &Rtt);
        assert!(!r.pairs.is_empty());
        for p in &r.pairs {
            assert!(p.second >= p.best);
            assert!(p.relative_gap() >= 0.0);
        }
        assert!((0.0..=1.0).contains(&r.disjoint_fraction));
    }
}
