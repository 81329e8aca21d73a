//! Congestion vs. propagation delay (Figures 15–16).
//!
//! §7.2 splits mean round-trip latency into propagation delay (estimated as
//! the 10th percentile of RTT samples) and queuing delay, then asks whether
//! superior alternates win by avoiding congestion or by shorter physical
//! paths:
//!
//! * **Figure 15**: the improvement CDF re-run with propagation delay as
//!   the selection/judgment metric, overlaid on the mean-RTT CDF — the
//!   magnitude shrinks but "superior alternate paths still exist for 50 %
//!   of the paths";
//! * **Figure 16**: per pair (alternates selected by *mean RTT*), the
//!   difference decomposed into Δtotal vs. Δpropagation and classified into
//!   six qualitative groups around the axes and the line y = x. Group 6
//!   (alternate wins on queuing *despite* longer propagation) far
//!   outnumbers group 3 — "many superior alternate paths are in fact going
//!   out of their way to avoid congestion."

use crate::altpath::SearchDepth;
use crate::analysis::cdf::{compare_all_pairs, improvement_cdf};
use crate::context::AnalysisContext;
use crate::metric::{PropDelay, Rtt};
use detour_stats::Cdf;

/// The Figure-15 curves.
#[derive(Debug, Clone)]
pub struct PropagationCdfs {
    /// Improvement CDF with propagation delay as the metric.
    pub propagation: Cdf,
    /// Improvement CDF with mean RTT (for overlay).
    pub mean_rtt: Cdf,
}

/// Runs the Figure-15 analysis.
pub fn propagation_cdfs(cx: &AnalysisContext) -> PropagationCdfs {
    PropagationCdfs {
        propagation: improvement_cdf(&compare_all_pairs(
            cx,
            &PropDelay,
            SearchDepth::Unrestricted,
        )),
        mean_rtt: improvement_cdf(&compare_all_pairs(cx, &Rtt, SearchDepth::Unrestricted)),
    }
}

/// One Figure-16 scatter point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompositionPoint {
    /// Δtotal = default mean RTT − alternate mean RTT (x-axis).
    pub d_total: f64,
    /// Δprop = default propagation − alternate propagation (y-axis).
    pub d_prop: f64,
}

impl DecompositionPoint {
    /// The paper's six-group classification. Points exactly on a boundary
    /// go to the lower-numbered group; the origin returns group 1.
    ///
    /// For x > 0 (alternate superior): group 1 when `0 ≤ y ≤ x` (typical:
    /// better in both components), group 2 when `y > x` (queuing actually
    /// worse on the superior path), group 6 when `y < 0` (wins on queuing
    /// despite longer propagation). Mirrored for x < 0: groups 4, 5, 3.
    pub fn group(&self) -> u8 {
        let (x, y) = (self.d_total, self.d_prop);
        if x >= 0.0 {
            if y < 0.0 {
                6
            } else if y <= x {
                1
            } else {
                2
            }
        } else if y > 0.0 {
            3
        } else if y >= x {
            4
        } else {
            5
        }
    }
}

/// The Figure-16 analysis output.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// All scatter points.
    pub points: Vec<DecompositionPoint>,
    /// Census `counts[g-1]` = number of points in group `g`.
    pub group_counts: [usize; 6],
}

/// Runs the Figure-16 analysis: alternates chosen by mean RTT, decomposed
/// into propagation and queuing differences. The RTT searches run as one
/// kernel sweep; only surviving comparisons pay for the propagation walk.
pub fn decompose(cx: &AnalysisContext) -> Decomposition {
    let t = cx.table();
    let mut points = Vec::new();
    for cmp in compare_all_pairs(cx, &Rtt, SearchDepth::Unrestricted) {
        let Some(hops) = cmp
            .hops()
            .map(|h| t.host_index(h))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        // Propagation of the default path and of the *same* alternate path.
        let Some(default_prop) = PropDelay.value(t, hops[0], hops[hops.len() - 1]) else {
            continue;
        };
        let alt_prop: Option<f64> = hops
            .windows(2)
            .map(|w| PropDelay.value(t, w[0], w[1]))
            .sum();
        let Some(alt_prop) = alt_prop else { continue };
        points.push(DecompositionPoint {
            d_total: cmp.improvement(),
            d_prop: default_prop - alt_prop,
        });
    }
    let mut group_counts = [0usize; 6];
    for p in &points {
        group_counts[(p.group() - 1) as usize] += 1;
    }
    Decomposition {
        points,
        group_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> DecompositionPoint {
        DecompositionPoint {
            d_total: x,
            d_prop: y,
        }
    }

    #[test]
    fn group_classification_matches_the_papers_geometry() {
        assert_eq!(pt(10.0, 5.0).group(), 1, "better in both, prop < total");
        assert_eq!(pt(10.0, 15.0).group(), 2, "prop gain exceeds total gain");
        assert_eq!(pt(-10.0, 5.0).group(), 3, "default wins despite worse prop");
        assert_eq!(pt(-10.0, -5.0).group(), 4, "default better in both");
        assert_eq!(pt(-10.0, -15.0).group(), 5, "mirror of group 2");
        assert_eq!(pt(10.0, -5.0).group(), 6, "alternate avoids congestion");
    }

    #[test]
    fn boundaries_are_stable() {
        assert_eq!(pt(0.0, 0.0).group(), 1);
        assert_eq!(pt(10.0, 10.0).group(), 1, "on y = x");
        assert_eq!(pt(10.0, 0.0).group(), 1, "on the x axis, alternate side");
        assert_eq!(pt(-10.0, -10.0).group(), 4, "on y = x, default side");
    }

    #[test]
    fn groups_are_symmetric_about_origin() {
        // The paper: "each group is largely symmetric with its reflection
        // about the origin" — group(−x, −y) maps 1↔4, 2↔5, 3↔6.
        let mapping = [(1u8, 4u8), (2, 5), (6, 3)];
        for (x, y) in [(10.0, 5.0), (10.0, 15.0), (10.0, -5.0)] {
            let g = pt(x, y).group();
            let g_ref = pt(-x, -y).group();
            let expected = mapping
                .iter()
                .find(|&&(a, _)| a == g)
                .map(|&(_, b)| b)
                .unwrap();
            assert_eq!(g_ref, expected, "({x},{y})");
        }
    }

    mod end_to_end {
        use super::super::*;
        use detour_measure::Dataset;

        /// Triangle: direct path has low propagation but terrible queuing;
        /// the detour has more propagation, far less queuing → group 6.
        fn congested_direct() -> Dataset {
            let mut b = Dataset::builder("P");
            b.hosts(3);
            // Direct 0→2: floor 21 ms (20 % of samples) but usually queued
            // to ~150 ms — keeping the 10th percentile at the floor.
            for k in 0..50 {
                b.probe(0, 2, k as f64, Some(if k < 10 { 21.0 } else { 150.0 }));
            }
            // Legs: floor 25 ms each, negligible queuing.
            for (s, d) in [(0, 1), (1, 2)] {
                for k in 0..50 {
                    b.probe(s, d, k as f64, Some(25.0 + (k % 3) as f64));
                }
            }
            b.build().unwrap()
        }

        #[test]
        fn congestion_avoiding_detour_lands_in_group_6() {
            let cx = AnalysisContext::from_dataset(&congested_direct());
            let d = decompose(&cx);
            assert_eq!(d.points.len(), 1);
            let p = d.points[0];
            assert!(p.d_total > 0.0, "alternate wins on mean: {p:?}");
            assert!(p.d_prop < 0.0, "alternate has more propagation: {p:?}");
            assert_eq!(d.group_counts[5], 1);
        }

        #[test]
        fn figure15_shrinks_but_does_not_vanish() {
            let cx = AnalysisContext::from_dataset(&congested_direct());
            let c = propagation_cdfs(&cx);
            // The mean-RTT improvement is large; the propagation-only
            // improvement is negative (the detour is physically longer).
            let mean_impr = c.mean_rtt.inverse(0.5).unwrap();
            let prop_impr = c.propagation.inverse(0.5).unwrap();
            assert!(mean_impr > 50.0);
            assert!(prop_impr < mean_impr);
        }
    }
}
