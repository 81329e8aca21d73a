//! Best-alternate-path comparisons.
//!
//! Paper §4.1: "for each pair of hosts, A and B, we remove the edge
//! connecting them and perform a shortest-path computation between A and B
//! using the remaining edges. The result is the best alternate path between
//! A and B using other Internet paths as constituent 'hops'."
//!
//! This module holds the vocabulary of that question: the directed
//! [`Pair`], the [`SearchDepth`], and the resulting [`PathComparison`]. The
//! searches run on the flat [`crate::kernel`] matrices:
//! * unrestricted Dijkstra on a metric's additive weights (the default for
//!   RTT/loss figures);
//! * detours through exactly one intermediate host (used where the paper
//!   limits itself "to keep the computational costs reasonable": medians,
//!   Figure 6);
//! * the N2 bandwidth search, one-hop only, composing transfer RTT/loss
//!   through the Mathis model.
//!
//! [`crate::analysis::cdf::compare_all_pairs`] runs them over every pair of
//! a dataset.

use detour_measure::HostId;

/// A directed host pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
}

/// How far alternate paths may detour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchDepth {
    /// Any number of intermediate hosts (Dijkstra).
    Unrestricted,
    /// Exactly one intermediate host.
    OneHop,
}

/// Outcome of comparing one pair's default path to its best alternate.
#[derive(Debug, Clone, PartialEq)]
pub struct PathComparison {
    /// The pair compared.
    pub pair: Pair,
    /// Metric value of the default (direct) path.
    pub default_value: f64,
    /// Metric value of the best alternate path.
    pub alternate_value: f64,
    /// Intermediate hosts of the best alternate, in order.
    pub via: Vec<HostId>,
    /// Whether smaller values are better for this metric.
    pub lower_is_better: bool,
}

impl PathComparison {
    /// Signed improvement, oriented so that **positive means the alternate
    /// is better** — the x-axis of Figures 1, 3, 6–12, 15.
    pub fn improvement(&self) -> f64 {
        if self.lower_is_better {
            self.default_value - self.alternate_value
        } else {
            self.alternate_value - self.default_value
        }
    }

    /// Quality ratio, oriented so that **> 1 means the alternate is
    /// better** — the x-axis of Figures 2 and 5.
    pub fn ratio(&self) -> f64 {
        let (num, den) = if self.lower_is_better {
            (self.default_value, self.alternate_value)
        } else {
            (self.alternate_value, self.default_value)
        };
        if den == 0.0 {
            f64::INFINITY
        } else {
            num / den
        }
    }

    /// True when the best alternate strictly beats the default.
    pub fn alternate_wins(&self) -> bool {
        self.improvement() > 0.0
    }

    /// The alternate's hosts in path order, endpoints included.
    pub fn hops(&self) -> impl Iterator<Item = HostId> + '_ {
        std::iter::once(self.pair.src)
            .chain(self.via.iter().copied())
            .chain(std::iter::once(self.pair.dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use crate::kernel;
    use crate::metric::{Loss, MetricKind, Rtt};
    use crate::testkit::rtt_matrix_dataset;
    use detour_measure::Dataset;

    /// The best alternate for host `s` → host `d` (host ids equal dense
    /// indices here), read off the sweep of the dataset's context matrix.
    fn search(
        ds: &Dataset,
        s: usize,
        d: usize,
        metric: &MetricKind,
        depth: SearchDepth,
    ) -> Option<PathComparison> {
        let cx = AnalysisContext::from_dataset(ds);
        let m = cx.weights(metric);
        let pair = Pair {
            src: HostId(s as u32),
            dst: HostId(d as u32),
        };
        kernel::sweep(m, depth).into_iter().find(|c| c.pair == pair)
    }

    const X: f64 = f64::NAN;
    const ANY: SearchDepth = SearchDepth::Unrestricted;

    #[test]
    fn finds_the_obvious_detour() {
        // 0→2 direct costs 100; 0→1→2 costs 30.
        let ds = rtt_matrix_dataset(
            &[&[0.0, 10.0, 100.0], &[10.0, 0.0, 20.0], &[100.0, 20.0, 0.0]],
            3,
        );
        let cmp = search(&ds, 0, 2, &Rtt, ANY).unwrap();
        assert_eq!(
            cmp.pair,
            Pair {
                src: HostId(0),
                dst: HostId(2)
            }
        );
        assert_eq!(cmp.default_value, 100.0);
        assert_eq!(cmp.alternate_value, 30.0);
        assert_eq!(cmp.via, vec![HostId(1)]);
        assert!(cmp.alternate_wins());
        assert!((cmp.improvement() - 70.0).abs() < 1e-12);
        assert!((cmp.ratio() - 100.0 / 30.0).abs() < 1e-12);
    }

    /// Chain 0→1→2→3 each 10; direct 0→3 = 100.
    fn chain() -> Dataset {
        rtt_matrix_dataset(
            &[
                &[0.0, 10.0, X, 100.0],
                &[X, 0.0, 10.0, X],
                &[X, X, 0.0, 10.0],
                &[X, X, X, 0.0],
            ],
            3,
        )
    }

    #[test]
    fn multi_hop_detours_are_found() {
        let cmp = search(&chain(), 0, 3, &Rtt, ANY).unwrap();
        assert_eq!(cmp.alternate_value, 30.0);
        assert_eq!(cmp.via, vec![HostId(1), HostId(2)]);
    }

    #[test]
    fn direct_edge_is_excluded_from_the_search() {
        // Only the direct edge exists: no alternate.
        let ds = rtt_matrix_dataset(&[&[0.0, 10.0], &[10.0, 0.0]], 3);
        assert!(search(&ds, 0, 1, &Rtt, ANY).is_none());
    }

    #[test]
    fn alternates_can_be_worse() {
        // Direct 0→2 = 10; detour costs 40.
        let ds = rtt_matrix_dataset(
            &[&[0.0, 20.0, 10.0], &[20.0, 0.0, 20.0], &[10.0, 20.0, 0.0]],
            3,
        );
        let cmp = search(&ds, 0, 2, &Rtt, ANY).unwrap();
        assert!(!cmp.alternate_wins());
        assert!(cmp.improvement() < 0.0);
        assert!(cmp.ratio() < 1.0);
    }

    #[test]
    fn one_hop_search_agrees_with_dijkstra_on_triangles() {
        let ds = rtt_matrix_dataset(
            &[&[0.0, 15.0, 90.0], &[15.0, 0.0, 25.0], &[90.0, 25.0, 0.0]],
            3,
        );
        let a = search(&ds, 0, 2, &Rtt, ANY).unwrap();
        let b = search(&ds, 0, 2, &Rtt, SearchDepth::OneHop).unwrap();
        assert_eq!(a.alternate_value, b.alternate_value);
        assert_eq!(a.via, b.via);
    }

    #[test]
    fn one_hop_search_cannot_chain() {
        // The only improvement needs two intermediate hosts.
        let ds = chain();
        assert!(search(&ds, 0, 3, &Rtt, SearchDepth::OneHop).is_none());
        assert!(search(&ds, 0, 3, &Rtt, ANY).is_some());
    }

    #[test]
    fn loss_search_picks_the_cleanest_detour() {
        // Direct 0→2 has 20 % loss; detour via 1 has 1 % per hop.
        let mut b = Dataset::builder("T");
        b.hosts(3);
        for (s, d) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            for k in 0..100 {
                // 0→2 loses every fifth probe: 20 % loss.
                let lost = (s, d) == (0, 2) && k % 5 == 4;
                b.probe(s, d, k as f64, (!lost).then_some(50.0));
            }
        }
        let ds = b.build().unwrap();
        let cmp = search(&ds, 0, 2, &Loss, ANY).unwrap();
        assert!((cmp.default_value - 0.2).abs() < 1e-9);
        assert_eq!(cmp.alternate_value, 0.0);
        assert!(cmp.alternate_wins());
    }
}
