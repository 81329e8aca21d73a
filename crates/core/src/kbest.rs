//! K-best alternate paths (Yen's algorithm).
//!
//! The paper's Figure 13 counts hosts appearing in "some superior alternate
//! path (not necessarily the very best)" — there is a whole *ranking* of
//! alternates behind each pair. [`k_best_alternates_in`] materializes that
//! ranking: the k loopless alternate paths with the best composed metric,
//! direct edge excluded, via Yen's algorithm over the measurement graph.
//!
//! Every search in it is a banned search answered by the kernel's one ban
//! mechanism: the spur vertex's full tree, grown once, re-settled without
//! the root's vertices and the banned edges out of the spur.
//!
//! Downstream uses: richer contribution analyses, overlay route *sets*
//! (primary + backup), and sensitivity checks ("how much worse is the
//! second-best detour?").

use crate::altpath::PathComparison;
use crate::kernel::{self, Ban, DijkstraScratch, Forest, WeightMatrix};

/// The `k` best loopless alternate paths for the dense pair `s → d` on a
/// prebuilt [`WeightMatrix`], best first, with the direct edge excluded
/// throughout (it is never a candidate): Yen's algorithm.
///
/// Returns fewer than `k` entries when the graph runs out of distinct
/// loopless alternates, and an empty vector when the pair has no measured
/// direct edge (nothing to compare against).
pub fn k_best_alternates_in(m: &WeightMatrix, s: usize, d: usize, k: usize) -> Vec<PathComparison> {
    k_best(&Forest::new(m), s, d, k, &mut DijkstraScratch::default())
}

/// [`k_best_alternates_in`] on the trees of `forest`, which the searches
/// of many pairs may share.
pub(crate) fn k_best(
    forest: &Forest,
    s: usize,
    d: usize,
    k: usize,
    scratch: &mut DijkstraScratch,
) -> Vec<PathComparison> {
    let m = forest.matrix();
    if m.value(s, d).is_nan() {
        return Vec::new();
    }
    let direct = Ban {
        edges: &[d],
        ..Ban::default()
    };
    let Some(first) = forest.path(s, d, direct, scratch) else {
        return Vec::new();
    };

    // Yen's algorithm: accepted paths `a`, candidate heap `b` (kept as a
    // sorted vec keyed by weight — k and n are small here).
    let mut accepted: Vec<Vec<usize>> = vec![first];
    let mut candidates: Vec<(Vec<usize>, f64)> = Vec::new();
    let mut edges = Vec::new();
    while accepted.len() < k {
        let last = accepted.last().expect("at least the first path").clone();
        for i in 0..last.len() - 1 {
            // The spur search from `last[i]`: the vertices before it are
            // banned to keep paths loopless, and so is the next edge of
            // every accepted path sharing the root — the direct edge too
            // when the spur is the source.
            let (root, spur) = (&last[..i], last[i]);
            edges.clear();
            edges.extend(
                accepted
                    .iter()
                    .filter(|p| p.starts_with(&last[..=i]))
                    .map(|p| p[i + 1]),
            );
            if i == 0 {
                edges.push(d);
            }
            let ban = Ban {
                vertices: root,
                edges: &edges,
            };
            if let Some(tail) = forest.path(spur, d, ban, scratch) {
                let mut total = root.to_vec();
                total.extend(tail);
                let weight: f64 = total.windows(2).map(|w| m.weight(w[0], w[1])).sum();
                if !accepted.contains(&total) && !candidates.iter().any(|(p, _)| *p == total) {
                    candidates.push((total, weight));
                }
            }
        }
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        if candidates.is_empty() {
            break;
        }
        accepted.push(candidates.remove(0).0);
    }

    let mut vals = Vec::new();
    accepted
        .into_iter()
        .map(|path| kernel::comparison_along(m, &path, &mut vals))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisContext;
    use crate::metric::Rtt;
    use crate::testkit::rtt_matrix_dataset;
    use detour_measure::HostId;

    const X: f64 = f64::NAN;

    /// Diamond: 0→3 direct 100; 0-1-3 = 30, 0-1-2-3 = 10+5+25 = 40,
    /// 0-2-3 = 30+25 = 55.
    fn diamond() -> AnalysisContext {
        AnalysisContext::from_dataset(&rtt_matrix_dataset(
            &[
                &[0.0, 10.0, 30.0, 100.0],
                &[X, 0.0, 5.0, 20.0],
                &[X, X, 0.0, 25.0],
                &[X, X, X, 0.0],
            ],
            2,
        ))
    }

    /// The RTT ranking for `s → d` (host ids equal dense indices) on the
    /// context's matrix.
    fn ranked(cx: &AnalysisContext, s: usize, d: usize, k: usize) -> Vec<PathComparison> {
        k_best_alternates_in(cx.weights(&Rtt), s, d, k)
    }

    #[test]
    fn first_result_matches_best_alternate() {
        let g = diamond();
        let m = g.weights(&Rtt);
        let sweep = kernel::sweep(m, crate::SearchDepth::Unrestricted);
        // 0→3's shortest path is already a detour; 1→3's is the direct
        // edge, which the first search must ban.
        for (s, d) in [(0, 3), (1, 3)] {
            let kb = ranked(&g, s, d, 3);
            let best = sweep.iter().find(|c| c.pair == kb[0].pair).unwrap();
            assert_eq!(kb[0].alternate_value, best.alternate_value);
            assert_eq!(kb[0].via, best.via);
        }
    }

    #[test]
    fn paths_come_back_ranked_and_distinct() {
        let kb = ranked(&diamond(), 0, 3, 5);
        // Diamond has exactly three loopless alternates:
        // 0-1-3 (30), 0-1-2-3 (40), 0-2-3 (55).
        assert_eq!(kb.len(), 3);
        assert_eq!(kb[0].alternate_value, 30.0);
        assert_eq!(kb[0].via, vec![HostId(1)]);
        assert_eq!(kb[1].alternate_value, 40.0);
        assert_eq!(kb[1].via, vec![HostId(1), HostId(2)]);
        assert_eq!(kb[2].alternate_value, 55.0);
        assert_eq!(kb[2].via, vec![HostId(2)]);
        for w in kb.windows(2) {
            assert!(w[0].alternate_value <= w[1].alternate_value);
        }
    }

    #[test]
    fn direct_edge_is_never_used() {
        for cmp in ranked(&diamond(), 0, 3, 10) {
            assert!(!cmp.via.is_empty(), "the direct edge sneaked in");
        }
    }

    #[test]
    fn all_returned_paths_are_loopless() {
        for cmp in ranked(&diamond(), 0, 3, 10) {
            let mut seen = std::collections::HashSet::new();
            for &h in &cmp.via {
                assert!(seen.insert(h));
                assert!(h != HostId(0) && h != HostId(3));
            }
        }
    }

    #[test]
    fn missing_direct_edge_yields_empty() {
        let g = AnalysisContext::from_dataset(&rtt_matrix_dataset(
            &[&[0.0, 10.0, X], &[X, 0.0, 10.0], &[X, X, 0.0]],
            2,
        ));
        // 0→2 has no direct edge: nothing to compare against.
        assert!(ranked(&g, 0, 2, 3).is_empty());
    }
}
