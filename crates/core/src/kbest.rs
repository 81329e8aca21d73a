//! K-best alternate paths (Yen's algorithm).
//!
//! The paper's Figure 13 counts hosts appearing in "some superior alternate
//! path (not necessarily the very best)" — there is a whole *ranking* of
//! alternates behind each pair. [`k_best_alternates`] materializes that
//! ranking: the k loopless alternate paths with the best composed metric,
//! direct edge excluded, via Yen's algorithm over the measurement graph.
//!
//! Downstream uses: richer contribution analyses, overlay route *sets*
//! (primary + backup), and sensitivity checks ("how much worse is the
//! second-best detour?").

use crate::altpath::{Pair, PathComparison};
use crate::context::AnalysisContext;
use crate::kernel::{self, DijkstraScratch, WeightMatrix};
use crate::metric::Metric;

/// Composes the true metric value along a vertex sequence.
fn compose_along(m: &WeightMatrix, metric: &impl Metric, path: &[usize]) -> f64 {
    let values: Vec<f64> = path.windows(2).map(|w| m.value(w[0], w[1])).collect();
    metric.compose(&values)
}

/// The `k` best loopless alternate paths for `pair`, best first, with the
/// direct edge excluded throughout (it is never a candidate).
///
/// Returns fewer than `k` entries when the graph runs out of distinct
/// loopless alternates, and an empty vector when the pair has no measured
/// direct edge (nothing to compare against).
///
/// Single-pair convenience wrapper: borrows the context's cached
/// [`WeightMatrix`] and delegates to [`k_best_alternates_in`] — per-pair
/// loops should hold the matrix reference and call that directly (as
/// [`crate::analysis::sensitivity`] does).
pub fn k_best_alternates(
    cx: &AnalysisContext,
    pair: Pair,
    metric: &impl Metric,
    k: usize,
) -> Vec<PathComparison> {
    let m = cx.weights(metric);
    let (Some(s), Some(d)) = (m.host_index(pair.src), m.host_index(pair.dst)) else {
        return Vec::new();
    };
    k_best_alternates_in(m, &m.no_mask(), s, d, metric, k)
}

/// [`k_best_alternates`] on a prebuilt [`WeightMatrix`] with a host-removal
/// mask (`removed[i]` = host masked out): Yen's algorithm, dense indices
/// `s → d`.
pub fn k_best_alternates_in(
    m: &WeightMatrix,
    removed: &[bool],
    s: usize,
    d: usize,
    metric: &impl Metric,
    k: usize,
) -> Vec<PathComparison> {
    let default_value = m.value(s, d);
    if default_value.is_nan() {
        return Vec::new();
    }

    // One generation-stamped scratch serves the initial search and every
    // Yen spur search below — no per-call allocation or O(n) reset.
    let mut scratch = DijkstraScratch::new();
    let direct: std::collections::HashSet<(usize, usize)> = [(s, d)].into();
    let Some(first) = kernel::shortest_path_restricted(m, s, d, removed, &direct, &mut scratch)
    else {
        return Vec::new();
    };

    // Yen's algorithm: accepted paths `a`, candidate heap `b` (kept as a
    // sorted vec keyed by weight — k and n are small here).
    let mut accepted: Vec<(Vec<usize>, f64)> = vec![first];
    let mut candidates: Vec<(Vec<usize>, f64)> = Vec::new();
    while accepted.len() < k {
        let last = accepted.last().expect("at least the first path").0.clone();
        for spur_idx in 0..last.len() - 1 {
            let spur = last[spur_idx];
            let root = &last[..=spur_idx];
            // Ban edges used by any accepted path sharing this root, plus
            // the direct edge always.
            let mut banned_edges = direct.clone();
            for (p, _) in &accepted {
                if p.len() > spur_idx && p[..=spur_idx] == *root {
                    banned_edges.insert((p[spur_idx], p[spur_idx + 1]));
                }
            }
            // Ban root vertices (except the spur) to keep paths loopless,
            // on top of the caller's removal mask.
            let mut banned_vertices = removed.to_vec();
            for &v in &root[..spur_idx] {
                banned_vertices[v] = true;
            }
            if let Some((tail, _)) = kernel::shortest_path_restricted(
                m,
                spur,
                d,
                &banned_vertices,
                &banned_edges,
                &mut scratch,
            ) {
                let mut total: Vec<usize> = root[..spur_idx].to_vec();
                total.extend(tail);
                let weight: f64 = total.windows(2).map(|w| m.weight(w[0], w[1])).sum();
                if !accepted.iter().any(|(p, _)| *p == total)
                    && !candidates.iter().any(|(p, _)| *p == total)
                {
                    candidates.push((total, weight));
                }
            }
        }
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        if candidates.is_empty() {
            break;
        }
        accepted.push(candidates.remove(0));
    }

    accepted
        .into_iter()
        .map(|(path, _)| PathComparison {
            pair: Pair {
                src: m.hosts()[s],
                dst: m.hosts()[d],
            },
            default_value,
            alternate_value: compose_along(m, metric, &path),
            via: path[1..path.len() - 1]
                .iter()
                .map(|&i| m.hosts()[i])
                .collect(),
            lower_is_better: true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rtt;
    use detour_measure::record::HostMeta;
    use detour_measure::{Dataset, HostId, ProbeSample};

    fn dataset_from_rtt_matrix(matrix: &[&[f64]]) -> Dataset {
        let n = matrix.len();
        let hosts = (0..n as u32)
            .map(|id| HostMeta {
                id: HostId(id),
                name: format!("h{id}"),
                asn: id as u16,
                truly_rate_limited: false,
            })
            .collect();
        let mut probes = Vec::new();
        for (i, row) in matrix.iter().enumerate() {
            for (j, &rtt) in row.iter().enumerate() {
                if i == j || rtt.is_nan() {
                    continue;
                }
                for k in 0..2 {
                    probes.push(ProbeSample {
                        src: HostId(i as u32),
                        dst: HostId(j as u32),
                        t_s: k as f64,
                        probe_index: 0,
                        rtt_ms: Some(rtt),
                        loss_eligible: true,
                        episode: None,
                        path_idx: 0,
                    });
                }
            }
        }
        Dataset {
            name: "K".into(),
            hosts,
            probes,
            transfers: vec![],
            as_paths: vec![vec![0]],
            duration_s: 10.0,
            detected_rate_limited: vec![],
            starved_pairs: 0,
        }
    }

    const X: f64 = f64::NAN;

    /// Diamond: 0→3 direct 100; via 1 costs 30; via 2 costs 50;
    /// via 1→2 chain costs 10+15+25 = 50 too... make distinct: 0-1-3=30,
    /// 0-2-3=50, 0-1-2-3=10+5+25=40.
    fn diamond() -> AnalysisContext {
        AnalysisContext::from_dataset(&dataset_from_rtt_matrix(&[
            &[0.0, 10.0, 30.0, 100.0],
            &[X, 0.0, 5.0, 20.0],
            &[X, X, 0.0, 25.0],
            &[X, X, X, 0.0],
        ]))
    }

    #[test]
    fn first_result_matches_best_alternate() {
        let g = diamond();
        let pair = Pair {
            src: HostId(0),
            dst: HostId(3),
        };
        let kb = k_best_alternates(&g, pair, &Rtt, 3);
        let m = g.weights(&Rtt);
        let best =
            kernel::best_alternate_masked(m, &m.no_mask(), 0, 3, &Rtt, &mut DijkstraScratch::new())
                .unwrap();
        assert_eq!(kb[0].alternate_value, best.alternate_value);
        assert_eq!(kb[0].via, best.via);
    }

    #[test]
    fn paths_come_back_ranked_and_distinct() {
        let g = diamond();
        let pair = Pair {
            src: HostId(0),
            dst: HostId(3),
        };
        let kb = k_best_alternates(&g, pair, &Rtt, 5);
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
        let g = diamond();
        let pair = Pair {
            src: HostId(0),
            dst: HostId(3),
        };
        for cmp in k_best_alternates(&g, pair, &Rtt, 10) {
            assert!(!cmp.via.is_empty(), "the direct edge sneaked in");
        }
    }

    #[test]
    fn all_returned_paths_are_loopless() {
        let g = diamond();
        let pair = Pair {
            src: HostId(0),
            dst: HostId(3),
        };
        for cmp in k_best_alternates(&g, pair, &Rtt, 10) {
            let mut seen = std::collections::HashSet::new();
            for &h in &cmp.via {
                assert!(seen.insert(h));
                assert!(h != pair.src && h != pair.dst);
            }
        }
    }

    #[test]
    fn missing_direct_edge_yields_empty() {
        let g = AnalysisContext::from_dataset(&dataset_from_rtt_matrix(&[
            &[0.0, 10.0, X],
            &[X, 0.0, 10.0],
            &[X, X, 0.0],
        ]));
        // 0→2 has no direct edge: nothing to compare against.
        let pair = Pair {
            src: HostId(0),
            dst: HostId(2),
        };
        assert!(k_best_alternates(&g, pair, &Rtt, 3).is_empty());
    }
}
