//! Pre-kernel reference implementations, preserved for benchmarking.
//!
//! `detour_core`'s alternate-path search now runs on the flat
//! [`detour_core::WeightMatrix`] kernel; the original per-relaxation
//! edge-walk (calling `Metric::weight` on the pair table inside the
//! Dijkstra loop, with fresh allocations per pair) and the
//! rebuild-per-candidate Figure-12 greedy loop survive here, so
//! `benches/altpath_kernel_bench.rs` and the `baseline` binary's
//! `fig12_greedy` entry can measure the kernel against the exact code it
//! replaced. Both produce results identical to the kernel — the
//! property tests in `detour-core` pin that down — so the comparison is
//! pure cost, not accuracy.

use detour_core::altpath::SearchDepth;
use detour_core::analysis::cdf::improvement_cdf;
use detour_core::analysis::hostremoval::RemovalAnalysis;
use detour_core::metric::Metric;
use detour_core::{pool, Pair, PathComparison, WeightMatrix};
use detour_measure::{Dataset, HostId, PairTable};

use crate::study::Study;

/// The pre-refactor experiment engine: run one experiment against a study
/// whose artifact caches start *empty*, so every pair table and weight
/// matrix rebuilds from the shared datasets — exactly what each
/// experiment paid before the build-once [`detour_core::AnalysisContext`].
/// The equivalence tests and the `baseline` binary byte-compare the shared
/// engine's reports against this at every thread count.
pub fn run_rebuild(id: &str, study: &Study) -> Option<String> {
    let fresh = study.rebuild_fresh();
    crate::experiments::run(id, &fresh).or_else(|| crate::extras::run(id, &fresh))
}

/// The pre-change unrestricted search: dense Dijkstra walking the table's
/// cells, re-deriving each weight via `Metric::weight` at every relaxation
/// and allocating its working state per call.
pub fn edge_walk_best_alternate(
    table: &PairTable,
    pair: Pair,
    metric: &impl Metric,
) -> Option<PathComparison> {
    let s = table.host_index(pair.src)?;
    let d = table.host_index(pair.dst)?;
    let default_value = metric.value(table, s, d)?;

    let n = table.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut done = vec![false; n];
    dist[s] = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&u| !done[u] && dist[u].is_finite())
            .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap())?;
        if u == d {
            break;
        }
        done[u] = true;
        for v in 0..n {
            if v == u || done[v] {
                continue;
            }
            if u == s && v == d {
                continue;
            }
            let Some(w) = metric.weight(table, u, v) else {
                continue;
            };
            if dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
                prev[v] = u;
            }
        }
    }
    if !dist[d].is_finite() {
        return None;
    }
    let mut rev = vec![d];
    let mut cur = d;
    while cur != s {
        cur = prev[cur];
        rev.push(cur);
    }
    rev.reverse();
    let values: Vec<f64> = rev
        .windows(2)
        .map(|w| metric.value(table, w[0], w[1]).expect("path edge"))
        .collect();
    Some(PathComparison {
        pair,
        default_value,
        alternate_value: metric.compose(&values),
        via: rev[1..rev.len() - 1]
            .iter()
            .map(|&i| table.hosts()[i])
            .collect(),
        lower_is_better: true,
    })
}

/// The pre-change all-pairs sweep: fan the edge-walk search out over the
/// pool, one fresh allocation set per pair.
pub fn edge_walk_sweep(table: &PairTable, metric: &impl Metric) -> Vec<PathComparison> {
    let hosts = table.hosts();
    let pairs: Vec<Pair> = table
        .measured_pairs()
        .map(|(i, j)| Pair {
            src: hosts[i],
            dst: hosts[j],
        })
        .collect();
    pool::parallel_map(&pairs, |&pair| {
        edge_walk_best_alternate(table, pair, metric)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The pre-batching per-pair scratch, preserved verbatim: full `O(n)`
/// fills of dist/prev/done on every `reset` — the constant factor the
/// generation-stamped scratch in `detour_core::kernel` eliminated.
#[derive(Debug, Default)]
pub struct PerPairScratch {
    dist: Vec<f64>,
    prev: Vec<usize>,
    done: Vec<bool>,
    path: Vec<usize>,
    vals: Vec<f64>,
}

impl PerPairScratch {
    /// An empty scratch; buffers grow to the graph size on first use.
    pub fn new() -> PerPairScratch {
        PerPairScratch::default()
    }

    fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.prev.clear();
        self.prev.resize(n, usize::MAX);
        self.done.clear();
        self.done.resize(n, false);
    }
}

/// The pre-batching unrestricted search, preserved verbatim: one dense
/// Dijkstra *per pair* with the direct edge excluded, extracting the
/// frontier minimum with a full `(0..n).filter(...).min_by(...)` scan of
/// every vertex per iteration. The batched kernel must stay bit-identical
/// to this (same extraction tie-breaks — `min_by` keeps the first, i.e.
/// lowest-index, of equal minima — and the same `dist[u] + w` sums); the
/// `tests/batched_kernel.rs` property suite and the `baseline` binary's
/// `scale_sweep` gate both compare against it.
pub fn per_pair_best_alternate_masked(
    m: &WeightMatrix,
    removed: &[bool],
    s: usize,
    d: usize,
    metric: &impl Metric,
    scratch: &mut PerPairScratch,
) -> Option<PathComparison> {
    let n = m.len();
    debug_assert_eq!(removed.len(), n);
    debug_assert!(!removed[s] && !removed[d]);
    let default_value = m.value(s, d);
    if default_value.is_nan() {
        return None;
    }

    scratch.reset(n);
    let PerPairScratch {
        dist, prev, done, ..
    } = scratch;
    dist[s] = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&u| !done[u] && dist[u].is_finite())
            .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap())?;
        if u == d {
            break;
        }
        done[u] = true;
        for v in 0..n {
            if v == u || done[v] || removed[v] {
                continue;
            }
            // The excluded direct edge.
            if u == s && v == d {
                continue;
            }
            let w = m.weight(u, v);
            if w == f64::INFINITY {
                continue;
            }
            if dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
                prev[v] = u;
            }
        }
    }
    if !dist[d].is_finite() {
        return None;
    }
    // Recover vertices, then compose the true metric values edge by edge.
    scratch.path.clear();
    scratch.path.push(d);
    let mut cur = d;
    while cur != s {
        cur = scratch.prev[cur];
        scratch.path.push(cur);
    }
    scratch.path.reverse();
    scratch.vals.clear();
    for w in scratch.path.windows(2) {
        let v = m.value(w[0], w[1]);
        debug_assert!(!v.is_nan(), "path edge must have a metric value");
        scratch.vals.push(v);
    }
    Some(PathComparison {
        pair: Pair {
            src: m.hosts()[s],
            dst: m.hosts()[d],
        },
        default_value,
        alternate_value: metric.compose(&scratch.vals),
        via: scratch.path[1..scratch.path.len() - 1]
            .iter()
            .map(|&i| m.hosts()[i])
            .collect(),
        lower_is_better: true,
    })
}

/// The pre-batching one-hop search, preserved verbatim.
pub fn per_pair_one_hop_masked(
    m: &WeightMatrix,
    removed: &[bool],
    s: usize,
    d: usize,
    metric: &impl Metric,
) -> Option<PathComparison> {
    let n = m.len();
    debug_assert_eq!(removed.len(), n);
    let default_value = m.value(s, d);
    if default_value.is_nan() {
        return None;
    }

    let mut best: Option<(f64, usize)> = None;
    for (mid, &gone) in removed.iter().enumerate() {
        if mid == s || mid == d || gone {
            continue;
        }
        let (v1, v2) = (m.value(s, mid), m.value(mid, d));
        if v1.is_nan() || v2.is_nan() {
            continue;
        }
        let composed = metric.compose(&[v1, v2]);
        if best.is_none_or(|(b, _)| composed < b) {
            best = Some((composed, mid));
        }
    }
    let (alternate_value, mid) = best?;
    Some(PathComparison {
        pair: Pair {
            src: m.hosts()[s],
            dst: m.hosts()[d],
        },
        default_value,
        alternate_value,
        via: vec![m.hosts()[mid]],
        lower_is_better: true,
    })
}

/// The pre-batching all-pairs sweep, preserved verbatim: pool fan-out at
/// *pair* granularity (one task per `(s, d)`), one full Dijkstra each,
/// index-ordered merge. The batched kernel answers the same pairs from
/// one SSSP tree per source and must return these exact bytes.
pub fn per_pair_sweep(
    m: &WeightMatrix,
    removed: &[bool],
    metric: &impl Metric,
    depth: SearchDepth,
) -> Vec<PathComparison> {
    let pairs = m.measured_pairs(removed);
    pool::parallel_map_init(
        &pairs,
        PerPairScratch::new,
        |scratch, &(s, d)| match depth {
            SearchDepth::Unrestricted => {
                per_pair_best_alternate_masked(m, removed, s, d, metric, scratch)
            }
            SearchDepth::OneHop => per_pair_one_hop_masked(m, removed, s, d, metric),
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

fn cdf_position(table: &PairTable, metric: &impl Metric) -> f64 {
    let cs = edge_walk_sweep(table, metric);
    if cs.is_empty() {
        return f64::NEG_INFINITY;
    }
    cs.iter().map(|c| c.improvement()).sum::<f64>() / cs.len() as f64
}

/// The table of `ds` restricted to `hosts`.
fn restricted(ds: &Dataset, hosts: &[HostId]) -> PairTable {
    PairTable::build(&ds.restrict_to_hosts(hosts))
}

/// The pre-change Figure-12 greedy loop: every candidate evaluation
/// rebuilds the pair table from the dataset restricted to the surviving
/// hosts and re-runs the edge-walk sweep on the rebuilt copy.
pub fn clone_rebuild_greedy(ds: &Dataset, metric: &impl Metric, k: usize) -> RemovalAnalysis {
    let mut current: Vec<HostId> = ds.hosts.iter().map(|h| h.id).collect();
    let full = improvement_cdf(&edge_walk_sweep(&restricted(ds, &current), metric));
    let mut removed = Vec::new();
    for _ in 0..k.min(current.len().saturating_sub(3)) {
        let mut best: Option<(f64, HostId)> = None;
        for &h in &current {
            let others: Vec<HostId> = current.iter().copied().filter(|&x| x != h).collect();
            let pos = cdf_position(&restricted(ds, &others), metric);
            if best.is_none_or(|(b, bh)| pos < b || (pos == b && h < bh)) {
                best = Some((pos, h));
            }
        }
        let Some((_, h)) = best else { break };
        current.retain(|&x| x != h);
        removed.push(h);
    }
    let reduced = improvement_cdf(&edge_walk_sweep(&restricted(ds, &current), metric));
    RemovalAnalysis {
        full,
        removed,
        reduced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detour_core::analysis::cdf::compare_graph;
    use detour_core::analysis::hostremoval::greedy_removal;
    use detour_core::{AnalysisContext, Rtt, SearchDepth};
    use detour_datasets::DatasetId;

    /// The whole point of keeping the reference: it must agree with the
    /// kernel bit for bit, or the bench compares different computations.
    /// This also pins the greedy loop's incremental candidate evaluation
    /// (reuse of pairs whose best path avoids the candidate) against the
    /// exhaustive clone-rebuild loop, at several graph sizes.
    #[test]
    fn reference_matches_kernel_exactly() {
        for n in [9usize, 12, 16] {
            let ds = DatasetId::Uw3.generate_scaled(n, 32);
            let cx = AnalysisContext::from_dataset(&ds);
            let g = cx.table();
            assert_eq!(
                edge_walk_sweep(g, &Rtt),
                compare_graph(g, &Rtt, SearchDepth::Unrestricted)
            );
            let a = clone_rebuild_greedy(&ds, &Rtt, 3);
            let b = greedy_removal(&cx, &Rtt, 3);
            assert_eq!(a.removed, b.removed, "n={n}");
            assert_eq!(
                a.reduced.fraction_above(0.0).to_bits(),
                b.reduced.fraction_above(0.0).to_bits(),
                "n={n}"
            );
        }
    }
}
