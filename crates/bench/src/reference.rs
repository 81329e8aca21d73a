//! The pre-batching per-pair sweep, kept as the oracle for the
//! source-batched kernel.
//!
//! [`detour_core::kernel::sweep`] answers every pair from one SSSP tree
//! per source and re-searches only the pairs whose tree path uses the
//! direct edge. Its output must stay bit-identical to one dense Dijkstra
//! per pair — same extraction tie-breaks, same `dist[u] + w` sums, same
//! detour hosts. Nothing else pins those tie-breaks bit for bit, so the
//! per-pair sweep lives on here verbatim: `tests/batched_kernel.rs`
//! compares the kernel against it on random masked graphs and a generated
//! dataset, and the `baseline` binary's `scale_sweep` entry checks and
//! times it on the 128-host SCALE dataset.

use detour_core::altpath::SearchDepth;
use detour_core::{pool, Pair, PathComparison, WeightMatrix};

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
        alternate_value: m.metric().compose(&scratch.vals),
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
        let composed = m.metric().compose(&[v1, v2]);
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
    depth: SearchDepth,
) -> Vec<PathComparison> {
    let pairs = m.measured_pairs(removed);
    pool::parallel_map_init(
        &pairs,
        PerPairScratch::new,
        |scratch, &(s, d)| match depth {
            SearchDepth::Unrestricted => per_pair_best_alternate_masked(m, removed, s, d, scratch),
            SearchDepth::OneHop => per_pair_one_hop_masked(m, removed, s, d),
        },
    )
    .into_iter()
    .flatten()
    .collect()
}
