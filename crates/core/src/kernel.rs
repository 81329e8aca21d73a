//! The flat weight-matrix analysis kernel.
//!
//! Every alternate-path sweep reduces to the same inner loop: visit the
//! edges of the measurement graph (the cells of a [`PairTable`]), ask a
//! [`MetricKind`] for each edge's search weight, relax. The naive form pays
//! for that with a metric call (an `Option<Summary>` unwrap, or a
//! percentile over the raw samples) *per relaxation* — for an all-pairs
//! sweep that re-derives the same `n²` weights `O(n²)` times each. The
//! paper itself retreated to one-hop detours in places "to keep the
//! computational costs reasonable" (§4.1, §6.1); this module is why the
//! reproduction does not have to.
//!
//! Four pieces:
//!
//! * [`WeightMatrix`] — one contiguous row-major `n × n` `Vec<f64>` of
//!   search weights (missing edge = `+∞`) and one of figure-facing metric
//!   values (missing = `NaN`), precomputed **once per (table, metric)** by
//!   calling [`MetricKind::weight`]/[`MetricKind::value`] exactly once per
//!   edge. The matrix keeps the metric it was built from
//!   ([`WeightMatrix::metric`]), so no entry point takes a second metric
//!   argument that could disagree with it — a loss matrix can only ever be
//!   composed by the loss law. [`BandwidthMatrix`] is the analogue for the
//!   N2 Mathis-model search.
//! * **The source-batched sweep** ([`sweep`]) — the paper's
//!   all-pairs question ("best alternate with the direct edge excluded")
//!   does not need one Dijkstra per *pair*. For each source `s` the sweep
//!   runs **one** full SSSP tree over the matrix (no exclusions)
//!   and answers all of `s`'s pairs from it: the tree path to `d` can only
//!   contain the excluded edge `(s, d)` as the terminal path `[s, d]`
//!   itself, so the exclusion changes a pair's answer only when
//!   `prev[d] == s` — the fix-up condition. Everything else (including
//!   unreachable destinations) reads straight off the tree, bit-identical
//!   to the per-pair search. A fix-up is answered from the tree as well:
//!   banning `(s, d)` can only move the vertices whose tree path runs
//!   through `d` — `d`'s subtree `T` — so the sweep *re-settles* just
//!   those, merged into the unchanged extraction order of the rest, and
//!   reads `d`'s answer off the result. That costs `O(|T|·n)`, and `T` is
//!   usually `d` alone. An all-pairs sweep drops from `O(n⁴)` to
//!   `O(n³ + Σ|T|·n)`. A fix-up's `d` is a child of the source, and the
//!   children's subtrees are disjoint, so `Σ|T| ≤ n − 1` per source and
//!   the sweep is `O(n³)`.
//! * **One banned-tree mechanism.** `dijkstra` only grows a source's full
//!   tree over every host; `resettle` is the only code that applies a
//!   ban — a set of vertices plus a set of direct edges out of the source
//!   — to a grown tree. The sweep's fix-ups, the Figure-12 greedy loop's
//!   host bans and Yen's spur searches ([`crate::kbest`]) are all
//!   re-settles. `dijkstra` and `resettle` share one `(dist, index)`
//!   extraction scan and one relaxation, so the tie-break rule lives in
//!   one place. Buffers are
//!   per pool worker (threaded through
//!   [`crate::pool::parallel_map_init`]); the fan-out unit is a *source*,
//!   so each task is `O(n²)` of real work.
//! * **A removed host is a vertex ban on kept trees.** Every sweep runs
//!   over the whole matrix. The Figure-12 greedy removal loop keeps the
//!   unrestricted sweep's trees and removes host `h` by re-settling `h`'s
//!   subtree in each of them — value for value the trees of a table
//!   rebuilt from the dataset restricted to the other hosts
//!   (`Dataset::restrict_to_hosts`; relative vertex order is preserved, so
//!   tie-breaks resolve identically), at the cost of what `h` touches
//!   ([`crate::analysis::hostremoval`]).
//!
//! **The invariant: same arithmetic, same bytes.** The kernel changes
//! memory layout and search *strategy*, never arithmetic: weights and
//! values are the identical `f64`s the metric produced, relaxed with the
//! same `dist[u] + w` sums and the same strict `<`, extracted with the
//! same lowest-index tie-break, composed by the same [`MetricKind::compose`]
//! calls. Every report downstream is byte-identical to the pre-kernel
//! implementation, a property pinned by the golden report suite, the
//! determinism integration tests, the kernel property tests, and the
//! batched-vs-per-pair equivalence suite (`tests/batched_kernel.rs`,
//! against a textbook per-pair Dijkstra kept there as test code).

use crate::altpath::{Pair, PathComparison, SearchDepth};
use crate::compose::{synthetic_bandwidth_kbps, LossComposition};
use crate::metric::MetricKind;
use crate::pool;
use detour_measure::{HostId, HostIndex, PairTable};
use std::sync::OnceLock;

/// Precomputed flat edge weights and values for one `(table, metric)`.
#[derive(Debug, Clone)]
pub struct WeightMatrix {
    metric: MetricKind,
    n: usize,
    /// The table's hosts and their dense index.
    index: HostIndex,
    /// Row-major additive search weights; missing/unusable edge = `+∞`.
    weights: Vec<f64>,
    /// Row-major figure-facing metric values; missing = `NaN`.
    values: Vec<f64>,
}

impl WeightMatrix {
    /// Builds the matrix, calling `metric.weight` and `metric.value`
    /// exactly once per measured edge.
    pub fn build(table: &PairTable, metric: &MetricKind) -> WeightMatrix {
        let n = table.len();
        let mut weights = vec![f64::INFINITY; n * n];
        let mut values = vec![f64::NAN; n * n];
        for (i, j) in table.measured_pairs() {
            if let Some(v) = metric.value(table, i, j) {
                values[i * n + j] = v;
            }
            if let Some(w) = metric.weight(table, i, j) {
                weights[i * n + j] = w;
            }
        }
        WeightMatrix {
            metric: *metric,
            n,
            index: table.index().clone(),
            weights,
            values,
        }
    }

    /// The metric the matrix was built from; every search on the matrix
    /// composes alternates by its law.
    pub fn metric(&self) -> MetricKind {
        self.metric
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The hosts, in the table's dense-index order.
    pub fn hosts(&self) -> &[HostId] {
        self.index.hosts()
    }

    /// Dense index of a host.
    pub fn host_index(&self, h: HostId) -> Option<usize> {
        self.index.get(h)
    }

    /// The search weight of edge `i → j` (`+∞` when missing).
    #[inline]
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.n + j]
    }

    /// The metric value of edge `i → j` (`NaN` when missing).
    #[inline]
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.n + j]
    }

    /// Directed index pairs with a measured metric value, in the same
    /// row-major order as [`PairTable::measured_pairs`].
    ///
    /// Pairs whose edge exists but lacks this metric's value are omitted:
    /// the search returns `None` for them anyway (nothing to compare
    /// against), so the surviving comparison stream is identical.
    pub fn measured_pairs(&self) -> Vec<(usize, usize)> {
        measured_cells(&self.values, self.n)
    }
}

/// Directed index pairs `(i, j)`, `i != j`, whose cell in the row-major
/// `n × n` column `col` is not `NaN` — in row-major order.
fn measured_cells(col: &[f64], n: usize) -> Vec<(usize, usize)> {
    debug_assert_eq!(col.len(), n * n);
    (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j && !col[i * n + j].is_nan())
        .collect()
}

/// Precomputed flat per-edge bandwidth inputs for the N2 search (§5):
/// measured bandwidth plus transfer RTT/loss means (`NaN` = missing).
#[derive(Debug, Clone)]
pub struct BandwidthMatrix {
    n: usize,
    hosts: Vec<HostId>,
    bw: Vec<f64>,
    t_rtt: Vec<f64>,
    t_loss: Vec<f64>,
}

impl BandwidthMatrix {
    /// Builds the matrix, reading each edge's summaries exactly once.
    pub fn build(table: &PairTable) -> BandwidthMatrix {
        let n = table.len();
        let mut bw = vec![f64::NAN; n * n];
        let mut t_rtt = vec![f64::NAN; n * n];
        let mut t_loss = vec![f64::NAN; n * n];
        for (i, j) in table.measured_pairs() {
            if let Some(b) = table.bandwidth(i, j) {
                bw[i * n + j] = b.mean;
            }
            if let Some(r) = table.transfer_rtt(i, j) {
                t_rtt[i * n + j] = r.mean;
            }
            if let Some(p) = table.transfer_loss(i, j) {
                t_loss[i * n + j] = p.mean;
            }
        }
        BandwidthMatrix {
            n,
            hosts: table.hosts().to_vec(),
            bw,
            t_rtt,
            t_loss,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Directed index pairs with a measured bandwidth, `(i, j)` order.
    pub fn measured_pairs(&self) -> Vec<(usize, usize)> {
        measured_cells(&self.bw, self.n)
    }
}

/// Reusable per-worker buffers for growing source trees and answering
/// pairs from them, one per pool worker; they grow to the graph size on
/// first use.
#[derive(Debug, Default)]
pub(crate) struct DijkstraScratch {
    /// The source tree a group of pairs is answered from: the sweep's
    /// freshly grown one, or a kept one re-settled without a host.
    tree: Tree,
    work: Work,
}

/// Reusable buffers for answering pairs from a [`Tree`].
#[derive(Debug, Default)]
struct Work {
    /// A fix-up's tree: the source tree re-settled without the direct edge.
    banned: Tree,
    sub: Subtree,
    path: Vec<usize>,
    vals: Vec<f64>,
}

/// Reusable buffers for [`dijkstra`] and [`resettle`].
#[derive(Debug, Default)]
struct Subtree {
    /// `inside[v]` when `v`'s tree path runs through a banned element.
    inside: Vec<bool>,
    /// The vertices not yet settled that a search may still extract.
    open: Vec<u32>,
}

/// One source's finished SSSP tree — what [`dijkstra`] grows, kept so that
/// a ban can re-settle it ([`resettle`]) instead of growing a new one.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Tree {
    src: usize,
    /// `dist[v]` for settled `v`, `+∞` for every other vertex.
    dist: Vec<f64>,
    /// `prev[v]` for settled `v ≠ src`, `usize::MAX` for every other vertex.
    prev: Vec<usize>,
    /// The settled vertices in extraction order.
    order: Vec<u32>,
}

/// What a re-settle takes out of a source's tree: vertices, as if removed
/// from the table, and direct edges out of the source.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ban<'a> {
    /// The banned vertices; never the source.
    pub(crate) vertices: &'a [usize],
    /// The heads of the banned edges out of the source.
    pub(crate) edges: &'a [usize],
}

impl<'a> Ban<'a> {
    /// The direct edge from the source to `d`.
    fn edge(d: &'a usize) -> Ban<'a> {
        Ban {
            edges: std::slice::from_ref(d),
            ..Ban::default()
        }
    }

    /// Vertex `h`, as if removed from the table.
    fn vertex(h: &'a usize) -> Ban<'a> {
        Ban {
            vertices: std::slice::from_ref(h),
            ..Ban::default()
        }
    }
}

/// Walks `prev` back from `d` to `s`, leaving the path `s → … → d` in
/// `path`.
fn trace(prev: &[usize], s: usize, d: usize, path: &mut Vec<usize>) {
    path.clear();
    path.push(d);
    let mut cur = d;
    while cur != s {
        cur = prev[cur];
        path.push(cur);
    }
    path.reverse();
}

/// Extraction order on `(dist, vertex)` keys: the smaller distance first,
/// equal distances to the lower vertex index — the first of equal minima
/// an index-order `(0..n).filter(…).min_by(…)` scan selects.
#[inline]
fn precedes((da, a): (f64, usize), (db, b): (f64, usize)) -> bool {
    da < db || (da == db && a < b)
}

/// The reached vertex of `open` that extraction takes next, by
/// [`precedes`], and its position in `open`; `None` when no vertex of
/// `open` is reached. The scan is over the list as it stands, so whatever
/// order `swap_remove` has left it in, the pick is the same.
fn nearest(dist: &[f64], open: &[u32]) -> Option<(usize, usize)> {
    let (mut pos, mut best) = (usize::MAX, (f64::INFINITY, usize::MAX));
    for (k, &v) in open.iter().enumerate() {
        let key = (dist[v as usize], v as usize);
        if key.0 != f64::INFINITY && precedes(key, best) {
            (pos, best) = (k, key);
        }
    }
    (pos != usize::MAX).then_some((pos, best.1))
}

/// Relaxes the unsettled vertices `open` from the settled `u` — `dist[u] +
/// w` sums, strict `<` — except into `skip`. A missing edge's `+∞` sum
/// never passes the `<`.
fn relax_open(m: &WeightMatrix, tree: &mut Tree, open: &[u32], u: usize, skip: &[usize]) {
    let du = tree.dist[u];
    let row = &m.weights[u * m.n..(u + 1) * m.n];
    for &t in open {
        let t = t as usize;
        let nd = du + row[t];
        if nd < tree.dist[t] && !skip.contains(&t) {
            tree.dist[t] = nd;
            tree.prev[t] = u;
        }
    }
}

/// Grows the full SSSP tree from `s` over every host, into `tree`; `open`
/// is a reusable buffer.
///
/// Extraction scans a compact frontier list that shrinks by `swap_remove`
/// as vertices settle, and relaxation visits only that same list —
/// settled vertices cannot improve (weights are non-negative), and the
/// per-vertex updates within one extraction are independent, so visiting
/// the survivors in list order leaves `dist`/`prev` exactly as a full
/// `0..n` pass does.
fn dijkstra(m: &WeightMatrix, s: usize, tree: &mut Tree, open: &mut Vec<u32>) {
    let n = m.n;
    tree.src = s;
    tree.dist.clear();
    tree.dist.resize(n, f64::INFINITY);
    tree.prev.clear();
    tree.prev.resize(n, usize::MAX);
    tree.order.clear();
    tree.dist[s] = 0.0;
    open.clear();
    open.extend(0..n as u32);
    while let Some((pos, u)) = nearest(&tree.dist, open) {
        open.swap_remove(pos);
        tree.order.push(u as u32);
        relax_open(m, tree, open, u, &[]);
    }
}

/// The comparison for the alternate `path` (`s → … → d`, at least one
/// intermediate): composes the true metric values edge by edge into
/// `vals` by the matrix's metric and reads the default from the direct
/// edge `(s, d)`.
pub(crate) fn comparison_along(
    m: &WeightMatrix,
    path: &[usize],
    vals: &mut Vec<f64>,
) -> PathComparison {
    let (s, d) = (path[0], path[path.len() - 1]);
    vals.clear();
    for w in path.windows(2) {
        let v = m.value(w[0], w[1]);
        debug_assert!(!v.is_nan(), "path edge must have a metric value");
        vals.push(v);
    }
    PathComparison {
        pair: Pair {
            src: m.hosts()[s],
            dst: m.hosts()[d],
        },
        default_value: m.value(s, d),
        alternate_value: m.metric.compose(vals),
        via: path[1..path.len() - 1]
            .iter()
            .map(|&i| m.hosts()[i])
            .collect(),
        lower_is_better: true,
    }
}

/// The one relay scan behind both one-hop searches: every relay `mid` for
/// which `via(mid)` composes a two-leg value competes, and the
/// first strictly better one wins (`<` when `lower_is_better`, else `>`),
/// so equal values resolve to the lowest-index relay. `None` when the
/// direct edge is unmeasured (`default_value` is `NaN`) or no relay has
/// both legs.
fn best_relay(
    hosts: &[HostId],
    s: usize,
    d: usize,
    default_value: f64,
    lower_is_better: bool,
    via: impl Fn(usize) -> Option<f64>,
) -> Option<PathComparison> {
    if default_value.is_nan() {
        return None;
    }
    let mut best: Option<(f64, usize)> = None;
    for mid in (0..hosts.len()).filter(|&mid| mid != s && mid != d) {
        let Some(v) = via(mid) else { continue };
        if best.is_none_or(|(b, _)| if lower_is_better { v < b } else { v > b }) {
            best = Some((v, mid));
        }
    }
    let (alternate_value, mid) = best?;
    Some(PathComparison {
        pair: Pair {
            src: hosts[s],
            dst: hosts[d],
        },
        default_value,
        alternate_value,
        via: vec![hosts[mid]],
        lower_is_better,
    })
}

/// Best alternate through exactly one intermediate host.
fn best_alternate_one_hop(m: &WeightMatrix, s: usize, d: usize) -> Option<PathComparison> {
    best_relay(m.hosts(), s, d, m.value(s, d), true, |mid| {
        let (v1, v2) = (m.value(s, mid), m.value(mid, d));
        (!v1.is_nan() && !v2.is_nan()).then(|| m.metric.compose(&[v1, v2]))
    })
}

/// The N2 bandwidth search (§5) on the flat matrix: one-hop alternates,
/// Mathis-model composition of transfer RTT/loss means.
fn best_alternate_bandwidth(
    bm: &BandwidthMatrix,
    s: usize,
    d: usize,
    mode: LossComposition,
) -> Option<PathComparison> {
    let n = bm.n;
    best_relay(&bm.hosts, s, d, bm.bw[s * n + d], false, |mid| {
        let (r1, r2) = (bm.t_rtt[s * n + mid], bm.t_rtt[mid * n + d]);
        let (p1, p2) = (bm.t_loss[s * n + mid], bm.t_loss[mid * n + d]);
        let complete = !(r1.is_nan() || r2.is_nan() || p1.is_nan() || p2.is_nan());
        complete.then(|| synthetic_bandwidth_kbps(&[r1, r2], &[p1, p2], mode))
    })
}

/// Groups a `(src, dst)`-sorted pair list into per-source `(s, start, end)`
/// ranges — the batched fan-out unit: one task per source is `O(n²)` of
/// real work, coarse enough to amortize pool claiming at any scale.
fn group_by_source(pairs: &[(usize, usize)]) -> Vec<(usize, usize, usize)> {
    let mut groups = Vec::new();
    let mut start = 0;
    for k in 1..=pairs.len() {
        if k == pairs.len() || pairs[k].0 != pairs[start].0 {
            groups.push((pairs[start].0, start, k));
            start = k;
        }
    }
    groups
}

/// Answers every pair with the relay `search`, fanned out over
/// [`crate::pool`] one source group per task and merged in pair order —
/// the fan-out of both one-hop sweeps.
fn relay_sweep(
    pairs: &[(usize, usize)],
    search: impl Fn(usize, usize) -> Option<PathComparison> + Sync,
) -> Vec<PathComparison> {
    pool::parallel_flat_map(&group_by_source(pairs), |&(_, a, b)| {
        pairs[a..b]
            .iter()
            .filter_map(|&(s, d)| search(s, d))
            .collect()
    })
}

/// Re-settles `base`, the finished tree from `base.src`, for `ban`: leaves
/// in `out` the very tree (`dist` bits, `prev`, `order`) a fresh
/// [`dijkstra`] on the graph without the banned vertices and edges grows,
/// and returns how many vertices it unsettled. This is the only code that
/// applies a ban.
///
/// Only `T` can move: the vertices whose `prev` chain reaches a root — a
/// settled banned vertex, or the head of a banned edge the tree uses.
/// Every other vertex keeps its tree path, and with it its distance, its
/// `prev` and its place in the extraction order relative to the other
/// outside vertices, zero and absorbed weights included (DESIGN.md §6f has
/// the proof). So `T` is unsettled, relaxed from the vertices settled
/// before the earliest root, and re-extracted merged into the outside
/// order by [`precedes`]. The banned vertices stay out; the source skips
/// every banned edge. That costs `O(|T|·n)` where a search costs `O(n²)`.
fn resettle(m: &WeightMatrix, base: &Tree, ban: Ban, out: &mut Tree, sub: &mut Subtree) -> usize {
    let s = base.src;
    debug_assert!(!ban.vertices.contains(&s), "the source cannot be banned");
    out.src = s;
    out.dist.clone_from(&base.dist);
    out.prev.clone_from(&base.prev);
    out.order.clear();
    let Subtree { inside, open } = sub;
    inside.clear();
    inside.resize(m.n, false);
    // An edge is only on a tree path that *is* the edge, and an unsettled
    // vertex is on none.
    for &v in ban.vertices {
        inside[v] = base.dist[v] != f64::INFINITY;
    }
    for &d in ban.edges {
        inside[d] |= base.prev[d] == s;
    }
    let Some(at) = base.order.iter().position(|&v| inside[v as usize]) else {
        out.order.extend_from_slice(&base.order);
        return 0;
    };
    // A vertex settles after its `prev`, so one pass over the order from
    // the earliest root marks every vertex whose chain reaches a root.
    open.clear();
    let mut unsettled = 0;
    for &v in &base.order[at..] {
        let v = v as usize;
        if inside[v] || inside[base.prev[v]] {
            inside[v] = true;
            unsettled += 1;
            out.dist[v] = f64::INFINITY;
            out.prev[v] = usize::MAX;
            if !ban.vertices.contains(&v) {
                open.push(v as u32);
            }
        }
    }
    // Everything settled before the earliest root stays, and relaxes `T`
    // in its order; only the source's relaxation skips the banned edges.
    out.order.extend_from_slice(&base.order[..at]);
    for &u in &base.order[..at] {
        let skip = if u as usize == s { ban.edges } else { &[] };
        relax_open(m, out, open, u as usize, skip);
    }
    let mut rest = base.order[at..]
        .iter()
        .copied()
        .filter(|&v| !inside[v as usize])
        .peekable();
    while !open.is_empty() {
        let next = nearest(&out.dist, open);
        let u = match (rest.peek(), next) {
            (Some(&o), _)
                if next.is_none_or(|(_, t)| {
                    precedes((out.dist[o as usize], o as usize), (out.dist[t], t))
                }) =>
            {
                rest.next();
                o as usize
            }
            (_, Some((pos, t))) => {
                open.swap_remove(pos);
                t
            }
            // The outside order is done, and what is left of `T` is
            // unreachable.
            _ => break,
        };
        out.order.push(u as u32);
        relax_open(m, out, open, u, &[]);
    }
    out.order.extend(rest);
    unsettled
}

impl Tree {
    /// The alternate this tree's path to `d` gives `(src, d)`, composed
    /// into `vals` along `path`; `None` when `d` is unreachable.
    fn comparison(
        &self,
        m: &WeightMatrix,
        d: usize,
        path: &mut Vec<usize>,
        vals: &mut Vec<f64>,
    ) -> Option<PathComparison> {
        if self.dist[d] == f64::INFINITY {
            return None;
        }
        trace(&self.prev, self.src, d, path);
        Some(comparison_along(m, path, vals))
    }
}

/// Answers `tree.src`'s pairs `group` from `tree`, in group order, and
/// records the group's `kernel/*` counts on the current `detour-obs`
/// recorder.
fn answer_from(
    m: &WeightMatrix,
    tree: &Tree,
    group: &[(usize, usize)],
    work: &mut Work,
) -> Vec<Option<PathComparison>> {
    let s = tree.src;
    let mut out = Vec::with_capacity(group.len());
    let (mut fixups, mut resettled) = (0u64, 0u64);
    for &(src, d) in group {
        debug_assert_eq!(src, s);
        debug_assert!(!m.value(s, d).is_nan(), "pairs are measured");
        let from = if tree.prev[d] == s {
            // The tree path is the direct edge (ties included: relaxation
            // is strict, so an equal-weight alternate never displaced it).
            // Only here does the exclusion change the answer.
            fixups += 1;
            resettled += resettle(m, tree, Ban::edge(&d), &mut work.banned, &mut work.sub) as u64;
            &work.banned
        } else {
            // The tree path avoids the direct edge — edge (s, d) can only
            // ever appear as the terminal path [s, d] — so it *is* the
            // answer of a search without the edge, tie-breaks and sums
            // included; an unreachable `d` has no alternate either way.
            tree
        };
        out.push(from.comparison(m, d, &mut work.path, &mut work.vals));
    }
    let rec = detour_obs::current();
    rec.add("kernel/sweep_pairs", group.len() as u64);
    rec.add("kernel/sweep_fixups", fixups);
    rec.add("kernel/sweep_avoided", group.len() as u64 - fixups);
    rec.add("kernel/resettled", resettled);
    out
}

/// [`sweep`]'s unrestricted strategy, keeping what it grows: the answers,
/// in pair order, and every source's SSSP tree, indexed by source (empty
/// for a source without measured pairs) — the trees the Figure-12 greedy
/// loop re-settles ([`best_alternates_without`], [`drop_host`]).
pub(crate) fn sweep_with_trees(m: &WeightMatrix) -> (Vec<PathComparison>, Vec<Tree>) {
    let mut trees = vec![Tree::default(); m.n];
    let out = sweep_sources(m, std::mem::take, |s, tree| trees[s] = tree);
    (out, trees)
}

/// The one fan-out behind [`sweep`] and [`sweep_with_trees`]: per source
/// with measured pairs, a tree grown by [`dijkstra`] in the worker's
/// scratch and the source's pairs answered from it. `keep` takes what the
/// caller wants of each tree out of the scratch (the answer-only sweep
/// takes nothing, so a worker's tree buffers serve every source), and
/// `kept` receives it with the source, in source order. Returns the
/// answers in pair order.
fn sweep_sources<K: Send>(
    m: &WeightMatrix,
    keep: impl Fn(&mut Tree) -> K + Sync,
    mut kept: impl FnMut(usize, K),
) -> Vec<PathComparison> {
    let pairs = m.measured_pairs();
    let groups = group_by_source(&pairs);
    let answered =
        pool::parallel_map_init(&groups, DijkstraScratch::default, |scratch, &(s, a, b)| {
            let DijkstraScratch { tree, work } = scratch;
            dijkstra(m, s, tree, &mut work.sub.open);
            let answers = answer_from(m, tree, &pairs[a..b], work);
            (answers, keep(tree))
        });
    let mut out = Vec::with_capacity(pairs.len());
    for (&(s, _, _), (answers, k)) in groups.iter().zip(answered) {
        out.extend(answers.into_iter().flatten());
        kept(s, k);
    }
    out
}

/// The best alternates of a `(src, dst)`-sorted list of measured pairs,
/// in pair order, once host `h` joins the hosts banned from `trees`: per
/// source, its tree re-settled without `h`, and each pair answered from
/// that. Each answer equals [`sweep`]'s on the table rebuilt without every
/// banned host. Runs on the calling thread.
pub(crate) fn best_alternates_without(
    m: &WeightMatrix,
    trees: &[Tree],
    h: usize,
    pairs: &[(usize, usize)],
    scratch: &mut DijkstraScratch,
) -> Vec<Option<PathComparison>> {
    let mut out = Vec::with_capacity(pairs.len());
    let mut resettled = 0;
    for (s, a, b) in group_by_source(pairs) {
        let DijkstraScratch { tree, work } = scratch;
        resettled += resettle(m, &trees[s], Ban::vertex(&h), tree, &mut work.sub) as u64;
        out.extend(answer_from(m, tree, &pairs[a..b], work));
    }
    detour_obs::current().add("kernel/resettled", resettled);
    out
}

/// Re-settles every tree in `trees` without host `h` and drops `h`'s own:
/// afterwards `h` is one more host banned from them.
pub(crate) fn drop_host(
    m: &WeightMatrix,
    trees: &mut [Tree],
    h: usize,
    scratch: &mut DijkstraScratch,
) {
    trees[h] = Tree::default();
    let mut resettled = 0;
    for tree in trees.iter_mut() {
        if tree.order.is_empty() || tree.dist[h] == f64::INFINITY {
            continue;
        }
        resettled += resettle(
            m,
            tree,
            Ban::vertex(&h),
            &mut scratch.tree,
            &mut scratch.work.sub,
        ) as u64;
        std::mem::swap(tree, &mut scratch.tree);
    }
    detour_obs::current().add("kernel/resettled", resettled);
}

/// Every vertex's SSSP tree, each grown by [`dijkstra`] the first time a
/// search asks for it and shared by every search after that, from any
/// pool worker: the trees Yen's spur searches re-settle
/// ([`crate::kbest`]).
pub(crate) struct Forest<'a> {
    m: &'a WeightMatrix,
    trees: Vec<OnceLock<Tree>>,
}

impl<'a> Forest<'a> {
    /// No tree grown yet.
    pub(crate) fn new(m: &'a WeightMatrix) -> Forest<'a> {
        Forest {
            m,
            trees: (0..m.n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The matrix the trees are grown on.
    pub(crate) fn matrix(&self) -> &'a WeightMatrix {
        self.m
    }

    /// The shortest path `s → … → d` once `ban` is applied: `s`'s tree
    /// re-settled for it, walked back from `d`. `None` when the ban cuts
    /// `d` off.
    pub(crate) fn path(
        &self,
        s: usize,
        d: usize,
        ban: Ban,
        scratch: &mut DijkstraScratch,
    ) -> Option<Vec<usize>> {
        let base = self.trees[s].get_or_init(|| {
            let mut tree = Tree::default();
            dijkstra(self.m, s, &mut tree, &mut Vec::new());
            tree
        });
        let DijkstraScratch { tree, work } = scratch;
        resettle(self.m, base, ban, tree, &mut work.sub);
        (tree.dist[d] != f64::INFINITY).then(|| {
            trace(&tree.prev, s, d, &mut work.path);
            work.path.clone()
        })
    }
}

/// All-pairs sweep on the matrix: the parallel engine
/// behind [`crate::analysis::cdf::compare_all_pairs`] and the first view
/// of the Figure-12 greedy loop.
///
/// For [`SearchDepth::Unrestricted`] it runs **one** dense Dijkstra per
/// source — not per pair — producing the full SSSP tree over the matrix,
/// and answers every `(s, d)` from that tree. Only a fix-up — a
/// pair whose tree path *is* the excluded direct edge (`prev[d] == s`) —
/// needs more, and it re-settles the subtree of `d` with the edge banned
/// instead of searching again.
/// Fan-out over [`crate::pool`] is by source with one scratch per worker,
/// and a worker grows each of its sources' trees in that scratch's
/// buffers, so the sweep allocates no tree per source;
/// per-source results concatenate in source order (pairs are
/// `(i, j)`-sorted within), so the output is bit-identical at every thread
/// count — and bit-identical to one textbook Dijkstra per pair, which the
/// equivalence property tests (`tests/batched_kernel.rs`) enforce and the
/// baseline's pinned SCALE digest guards.
///
/// The accounting — how much work the one-SSSP-per-source strategy saved
/// — goes to the current `detour-obs` recorder: `kernel/sweep_pairs`
/// (measured pairs answered), `kernel/sweep_fixups` (pairs whose tree path
/// is the excluded direct edge), `kernel/sweep_avoided` (the other pairs,
/// answered straight off the tree) and `kernel/resettled` (the vertices the
/// fix-ups re-settled, at least one each). The Figure-12 greedy loop
/// records the same four for the pairs it re-answers, and adds the
/// vertices its host bans re-settle. The split is a pure function of the
/// matrix, so the counters are thread-count-invariant; the one-hop
/// scan has no tree to read from, so it contributes pairs only.
pub fn sweep(m: &WeightMatrix, depth: SearchDepth) -> Vec<PathComparison> {
    match depth {
        SearchDepth::Unrestricted => sweep_sources(m, |_| (), |_, ()| {}),
        SearchDepth::OneHop => {
            let pairs = m.measured_pairs();
            detour_obs::current().add("kernel/sweep_pairs", pairs.len() as u64);
            relay_sweep(&pairs, |s, d| best_alternate_one_hop(m, s, d))
        }
    }
}

/// All-pairs bandwidth sweep on the matrix; parallel and order-deterministic
/// like [`sweep`], fanned out by source so each task carries a full row of
/// pairs.
pub fn sweep_bandwidth(bm: &BandwidthMatrix, mode: LossComposition) -> Vec<PathComparison> {
    relay_sweep(&bm.measured_pairs(), |s, d| {
        best_alternate_bandwidth(bm, s, d, mode)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::cdf::compare_graph;
    use crate::metric::Rtt;
    use crate::testkit::{random_dataset, random_matrix, rtt_matrix_dataset, GraphKind};
    use detour_measure::Dataset;
    use detour_prng::check::check;
    use detour_prng::Rng;

    const X: f64 = f64::NAN;

    fn diamond_dataset() -> Dataset {
        rtt_matrix_dataset(
            &[
                &[0.0, 10.0, 30.0, 100.0],
                &[X, 0.0, 5.0, 20.0],
                &[X, X, 0.0, 25.0],
                &[X, X, X, 0.0],
            ],
            2,
        )
    }

    fn diamond() -> PairTable {
        PairTable::build(&diamond_dataset())
    }

    /// The unrestricted sweep's answer for `s → d`, if any.
    fn swept(m: &WeightMatrix, s: usize, d: usize) -> Option<PathComparison> {
        let (src, dst) = (m.hosts()[s], m.hosts()[d]);
        sweep(m, SearchDepth::Unrestricted)
            .into_iter()
            .find(|c| c.pair == Pair { src, dst })
    }

    /// The banned tree by a textbook search that shares no code with
    /// [`dijkstra`]: the banned vertices never extracted, the banned edges
    /// weighed `+∞`, and the frontier minimum taken by a full `min_by`
    /// scan, which keeps the first of equal minima (the lowest index). The
    /// oracle for every re-settle, tie-breaks included.
    fn fresh_banned(m: &WeightMatrix, s: usize, ban: Ban) -> Tree {
        let n = m.n;
        let weight = |u: usize, v: usize| {
            if u == s && ban.edges.contains(&v) {
                f64::INFINITY
            } else {
                m.weights[u * n + v]
            }
        };
        let (mut dist, mut prev, mut order) = (vec![f64::INFINITY; n], vec![usize::MAX; n], vec![]);
        let mut done = vec![false; n];
        for &v in ban.vertices {
            done[v] = true;
        }
        dist[s] = 0.0;
        while let Some(u) = (0..n)
            .filter(|&u| !done[u] && dist[u].is_finite())
            .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap())
        {
            done[u] = true;
            order.push(u as u32);
            for v in (0..n).filter(|&v| !done[v]) {
                if dist[u] + weight(u, v) < dist[v] {
                    dist[v] = dist[u] + weight(u, v);
                    prev[v] = u;
                }
            }
        }
        Tree {
            src: s,
            dist,
            prev,
            order,
        }
    }

    #[test]
    fn build_records_weights_once_per_edge() {
        let g = diamond();
        let m = WeightMatrix::build(&g, &Rtt);
        assert_eq!(m.len(), 4);
        assert_eq!(m.weight(0, 1), 10.0);
        assert_eq!(m.value(0, 3), 100.0);
        assert_eq!(m.weight(1, 0), f64::INFINITY, "unmeasured direction");
        assert!(m.value(1, 0).is_nan());
        assert_eq!(m.weight(2, 2), f64::INFINITY, "no self loops");
    }

    #[test]
    fn measured_pairs_match_table_pairs() {
        let g = diamond();
        let m = WeightMatrix::build(&g, &Rtt);
        assert_eq!(m.measured_pairs(), g.measured_pairs().collect::<Vec<_>>());
    }

    #[test]
    fn kernel_finds_hand_computed_detours() {
        // Diamond alternates, worked by hand (direct edge always excluded):
        // 0→3 direct 100: best 0-1-3 = 30; one-hop best also via 1 (30,
        // beating via 2 = 55). 0→2 direct 30: best 0-1-2 = 15. 1→3 direct
        // 20: only 1-2-3 = 30. 0→1, 1→2, 2→3 have no alternate at all.
        let g = diamond();
        let m = WeightMatrix::build(&g, &Rtt);

        let c = swept(&m, 0, 3).unwrap();
        assert_eq!(c.default_value, 100.0);
        assert_eq!(c.alternate_value, 30.0);
        assert_eq!(c.via, vec![HostId(1)]);
        let oh = best_alternate_one_hop(&m, 0, 3).unwrap();
        assert_eq!(oh.alternate_value, 30.0);
        assert_eq!(oh.via, vec![HostId(1)]);

        let c = swept(&m, 0, 2).unwrap();
        assert_eq!((c.default_value, c.alternate_value), (30.0, 15.0));
        let c = swept(&m, 1, 3).unwrap();
        assert_eq!((c.default_value, c.alternate_value), (20.0, 30.0));
        assert!(!c.alternate_wins());
        for (s, d) in [(0, 1), (1, 2), (2, 3)] {
            assert!(swept(&m, s, d).is_none());
        }
    }

    #[test]
    fn masking_reroutes_around_the_removed_host() {
        // With host 1 banned from the kept trees, 0→3's best alternate
        // degrades to 0-2-3 = 55.
        let g = diamond();
        let m = WeightMatrix::build(&g, &Rtt);
        let (_, trees) = sweep_with_trees(&m);
        let pairs = [(0, 2), (0, 3)];
        let got = best_alternates_without(&m, &trees, 1, &pairs, &mut DijkstraScratch::default());
        let c = got[1].as_ref().unwrap();
        assert_eq!(c.alternate_value, 55.0);
        assert_eq!(c.via, vec![HostId(2)]);
        // And 0→2 loses its only detour entirely.
        assert!(got[0].is_none());
    }

    /// Answers every measured pair that avoids the `removed` hosts from
    /// `trees`, in pair order.
    fn answer_all(m: &WeightMatrix, trees: &[Tree], removed: &[usize]) -> Vec<PathComparison> {
        let pairs: Vec<(usize, usize)> = m
            .measured_pairs()
            .into_iter()
            .filter(|(s, d)| !removed.contains(s) && !removed.contains(d))
            .collect();
        let mut work = Work::default();
        group_by_source(&pairs)
            .into_iter()
            .flat_map(|(s, a, b)| answer_from(m, &trees[s], &pairs[a..b], &mut work))
            .flatten()
            .collect()
    }

    #[test]
    fn masked_sweep_equals_rebuilt_table_sweep() {
        // The production removal: drop 1–3 hosts from the kept trees, one
        // `drop_host` each, then answer every surviving pair from them.
        check("banned trees answer like a rebuilt table", |rng| {
            for kind in [GraphKind::WholeMs, GraphKind::Lossy, GraphKind::Absorbing] {
                let (ds, metric) = random_dataset(rng, kind);
                let m = WeightMatrix::build(&PairTable::build(&ds), &metric);
                let (_, mut trees) = sweep_with_trees(&m);
                let mut removed: Vec<usize> = Vec::new();
                let mut scratch = DijkstraScratch::default();
                for _ in 0..rng.gen_range(1..4usize).min(m.len()) {
                    let left: Vec<usize> = (0..m.len()).filter(|h| !removed.contains(h)).collect();
                    let h = left[rng.gen_range(0..left.len())];
                    drop_host(&m, &mut trees, h, &mut scratch);
                    removed.push(h);
                }
                let others: Vec<HostId> = (0..m.len())
                    .filter(|h| !removed.contains(h))
                    .map(|h| m.hosts()[h])
                    .collect();
                let rebuilt = PairTable::build(&ds.restrict_to_hosts(&others));
                let reference = compare_graph(&rebuilt, &metric, SearchDepth::Unrestricted);
                // Full structural equality: same pairs in the same order,
                // same values bit for bit, same detour hosts (tie-breaks
                // included).
                assert_eq!(
                    answer_all(&m, &trees, &removed),
                    reference,
                    "{kind:?} {removed:?}"
                );
            }
        });
    }

    /// Hand-built 5-host hub fixture, every ordered pair measured: legs
    /// to/from hub 0 cost 10 ms, everything else 100 ms — except the tied
    /// edges 1↔2 at 20 ms, exactly the cost of detouring via the hub.
    fn hub_five() -> PairTable {
        hub_five_with(|_| {})
    }

    /// [`hub_five`] with `edit` applied to its RTT rows first.
    fn hub_five_with(edit: impl FnOnce(&mut [Vec<f64>])) -> PairTable {
        let mut rows = vec![vec![100.0f64; 5]; 5];
        rows[0] = vec![X, 10.0, 10.0, 10.0, 10.0];
        for (i, row) in rows.iter_mut().enumerate().skip(1) {
            row[i] = X;
            row[0] = 10.0;
        }
        rows[1][2] = 20.0;
        rows[2][1] = 20.0;
        edit(&mut rows);
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        PairTable::build(&rtt_matrix_dataset(&refs, 2))
    }

    /// Every measured pair's answer, one fresh search each on the graph
    /// without the direct edge.
    fn per_pair(m: &WeightMatrix) -> Vec<PathComparison> {
        let (mut path, mut vals) = (Vec::new(), Vec::new());
        m.measured_pairs()
            .into_iter()
            .filter_map(|(s, d)| {
                fresh_banned(m, s, Ban::edge(&d)).comparison(m, d, &mut path, &mut vals)
            })
            .collect()
    }

    #[test]
    fn fixup_triggers_exactly_when_direct_edge_is_first_hop() {
        let g = hub_five();
        let m = WeightMatrix::build(&g, &Rtt);
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cmps = sweep(&m, SearchDepth::Unrestricted);
        let (pairs, fixups, avoided) = (
            rec.counter("kernel/sweep_pairs"),
            rec.counter("kernel/sweep_fixups"),
            rec.counter("kernel/sweep_avoided"),
        );
        assert_eq!(pairs, 20, "all ordered pairs are measured");
        // Fix-ups are exactly the pairs whose SSSP tree reaches `d` over
        // the direct edge: the 8 pairs touching hub 0 (no cheaper detour
        // exists), plus the tied pairs 1↔2 — direct 20 equals via-hub 20,
        // and strict relaxation keeps `prev[d] = s` on ties, so ties must
        // fall into the re-search.
        assert_eq!((fixups, avoided), (10, 10));
        assert_eq!(pairs, fixups + avoided);
        // No fix-up searches: each re-settles the subtree of its
        // destination. The six out of the hub and the tied 1↔2 are leaves,
        // one vertex each. Every other tree detours through the hub, so a
        // fix-up into it re-settles the hub and the hosts behind it: 3 for
        // sources 1 and 2 (the tied neighbour stays direct), 4 for 3 and 4.
        assert_eq!(rec.counter("kernel/resettled"), 6 + 2 * 3 + 2 * 4);
        // Every answer must match a fresh search without the direct edge.
        assert_eq!(cmps, per_pair(&m));
        // The tie resolves to the equal-cost hub detour, found by fix-up.
        let tied = cmps
            .iter()
            .find(|c| c.pair.src == HostId(1) && c.pair.dst == HostId(2))
            .unwrap();
        assert_eq!((tied.default_value, tied.alternate_value), (20.0, 20.0));
        assert_eq!(tied.via, vec![HostId(0)]);
        // A tree-answered pair for contrast: 1→3 detours via the hub.
        let avoided = cmps
            .iter()
            .find(|c| c.pair.src == HostId(1) && c.pair.dst == HostId(3))
            .unwrap();
        assert_eq!(
            (avoided.default_value, avoided.alternate_value),
            (100.0, 20.0)
        );
        assert_eq!(avoided.via, vec![HostId(0)]);
    }

    #[test]
    fn a_weight_that_a_distance_absorbs_still_resettles_every_fixup() {
        // Next to the 10 ms legs a 1e-300 ms edge does not move a sum: from
        // host 3, host 4 ties the hub's subtree at 20 ms through it, and
        // the re-settle must still extract every vertex where a fresh
        // banned search does.
        let g = hub_five_with(|rows| rows[3][4] = 1e-300);
        let m = WeightMatrix::build(&g, &Rtt);
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cmps = sweep(&m, SearchDepth::Unrestricted);
        let fixups = rec.counter("kernel/sweep_fixups");
        assert!(fixups > 0);
        assert!(
            rec.counter("kernel/resettled") > fixups,
            "no fix-up searches"
        );
        assert_eq!(cmps, per_pair(&m));
    }

    #[test]
    fn one_hop_sweep_reports_no_fixups() {
        let g = hub_five();
        let m = WeightMatrix::build(&g, &Rtt);
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cmps = sweep(&m, SearchDepth::OneHop);
        assert_eq!(rec.counter("kernel/sweep_pairs"), 20);
        // The one-hop scan has no SSSP tree, so it contributes neither
        // fix-ups nor avoided re-searches.
        assert_eq!(rec.counter("kernel/sweep_fixups"), 0);
        assert_eq!(rec.counter("kernel/sweep_avoided"), 0);
        assert_eq!(cmps.len(), 20);
    }

    #[test]
    fn bandwidth_scan_picks_the_first_best_complete_relay() {
        // 0→3 direct at 50 kB/s; relays 1 and 2 have identical transfer
        // legs (20 ms, 1 % loss), so their synthetic bandwidths are equal.
        let mut b = Dataset::builder("T");
        b.hosts(4);
        for (s, d, bandwidth_kbps) in [
            (0, 3, 50.0),
            (0, 1, 80.0),
            (1, 3, 80.0),
            (0, 2, 80.0),
            (2, 3, 80.0),
        ] {
            b.transfer(s, d, 0.0, 20.0, 0.01, bandwidth_kbps);
        }
        let ds = b.build().unwrap();
        let bm = BandwidthMatrix::build(&PairTable::build(&ds));
        let mode = LossComposition::Optimistic;
        let search = |bm: &BandwidthMatrix| best_alternate_bandwidth(bm, 0, 3, mode).map(|c| c.via);

        let c = best_alternate_bandwidth(&bm, 0, 3, mode).unwrap();
        assert!(!c.lower_is_better);
        assert_eq!(c.default_value, 50.0);
        let legs = synthetic_bandwidth_kbps(&[20.0, 20.0], &[0.01, 0.01], mode);
        assert_eq!(c.alternate_value, legs);
        assert_eq!(c.via, vec![HostId(1)], "a tie goes to the lower index");

        let mut lossless = bm.clone();
        lossless.t_loss[1] = f64::NAN; // relay 1's 0→1 transfer-loss leg
        assert_eq!(search(&lossless), Some(vec![HostId(2)]));

        let mut no_direct = bm.clone();
        no_direct.bw[3] = f64::NAN; // the direct edge 0→3
        assert_eq!(search(&no_direct), None);
    }

    #[test]
    fn scratch_is_reusable_across_sizes() {
        let small = diamond();
        let big = PairTable::build(&rtt_matrix_dataset(
            &[
                &[0.0, 10.0, 30.0, 100.0, 7.0],
                &[X, 0.0, 5.0, 20.0, X],
                &[X, X, 0.0, 25.0, 9.0],
                &[X, X, X, 0.0, X],
                &[4.0, X, X, 11.0, 0.0],
            ],
            2,
        ));
        let mut reused = DijkstraScratch::default();
        for g in [&big, &small, &big] {
            let m = WeightMatrix::build(g, &Rtt);
            let pairs = m.measured_pairs();
            for (s, a, b) in group_by_source(&pairs) {
                let answer = |scratch: &mut DijkstraScratch| {
                    let DijkstraScratch { tree, work } = scratch;
                    dijkstra(&m, s, tree, &mut work.sub.open);
                    (tree.clone(), answer_from(&m, tree, &pairs[a..b], work))
                };
                assert_eq!(answer(&mut reused), answer(&mut DijkstraScratch::default()));
            }
        }
    }

    #[test]
    fn resettling_a_ban_equals_a_fresh_banned_search() {
        check("re-settled tree equals a fresh banned tree", |rng| {
            let (mut got, mut sub) = (Tree::default(), Subtree::default());
            for kind in [GraphKind::WholeMs, GraphKind::Lossy, GraphKind::Absorbing] {
                let m = random_matrix(rng, kind);
                let n = m.len();
                for s in 0..n {
                    // The base is what `drop_host` hands to a later round:
                    // the full tree re-settled for each earlier removal.
                    let earlier: Vec<usize> =
                        (0..n).filter(|&v| v != s && rng.gen_bool(0.2)).collect();
                    let mut base = Tree::default();
                    dijkstra(&m, s, &mut base, &mut Vec::new());
                    for h in &earlier {
                        resettle(&m, &base, Ban::vertex(h), &mut got, &mut sub);
                        std::mem::swap(&mut base, &mut got);
                    }
                    let others: Vec<usize> = (0..n)
                        .filter(|&v| v != s && !earlier.contains(&v))
                        .collect();
                    // Every single ban, then random sets of 0–3 vertices
                    // and 0–3 source edges, at least one ban in all.
                    let mut bans: Vec<(Vec<usize>, Vec<usize>)> = others
                        .iter()
                        .flat_map(|&v| [(vec![v], vec![]), (vec![], vec![v])])
                        .collect();
                    for _ in 0..others.len() {
                        let nv = rng.gen_range(0..4usize);
                        let ne = rng.gen_range(usize::from(nv == 0)..4);
                        let mut pick = |k: usize| -> Vec<usize> {
                            (0..k)
                                .map(|_| others[rng.gen_range(0..others.len())])
                                .collect()
                        };
                        bans.push((pick(nv), pick(ne)));
                    }
                    for (vertices, edges) in &bans {
                        let ban = Ban { vertices, edges };
                        resettle(&m, &base, ban, &mut got, &mut sub);
                        let all = [&earlier[..], vertices].concat();
                        let fresh = fresh_banned(
                            &m,
                            s,
                            Ban {
                                vertices: &all,
                                edges,
                            },
                        );
                        let bits =
                            |t: &Tree| t.dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&fresh), "dist, s={s} {ban:?}");
                        assert_eq!(got.prev, fresh.prev, "prev, s={s} {ban:?}");
                        assert_eq!(got.order, fresh.order, "order, s={s} {ban:?}");
                    }
                }
            }
        });
    }

    #[test]
    fn empty_table_is_fine() {
        let g = PairTable::build(&rtt_matrix_dataset(&[], 2));
        let m = WeightMatrix::build(&g, &Rtt);
        assert!(m.is_empty());
        assert!(m.measured_pairs().is_empty());
        assert!(sweep(&m, SearchDepth::Unrestricted).is_empty());
    }
}
