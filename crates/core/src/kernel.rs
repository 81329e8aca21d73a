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
//!   runs **one** full SSSP tree over the masked matrix (no exclusions)
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
//! * [`DijkstraScratch`] — reusable per-worker state for the module's one
//!   Dijkstra loop, which serves the sweep's trees, the per-pair exclusion
//!   search and Yen's spur searches alike (threaded
//!   through [`crate::pool::parallel_map_init`]; the fan-out unit is a
//!   *source*, so each task is `O(n²)` of real work). Generation-stamped
//!   `dist`/`prev` buffers make starting a search `O(1)` instead of three
//!   `O(n)` fills, and extraction scans a compact unvisited-frontier list
//!   that shrinks as vertices settle instead of re-filtering all `n`
//!   vertices per iteration.
//! * **Masked views** — every kernel entry point takes a `removed: &[bool]`
//!   host mask. Masking a host is equivalent, value-for-value, to
//!   rebuilding the table from the dataset restricted to the other hosts
//!   (`Dataset::restrict_to_hosts`; relative vertex order is preserved, so
//!   tie-breaks resolve identically) but costs nothing. Masking one more
//!   host `h` is a ban like the fix-up's: the sweep's kept trees re-settle
//!   `h`'s subtree, which turns the Figure-12 greedy removal loop from
//!   rebuild-per-candidate into re-settling what each candidate touches
//!   ([`crate::analysis::hostremoval`]).
//!
//! **The invariant: same arithmetic, same bytes.** The kernel changes
//! memory layout and search *strategy*, never arithmetic: weights and
//! values are the identical `f64`s the metric produced, relaxed with the
//! same `dist[u] + w` sums and the same strict `<`, extracted with the
//! same lowest-index tie-break, composed by the same [`MetricKind::compose`]
//! calls. Every report downstream is byte-identical to the pre-kernel
//! implementation, a property pinned by the determinism integration
//! tests, the kernel property tests, and the batched-vs-per-pair
//! equivalence suite (`tests/batched_kernel.rs` against the retained
//! `detour_bench::reference::per_pair_sweep`).

use crate::altpath::{Pair, PathComparison, SearchDepth};
use crate::compose::{synthetic_bandwidth_kbps, LossComposition};
use crate::metric::MetricKind;
use crate::pool;
use detour_measure::{HostId, HostIndex, PairTable};

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

    /// An all-hosts-present mask sized for this matrix.
    pub fn no_mask(&self) -> Vec<bool> {
        vec![false; self.n]
    }

    /// A removal mask with `host` masked out — the zero-copy analogue of
    /// rebuilding the table without it. Unknown hosts yield [`no_mask`].
    ///
    /// [`no_mask`]: WeightMatrix::no_mask
    pub fn masked(&self, host: HostId) -> Vec<bool> {
        let mut mask = self.no_mask();
        if let Some(i) = self.host_index(host) {
            mask[i] = true;
        }
        mask
    }

    /// Directed index pairs with a measured metric value, in the same
    /// row-major order as [`PairTable::measured_pairs`], with masked hosts
    /// excluded.
    ///
    /// Pairs whose edge exists but lacks this metric's value are omitted:
    /// the search returns `None` for them anyway (nothing to compare
    /// against), so the surviving comparison stream is identical.
    pub fn measured_pairs(&self, removed: &[bool]) -> Vec<(usize, usize)> {
        measured_cells(&self.values, removed)
    }
}

/// Directed index pairs `(i, j)`, `i != j`, neither host masked, whose cell
/// in the row-major `n × n` column `col` is not `NaN` — in row-major order.
fn measured_cells(col: &[f64], removed: &[bool]) -> Vec<(usize, usize)> {
    let n = removed.len();
    debug_assert_eq!(col.len(), n * n);
    let mut out = Vec::new();
    for i in 0..n {
        if removed[i] {
            continue;
        }
        for (j, &gone) in removed.iter().enumerate() {
            if i != j && !gone && !col[i * n + j].is_nan() {
                out.push((i, j));
            }
        }
    }
    out
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

    /// An all-hosts-present mask sized for this matrix.
    pub fn no_mask(&self) -> Vec<bool> {
        vec![false; self.n]
    }

    /// Directed index pairs with a measured bandwidth, `(i, j)` order,
    /// masked hosts excluded.
    pub fn measured_pairs(&self, removed: &[bool]) -> Vec<(usize, usize)> {
        measured_cells(&self.bw, removed)
    }
}

/// Reusable per-worker buffers for the dense Dijkstra, one per pool
/// worker. Starting a search costs `O(1)` amortized, not `O(n)`:
///
/// * **Generation stamps.** `dist[v]`/`prev[v]` are valid only when
///   `stamp[v]` equals the current generation; `begin` bumps the
///   generation instead of filling three `O(n)` arrays with `+∞`, `MAX`,
///   and `false` per search. A stale `dist` reads as `+∞`; `prev` needs no
///   check of its own because it is only ever followed along chains of
///   currently-stamped vertices.
/// * **Compact unvisited frontier.** Extraction scans a dense index list
///   that shrinks by `swap_remove` as vertices settle, instead of
///   re-filtering all `n` vertices (done flags and all) per iteration —
///   and the relaxation loop visits only that same shrinking list. The
///   scan tracks the strict lexicographic minimum of `(dist, vertex)`, so
///   whatever order `swap_remove` leaves the list in, the extracted vertex
///   is the lowest-indexed one among equal minima — exactly the tie-break
///   `Iterator::min_by` (first wins) gave the old full-range scan.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    /// Current search generation; entries with `stamp[v] != gen` are stale.
    gen: u32,
    stamp: Vec<u32>,
    dist: Vec<f64>,
    prev: Vec<usize>,
    unvisited: Vec<u32>,
    /// The settled vertices in extraction order.
    order: Vec<u32>,
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

/// Reusable buffers for [`resettle`].
#[derive(Debug, Default)]
struct Subtree {
    /// `inside[v]` when `v`'s tree path runs through the banned element.
    inside: Vec<bool>,
    /// The subtree's vertices not yet re-settled.
    open: Vec<u32>,
}

/// One source's finished SSSP tree — what [`dijkstra`] leaves when it runs
/// to frontier exhaustion, kept in plain (unstamped) form so that a ban can
/// re-settle it ([`resettle`]) instead of growing a new one.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tree {
    src: usize,
    /// `dist[v]` for settled `v`, `+∞` for every other vertex.
    dist: Vec<f64>,
    /// `prev[v]` for settled `v ≠ src`, `usize::MAX` for every other vertex.
    prev: Vec<usize>,
    /// The settled vertices in extraction order.
    order: Vec<u32>,
}

/// What a re-settle takes out of a source's tree.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ban {
    /// The direct edge from the source to this vertex.
    Edge(usize),
    /// This vertex (never the source), as if masked.
    Vertex(usize),
}

impl DijkstraScratch {
    /// An empty scratch; buffers grow to the graph size on first use.
    pub fn new() -> DijkstraScratch {
        DijkstraScratch::default()
    }

    /// Opens a new search generation over `n` vertices. Only a size change
    /// (or a generation-counter wrap) pays for a real fill.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() != n {
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.dist.clear();
            self.dist.resize(n, f64::INFINITY);
            self.prev.clear();
            self.prev.resize(n, usize::MAX);
            self.gen = 0;
        }
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    /// `dist[v]` under the stamp discipline: stale entries are `+∞`.
    #[inline]
    fn dist_at(&self, v: usize) -> f64 {
        if self.stamp[v] == self.gen {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }

    /// Records `dist[v] = d` reached from `from`, stamping the entry live.
    #[inline]
    fn relax_to(&mut self, v: usize, d: f64, from: usize) {
        self.dist[v] = d;
        self.prev[v] = from;
        self.stamp[v] = self.gen;
    }

    /// Extracts the unvisited vertex minimizing `(dist, index)`, removing
    /// it from the frontier; `None` once no unvisited vertex is reachable.
    /// Identical selection to the old `(0..n).filter(...).min_by(...)`
    /// scan: strictly smaller distance wins, equal distances fall to the
    /// lower vertex index.
    fn extract_min(&mut self) -> Option<(usize, f64)> {
        let mut best_pos = usize::MAX;
        let mut best_v = usize::MAX;
        let mut best_d = f64::INFINITY;
        for (pos, &vu) in self.unvisited.iter().enumerate() {
            let v = vu as usize;
            if self.stamp[v] != self.gen {
                continue;
            }
            let dv = self.dist[v];
            if dv < best_d || (dv == best_d && v < best_v) {
                best_d = dv;
                best_v = v;
                best_pos = pos;
            }
        }
        if best_pos == usize::MAX {
            return None;
        }
        self.unvisited.swap_remove(best_pos);
        Some((best_v, best_d))
    }

    /// Walks the current generation's `prev` chain back from `d`, leaving
    /// the path `s → … → d` in `self.work.path`.
    fn trace_path(&mut self, s: usize, d: usize) {
        trace(&self.prev, s, d, &mut self.work.path);
    }

    /// Copies the full tree the last search from `s` left into `self.tree`.
    fn keep_tree(&mut self, s: usize) {
        let live = |v: usize| self.stamp[v] == self.gen;
        let n = self.stamp.len();
        let tree = &mut self.tree;
        tree.src = s;
        tree.dist.clear();
        tree.dist
            .extend((0..n).map(|v| if live(v) { self.dist[v] } else { f64::INFINITY }));
        tree.prev.clear();
        tree.prev
            .extend((0..n).map(|v| if live(v) { self.prev[v] } else { usize::MAX }));
        tree.order.clone_from(&self.order);
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

/// The one Dijkstra loop behind every search on the matrix — the sweep's
/// full SSSP tree, the per-pair exclusion search and Yen's spur searches —
/// so all of them relax, extract and break ties identically.
///
/// Searches from `s` over the vertices `open` admits (callers keep `s`
/// open: the source is exempt from any vertex ban) and skips every edge
/// with `banned(u, v)`. With `target = Some(d)` it stops as soon as `d`
/// settles and returns its distance, `None` when `d` is unreachable; with
/// `target = None` it runs to frontier exhaustion, leaving the full tree
/// in `dist`/`prev`, and returns `None`.
fn dijkstra(
    m: &WeightMatrix,
    s: usize,
    target: Option<usize>,
    open: impl Fn(usize) -> bool,
    banned: impl Fn(usize, usize) -> bool,
    scratch: &mut DijkstraScratch,
) -> Option<f64> {
    let n = m.n;
    scratch.begin(n);
    scratch.unvisited.clear();
    scratch
        .unvisited
        .extend((0..n as u32).filter(|&v| open(v as usize)));
    scratch.relax_to(s, 0.0, usize::MAX);
    scratch.order.clear();
    while let Some((u, du)) = scratch.extract_min() {
        scratch.order.push(u as u32);
        if target == Some(u) {
            return Some(du);
        }
        let row = u * n;
        // Relax over the shrinking unvisited list only — settled vertices
        // cannot improve (weights are non-negative), and the per-vertex
        // updates within one extraction are independent, so visiting the
        // survivors in list order leaves dist/prev exactly as a full
        // `0..n` pass does.
        for pos in 0..scratch.unvisited.len() {
            let v = scratch.unvisited[pos] as usize;
            let w = m.weights[row + v];
            if w == f64::INFINITY || banned(u, v) {
                continue;
            }
            let nd = du + w;
            if nd < scratch.dist_at(v) {
                scratch.relax_to(v, nd, u);
            }
        }
    }
    None
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

/// Unrestricted best alternate on the matrix: Dijkstra from `s` to `d`
/// with the direct edge removed and `removed` hosts masked out.
///
/// Identical, comparison for comparison, to the same search on a table
/// rebuilt without the masked hosts: masked vertices keep infinite distance (nothing relaxes into
/// them), relative vertex order is unchanged, so the extraction tie-breaks
/// and every `dist[u] + w` sum match the rebuild bit-for-bit.
pub fn best_alternate_masked(
    m: &WeightMatrix,
    removed: &[bool],
    s: usize,
    d: usize,
    scratch: &mut DijkstraScratch,
) -> Option<PathComparison> {
    debug_assert_eq!(removed.len(), m.n);
    debug_assert!(!removed[s] && !removed[d]);
    if m.value(s, d).is_nan() {
        return None;
    }
    dijkstra(
        m,
        s,
        Some(d),
        |v| !removed[v],
        |u, v| u == s && v == d,
        scratch,
    )?;
    scratch.trace_path(s, d);
    let work = &mut scratch.work;
    Some(comparison_along(m, &work.path, &mut work.vals))
}

/// Shortest path `s → d` with banned vertices and banned edges — the
/// restricted search behind Yen's algorithm ([`crate::kbest`]). Returns
/// the vertex sequence and the total search weight. `s` itself is exempt
/// from the vertex ban.
pub fn shortest_path_restricted(
    m: &WeightMatrix,
    s: usize,
    d: usize,
    banned_vertices: &[bool],
    banned_edges: &std::collections::HashSet<(usize, usize)>,
    scratch: &mut DijkstraScratch,
) -> Option<(Vec<usize>, f64)> {
    let total = dijkstra(
        m,
        s,
        Some(d),
        |v| v == s || !banned_vertices[v],
        |u, v| banned_edges.contains(&(u, v)),
        scratch,
    )?;
    scratch.trace_path(s, d);
    Some((scratch.work.path.clone(), total))
}

/// The one relay scan behind both one-hop searches: every unmasked relay
/// `mid` for which `via(mid)` composes a two-leg value competes, and the
/// first strictly better one wins (`<` when `lower_is_better`, else `>`),
/// so equal values resolve to the lowest-index relay. `None` when the
/// direct edge is unmeasured (`default_value` is `NaN`) or no relay has
/// both legs.
fn best_relay(
    hosts: &[HostId],
    removed: &[bool],
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
    for (mid, &gone) in removed.iter().enumerate() {
        if mid == s || mid == d || gone {
            continue;
        }
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

/// Best alternate through exactly one unmasked intermediate host.
pub fn best_alternate_one_hop_masked(
    m: &WeightMatrix,
    removed: &[bool],
    s: usize,
    d: usize,
) -> Option<PathComparison> {
    debug_assert_eq!(removed.len(), m.n);
    best_relay(m.hosts(), removed, s, d, m.value(s, d), true, |mid| {
        let (v1, v2) = (m.value(s, mid), m.value(mid, d));
        (!v1.is_nan() && !v2.is_nan()).then(|| m.metric.compose(&[v1, v2]))
    })
}

/// The N2 bandwidth search (§5) on the flat matrix: one-hop alternates,
/// Mathis-model composition of transfer RTT/loss means.
pub fn best_alternate_bandwidth_masked(
    bm: &BandwidthMatrix,
    removed: &[bool],
    s: usize,
    d: usize,
    mode: LossComposition,
) -> Option<PathComparison> {
    let n = bm.n;
    debug_assert_eq!(removed.len(), n);
    best_relay(&bm.hosts, removed, s, d, bm.bw[s * n + d], false, |mid| {
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

/// Answers every pair with the per-pair `search`, fanned out over
/// [`crate::pool`] one source group per task and merged in pair order —
/// the fan-out of both one-hop sweeps.
fn per_pair_sweep(
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

/// Relaxes the unsettled vertices `open` from the settled `u` exactly as
/// [`dijkstra`]'s loop does — the same `dist[u] + w` sums, strict `<` —
/// except into `skip`.
fn relax_open(m: &WeightMatrix, tree: &mut Tree, open: &[u32], u: usize, skip: usize) {
    let du = tree.dist[u];
    let row = &m.weights[u * m.n..(u + 1) * m.n];
    for &t in open {
        let t = t as usize;
        let w = row[t];
        if w == f64::INFINITY || t == skip {
            continue;
        }
        let nd = du + w;
        if nd < tree.dist[t] {
            tree.dist[t] = nd;
            tree.prev[t] = u;
        }
    }
}

/// Re-settles `base`, the finished tree from `base.src`, for `ban`: leaves
/// in `out` the very tree (`dist` bits, `prev`, `order`) a fresh
/// [`dijkstra`] with that ban grows, and returns how many vertices it
/// unsettled.
///
/// Only the banned element's subtree `T` — the vertices whose `prev`
/// chain reaches it — can move. Every other vertex keeps its tree path, and
/// with it its distance, its `prev` and its place in the extraction order
/// relative to the other outside vertices, zero and absorbed weights
/// included (DESIGN.md §6f has the proof). So `T` is unsettled, relaxed
/// from the vertices settled before it, and re-extracted merged into the
/// outside order by [`DijkstraScratch::extract_min`]'s rule: the smaller
/// distance first, equal distances to the lower index. That costs
/// `O(|T|·n)` where a search costs `O(n²)`.
fn resettle(m: &WeightMatrix, base: &Tree, ban: Ban, out: &mut Tree, sub: &mut Subtree) -> usize {
    let s = base.src;
    out.src = s;
    out.dist.clone_from(&base.dist);
    out.prev.clone_from(&base.prev);
    out.order.clear();
    let (Ban::Edge(root) | Ban::Vertex(root)) = ban;
    debug_assert_ne!(root, s, "the source cannot be banned");
    // An edge is only on a tree path that *is* the edge, and an unsettled
    // vertex is on none: then the ban moves nothing.
    let on_tree = !matches!(ban, Ban::Edge(d) if base.prev[d] != s);
    let at = base.order.iter().position(|&v| v as usize == root);
    let Some(at) = at.filter(|_| on_tree) else {
        out.order.extend_from_slice(&base.order);
        return 0;
    };
    // A vertex settles after its `prev`, so one pass over the order from
    // the root marks every vertex whose chain reaches it.
    let Subtree { inside, open } = sub;
    inside.clear();
    inside.resize(m.n, false);
    inside[root] = true;
    open.clear();
    if matches!(ban, Ban::Edge(_)) {
        open.push(root as u32);
    }
    for &v in &base.order[at + 1..] {
        if inside[base.prev[v as usize]] {
            inside[v as usize] = true;
            open.push(v);
        }
    }
    out.dist[root] = f64::INFINITY;
    out.prev[root] = usize::MAX;
    for &t in open.iter() {
        out.dist[t as usize] = f64::INFINITY;
        out.prev[t as usize] = usize::MAX;
    }
    let unsettled = open.len() + matches!(ban, Ban::Vertex(_)) as usize;
    // Everything settled before the root stays, and relaxes `T` in its
    // order; only the source's relaxation skips a banned edge.
    out.order.extend_from_slice(&base.order[..at]);
    for &u in &base.order[..at] {
        let skip = if u as usize == s { root } else { usize::MAX };
        relax_open(m, out, open, u as usize, skip);
    }
    let mut rest = base.order[at + 1..]
        .iter()
        .copied()
        .filter(|&v| !inside[v as usize])
        .peekable();
    while !open.is_empty() {
        let (mut pos, mut t, mut dt) = (usize::MAX, usize::MAX, f64::INFINITY);
        for (k, &v) in open.iter().enumerate() {
            let v = v as usize;
            let dv = out.dist[v];
            if dv != f64::INFINITY && (dv < dt || (dv == dt && v < t)) {
                (pos, t, dt) = (k, v, dv);
            }
        }
        let outside = rest.peek().map(|&o| (out.dist[o as usize], o as usize));
        let u = match outside {
            Some((d_o, o)) if pos == usize::MAX || d_o < dt || (d_o == dt && o < t) => {
                rest.next();
                o
            }
            _ if pos != usize::MAX => {
                open.swap_remove(pos);
                t
            }
            // The outside order is done, and what is left of `T` is
            // unreachable.
            _ => break,
        };
        out.order.push(u as u32);
        relax_open(m, out, open, u, usize::MAX);
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
            resettled += resettle(m, tree, Ban::Edge(d), &mut work.banned, &mut work.sub) as u64;
            &work.banned
        } else {
            // The tree path avoids the direct edge — edge (s, d) can only
            // ever appear as the terminal path [s, d] — so it *is* the
            // exclusion search's answer, tie-breaks and sums included; an
            // unreachable `d` has no alternate either way.
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
pub(crate) fn sweep_with_trees(
    m: &WeightMatrix,
    removed: &[bool],
) -> (Vec<PathComparison>, Vec<Tree>) {
    let pairs = m.measured_pairs(removed);
    let groups = group_by_source(&pairs);
    let answered = pool::parallel_map_init(&groups, DijkstraScratch::new, |scratch, &(s, a, b)| {
        dijkstra(m, s, None, |v| !removed[v], |_, _| false, scratch);
        scratch.keep_tree(s);
        let answers = answer_from(m, &scratch.tree, &pairs[a..b], &mut scratch.work);
        (answers, std::mem::take(&mut scratch.tree))
    });
    let mut trees = vec![Tree::default(); m.n];
    let mut out = Vec::with_capacity(pairs.len());
    for (&(s, _, _), (answers, tree)) in groups.iter().zip(answered) {
        out.extend(answers.into_iter().flatten());
        trees[s] = tree;
    }
    (out, trees)
}

/// The best alternates of a `(src, dst)`-sorted list of measured pairs,
/// in pair order, once host `h` joins the mask `trees` were grown under:
/// per source, its tree re-settled without `h`, and each pair answered
/// from that. Each answer equals [`best_alternate_masked`]'s under the
/// larger mask. Runs on the calling thread.
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
        let DijkstraScratch { tree, work, .. } = scratch;
        resettled += resettle(m, &trees[s], Ban::Vertex(h), tree, &mut work.sub) as u64;
        out.extend(answer_from(m, tree, &pairs[a..b], work));
    }
    detour_obs::current().add("kernel/resettled", resettled);
    out
}

/// Re-settles every tree in `trees` without host `h` and drops `h`'s own:
/// afterwards they are the trees under the mask with `h` added.
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
            Ban::Vertex(h),
            &mut scratch.tree,
            &mut scratch.work.sub,
        ) as u64;
        std::mem::swap(tree, &mut scratch.tree);
    }
    detour_obs::current().add("kernel/resettled", resettled);
}

/// The tree from `s` under `removed` with `ban` applied, as `(dist, prev,
/// order)`: re-settled from the unbanned tree when `resettled`, grown by a
/// fresh banned search otherwise. Exposed for the property test that pins
/// the two equal.
#[doc(hidden)]
pub fn banned_tree(
    m: &WeightMatrix,
    removed: &[bool],
    s: usize,
    ban: Ban,
    resettled: bool,
) -> (Vec<f64>, Vec<usize>, Vec<u32>) {
    let mut scratch = DijkstraScratch::new();
    let tree = if resettled {
        dijkstra(m, s, None, |v| !removed[v], |_, _| false, &mut scratch);
        scratch.keep_tree(s);
        let mut out = Tree::default();
        resettle(m, &scratch.tree, ban, &mut out, &mut scratch.work.sub);
        out
    } else {
        dijkstra(
            m,
            s,
            None,
            |v| !removed[v] && ban != Ban::Vertex(v),
            |u, v| u == s && ban == Ban::Edge(v),
            &mut scratch,
        );
        scratch.keep_tree(s);
        scratch.tree
    };
    (tree.dist, tree.prev, tree.order)
}

/// All-pairs sweep on the matrix with a host mask: the parallel engine
/// behind [`crate::analysis::cdf::compare_all_pairs`] and the first view
/// of the Figure-12 greedy loop.
///
/// For [`SearchDepth::Unrestricted`] it runs **one** dense Dijkstra per
/// source — not per pair — producing the full SSSP tree over the masked
/// matrix, and answers every `(s, d)` from that tree. Only a fix-up — a
/// pair whose tree path *is* the excluded direct edge (`prev[d] == s`) —
/// needs more, and it re-settles the subtree of `d` with the edge banned
/// instead of searching again.
/// Fan-out over [`crate::pool`] is by source with one [`DijkstraScratch`]
/// per worker; per-source results concatenate in source order (pairs are
/// `(i, j)`-sorted within), so the output is bit-identical at every thread
/// count — and bit-identical to the retained per-pair reference
/// (`detour_bench::reference`), which the equivalence property tests and
/// the `scale_sweep` baseline gate enforce.
///
/// The accounting — how much work the one-SSSP-per-source strategy saved
/// — goes to the current `detour-obs` recorder: `kernel/sweep_pairs`
/// (measured pairs answered), `kernel/sweep_fixups` (pairs whose tree path
/// is the excluded direct edge), `kernel/sweep_avoided` (the other pairs,
/// answered straight off the tree) and `kernel/resettled` (the vertices the
/// fix-ups re-settled, at least one each). The Figure-12 greedy loop
/// records the same four for the pairs it re-answers, and adds the
/// vertices its host bans re-settle. The split is a pure function of the
/// matrix + mask, so the counters are thread-count-invariant; the one-hop
/// scan has no tree to read from, so it contributes pairs only.
pub fn sweep(m: &WeightMatrix, removed: &[bool], depth: SearchDepth) -> Vec<PathComparison> {
    match depth {
        SearchDepth::Unrestricted => sweep_with_trees(m, removed).0,
        SearchDepth::OneHop => {
            let pairs = m.measured_pairs(removed);
            detour_obs::current().add("kernel/sweep_pairs", pairs.len() as u64);
            per_pair_sweep(&pairs, |s, d| {
                best_alternate_one_hop_masked(m, removed, s, d)
            })
        }
    }
}

/// All-pairs bandwidth sweep on the matrix with a host mask; parallel and
/// order-deterministic like [`sweep`], fanned out by source so each task
/// carries a full row of pairs.
pub fn sweep_bandwidth(
    bm: &BandwidthMatrix,
    removed: &[bool],
    mode: LossComposition,
) -> Vec<PathComparison> {
    per_pair_sweep(&bm.measured_pairs(removed), |s, d| {
        best_alternate_bandwidth_masked(bm, removed, s, d, mode)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Rtt;
    use crate::testkit::rtt_matrix_dataset;
    use detour_measure::Dataset;

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
        assert_eq!(
            m.measured_pairs(&m.no_mask()),
            g.measured_pairs().collect::<Vec<_>>()
        );
    }

    #[test]
    fn kernel_finds_hand_computed_detours() {
        // Diamond alternates, worked by hand (direct edge always excluded):
        // 0→3 direct 100: best 0-1-3 = 30; one-hop best also via 1 (30,
        // beating via 2 = 55). 0→2 direct 30: best 0-1-2 = 15. 1→3 direct
        // 20: only 1-2-3 = 30. 0→1, 1→2, 2→3 have no alternate at all.
        let g = diamond();
        let m = WeightMatrix::build(&g, &Rtt);
        let mask = m.no_mask();
        let mut scratch = DijkstraScratch::new();

        let c = best_alternate_masked(&m, &mask, 0, 3, &mut scratch).unwrap();
        assert_eq!(c.default_value, 100.0);
        assert_eq!(c.alternate_value, 30.0);
        assert_eq!(c.via, vec![HostId(1)]);
        let oh = best_alternate_one_hop_masked(&m, &mask, 0, 3).unwrap();
        assert_eq!(oh.alternate_value, 30.0);
        assert_eq!(oh.via, vec![HostId(1)]);

        let c = best_alternate_masked(&m, &mask, 0, 2, &mut scratch).unwrap();
        assert_eq!((c.default_value, c.alternate_value), (30.0, 15.0));
        let c = best_alternate_masked(&m, &mask, 1, 3, &mut scratch).unwrap();
        assert_eq!((c.default_value, c.alternate_value), (20.0, 30.0));
        assert!(!c.alternate_wins());
        for (s, d) in [(0, 1), (1, 2), (2, 3)] {
            assert!(best_alternate_masked(&m, &mask, s, d, &mut scratch).is_none());
        }
    }

    #[test]
    fn masking_reroutes_around_the_removed_host() {
        // With host 1 masked, 0→3's best alternate degrades to 0-2-3 = 55.
        let g = diamond();
        let m = WeightMatrix::build(&g, &Rtt);
        let mask = m.masked(HostId(1));
        let mut scratch = DijkstraScratch::new();
        let c = best_alternate_masked(&m, &mask, 0, 3, &mut scratch).unwrap();
        assert_eq!(c.alternate_value, 55.0);
        assert_eq!(c.via, vec![HostId(2)]);
        // And 0→2 loses its only detour entirely.
        assert!(best_alternate_masked(&m, &mask, 0, 2, &mut scratch).is_none());
    }

    #[test]
    fn masking_equals_rebuilding_without_the_host() {
        let ds = diamond_dataset();
        let g = PairTable::build(&ds);
        let m = WeightMatrix::build(&g, &Rtt);
        for victim in 0..g.len() {
            let mut mask = m.no_mask();
            mask[victim] = true;
            let others: Vec<HostId> = (0..g.len())
                .filter(|&i| i != victim)
                .map(|i| g.hosts()[i])
                .collect();
            let rebuilt = PairTable::build(&ds.restrict_to_hosts(&others));
            let masked = sweep(&m, &mask, SearchDepth::Unrestricted);
            let reference =
                crate::analysis::cdf::compare_graph(&rebuilt, &Rtt, SearchDepth::Unrestricted);
            assert_eq!(masked, reference, "victim {victim}");
        }
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

    /// Every measured pair's answer under `mask`, one exclusion search each.
    fn per_pair(m: &WeightMatrix, mask: &[bool]) -> Vec<PathComparison> {
        let mut scratch = DijkstraScratch::new();
        m.measured_pairs(mask)
            .into_iter()
            .filter_map(|(s, d)| best_alternate_masked(m, mask, s, d, &mut scratch))
            .collect()
    }

    #[test]
    fn fixup_triggers_exactly_when_direct_edge_is_first_hop() {
        let g = hub_five();
        let m = WeightMatrix::build(&g, &Rtt);
        let mask = m.no_mask();
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cmps = sweep(&m, &mask, SearchDepth::Unrestricted);
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
        // Every answer must match the per-pair exclusion search.
        assert_eq!(cmps, per_pair(&m, &mask));
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
        let mask = m.no_mask();
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cmps = sweep(&m, &mask, SearchDepth::Unrestricted);
        let fixups = rec.counter("kernel/sweep_fixups");
        assert!(fixups > 0);
        assert!(
            rec.counter("kernel/resettled") > fixups,
            "no fix-up searches"
        );
        assert_eq!(cmps, per_pair(&m, &mask));
    }

    #[test]
    fn one_hop_sweep_reports_no_fixups() {
        let g = hub_five();
        let m = WeightMatrix::build(&g, &Rtt);
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cmps = sweep(&m, &m.no_mask(), SearchDepth::OneHop);
        assert_eq!(rec.counter("kernel/sweep_pairs"), 20);
        // The one-hop scan has no SSSP tree, so it contributes neither
        // fix-ups nor avoided re-searches.
        assert_eq!(rec.counter("kernel/sweep_fixups"), 0);
        assert_eq!(rec.counter("kernel/sweep_avoided"), 0);
        assert_eq!(cmps.len(), 20);
    }

    #[test]
    fn bandwidth_scan_picks_the_first_best_unmasked_complete_relay() {
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
        let search = |bm: &BandwidthMatrix, mask: &[bool]| {
            best_alternate_bandwidth_masked(bm, mask, 0, 3, mode).map(|c| c.via)
        };

        let c = best_alternate_bandwidth_masked(&bm, &bm.no_mask(), 0, 3, mode).unwrap();
        assert!(!c.lower_is_better);
        assert_eq!(c.default_value, 50.0);
        let legs = synthetic_bandwidth_kbps(&[20.0, 20.0], &[0.01, 0.01], mode);
        assert_eq!(c.alternate_value, legs);
        assert_eq!(c.via, vec![HostId(1)], "a tie goes to the lower index");

        let mut mask = bm.no_mask();
        mask[1] = true;
        assert_eq!(search(&bm, &mask), Some(vec![HostId(2)]), "masked relay");

        let mut lossless = bm.clone();
        lossless.t_loss[1] = f64::NAN; // relay 1's 0→1 transfer-loss leg
        assert_eq!(search(&lossless, &bm.no_mask()), Some(vec![HostId(2)]));

        let mut no_direct = bm.clone();
        no_direct.bw[3] = f64::NAN; // the direct edge 0→3
        assert_eq!(search(&no_direct, &bm.no_mask()), None);
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
        let mut scratch = DijkstraScratch::new();
        for g in [&big, &small, &big] {
            let m = WeightMatrix::build(g, &Rtt);
            let mask = m.no_mask();
            for (s, d) in m.measured_pairs(&mask) {
                assert_eq!(
                    best_alternate_masked(&m, &mask, s, d, &mut scratch),
                    best_alternate_masked(&m, &mask, s, d, &mut DijkstraScratch::new()),
                );
            }
        }
    }

    #[test]
    fn empty_table_is_fine() {
        let g = PairTable::build(&rtt_matrix_dataset(&[], 2));
        let m = WeightMatrix::build(&g, &Rtt);
        assert!(m.is_empty());
        assert!(m.measured_pairs(&m.no_mask()).is_empty());
        assert!(sweep(&m, &m.no_mask(), SearchDepth::Unrestricted).is_empty());
    }
}
