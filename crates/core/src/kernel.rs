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
//!   to the per-pair search. Most fix-ups read off the tree as well: when
//!   `d` is a *leaf* (no settled vertex's `prev`) and every relaxation
//!   strictly increases a distance (smallest weight `w_min > 0` and
//!   `D + w_min/2 > D` at the tree's largest distance `D`), the banned
//!   search's answer is the first vertex `v ≠ s, d` in the tree's
//!   extraction order that strictly minimises `dist[v] + w(v, d)` — an
//!   `O(n)` scan. Only the other fix-ups run their own `O(n²)` exclusion
//!   search. The `kernel/*` counters on the current `detour-obs` recorder
//!   report how many searches that avoided. An all-pairs sweep drops from
//!   `O(n⁴)` to `O(n³ + leaf_fixups·n + other_fixups·n²)`.
//! * [`DijkstraScratch`] — reusable per-worker state for the module's one
//!   Dijkstra loop, which serves the sweep's trees, its fix-up
//!   re-searches and Yen's spur searches alike (threaded
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
//!   tie-breaks resolve identically) but costs nothing — which turns the
//!   Figure-12 greedy removal loop from rebuild-per-candidate into
//!   re-answering the affected pairs, one tree per affected source
//!   ([`best_alternates_masked`]).
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
    /// The smallest finite search weight (`+∞` when there is none): the
    /// leaf fix-up rule in [`sweep_source`] needs every relaxation to
    /// strictly increase a distance.
    w_min: f64,
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
        let w_min = weights.iter().fold(f64::INFINITY, |lo, &w| w.min(lo));
        WeightMatrix {
            metric: *metric,
            n,
            index: table.index().clone(),
            weights,
            values,
            w_min,
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
    /// `parent[v] == gen` when `v` is some settled vertex's `prev` — the
    /// tree's inner vertices, marked by [`sweep_source`] for its leaf rule.
    parent: Vec<u32>,
    unvisited: Vec<u32>,
    /// The settled vertices in extraction order.
    order: Vec<u32>,
    path: Vec<usize>,
    vals: Vec<f64>,
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
            self.parent.clear();
            self.parent.resize(n, 0);
            self.gen = 0;
        }
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.parent.fill(0);
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
    /// the path `s → … → d` in `self.path`.
    fn trace_path(&mut self, s: usize, d: usize) {
        self.path.clear();
        self.path.push(d);
        let mut cur = d;
        while cur != s {
            cur = self.prev[cur];
            self.path.push(cur);
        }
        self.path.reverse();
    }
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
    Some(comparison_along(m, &scratch.path, &mut scratch.vals))
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
    Some((scratch.path.clone(), total))
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

/// Whether the leaf rule may answer fix-ups from the tree just built:
/// every weight is positive and, at the tree's largest settled distance
/// `D`, still moves a sum (`D + w_min/2 > D`). Rounded addition is
/// monotone and the unit in the last place only grows with the distance,
/// so then `dist + w > dist` for every settled `dist` and every finite
/// `w` — each relaxation strictly increases a distance, which makes the
/// extraction order the `(dist, index)` order.
fn leaf_rule_holds(m: &WeightMatrix, scratch: &DijkstraScratch) -> bool {
    let Some(&last) = scratch.order.last() else {
        return false;
    };
    // Extraction distances never decrease, so the last one is `D`.
    let top = scratch.dist[last as usize];
    m.w_min > 0.0 && top + m.w_min / 2.0 > top
}

/// A leaf fix-up's answer, read off the tree from `s`: the exclusion
/// search's alternate for `(s, d)` when `d` is no settled vertex's `prev`
/// and [`leaf_rule_holds`].
///
/// Banning the edge `(s, d)` then changes the distance of `d` alone — no
/// tree path runs through a leaf — and with every relaxation strictly
/// increasing, both searches extract the other vertices in the same
/// `(dist, index)` order. The banned search relaxes `d` from each of them
/// in that order and keeps the first strict minimum of `dist[v] + w(v, d)`
/// (vertices it settles after `d` cannot beat `dist[d]`), with the very
/// sums computed here; its path is `v`'s unchanged tree path plus `d`.
fn leaf_alternate(
    m: &WeightMatrix,
    s: usize,
    d: usize,
    scratch: &mut DijkstraScratch,
) -> Option<PathComparison> {
    let mut best = (f64::INFINITY, usize::MAX);
    for &vu in &scratch.order {
        let v = vu as usize;
        if v == s || v == d {
            continue;
        }
        let nd = scratch.dist[v] + m.weights[v * m.n + d];
        if nd < best.0 {
            best = (nd, v);
        }
    }
    if best.1 == usize::MAX {
        return None;
    }
    scratch.trace_path(s, best.1);
    scratch.path.push(d);
    Some(comparison_along(m, &scratch.path, &mut scratch.vals))
}

/// Answers one source's pairs from a single SSSP tree, in group order.
/// Leaf fix-ups are answered from the tree too ([`leaf_alternate`]); the
/// other fix-ups run their own exclusion search, deferred until every tree
/// answer has been composed (the search reuses — and clobbers — the same
/// scratch). Records the group's `kernel/sweep_*` and
/// `kernel/fixup_searches` counts on the current `detour-obs` recorder.
fn sweep_source(
    m: &WeightMatrix,
    removed: &[bool],
    s: usize,
    group: &[(usize, usize)],
    scratch: &mut DijkstraScratch,
) -> Vec<Option<PathComparison>> {
    dijkstra(m, s, None, |v| !removed[v], |_, _| false, scratch);
    let leaves = leaf_rule_holds(m, scratch);
    if leaves {
        for &v in &scratch.order[1..] {
            scratch.parent[scratch.prev[v as usize]] = scratch.gen;
        }
    }
    let mut out: Vec<Option<PathComparison>> = Vec::with_capacity(group.len());
    let mut fixups = 0u64;
    let mut searches: Vec<usize> = Vec::new();
    for (k, &(src, d)) in group.iter().enumerate() {
        debug_assert_eq!(src, s);
        debug_assert!(!m.value(s, d).is_nan(), "pairs are measured");
        if scratch.stamp[d] != scratch.gen {
            // Unreachable even with every edge available — the exclusion
            // search cannot do better, so this pair is `None` for free.
            out.push(None);
        } else if scratch.prev[d] == s {
            // The tree path is the direct edge (ties included: relaxation
            // is strict, so an equal-weight alternate never displaced it).
            // Only here does the exclusion change the answer.
            fixups += 1;
            if leaves && scratch.parent[d] != scratch.gen {
                out.push(leaf_alternate(m, s, d, scratch));
            } else {
                out.push(None); // placeholder, filled below
                searches.push(k);
            }
        } else {
            // The tree path avoids the direct edge — edge (s, d) can only
            // ever appear as the terminal path [s, d] — so it *is* the
            // exclusion search's answer, tie-breaks and sums included.
            scratch.trace_path(s, d);
            out.push(Some(comparison_along(m, &scratch.path, &mut scratch.vals)));
        }
    }
    let rec = detour_obs::current();
    rec.add("kernel/sweep_pairs", group.len() as u64);
    rec.add("kernel/sweep_fixups", fixups);
    rec.add("kernel/sweep_avoided", group.len() as u64 - fixups);
    rec.add("kernel/fixup_searches", searches.len() as u64);
    for k in searches {
        let (src, d) = group[k];
        out[k] = best_alternate_masked(m, removed, src, d, scratch);
    }
    out
}

/// The unrestricted best alternates of a `(src, dst)`-sorted list of
/// measured pairs under a host mask, in pair order: [`sweep`]'s strategy
/// — one SSSP tree per source — on any subset of the pairs, run on the
/// calling thread. Each answer equals [`best_alternate_masked`]'s.
pub fn best_alternates_masked(
    m: &WeightMatrix,
    removed: &[bool],
    pairs: &[(usize, usize)],
    scratch: &mut DijkstraScratch,
) -> Vec<Option<PathComparison>> {
    let mut out = Vec::with_capacity(pairs.len());
    for (s, a, b) in group_by_source(pairs) {
        out.extend(sweep_source(m, removed, s, &pairs[a..b], scratch));
    }
    out
}

/// All-pairs sweep on the matrix with a host mask: the parallel engine
/// behind [`crate::analysis::cdf::compare_all_pairs`] and the first view
/// of the Figure-12 greedy loop.
///
/// For [`SearchDepth::Unrestricted`] it runs **one** dense Dijkstra per
/// source — not per pair — producing the full SSSP tree over the masked
/// matrix, and answers every `(s, d)` from that tree. Only a fix-up — a
/// pair whose tree path *is* the excluded direct edge (`prev[d] == s`) —
/// can need more: a leaf fix-up (`d` is no settled vertex's `prev`, on a
/// matrix whose weights strictly increase every sum) is still read off
/// the tree, and the rest run their own exclusion search.
/// Fan-out over [`crate::pool`] is by source with one [`DijkstraScratch`]
/// per worker; per-source results concatenate in source order (pairs are
/// `(i, j)`-sorted within), so the output is bit-identical at every thread
/// count — and bit-identical to the retained per-pair reference
/// (`detour_bench::reference`), which the equivalence property tests and
/// the `scale_sweep` baseline gate enforce.
///
/// The re-search accounting — how much work the one-SSSP-per-source
/// strategy saved — goes to the current `detour-obs` recorder:
/// `kernel/sweep_pairs` (measured pairs answered), `kernel/sweep_fixups`
/// (pairs whose tree path is the excluded direct edge),
/// `kernel/sweep_avoided` (the other pairs, answered straight off the
/// tree) and `kernel/fixup_searches` (the fix-ups that still ran an
/// exclusion search). [`best_alternates_masked`] records the same four.
/// The split is a pure function of the matrix + mask, so the counters are
/// thread-count-invariant; the one-hop scan has no tree to read from, so
/// it contributes pairs only.
pub fn sweep(m: &WeightMatrix, removed: &[bool], depth: SearchDepth) -> Vec<PathComparison> {
    let pairs = m.measured_pairs(removed);
    match depth {
        SearchDepth::Unrestricted => pool::parallel_map_init(
            &group_by_source(&pairs),
            DijkstraScratch::new,
            |scratch, &(s, a, b)| sweep_source(m, removed, s, &pairs[a..b], scratch),
        )
        .into_iter()
        .flatten()
        .flatten()
        .collect(),
        SearchDepth::OneHop => {
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
        // Only the four fix-ups into the hub search: every tree detours
        // through it, so it is no leaf. The six others — out of the hub,
        // and the tied 1↔2 — are leaves, answered from the tree.
        assert_eq!(rec.counter("kernel/fixup_searches"), 4);
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
    fn a_weight_that_a_distance_absorbs_sends_every_fixup_to_the_search() {
        // Next to the 10 ms legs a 1e-300 ms edge does not move a sum, so
        // the leaf rule's precondition fails and every fix-up searches,
        // leaves included.
        let g = hub_five_with(|rows| rows[3][4] = 1e-300);
        let m = WeightMatrix::build(&g, &Rtt);
        let mask = m.no_mask();
        let rec = detour_obs::Recorder::new();
        let _obs = detour_obs::install(rec.clone());
        let cmps = sweep(&m, &mask, SearchDepth::Unrestricted);
        let fixups = rec.counter("kernel/sweep_fixups");
        assert!(fixups > 0);
        assert_eq!(rec.counter("kernel/fixup_searches"), fixups);
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
