//! The batched-kernel safety net: the source-batched sweep
//! (`detour_core::kernel::sweep`) must be a pure performance change over
//! one textbook search per pair — the oracle below, test code only: a
//! Dijkstra with the direct edge skipped that extracts with a full
//! `(0..n).filter(…).min_by(…)` scan, and a midpoint scan for one hop.
//! Every comparison here is full structural equality — same pairs in the
//! same order, same values bit for bit, same detour hosts (tie-breaks
//! included) — at 1, 2, and 8 worker threads, on graphs restricted to a
//! random host subset (`Dataset::restrict_to_hosts`), for both search
//! depths, on random graphs and on a pipeline-generated dataset across all
//! three additive metrics.
//!
//! The random graphs come from `crates/core/tests/support/random_graphs.rs`
//! in its three kinds: whole-millisecond RTTs, where equal-cost paths and
//! with them tie-breaks are common; loss rates with lossless edges, whose
//! zero weights make a relaxation leave a distance unchanged; and RTTs
//! spanning absorption scale (1e-300 ms beside 1e5 ms), where adding the
//! smallest weight no longer moves the largest distance, with the same
//! effect. Every fix-up on all three is answered by re-settling the banned
//! edge's subtree in the source's tree, never by a search of its own.
//!
//! Property tests run on the in-tree deterministic harness
//! (`detour_prng::check`; replay a failing case with
//! `DETOUR_PROP_SEED=<seed>`).

use detour::core::altpath::{Pair, PathComparison, SearchDepth};
use detour::core::kernel::{self, WeightMatrix};
use detour::core::metric::{Loss, MetricKind, PropDelay, Rtt};
use detour::core::pool;
use detour::core::AnalysisContext;
use detour::datasets::DatasetId;
use detour::measure::{Dataset, HostId, PairTable};
use detour_prng::check::check;
use detour_prng::{Rng, Xoshiro256pp};
use std::cell::Cell;

#[path = "../crates/core/tests/support/random_graphs.rs"]
mod random_graphs;
use random_graphs::{random_graph, GraphKind};

/// `ds` restricted to a random host subset: each host dropped with
/// probability ~1/3, sampled independently of the graph.
fn random_restriction(rng: &mut Xoshiro256pp, ds: &Dataset) -> Dataset {
    let keep: Vec<HostId> = ds
        .hosts
        .iter()
        .map(|h| h.id)
        .filter(|_| !rng.gen_bool(0.33))
        .collect();
    ds.restrict_to_hosts(&keep)
}

/// The textbook best alternate for `s → d`: Dijkstra over every vertex
/// with the direct edge skipped, the frontier minimum taken by a full
/// `min_by` scan (the first of equal minima, i.e. the lowest index), or
/// the first best midpoint for one hop.
fn oracle(m: &WeightMatrix, s: usize, d: usize, depth: SearchDepth) -> Option<PathComparison> {
    let n = m.len();
    let default_value = m.value(s, d);
    let path = match depth {
        SearchDepth::OneHop => {
            let mut best: Option<(f64, usize)> = None;
            for mid in (0..n).filter(|&v| v != s && v != d) {
                let (v1, v2) = (m.value(s, mid), m.value(mid, d));
                if v1.is_nan() || v2.is_nan() {
                    continue;
                }
                let c = m.metric().compose(&[v1, v2]);
                if best.is_none_or(|(b, _)| c < b) {
                    best = Some((c, mid));
                }
            }
            vec![s, best?.1, d]
        }
        SearchDepth::Unrestricted => {
            let (mut dist, mut prev, mut done) =
                (vec![f64::INFINITY; n], vec![s; n], vec![false; n]);
            dist[s] = 0.0;
            while let Some(u) = (0..n)
                .filter(|&u| !done[u] && dist[u].is_finite())
                .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap())
            {
                done[u] = true;
                for v in (0..n).filter(|&v| !done[v] && (u, v) != (s, d)) {
                    if dist[u] + m.weight(u, v) < dist[v] {
                        dist[v] = dist[u] + m.weight(u, v);
                        prev[v] = u;
                    }
                }
            }
            if !dist[d].is_finite() {
                return None;
            }
            let mut path = vec![d];
            while path[path.len() - 1] != s {
                path.push(prev[path[path.len() - 1]]);
            }
            path.reverse();
            path
        }
    };
    let vals: Vec<f64> = path.windows(2).map(|w| m.value(w[0], w[1])).collect();
    let hosts = m.hosts();
    Some(PathComparison {
        pair: Pair {
            src: hosts[s],
            dst: hosts[d],
        },
        default_value,
        alternate_value: m.metric().compose(&vals),
        via: path[1..path.len() - 1].iter().map(|&v| hosts[v]).collect(),
        lower_is_better: true,
    })
}

/// The `kernel/*` counters one sweep records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    pairs: u64,
    fixups: u64,
    avoided: u64,
    /// Vertices the fix-ups re-settled: one per fix-up whose destination
    /// is a leaf of the source's tree, its whole subtree otherwise.
    resettled: u64,
}

/// Runs one batched sweep under a fresh scoped recorder and returns the
/// comparisons plus the `kernel/*` counters it recorded.
fn sweep_with_counters(m: &WeightMatrix, depth: SearchDepth) -> (Vec<PathComparison>, Counts) {
    let rec = detour_obs::Recorder::new();
    let _g = detour_obs::install(rec.clone());
    let got = kernel::sweep(m, depth);
    let counts = Counts {
        pairs: rec.counter("kernel/sweep_pairs"),
        fixups: rec.counter("kernel/sweep_fixups"),
        avoided: rec.counter("kernel/sweep_avoided"),
        resettled: rec.counter("kernel/resettled"),
    };
    (got, counts)
}

/// Asserts batched == per-pair on one (matrix, depth) cell at 1, 2, and 8
/// threads, plus the counter bookkeeping invariant; returns the counters,
/// which every thread count agrees on.
fn assert_equivalent(m: &WeightMatrix, depth: SearchDepth) -> Counts {
    let expect: Vec<PathComparison> = m
        .measured_pairs()
        .into_iter()
        .filter_map(|(s, d)| oracle(m, s, d, depth))
        .collect();
    let mut first: Option<Counts> = None;
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let (got, c) = sweep_with_counters(m, depth);
        assert_eq!(got, expect, "threads={threads}");
        // Pairs whose destination is unreachable return no comparison but
        // still count in `pairs` (as avoided re-searches).
        assert!(got.len() as u64 <= c.pairs, "threads={threads}");
        // A fix-up answered by a search of its own would re-settle nothing.
        assert!(
            c.resettled >= c.fixups,
            "threads={threads}: every fix-up re-settles at least its destination"
        );
        match depth {
            SearchDepth::Unrestricted => assert_eq!(
                c.fixups + c.avoided,
                c.pairs,
                "threads={threads}: every pair is either fixed up or avoided"
            ),
            // One-hop scans grow no tree, so the fix-up counters stay zero
            // by definition.
            SearchDepth::OneHop => {
                assert_eq!((c.fixups, c.avoided), (0, 0), "one-hop never fixes up")
            }
        }
        assert_eq!(*first.get_or_insert(c), c, "threads={threads}");
    }
    pool::set_threads(0);
    first.expect("three thread counts ran")
}

#[test]
fn batched_sweep_matches_per_pair_reference_on_random_masked_graphs() {
    // Fix-ups and the vertices they re-settled, per kind, summed over
    // every case.
    let fixups = [Cell::new(0u64), Cell::new(0), Cell::new(0)];
    let resettled = [Cell::new(0u64), Cell::new(0), Cell::new(0)];
    check("batched sweep equals per-pair reference", |rng| {
        let kinds: [(GraphKind, MetricKind); 3] = [
            (GraphKind::WholeMs, Rtt),
            (GraphKind::Lossy, Loss),
            (GraphKind::Absorbing, Rtt),
        ];
        for (kind, (graph, metric)) in kinds.into_iter().enumerate() {
            let whole = random_graph(rng, graph).build().unwrap();
            let ds = random_restriction(rng, &whole);
            let m = WeightMatrix::build(&PairTable::build(&ds), &metric);
            for depth in [SearchDepth::Unrestricted, SearchDepth::OneHop] {
                let c = assert_equivalent(&m, depth);
                fixups[kind].set(fixups[kind].get() + c.fixups);
                resettled[kind].set(resettled[kind].get() + c.resettled);
            }
        }
    });
    let (fixups, resettled) = (
        fixups.map(Cell::into_inner),
        resettled.map(Cell::into_inner),
    );
    // Every kind — zero and absorbed weights included — answers its
    // fix-ups by re-settling, and re-settles some subtree larger than the
    // destination alone.
    for kind in 0..3 {
        assert!(fixups[kind] > 0, "kind {kind}: {fixups:?}");
        assert!(
            resettled[kind] > fixups[kind],
            "kind {kind}: {fixups:?} {resettled:?}"
        );
    }
}

#[test]
fn batched_sweep_matches_reference_on_a_generated_dataset_for_every_metric() {
    // A dataset out of the real pipeline (simulated network, traceroute
    // campaign, rate-limit policy) rather than a synthetic matrix: loss
    // and propagation-delay weights exercise compose paths the synthetic
    // RTT matrices never touch (log-space loss weights can be exactly 0).
    let ds = DatasetId::Uw3.generate_scaled(12, 24);
    let cx = AnalysisContext::from_dataset(&ds);
    let mut rng = Xoshiro256pp::seed_from_u64(0xba7c4ed);
    let part = AnalysisContext::from_dataset(&random_restriction(&mut rng, &ds));
    for depth in [SearchDepth::Unrestricted, SearchDepth::OneHop] {
        assert_equivalent(cx.weights(&Rtt), depth);
        assert_equivalent(part.weights(&Rtt), depth);
        assert_equivalent(cx.weights(&Loss), depth);
        assert_equivalent(part.weights(&PropDelay), depth);
    }
}

#[test]
fn fixup_counting_is_thread_count_invariant() {
    let ds = DatasetId::Uw3.generate_scaled(10, 24);
    let cx = AnalysisContext::from_dataset(&ds);
    let m = cx.weights(&Rtt);
    let mut baseline: Option<Counts> = None;
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let (_, counts) = sweep_with_counters(m, SearchDepth::Unrestricted);
        assert!(
            counts.pairs > 0,
            "the scaled dataset must have measured pairs"
        );
        match &baseline {
            None => baseline = Some(counts),
            Some(b) => assert_eq!(*b, counts, "threads={threads} changed the counters"),
        }
    }
    pool::set_threads(0);
}
