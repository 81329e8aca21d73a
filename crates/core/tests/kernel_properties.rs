//! Property tests for the flat weight-matrix kernel, on the in-tree
//! deterministic harness (`detour_prng::check`; replay a failing case with
//! `DETOUR_PROP_SEED=<seed>`).
//!
//! Three families of invariants:
//!
//! * **Correctness**: the kernel's Dijkstra agrees with an exhaustive
//!   brute-force search over simple paths on random graphs — an oracle
//!   that shares no code with the kernel.
//! * **Incremental greedy = plain greedy**: `greedy_removal` removes a
//!   host by banning it from kept trees and reuses the previous view for
//!   pairs whose best path avoids a candidate; for RTT and loss alike it
//!   must pick the hosts a sweep of the table rebuilt without each
//!   candidate picks, reach the same reduced CDF bit for bit, and end on
//!   the view of the table rebuilt without every removed host. (That the
//!   kept trees answer like the rebuilt table after each `drop_host` is a
//!   `kernel` unit test, on the crate-private trees.)
//! * **Metamorphic properties the paper's method implies** (§4.1: drop
//!   the direct edge, take the best path through the measured graph):
//!   scaling every RTT by a power of two scales every improvement by
//!   exactly that factor, adding a measured edge never worsens a best
//!   alternate, and a one-hop alternate is never better than an
//!   unrestricted one.
//!
//! The random graphs come from `support/random_graphs.rs`. Most tests use
//! whole-millisecond RTTs, where equal-cost paths, and with them
//! tie-breaks, are common; the greedy loop also runs on lossy and
//! absorbing graphs.

use std::collections::HashMap;

use detour_core::analysis::cdf::{compare_graph, improvement_cdf};
use detour_core::analysis::hostremoval::greedy_removal_on;
use detour_core::kernel::{self, WeightMatrix};
use detour_core::metric::{Loss, MetricKind, Rtt};
use detour_core::{AnalysisContext, Pair, PathComparison, SearchDepth};
use detour_measure::{Dataset, HostId, PairTable};
use detour_prng::check::check;
use detour_prng::{Rng, Xoshiro256pp};

#[path = "support/random_graphs.rs"]
mod random_graphs;
use random_graphs::{random_graph, GraphKind};

/// A random sparse graph of `kind` as a dataset.
fn random_dataset(rng: &mut Xoshiro256pp, kind: GraphKind) -> Dataset {
    random_graph(rng, kind).build().unwrap()
}

/// `ds` without the hosts `drop` picks.
fn without(ds: &Dataset, mut drop: impl FnMut(HostId) -> bool) -> Dataset {
    let keep: Vec<HostId> = ds
        .hosts
        .iter()
        .map(|h| h.id)
        .filter(|&h| !drop(h))
        .collect();
    ds.restrict_to_hosts(&keep)
}

/// The weight matrix of `ds` without a random subset of its hosts, each
/// dropped with probability `p`.
fn random_restriction(rng: &mut Xoshiro256pp, ds: &Dataset, p: f64) -> WeightMatrix {
    WeightMatrix::build(&PairTable::build(&without(ds, |_| rng.gen_bool(p))), &Rtt)
}

/// Exhaustive best alternate (cheapest simple path, direct edge excluded)
/// by DFS over the *table* — shares nothing with the kernel's matrix or
/// Dijkstra.
fn brute_force_best(g: &PairTable, s: usize, d: usize) -> Option<f64> {
    if !g.measured(s, d) {
        return None;
    }
    fn dfs(
        g: &PairTable,
        cur: usize,
        d: usize,
        s: usize,
        cost: f64,
        visited: &mut Vec<bool>,
        best: &mut Option<f64>,
    ) {
        if cur == d {
            if best.is_none_or(|b| cost < b) {
                *best = Some(cost);
            }
            return;
        }
        for v in 0..g.len() {
            if visited[v] || (cur == s && v == d) {
                continue;
            }
            if let Some(m) = g.rtt(cur, v) {
                visited[v] = true;
                dfs(g, v, d, s, cost + m.mean, visited, best);
                visited[v] = false;
            }
        }
    }
    let mut best = None;
    let mut visited = vec![false; g.len()];
    visited[s] = true;
    dfs(g, s, d, s, 0.0, &mut visited, &mut best);
    best
}

#[test]
fn kernel_best_alternate_matches_brute_force_oracle() {
    check("kernel matches brute force", |rng| {
        let g = PairTable::build(&random_dataset(rng, GraphKind::WholeMs));
        let m = WeightMatrix::build(&g, &Rtt);
        let swept = by_pair(kernel::sweep(&m, SearchDepth::Unrestricted));
        for (s, d) in m.measured_pairs() {
            let pair = Pair {
                src: m.hosts()[s],
                dst: m.hosts()[d],
            };
            let got = swept.get(&pair);
            let expect = brute_force_best(&g, s, d);
            match (got, expect) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(
                        (a.alternate_value - b).abs() < 1e-9,
                        "pair ({s},{d}): kernel {} vs oracle {b}",
                        a.alternate_value
                    );
                    assert_eq!(a.default_value, m.value(s, d));
                }
                (a, b) => panic!("pair ({s},{d}): {a:?} vs oracle {b:?}"),
            }
        }
    });
}

#[test]
fn one_hop_kernel_matches_exhaustive_midpoint_scan() {
    check("one-hop matches midpoint scan", |rng| {
        let g = PairTable::build(&random_dataset(rng, GraphKind::WholeMs));
        let m = WeightMatrix::build(&g, &Rtt);
        let swept = by_pair(kernel::sweep(&m, SearchDepth::OneHop));
        for (s, d) in m.measured_pairs() {
            let pair = Pair {
                src: m.hosts()[s],
                dst: m.hosts()[d],
            };
            let got = swept.get(&pair);
            // Oracle: scan midpoints on the table directly.
            let mut best: Option<f64> = None;
            for mid in 0..g.len() {
                if mid == s || mid == d {
                    continue;
                }
                let (Some(v1), Some(v2)) = (Rtt.value(&g, s, mid), Rtt.value(&g, mid, d)) else {
                    continue;
                };
                let c = Rtt.compose(&[v1, v2]);
                if best.is_none_or(|b| c < b) {
                    best = Some(c);
                }
            }
            match (got, best) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(a.alternate_value, b),
                (a, b) => panic!("pair ({s},{d}): {a:?} vs oracle {b:?}"),
            }
        }
    });
}

#[test]
fn k_best_first_entry_matches_kernel_best() {
    check("k-best head equals best", |rng| {
        let ds = random_dataset(rng, GraphKind::WholeMs);
        let m = random_restriction(rng, &ds, 0.25);
        let swept = by_pair(kernel::sweep(&m, SearchDepth::Unrestricted));
        for (s, d) in m.measured_pairs() {
            let kb = detour_core::k_best_alternates_in(&m, s, d, 3);
            let pair = Pair {
                src: m.hosts()[s],
                dst: m.hosts()[d],
            };
            // Both re-settle a tree the kernel's one Dijkstra grew: the
            // head of the ranking is the sweep's best alternate itself —
            // same detour hosts, same bits, tie-breaks included.
            assert_eq!(kb.first(), swept.get(&pair), "pair ({s},{d})");
            // And the ranking is sorted best-first.
            for w in kb.windows(2) {
                assert!(w[0].alternate_value <= w[1].alternate_value);
            }
        }
    });
}

/// Every simple-path cost from `s` to `d` (direct edge excluded),
/// ascending: the ranking Yen's algorithm must reproduce.
fn all_alternate_costs(m: &WeightMatrix, s: usize, d: usize) -> Vec<f64> {
    fn dfs(m: &WeightMatrix, path: &mut Vec<usize>, d: usize, on: &mut [bool], out: &mut Vec<f64>) {
        let cur = *path.last().expect("non-empty path");
        if cur == d {
            out.push(path.windows(2).map(|w| m.value(w[0], w[1])).sum());
            return;
        }
        for v in 0..m.len() {
            if on[v] || (path.len() == 1 && v == d) || m.value(cur, v).is_nan() {
                continue;
            }
            on[v] = true;
            path.push(v);
            dfs(m, path, d, on, out);
            path.pop();
            on[v] = false;
        }
    }
    let mut on = vec![false; m.len()];
    on[s] = true;
    let mut out = Vec::new();
    dfs(m, &mut vec![s], d, &mut on, &mut out);
    out.sort_by(f64::total_cmp);
    out
}

#[test]
fn k_best_alternates_are_ranked_distinct_loop_free_detours() {
    check("Yen k-best properties", |rng| {
        let ds = random_dataset(rng, GraphKind::WholeMs);
        let m = if rng.gen_bool(0.5) {
            let victim = ds.hosts[rng.gen_range(0..ds.hosts.len())].id;
            WeightMatrix::build(&PairTable::build(&without(&ds, |h| h == victim)), &Rtt)
        } else {
            WeightMatrix::build(&PairTable::build(&ds), &Rtt)
        };
        for (s, d) in m.measured_pairs() {
            let kb = detour_core::k_best_alternates_in(&m, s, d, 6);
            let (src, dst) = (m.hosts()[s], m.hosts()[d]);
            for (i, a) in kb.iter().enumerate() {
                // A detour: at least one via host, so never the direct edge.
                assert!(!a.via.is_empty(), "({s},{d}) #{i} is the direct edge");
                // Loop-free: no repeated host, and never an endpoint.
                let mut hops = vec![src];
                hops.extend(&a.via);
                hops.push(dst);
                let mut seen = hops.clone();
                seen.sort();
                seen.dedup();
                assert_eq!(seen.len(), hops.len(), "({s},{d}) #{i} loops: {hops:?}");
                // Distinct from every better-ranked alternate.
                assert!(
                    kb[..i].iter().all(|b| b.via != a.via),
                    "({s},{d}) #{i} repeats"
                );
            }
            // Costs never decrease as k grows, and the first k are the k
            // cheapest simple detours.
            let costs: Vec<f64> = kb.iter().map(|a| a.alternate_value).collect();
            assert!(
                costs.windows(2).all(|w| w[0] <= w[1]),
                "({s},{d}) {costs:?}"
            );
            let all = all_alternate_costs(&m, s, d);
            assert_eq!(costs, all[..all.len().min(6)], "({s},{d})");
            // A smaller k returns a prefix of the larger ranking.
            for k in 1..kb.len() {
                let fewer = detour_core::k_best_alternates_in(&m, s, d, k);
                assert_eq!(fewer, kb[..k], "({s},{d}) k={k}");
            }
        }
    });
}

/// The sweep of `ds`'s table rebuilt without the `removed` hosts, by
/// `metric`.
fn rebuilt_sweep(ds: &Dataset, removed: &[HostId], metric: &MetricKind) -> Vec<PathComparison> {
    let table = PairTable::build(&without(ds, |h| removed.contains(&h)));
    compare_graph(&table, metric, SearchDepth::Unrestricted)
}

/// The incremental greedy loop on `ds`'s context matrix against the plain
/// one: the same hosts removed, the reduced CDF equal point for point,
/// bit for bit, and the loop's last view equal to the sweep of the table
/// rebuilt without every removed host — detour hosts and tie-breaks
/// included.
fn assert_greedy_matches_full_sweeps(ds: &Dataset, metric: &MetricKind) {
    let cx = AnalysisContext::from_dataset(ds);
    let m = cx.weights(metric);
    let k = m.len();
    let (got, view) = greedy_removal_on(m, k);

    // The plain greedy: score every surviving candidate by the mean
    // improvement of the table rebuilt without it; the lowest mean wins,
    // ties go to the lowest id.
    let mut removed = Vec::new();
    for _ in 0..k.min(m.len().saturating_sub(3)) {
        let mut best: Option<(f64, HostId)> = None;
        for &h in m.hosts().iter().filter(|h| !removed.contains(*h)) {
            let cs = rebuilt_sweep(ds, &[&removed[..], &[h]].concat(), metric);
            let pos = if cs.is_empty() {
                f64::NEG_INFINITY
            } else {
                cs.iter().map(|c| c.improvement()).sum::<f64>() / cs.len() as f64
            };
            if best.is_none_or(|(b, bh)| pos < b || (pos == b && h < bh)) {
                best = Some((pos, h));
            }
        }
        let Some((_, h)) = best else { break };
        removed.push(h);
    }
    let swept = rebuilt_sweep(ds, &removed, metric);
    let reduced = improvement_cdf(&swept);

    assert_eq!(got.removed, removed);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got.reduced.values()), bits(reduced.values()));
    assert_eq!(view, swept);
}

#[test]
fn greedy_removal_matches_a_full_sweep_per_candidate() {
    check("incremental greedy equals plain greedy", |rng| {
        assert_greedy_matches_full_sweeps(&random_dataset(rng, GraphKind::WholeMs), &Rtt);
        assert_greedy_matches_full_sweeps(&random_dataset(rng, GraphKind::Lossy), &Loss);
        assert_greedy_matches_full_sweeps(&random_dataset(rng, GraphKind::Absorbing), &Rtt);
    });
}

/// `ds` with every RTT sample multiplied by `c`.
fn scaled(ds: &Dataset, c: f64) -> Dataset {
    let mut out = ds.clone();
    out.probes = ds
        .probes
        .iter()
        .map(|mut p| {
            p.rtt_ms = p.rtt_ms.map(|r| r * c);
            p
        })
        .collect();
    out
}

#[test]
fn scaling_rtts_by_a_power_of_two_scales_improvements_exactly() {
    check("power-of-two RTT scaling", |rng| {
        let ds = random_dataset(rng, GraphKind::WholeMs);
        let c = [0.25, 0.5, 2.0, 8.0][rng.gen_range(0..4usize)];
        let (g, gc) = (PairTable::build(&ds), PairTable::build(&scaled(&ds, c)));
        for depth in [SearchDepth::Unrestricted, SearchDepth::OneHop] {
            let base = compare_graph(&g, &Rtt, depth);
            let big = compare_graph(&gc, &Rtt, depth);
            assert_eq!(base.len(), big.len(), "{depth:?} x{c}: pair count");
            for (a, b) in base.iter().zip(&big) {
                assert_eq!((a.pair, &a.via), (b.pair, &b.via), "{depth:?} x{c}");
                assert_eq!(
                    (a.improvement() * c).to_bits(),
                    b.improvement().to_bits(),
                    "{depth:?} x{c}: {:?}",
                    a.pair
                );
            }
        }
    });
}

/// The sweep keyed by pair.
fn by_pair(cs: Vec<PathComparison>) -> HashMap<Pair, PathComparison> {
    cs.into_iter().map(|c| (c.pair, c)).collect()
}

#[test]
fn adding_a_measured_edge_never_worsens_a_best_alternate() {
    check("added edge never hurts", |rng| {
        let mut b = random_graph(rng, GraphKind::WholeMs);
        let g = PairTable::build(&b.build().unwrap());
        let n = g.len();
        let unmeasured: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j && !g.measured(i, j))
            .collect();
        if unmeasured.is_empty() {
            return;
        }
        let (i, j) = unmeasured[rng.gen_range(0..unmeasured.len())];
        let rtt = rng.gen_range(1.0..100.0f64).round();
        // Host ids equal the table's dense indices.
        let (s, d) = (i as u32, j as u32);
        b.probe(s, d, 0.0, Some(rtt)).probe(s, d, 1.0, Some(rtt));
        let g2 = PairTable::build(&b.build().unwrap());
        assert!(g2.measured(i, j), "the new edge must be measured");
        for depth in [SearchDepth::Unrestricted, SearchDepth::OneHop] {
            let after = by_pair(compare_graph(&g2, &Rtt, depth));
            for before in compare_graph(&g, &Rtt, depth) {
                let now = after
                    .get(&before.pair)
                    .unwrap_or_else(|| panic!("{depth:?} {:?} lost its alternate", before.pair));
                assert!(
                    now.alternate_value <= before.alternate_value,
                    "{depth:?} {:?}: {} -> {} after adding ({i},{j})",
                    before.pair,
                    before.alternate_value,
                    now.alternate_value
                );
            }
        }
    });
}

#[test]
fn one_hop_alternates_never_beat_unrestricted_ones() {
    check("one-hop never beats unrestricted", |rng| {
        let g = PairTable::build(&random_dataset(rng, GraphKind::WholeMs));
        let unrestricted = by_pair(compare_graph(&g, &Rtt, SearchDepth::Unrestricted));
        for one in compare_graph(&g, &Rtt, SearchDepth::OneHop) {
            let any = unrestricted
                .get(&one.pair)
                .unwrap_or_else(|| panic!("{:?}: one-hop alternate but no path", one.pair));
            assert!(
                one.alternate_value >= any.alternate_value,
                "{:?}: one-hop {} beats unrestricted {}",
                one.pair,
                one.alternate_value,
                any.alternate_value
            );
        }
    });
}
