//! Property tests for the flat weight-matrix kernel, on the in-tree
//! deterministic harness (`detour_prng::check`; replay a failing case with
//! `DETOUR_PROP_SEED=<seed>`).
//!
//! Two families of invariants:
//!
//! * **Correctness**: the kernel's Dijkstra agrees with an exhaustive
//!   brute-force search over simple paths on random graphs — an oracle
//!   that shares no code with the kernel.
//! * **Mask = rebuild**: sweeping with `masked(host)` must equal sweeping
//!   a table rebuilt from the dataset without that host, value for value —
//!   the invariant that lets the Figure-12 greedy loop drop its
//!   rebuild-per-candidate.

use detour_core::analysis::cdf::compare_graph;
use detour_core::kernel::{self, DijkstraScratch, WeightMatrix};
use detour_core::metric::{Metric, Rtt};
use detour_core::SearchDepth;
use detour_measure::record::HostMeta;
use detour_measure::{Dataset, HostId, PairTable, ProbeSample};
use detour_prng::check::check;
use detour_prng::{Rng, Xoshiro256pp};

/// Random sparse RTT matrix → dataset (NaN = unmeasured edge).
fn random_dataset(rng: &mut Xoshiro256pp) -> Dataset {
    let n = rng.gen_range(4..9usize);
    let missing = rng.gen_range(0.1..0.5f64);
    let hosts = (0..n as u32)
        .map(|id| HostMeta {
            id: HostId(id),
            name: format!("h{id}"),
            asn: id as u16,
            truly_rate_limited: false,
        })
        .collect();
    let mut probes = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j || rng.gen_bool(missing) {
                continue;
            }
            let rtt = rng.gen_range(1.0..100.0f64).round();
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
        name: "P".into(),
        hosts,
        probes,
        transfers: vec![],
        as_paths: vec![vec![0]],
        duration_s: 10.0,
        detected_rate_limited: vec![],
        starved_pairs: 0,
    }
}

/// The table rebuilt from `ds` without host `victim`.
fn without(ds: &Dataset, victim: HostId) -> PairTable {
    let others: Vec<HostId> = ds
        .hosts
        .iter()
        .map(|h| h.id)
        .filter(|&h| h != victim)
        .collect();
    PairTable::build(&ds.restrict_to_hosts(&others))
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
        let g = PairTable::build(&random_dataset(rng));
        let m = WeightMatrix::build(&g, &Rtt);
        let mask = m.no_mask();
        let mut scratch = DijkstraScratch::new();
        for (s, d) in m.measured_pairs(&mask) {
            let got = kernel::best_alternate_masked(&m, &mask, s, d, &Rtt, &mut scratch);
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
        let g = PairTable::build(&random_dataset(rng));
        let m = WeightMatrix::build(&g, &Rtt);
        let mask = m.no_mask();
        for (s, d) in m.measured_pairs(&mask) {
            let got = kernel::best_alternate_one_hop_masked(&m, &mask, s, d, &Rtt);
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
fn masked_sweep_equals_rebuilt_table_sweep() {
    check("masked sweep equals rebuilt table", |rng| {
        let ds = random_dataset(rng);
        let m = WeightMatrix::build(&PairTable::build(&ds), &Rtt);
        let victim = HostId(rng.gen_range(0..m.len() as u32));
        let masked = kernel::sweep(&m, &m.masked(victim), &Rtt, SearchDepth::Unrestricted);
        let rebuilt = compare_graph(&without(&ds, victim), &Rtt, SearchDepth::Unrestricted);
        // Full structural equality: same pairs in the same order, same
        // values bit for bit, same detour hosts (tie-breaks included).
        assert_eq!(masked, rebuilt);
    });
}

#[test]
fn masked_one_hop_sweep_equals_rebuilt_table_sweep() {
    check("masked one-hop equals rebuilt table", |rng| {
        let ds = random_dataset(rng);
        let m = WeightMatrix::build(&PairTable::build(&ds), &Rtt);
        let victim = HostId(rng.gen_range(0..m.len() as u32));
        let masked = kernel::sweep(&m, &m.masked(victim), &Rtt, SearchDepth::OneHop);
        let rebuilt = compare_graph(&without(&ds, victim), &Rtt, SearchDepth::OneHop);
        assert_eq!(masked, rebuilt);
    });
}

#[test]
fn k_best_first_entry_matches_kernel_best() {
    check("k-best head equals best", |rng| {
        let m = WeightMatrix::build(&PairTable::build(&random_dataset(rng)), &Rtt);
        let mask = m.no_mask();
        let mut scratch = DijkstraScratch::new();
        for (s, d) in m.measured_pairs(&mask) {
            let kb = detour_core::k_best_alternates_in(&m, &mask, s, d, &Rtt, 3);
            let best = kernel::best_alternate_masked(&m, &mask, s, d, &Rtt, &mut scratch);
            match (kb.first(), best) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!((a.alternate_value - b.alternate_value).abs() < 1e-9);
                    // And the ranking is sorted best-first.
                    for w in kb.windows(2) {
                        assert!(w[0].alternate_value <= w[1].alternate_value);
                    }
                }
                (a, b) => panic!("pair ({s},{d}): {a:?} vs {b:?}"),
            }
        }
    });
}
