//! Cross-crate property-based tests, on the in-tree deterministic harness.
//!
//! Module-level property tests live in each crate; these exercise
//! invariants that only hold across crate boundaries — dataset assembly
//! feeding the measurement graph (the pair table) feeding the
//! alternate-path search.

use std::collections::HashMap;

use detour::core::analysis::cdf::compare_all_pairs;
use detour::core::{AnalysisContext, Loss, MetricKind, Pair, PathComparison, Rtt, SearchDepth};
use detour::measure::{Dataset, HostId};
use detour::prng::check::check;
use detour::prng::{Rng, Xoshiro256pp};
use detour::stats::Cdf;

/// Builds a dataset from a generated RTT/loss matrix.
fn dataset_from(matrix: &[Vec<Option<(f64, bool)>>]) -> Dataset {
    let mut b = Dataset::builder("prop");
    b.hosts(matrix.len() as u32);
    for (i, row) in matrix.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            if i == j {
                continue;
            }
            if let Some((rtt, lossy)) = cell {
                // Three probes per edge: one lost when `lossy`.
                for k in 0..3u8 {
                    let lost = *lossy && k == 0;
                    let rtt = (!lost).then_some(*rtt);
                    b.probe_with(i as u32, j as u32, k as f64, rtt, |p| p.probe_index = k);
                }
            }
        }
    }
    b.build().unwrap()
}

/// Generates a small adjacency matrix with random RTTs, some edges missing,
/// some lossy.
fn matrix(rng: &mut Xoshiro256pp) -> Vec<Vec<Option<(f64, bool)>>> {
    let n = rng.gen_range(3..7usize);
    (0..n)
        .map(|_| {
            (0..n)
                .map(|_| {
                    rng.gen_bool(0.8)
                        .then(|| (rng.gen_range(1.0..300.0f64).round(), rng.gen_bool(0.5)))
                })
                .collect()
        })
        .collect()
}

/// Every measured pair's best unrestricted alternate under `metric`.
fn alternates(ds: &Dataset, metric: &MetricKind) -> (AnalysisContext, Vec<PathComparison>) {
    let cx = AnalysisContext::from_dataset(ds);
    let cs = compare_all_pairs(&cx, metric, SearchDepth::Unrestricted);
    (cx, cs)
}

/// The table indices of a comparison's hops, endpoints included.
fn hop_indices(cx: &AnalysisContext, cmp: &PathComparison) -> Vec<usize> {
    cmp.hops()
        .map(|h| {
            cx.table()
                .host_index(h)
                .expect("compared hosts are in the table")
        })
        .collect()
}

#[test]
fn alternate_is_never_better_than_true_shortest_path() {
    check("alternate_is_never_better_than_true_shortest_path", |rng| {
        // The best alternate (direct edge removed) can never beat the true
        // shortest path (direct edge included) — removing an edge never
        // shortens routes.
        let (_, cs) = alternates(&dataset_from(&matrix(rng)), &Rtt);
        for cmp in cs {
            let direct = cmp.default_value;
            // True shortest path <= min(direct, alternate); so the
            // alternate must be >= shortest-with-direct, i.e. it can't
            // undercut a *shorter* direct edge by going around.
            assert!(cmp.alternate_value + 1e-9 >= direct.min(cmp.alternate_value));
            // And the comparison orientation is consistent.
            assert_eq!(cmp.alternate_wins(), cmp.improvement() > 0.0);
        }
    });
}

#[test]
fn via_hosts_form_a_simple_path() {
    check("via_hosts_form_a_simple_path", |rng| {
        let (cx, cs) = alternates(&dataset_from(&matrix(rng)), &Rtt);
        for cmp in cs {
            // No repeated intermediates, endpoints excluded.
            let mut seen = std::collections::HashSet::new();
            for &h in &cmp.via {
                assert!(h != cmp.pair.src && h != cmp.pair.dst);
                assert!(seen.insert(h), "repeated via host {h:?}");
            }
            // Every consecutive hop uses a measured edge, and composing
            // the edge values reproduces alternate_value.
            let mut sum = 0.0;
            for w in hop_indices(&cx, &cmp).windows(2) {
                let v = Rtt.value(cx.table(), w[0], w[1]);
                assert!(v.is_some(), "missing edge {}->{}", w[0], w[1]);
                sum += v.unwrap();
            }
            assert!((sum - cmp.alternate_value).abs() < 1e-9);
        }
    });
}

#[test]
fn loss_composition_is_bounded_and_monotone() {
    check("loss_composition_is_bounded_and_monotone", |rng| {
        let (cx, cs) = alternates(&dataset_from(&matrix(rng)), &Loss);
        for cmp in cs {
            assert!((0.0..=1.0).contains(&cmp.alternate_value));
            // Composed loss is at least the max of any constituent's
            // loss (independence can only make things worse).
            let max_leg = hop_indices(&cx, &cmp)
                .windows(2)
                .map(|w| Loss.value(cx.table(), w[0], w[1]).unwrap())
                .fold(0.0f64, f64::max);
            assert!(cmp.alternate_value >= max_leg - 1e-9);
        }
    });
}

#[test]
fn improvement_cdf_is_a_distribution() {
    check("improvement_cdf_is_a_distribution", |rng| {
        let (_, cs) = alternates(&dataset_from(&matrix(rng)), &Rtt);
        let improvements: Vec<f64> = cs.iter().map(|c| c.improvement()).collect();
        let cdf = Cdf::from_samples(improvements.iter().copied());
        // Monotone, bounded, complete.
        let mut prev = 0.0;
        for (_, y) in cdf.points() {
            assert!(y >= prev);
            assert!((0.0..=1.0).contains(&y));
            prev = y;
        }
        assert_eq!(cdf.len(), improvements.len());
    });
}

#[test]
fn removing_hosts_never_invents_better_alternates() {
    check("removing_hosts_never_invents_better_alternates", |rng| {
        // Dropping a vertex can only remove detour options: for any pair
        // still present, the best alternate in the reduced graph is no
        // better than in the full graph.
        let ds = dataset_from(&matrix(rng));
        if ds.hosts.len() < 4 {
            return;
        }
        let (_, full) = alternates(&ds, &Rtt);
        let full: HashMap<Pair, f64> = full.iter().map(|c| (c.pair, c.alternate_value)).collect();
        let survivors: Vec<HostId> = ds.hosts[..ds.hosts.len() - 1]
            .iter()
            .map(|h| h.id)
            .collect();
        let (_, reduced) = alternates(&ds.restrict_to_hosts(&survivors), &Rtt);
        for r in reduced {
            if let Some(&f) = full.get(&r.pair) {
                assert!(r.alternate_value + 1e-9 >= f);
            }
        }
    });
}

#[test]
fn pair_type_is_directional() {
    let p = Pair {
        src: HostId(1),
        dst: HostId(2),
    };
    let q = Pair {
        src: HostId(2),
        dst: HostId(1),
    };
    assert_ne!(p, q);
}
