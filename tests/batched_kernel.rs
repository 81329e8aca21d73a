//! The batched-kernel safety net: the source-batched sweep
//! (`detour_core::kernel::sweep`) must be a pure performance change over
//! the per-pair Dijkstra it replaced, which lives on verbatim as
//! [`detour_bench::reference::per_pair_sweep`]. Every comparison here is
//! full structural equality — same pairs in the same order, same values
//! bit for bit, same detour hosts (tie-breaks included) — at 1, 2, and 8
//! worker threads, under random host masks, for both search depths, on
//! random graphs and on a pipeline-generated dataset across all three
//! additive metrics.
//!
//! Property tests run on the in-tree deterministic harness
//! (`detour_prng::check`; replay a failing case with
//! `DETOUR_PROP_SEED=<seed>`).

use detour::core::altpath::SearchDepth;
use detour::core::kernel::{self, WeightMatrix};
use detour::core::metric::{Loss, PropDelay, Rtt};
use detour::core::pool;
use detour::core::AnalysisContext;
use detour::datasets::DatasetId;
use detour::measure::{Dataset, PairTable};
use detour_bench::reference;
use detour_prng::check::check;
use detour_prng::{Rng, Xoshiro256pp};

/// Random sparse RTT matrix → dataset (NaN = unmeasured edge), the same
/// shape the kernel property tests use in-crate.
fn random_dataset(rng: &mut Xoshiro256pp) -> Dataset {
    let n = rng.gen_range(4..10usize);
    let missing = rng.gen_range(0.1..0.5f64);
    let mut b = Dataset::builder("B");
    b.hosts(n as u32);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            if i == j || rng.gen_bool(missing) {
                continue;
            }
            let rtt = rng.gen_range(1.0..100.0f64).round();
            b.probe(i, j, 0.0, Some(rtt)).probe(i, j, 1.0, Some(rtt));
        }
    }
    b.build().unwrap()
}

/// A random host-removal mask: each host masked with probability ~1/3,
/// sampled independently of the graph.
fn random_mask(rng: &mut Xoshiro256pp, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen_bool(0.33)).collect()
}

/// Runs one batched sweep under a fresh scoped recorder and returns the
/// comparisons plus the `kernel/sweep_*` counters it recorded:
/// `(pairs, fixups, avoided)`.
fn sweep_with_counters(
    m: &WeightMatrix,
    mask: &[bool],
    depth: SearchDepth,
) -> (Vec<detour::core::altpath::PathComparison>, (u64, u64, u64)) {
    let rec = detour_obs::Recorder::new();
    let _g = detour_obs::install(rec.clone());
    let got = kernel::sweep(m, mask, depth);
    let counts = (
        rec.counter("kernel/sweep_pairs"),
        rec.counter("kernel/sweep_fixups"),
        rec.counter("kernel/sweep_avoided"),
    );
    (got, counts)
}

/// Asserts batched == per-pair on one (matrix, mask, depth) cell at 1, 2,
/// and 8 threads, plus the counter bookkeeping invariant.
fn assert_equivalent(m: &WeightMatrix, mask: &[bool], depth: SearchDepth) {
    pool::set_threads(1);
    let expect = reference::per_pair_sweep(m, mask, depth);
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let (got, (pairs, fixups, avoided)) = sweep_with_counters(m, mask, depth);
        assert_eq!(got, expect, "threads={threads}");
        // Pairs whose destination is unreachable under the mask return no
        // comparison but still count in `pairs` (as avoided re-searches).
        assert!(got.len() as u64 <= pairs, "threads={threads}");
        match depth {
            SearchDepth::Unrestricted => assert_eq!(
                fixups + avoided,
                pairs,
                "threads={threads}: every pair is either fixed up or avoided"
            ),
            // One-hop scans never run an exclusion search, so the fix-up
            // counters stay zero by definition.
            SearchDepth::OneHop => {
                assert_eq!((fixups, avoided), (0, 0), "one-hop never fixes up")
            }
        }
    }
    pool::set_threads(0);
}

#[test]
fn batched_sweep_matches_per_pair_reference_on_random_masked_graphs() {
    check("batched sweep equals per-pair reference", |rng| {
        let m = WeightMatrix::build(&PairTable::build(&random_dataset(rng)), &Rtt);
        let mask = random_mask(rng, m.len());
        for depth in [SearchDepth::Unrestricted, SearchDepth::OneHop] {
            assert_equivalent(&m, &mask, depth);
        }
    });
}

#[test]
fn batched_sweep_matches_reference_on_a_generated_dataset_for_every_metric() {
    // A dataset out of the real pipeline (simulated network, traceroute
    // campaign, rate-limit policy) rather than a synthetic matrix: loss
    // and propagation-delay weights exercise compose paths the synthetic
    // RTT matrices never touch (log-space loss weights can be exactly 0).
    let ds = DatasetId::Uw3.generate_scaled(12, 24);
    let cx = AnalysisContext::from_dataset(&ds);
    let no_mask = cx.weights(&Rtt).no_mask();
    let mut rng = Xoshiro256pp::seed_from_u64(0xba7c4ed);
    let mask = random_mask(&mut rng, no_mask.len());
    for depth in [SearchDepth::Unrestricted, SearchDepth::OneHop] {
        assert_equivalent(cx.weights(&Rtt), &no_mask, depth);
        assert_equivalent(cx.weights(&Rtt), &mask, depth);
        assert_equivalent(cx.weights(&Loss), &no_mask, depth);
        assert_equivalent(cx.weights(&PropDelay), &mask, depth);
    }
}

#[test]
fn fixup_counting_is_thread_count_invariant() {
    let ds = DatasetId::Uw3.generate_scaled(10, 24);
    let cx = AnalysisContext::from_dataset(&ds);
    let m = cx.weights(&Rtt);
    let mask = m.no_mask();
    let mut baseline: Option<(u64, u64, u64)> = None;
    for threads in [1usize, 2, 8] {
        pool::set_threads(threads);
        let (_, counts) = sweep_with_counters(m, &mask, SearchDepth::Unrestricted);
        assert!(counts.0 > 0, "the scaled dataset must have measured pairs");
        match &baseline {
            None => baseline = Some(counts),
            Some(b) => assert_eq!(*b, counts, "threads={threads} changed the counters"),
        }
    }
    pool::set_threads(0);
}
