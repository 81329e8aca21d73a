//! The observability layer's hard invariant, end to end: **counters are
//! workload-derived, never scheduling-derived**. One seeded pipeline run —
//! network generation with injected faults, a measurement campaign,
//! dataset assembly, context construction, and a batched kernel sweep —
//! must record bit-identical counter maps at 1, 2, and 8 pool workers.
//! Spans and gauges are the timing domain and are explicitly *excluded*:
//! their durations change with the thread count by design, so the
//! comparison below strips them and pins the counters alone.

use std::collections::BTreeMap;

use detour::core::altpath::SearchDepth;
use detour::core::{kernel, pool, AnalysisContext, Rtt};
use detour::datasets::{self, Scale};
use detour_faults::FaultConfig;

/// Runs the whole seeded workload under a fresh scoped recorder at the
/// given worker count and returns the counter map.
fn counters_at(threads: usize) -> BTreeMap<String, u64> {
    pool::set_threads(threads);
    let rec = detour_obs::Recorder::new();
    let _g = detour_obs::install(rec.clone());

    // Generation with faults: ticks net/*, dataset/*, faults/*, pool/*.
    let mut spec = datasets::uw3::spec();
    spec.faults = FaultConfig::heavy(7);
    let ds = datasets::generate(&spec, Scale::reduced(8, 24));

    // Analysis: ticks context/* and kernel/*.
    let cx = AnalysisContext::from_dataset(&ds);
    let swept = kernel::sweep(cx.weights(&Rtt), SearchDepth::Unrestricted);
    assert!(!swept.is_empty(), "workload must do real kernel work");

    pool::set_threads(0);
    rec.snapshot().counters
}

#[test]
fn counters_are_bit_identical_across_worker_counts() {
    let one = counters_at(1);
    assert!(
        one.keys().any(|k| k.starts_with("faults/")),
        "the heavy fault config must tick fault counters: {:?}",
        one.keys().collect::<Vec<_>>()
    );
    assert!(
        one.contains_key("kernel/sweep_pairs"),
        "kernel counters present"
    );
    assert!(one.contains_key("pool/items"), "pool counters present");
    for threads in [2usize, 8] {
        let got = counters_at(threads);
        assert_eq!(
            one, got,
            "counter map at {threads} workers differs from 1 worker"
        );
    }
}
